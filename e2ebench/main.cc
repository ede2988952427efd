// dodb_e2e: the end-to-end benchmark harness.
//
//   dodb_e2e --workload <serve_read|serve_write|tc_fixpoint> --seed <n>
//            --seconds <s> --trace <0|1> [--tiny] [--corrupt-reference]
//            [--work-dir <dir>] [--git-sha <sha>] [--source-digest <hex>]
//
// Prints provenance and every metric as comment lines, then, as the last
// line of standard output, one JSON object: correct, attempted, failed and
// metrics. --trace 0 reports the end-to-end metrics, --trace 1 the
// per-layer metrics of the traced replay. Exit status: 0 when every answer
// was right, 1 when the run was measured but a check failed, 2 when no
// result could be produced (bad arguments, unoptimized build, failed
// set-up).

#include <sys/stat.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"
#include "layers.h"

#ifndef E2E_BUILD_TYPE
#define E2E_BUILD_TYPE "unknown"
#endif

namespace dodb {
namespace e2e {
namespace {

int Usage(const char* why) {
  fprintf(stderr,
          "error: %s\nusage: dodb_e2e --workload <serve_read|serve_write|"
          "tc_fixpoint> --seed <n> --seconds <s> --trace <0|1> [--tiny] "
          "[--corrupt-reference] [--work-dir <dir>] [--git-sha <sha>] "
          "[--source-digest <hex>]\n",
          why);
  return 2;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string Number(double v) {
  char buf[64];
  snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

bool OptimizedBuild() {
#ifdef __OPTIMIZE__
  const std::string type = E2E_BUILD_TYPE;
  return type == "Release" || type == "RelWithDebInfo" ||
         type == "MinSizeRel";
#else
  return false;
#endif
}

// Workload-specific names (error_frac, write_*, fixpoints_per_s) for this
// benchmark's workload-neutral metrics; printed for readers, not part of
// the result.
void PrintAliases(const Options& options, const RunResult& result) {
  auto value = [&](const char* name) {
    auto it = result.metrics.find(name);
    return it == result.metrics.end() ? 0.0 : it->second.value;
  };
  printf("# alias error_frac = %s frac\n",
         Number(1.0 - value("ok_frac")).c_str());
  if (options.workload == "serve_write") {
    printf("# alias write_p50_ms = %s ms\n", Number(value("op_p50_ms")).c_str());
    printf("# alias write_p90_ms = %s ms\n", Number(value("op_p90_ms")).c_str());
    printf("# alias write_per_s = %s 1/s\n", Number(value("ops_per_s")).c_str());
  } else if (options.workload == "tc_fixpoint") {
    printf("# alias fixpoints_per_s = %s 1/s\n",
           Number(value("ops_per_s")).c_str());
  }
}

int Main(int argc, char** argv) {
  Options options;
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
  bool have_seed = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--tiny") {
      options.tiny = true;
      continue;
    }
    if (arg == "--corrupt-reference") {
      options.corrupt_reference = true;
      continue;
    }
    const char* v = next();
    if (v == nullptr) return Usage(("missing value for " + arg).c_str());
    char* end = nullptr;
    if (arg == "--workload") {
      options.workload = v;
    } else if (arg == "--seed") {
      options.seed = strtoull(v, &end, 10);
      if (*v == '\0' || *end != '\0') return Usage("bad --seed");
      have_seed = true;
    } else if (arg == "--seconds") {
      options.seconds = strtod(v, &end);
      if (*v == '\0' || *end != '\0' || !(options.seconds > 0) ||
          options.seconds > 120) {
        return Usage("--seconds must be in (0, 120]");
      }
    } else if (arg == "--trace") {
      if (strcmp(v, "0") != 0 && strcmp(v, "1") != 0) {
        return Usage("--trace must be 0 or 1");
      }
      options.trace = strcmp(v, "1") == 0;
      have_trace = true;
    } else if (arg == "--work-dir") {
      options.work_dir = v;
    } else if (arg == "--git-sha") {
      git_sha = v;
    } else if (arg == "--source-digest") {
      source_digest = v;
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_seed || !have_trace) return Usage("--seed and --trace required");
  RunResult (*run)(const Options&) = nullptr;
  if (options.workload == "serve_read") run = RunServeRead;
  if (options.workload == "serve_write") run = RunServeWrite;
  if (options.workload == "tc_fixpoint") run = RunTcFixpoint;
  if (run == nullptr) return Usage("unknown --workload");
  if (!OptimizedBuild()) {
    fprintf(stderr,
            "error: refusing to measure an unoptimized build (build type "
            "'%s'); configure with -DCMAKE_BUILD_TYPE=Release\n",
            E2E_BUILD_TYPE);
    return 2;
  }
  if (options.work_dir.empty()) options.work_dir = ".";
  ::mkdir(options.work_dir.c_str(), 0755);

  const int nproc = HardwareThreads();
  if (nproc == 1) {
    fprintf(stderr,
            "warning: 1-CPU host; parallel speedups cannot show here\n");
  }
  printf(
      "# meta {\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%s,\"trace\":%d,"
      "\"tiny\":%s,\"git_sha\":\"%s\",\"source_digest\":\"%s\","
      "\"build_type\":\"%s\",\"compiler\":\"gcc %s\",\"nproc\":%d,"
      "\"single_cpu_host\":%s,\"engine_threads\":%d}\n",
      options.workload.c_str(), static_cast<unsigned long long>(options.seed),
      Number(options.seconds).c_str(), options.trace ? 1 : 0,
      options.tiny ? "true" : "false", JsonEscape(git_sha).c_str(),
      JsonEscape(source_digest).c_str(), E2E_BUILD_TYPE,
      JsonEscape(__VERSION__).c_str(), nproc, nproc == 1 ? "true" : "false",
      DefaultNumThreads());
  fflush(stdout);

  RunResult result = run(options);
  if (result.attempted == 0) {
    fprintf(stderr, "error: the %s run produced no operations\n",
            options.workload.c_str());
    return 2;
  }
  result.Set("peak_rss_mb", PeakRssMb(), "MiB");
  result.Set("ok_frac", OkFrac(result.attempted, result.failed), "frac");

  const std::vector<MetricSpec>& specs =
      options.trace ? PerLayerMetrics() : EndToEndMetrics();
  std::string metrics;
  for (const MetricSpec& spec : specs) {
    auto it = result.metrics.find(spec.name);
    if (it == result.metrics.end()) {
      if (!options.trace) {
        fprintf(stderr, "error: metric %s was not measured\n",
                spec.name.c_str());
        return 2;
      }
      // A layer this workload never calls.
      result.Set(spec.name, 0.0, spec.unit);
      it = result.metrics.find(spec.name);
    }
    if (!std::isfinite(it->second.value) || it->second.unit != spec.unit) {
      fprintf(stderr, "error: metric %s = %g %s is not a finite %s value\n",
              spec.name.c_str(), it->second.value,
              it->second.unit.c_str(), spec.unit.c_str());
      return 2;
    }
    printf("# metric %s = %s %s\n", spec.name.c_str(),
           Number(it->second.value).c_str(), spec.unit.c_str());
    if (!metrics.empty()) metrics += ", ";
    metrics += StrCat("\"", spec.name, "\": {\"value\": ",
                      Number(it->second.value), ", \"unit\": \"", spec.unit,
                      "\"}");
  }
  for (const auto& [key, value] : result.info) {
    printf("# info %s: %s\n", key.c_str(), value.c_str());
  }
  if (!options.trace) PrintAliases(options, result);
  printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
         "\"metrics\": {%s}}\n",
         result.correct ? "true" : "false",
         static_cast<unsigned long long>(result.attempted),
         static_cast<unsigned long long>(result.failed), metrics.c_str());
  fflush(stdout);
  return result.correct ? 0 : 1;
}

}  // namespace
}  // namespace e2e
}  // namespace dodb

int main(int argc, char** argv) { return dodb::e2e::Main(argc, argv); }
