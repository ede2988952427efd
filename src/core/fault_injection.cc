#include "core/fault_injection.h"

#include <cstdlib>

#include "core/str_util.h"

namespace dodb {

// Enum order. A new GuardSite must be added here (and to GuardSiteName's
// switch) before any code can arm it; ValidateFaultSiteRegistry enforces
// the correspondence at startup.
const FaultSiteInfo kAllFaultSites[kGuardSiteCount] = {
    {GuardSite::kAlgebraMaterialize, "algebra-materialize"},
    {GuardSite::kShardJoin, "shard-join"},
    {GuardSite::kClosureSweep, "closure-sweep"},
    {GuardSite::kQuantifierElim, "quantifier-elim"},
    {GuardSite::kFoStep, "fo-step"},
    {GuardSite::kLinearFo, "linear-fo"},
    {GuardSite::kCellEnumerate, "cell-enumerate"},
    {GuardSite::kDatalogRound, "datalog-round"},
    {GuardSite::kDatalogRule, "datalog-rule"},
    {GuardSite::kCCalcFixpoint, "ccalc-fixpoint"},
    {GuardSite::kSnapshotWrite, "snapshot-write"},
    {GuardSite::kSnapshotRename, "snapshot-rename"},
    {GuardSite::kWalAppend, "wal-append"},
    {GuardSite::kWalSync, "wal-sync"},
    {GuardSite::kWalReplay, "wal-replay"},
    {GuardSite::kViewDeltaApply, "view-delta-apply"},
    {GuardSite::kViewRederive, "view-rederive"},
    {GuardSite::kWalSyncDegrade, "wal-sync-degrade"},
    {GuardSite::kServerAccept, "server-accept"},
    {GuardSite::kServerRead, "server-read"},
    {GuardSite::kServerWrite, "server-write"},
    {GuardSite::kSessionCommit, "session-commit"},
    {GuardSite::kTxnBegin, "txn-begin"},
    {GuardSite::kTxnCommitValidate, "txn-commit-validate"},
    {GuardSite::kTxnWalCommit, "txn-wal-commit"},
};

Status ValidateFaultSiteRegistry() {
  for (int i = 0; i < kGuardSiteCount; ++i) {
    const FaultSiteInfo& info = kAllFaultSites[i];
    if (static_cast<int>(info.site) != i) {
      return Status::Internal(
          StrCat("fault-site registry entry ", i, " holds site ",
                 static_cast<int>(info.site), " — table out of enum order"));
    }
    const char* enum_name = GuardSiteName(info.site);
    if (std::string(enum_name) == "unknown") {
      return Status::Internal(
          StrCat("GuardSite ", i, " has no GuardSiteName — tagged site not "
                 "nameable by fault specs"));
    }
    if (std::string(enum_name) != info.name) {
      return Status::Internal(
          StrCat("fault-site registry entry ", i, " is named '", info.name,
                 "' but GuardSiteName says '", enum_name, "'"));
    }
    for (int j = 0; j < i; ++j) {
      if (std::string(kAllFaultSites[j].name) == info.name) {
        return Status::Internal(
            StrCat("fault-site registry: duplicate name '", info.name, "'"));
      }
    }
  }
  return Status::Ok();
}

Result<FaultPoint> ParseFaultSpec(const std::string& spec) {
  std::string site_name = spec;
  uint64_t nth = 1;
  size_t colon = spec.rfind(':');
  if (colon != std::string::npos) {
    site_name = spec.substr(0, colon);
    std::string count = spec.substr(colon + 1);
    if (count.empty()) {
      return Status::InvalidArgument(
          StrCat("fault spec '", spec, "': empty checkpoint count"));
    }
    nth = 0;
    for (char c : count) {
      if (c < '0' || c > '9') {
        return Status::InvalidArgument(
            StrCat("fault spec '", spec, "': bad checkpoint count '", count,
                   "'"));
      }
      nth = nth * 10 + static_cast<uint64_t>(c - '0');
    }
    if (nth == 0) {
      return Status::InvalidArgument(
          StrCat("fault spec '", spec, "': checkpoint count is 1-based"));
    }
  }
  for (int i = 0; i < kGuardSiteCount; ++i) {
    GuardSite site = static_cast<GuardSite>(i);
    if (site_name == GuardSiteName(site)) return FaultPoint{site, nth};
  }
  return Status::InvalidArgument(
      StrCat("fault spec '", spec, "': unknown checkpoint site '", site_name,
             "'"));
}

std::string EffectiveFaultSpec(const std::string& spec) {
  if (!spec.empty()) return spec;
  const char* env = std::getenv("DODB_FAULT");
  return env != nullptr ? env : "";
}

Status ArmFaultFromSpec(QueryGuard* guard, const std::string& spec) {
  std::string effective = EffectiveFaultSpec(spec);
  if (effective.empty()) return Status::Ok();
  Result<FaultPoint> fault = ParseFaultSpec(effective);
  if (!fault.ok()) return fault.status();
  guard->ArmFault(fault.value().site, fault.value().nth);
  return Status::Ok();
}

ResolvedGuard::ResolvedGuard(QueryGuard* explicit_guard,
                             const GuardLimits& limits,
                             const std::string& fault_spec) {
  guard_ = explicit_guard != nullptr ? explicit_guard : CurrentQueryGuard();
  if (guard_ == nullptr &&
      (limits.any() || !EffectiveFaultSpec(fault_spec).empty())) {
    owned_ = std::make_unique<QueryGuard>(limits);
    guard_ = owned_.get();
  }
  if (guard_ != nullptr) status_ = ArmFaultFromSpec(guard_, fault_spec);
}

Status OneShotFault::Arm(const std::string& spec) {
  std::string effective = EffectiveFaultSpec(spec);
  if (effective.empty()) return Status::Ok();
  Result<FaultPoint> fault = ParseFaultSpec(effective);
  if (!fault.ok()) return fault.status();
  nth_ = fault.value().nth;
  hits_.store(0, std::memory_order_relaxed);
  site_.store(static_cast<int>(fault.value().site),
              std::memory_order_release);
  return Status::Ok();
}

bool OneShotFault::Hit(GuardSite site) {
  if (site_.load(std::memory_order_acquire) != static_cast<int>(site)) {
    return false;
  }
  uint64_t hit = hits_.fetch_add(1, std::memory_order_acq_rel) + 1;
  if (hit != nth_) return false;
  site_.store(-1, std::memory_order_release);  // spent
  return true;
}

}  // namespace dodb
