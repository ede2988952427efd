// dodb_shell: an interactive shell for dense-order constraint databases.
//
//   ./build/examples/dodb_shell [database.cdb]
//
// Commands:
//   { (x, y) | phi }          evaluate an FO/FO+ query and print the answer
//   any bare formula          evaluate as a boolean query
//   let name = { ... | ... }  materialize a query as a new relation
//   \list                     list relations with arity and tuple count
//   \show <relation>          print a relation's finite representation
//   \load <file> / \save <file>  text (.cdb) or binary snapshot (.snap) I/O
//   \open <dir>               attach durable storage: recover, then WAL-log
//                             (an empty catalog only; \save it first)
//   \checkpoint               write a snapshot generation, retire the WAL
//   \wal on|off               re-attach / detach the storage engine
//   \datalog <file>           run a Datalog(not) program, merge its IDB
//   \begin / \commit / \abort multi-statement transaction: DML buffers into
//                             a private write set, queries read the pinned
//                             snapshot + own writes, commit installs all of
//                             it atomically (one WAL record group)
//   \serve <port> [<n>]       serve the database over TCP (Enter stops)
//   \ccalc <query>            evaluate a C-CALC query (set quantifiers)
//   \encode                   replace the database by its standard encoding
//   \limit time|tuples|mem <n>   per-query resource budgets
//   \stats                    cumulative evaluation statistics
//   \help, \quit
//
// Example session:
//   dodb> let tall = { (x) | exists y (R(x, y) and y > 5) }
//   dodb> { (x) | tall(x) and x < 3 }

#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>

#include "dodb/dodb.h"

namespace {

using dodb::Database;
using dodb::storage::StorageEngine;

bool HasSuffix(const std::string& path, const char* suffix) {
  std::string_view view(path);
  return view.size() >= std::char_traits<char>::length(suffix) &&
         view.ends_with(suffix);
}

// Logs a full-relation replacement before applying it, so \let, \datalog
// and \encode results survive a restart like DML does. Returns false (with
// a printed error) when logging fails — the catalog is left untouched.
bool DurableSetRelation(Database* db, StorageEngine* engine,
                        const std::string& name,
                        dodb::GeneralizedRelation relation) {
  if (engine != nullptr) {
    dodb::Status status = engine->LogSet(name, relation);
    if (!status.ok()) {
      std::cout << "storage error: " << status.ToString() << "\n";
      return false;
    }
  }
  db->SetRelation(name, std::move(relation));
  return true;
}

// \open <dir>: recover `db` from the directory and keep logging to it. The
// view registry is rebuilt from the WAL's view records (via ViewHooks), so
// any in-memory registrations are discarded first; replayed views come back
// stale and are recomputed once recovery has the base relations in place.
std::unique_ptr<StorageEngine> OpenStorage(const std::string& dir,
                                           Database* db,
                                           dodb::ViewRegistry* views) {
  for (const dodb::MaterializedView* view : views->Views()) {
    views->RestoreDrop(view->name());
  }
  dodb::storage::StorageOptions options;
  options.view_hooks.list = [views] {
    std::vector<std::pair<std::string, std::string>> defs;
    for (const dodb::MaterializedView* view : views->Views()) {
      defs.emplace_back(view->name(), view->text());
    }
    return defs;
  };
  options.view_hooks.restore = [views](const std::string& name,
                                       const std::string& text) {
    return views->Restore(name, text);
  };
  options.view_hooks.restore_drop = [views](const std::string& name) {
    return views->RestoreDrop(name);
  };
  dodb::Result<std::unique_ptr<StorageEngine>> engine =
      StorageEngine::Open(dir, db, std::move(options));
  if (!engine.ok()) {
    std::cout << "error: " << engine.status().ToString() << "\n";
    return nullptr;
  }
  const dodb::storage::RecoveryInfo& info = engine.value()->recovery();
  std::cout << "opened '" << dir << "' (generation " << info.generation
            << "): " << db->relation_count() << " relation(s), "
            << (info.snapshot_loaded ? "snapshot + " : "no snapshot, ")
            << info.records_replayed << " WAL record(s) replayed";
  if (info.wal_truncated) std::cout << ", torn WAL tail truncated";
  std::cout << " in " << info.recovery_ns / 1000000 << " ms\n";
  if (views->view_count() > 0) {
    dodb::Status refreshed = views->RefreshStale(db);
    std::cout << views->view_count() << " view(s) re-registered";
    if (!refreshed.ok()) {
      std::cout << "; refresh failed: " << refreshed.ToString()
                << " (stale views recompute on next maintenance)";
    }
    std::cout << "\n";
  }
  return std::move(engine).value();
}

void PrintRelation(const std::string& name,
                   const dodb::GeneralizedRelation& rel) {
  std::vector<std::string> names;
  for (int i = 0; i < rel.arity(); ++i) names.push_back("x" + std::to_string(i));
  dodb::GeneralizedRelation pretty(rel.arity());
  for (const auto& tuple : rel.tuples()) pretty.AddTuple(tuple.Minimized());
  std::cout << name << "/" << rel.arity() << " = " << pretty.ToString(&names)
            << "\n";
}

void RunFoQuery(Database* db, const std::string& text,
                const dodb::EvalOptions& eval_options) {
  dodb::Result<dodb::Query> query = dodb::FoParser::ParseQuery(text);
  if (!query.ok()) {
    std::cout << "error: " << query.status().ToString() << "\n";
    return;
  }
  dodb::Result<dodb::QueryAnalysis> analysis =
      dodb::Analyze(query.value(), db);
  if (!analysis.ok()) {
    std::cout << "error: " << analysis.status().ToString() << "\n";
    return;
  }
  if (analysis.value().is_dense_fragment) {
    dodb::FoEvaluator evaluator(db, eval_options);
    dodb::Result<dodb::GeneralizedRelation> out =
        evaluator.Evaluate(query.value());
    if (!out.ok()) {
      std::cout << "error: " << out.status().ToString() << "\n";
      return;
    }
    if (query.value().head.empty()) {
      std::cout << (out.value().IsEmpty() ? "false" : "true") << "\n";
      return;
    }
    dodb::GeneralizedRelation pretty(out.value().arity());
    for (const auto& tuple : out.value().tuples()) {
      pretty.AddTuple(tuple.Minimized());
    }
    std::cout << pretty.ToString(&query.value().head) << "\n";
    return;
  }
  // FO+ (linear terms).
  dodb::LinearFoEvaluator evaluator(db, eval_options);
  dodb::Result<dodb::LinearRelation> out = evaluator.Evaluate(query.value());
  if (!out.ok()) {
    std::cout << "error: " << out.status().ToString() << "\n";
    return;
  }
  if (query.value().head.empty()) {
    std::cout << (out.value().IsEmpty() ? "false" : "true") << "\n";
    return;
  }
  std::cout << out.value().ToString(&query.value().head) << "\n";
}

void RunLet(Database* db, StorageEngine* engine,
            const dodb::ViewRegistry& views, const std::string& line,
            const dodb::EvalOptions& eval_options) {
  // let name = { ... }
  size_t eq = line.find('=');
  if (eq == std::string::npos) {
    std::cout << "usage: let <name> = { (x, ...) | phi }\n";
    return;
  }
  std::string name(dodb::StripWhitespace(line.substr(4, eq - 4)));
  if (views.IsView(name)) {
    std::cout << "'" << name << "' is a materialized view; \\view drop it "
              << "first\n";
    return;
  }
  std::string body(line.substr(eq + 1));
  dodb::Result<dodb::Query> query = dodb::FoParser::ParseQuery(body);
  if (!query.ok()) {
    std::cout << "error: " << query.status().ToString() << "\n";
    return;
  }
  dodb::FoEvaluator evaluator(db, eval_options);
  dodb::Result<dodb::GeneralizedRelation> out =
      evaluator.Evaluate(query.value());
  if (!out.ok()) {
    std::cout << "error: " << out.status().ToString() << "\n";
    return;
  }
  if (!DurableSetRelation(db, engine, name, out.value())) return;
  std::cout << "defined " << name << "/" << out.value().arity() << " ("
            << out.value().tuple_count() << " tuples)\n";
}

void RunDatalogFile(Database* db, StorageEngine* engine,
                    const dodb::ViewRegistry& views, const std::string& path,
                    const dodb::EvalOptions& eval_options) {
  std::ifstream in(path);
  if (!in) {
    std::cout << "error: cannot open '" << path << "'\n";
    return;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  dodb::Result<dodb::DatalogProgram> program =
      dodb::DatalogParser::ParseProgram(buffer.str());
  if (!program.ok()) {
    std::cout << "error: " << program.status().ToString() << "\n";
    return;
  }
  dodb::DatalogOptions datalog_options;
  datalog_options.eval_options = eval_options;
  dodb::DatalogEvaluator evaluator(program.value(), db, datalog_options);
  dodb::Result<Database> idb = evaluator.Evaluate();
  if (!idb.ok()) {
    std::cout << "error: " << idb.status().ToString() << "\n";
    return;
  }
  for (const std::string& name : idb.value().RelationNames()) {
    if (views.IsView(name)) {
      std::cout << "skipping " << name
                << ": a materialized view owns that relation\n";
      continue;
    }
    if (!DurableSetRelation(db, engine, name, *idb.value().FindRelation(name))) {
      return;
    }
    PrintRelation(name, *db->FindRelation(name));
  }
  std::cout << "(fixpoint after " << evaluator.iterations() << " rounds)\n";
  for (const dodb::DatalogQuery& query : program.value().queries) {
    dodb::Result<dodb::GeneralizedRelation> answer =
        evaluator.Answer(query, idb.value());
    std::cout << query.ToString() << "\n  ";
    if (!answer.ok()) {
      std::cout << answer.status().ToString() << "\n";
      continue;
    }
    if (query.HeadVars().empty()) {
      std::cout << (answer.value().IsEmpty() ? "false" : "true") << "\n";
    } else {
      std::vector<std::string> vars = query.HeadVars();
      std::cout << answer.value().ToString(&vars) << "\n";
    }
  }
}

void RunCCalc(Database* db, const std::string& text,
              const dodb::EvalOptions& eval_options) {
  dodb::Result<dodb::CCalcQuery> query = dodb::CCalcParser::ParseQuery(text);
  if (!query.ok()) {
    std::cout << "error: " << query.status().ToString() << "\n";
    return;
  }
  dodb::CCalcOptions ccalc_options;
  ccalc_options.eval_options = eval_options;
  dodb::CCalcEvaluator evaluator(db, ccalc_options);
  dodb::Result<dodb::GeneralizedRelation> out =
      evaluator.Evaluate(query.value());
  if (!out.ok()) {
    std::cout << "error: " << out.status().ToString() << "\n";
    return;
  }
  if (query.value().head.empty()) {
    std::cout << (out.value().IsEmpty() ? "false" : "true");
  } else {
    std::cout << out.value().ToString(&query.value().head);
  }
  std::cout << "   (" << evaluator.stats().set_assignments
            << " set assignments)\n";
}

void ShowLimits(const dodb::GuardLimits& limits) {
  if (!limits.any()) {
    std::cout << "no limits set\n";
    return;
  }
  if (limits.deadline_ms != 0) {
    std::cout << "  time    " << limits.deadline_ms << " ms\n";
  }
  if (limits.max_work_tuples != 0) {
    std::cout << "  tuples  " << limits.max_work_tuples << "\n";
  }
  if (limits.max_memory_bytes != 0) {
    std::cout << "  mem     " << limits.max_memory_bytes << " bytes\n";
  }
}

// \limit                      show current limits
// \limit clear                remove all limits
// \limit time <ms>            wall-clock deadline per query
// \limit tuples <n>           candidate-tuple work budget per query
// \limit mem <bytes>          approximate memory budget per query
void RunLimitCommand(const std::string& args, dodb::GuardLimits* limits) {
  std::string trimmed(dodb::StripWhitespace(args));
  if (trimmed.empty()) {
    ShowLimits(*limits);
    return;
  }
  if (trimmed == "clear") {
    *limits = dodb::GuardLimits{};
    std::cout << "limits cleared\n";
    return;
  }
  std::istringstream in(trimmed);
  std::string kind;
  uint64_t value = 0;
  if (!(in >> kind >> value) || value == 0) {
    std::cout << "usage: \\limit [clear | time <ms> | tuples <n> | "
                 "mem <bytes>]\n";
    return;
  }
  if (kind == "time") {
    limits->deadline_ms = value;
  } else if (kind == "tuples") {
    limits->max_work_tuples = value;
  } else if (kind == "mem") {
    limits->max_memory_bytes = value;
  } else {
    std::cout << "unknown limit '" << kind
              << "'; expected time, tuples or mem\n";
    return;
  }
  ShowLimits(*limits);
}

// \view create <name> <rules>   register + materialize a Datalog view
// \view drop <name>             unregister, remove the exported relation
// \view list                    registered views with maintenance state
// \view threshold [<fraction>]  show / set the incremental-vs-recompute knob
//
// Create-then-log ordering: registering a view can fail (the initial
// materialization evaluates the program), so unlike DML the registry runs
// first and the WAL record is appended only on success; if the append then
// fails, the registration is rolled back — disk never runs ahead of memory.
void RunViewCommand(Database* db, StorageEngine* engine,
                    dodb::ViewRegistry* views, const std::string& args) {
  std::istringstream in(args);
  std::string verb;
  in >> verb;
  if (verb == "create") {
    std::string name;
    in >> name;
    std::string rules;
    std::getline(in, rules);
    rules = std::string(dodb::StripWhitespace(rules));
    if (name.empty() || rules.empty()) {
      std::cout << "usage: \\view create <name> <datalog rules>\n";
      return;
    }
    dodb::Result<const dodb::MaterializedView*> view =
        views->Create(name, rules, db);
    if (!view.ok()) {
      std::cout << "error: " << view.status().ToString() << "\n";
      return;
    }
    if (engine != nullptr) {
      dodb::Status logged = engine->LogViewCreate(name, rules);
      if (!logged.ok()) {
        views->Drop(name, db);
        std::cout << "storage error: " << logged.ToString() << "\n";
        return;
      }
    }
    std::cout << "view " << name << " materialized ("
              << view.value()->tuple_count() << " tuples, "
              << (view.value()->incremental() ? "incremental" : "recompute")
              << " maintenance)\n";
  } else if (verb == "drop") {
    std::string name;
    in >> name;
    if (name.empty() || !views->IsView(name)) {
      std::cout << (name.empty() ? "usage: \\view drop <name>\n"
                                 : "no view '" + name + "'\n");
      return;
    }
    if (engine != nullptr) {
      dodb::Status logged = engine->LogViewDrop(name);
      if (!logged.ok()) {
        std::cout << "storage error: " << logged.ToString() << "\n";
        return;
      }
    }
    dodb::Status dropped = views->Drop(name, db);
    std::cout << (dropped.ok() ? "dropped view " + name : dropped.ToString())
              << "\n";
  } else if (verb == "list") {
    if (views->view_count() == 0) {
      std::cout << "no views registered\n";
      return;
    }
    for (const dodb::MaterializedView* view : views->Views()) {
      std::cout << "  " << view->name() << "  (" << view->tuple_count()
                << " tuples, "
                << (view->incremental() ? "incremental" : "recompute");
      if (view->stale()) std::cout << ", STALE";
      std::cout << "; bases:";
      for (const std::string& base : view->base_relations()) {
        std::cout << " " << base;
      }
      std::cout << ")\n";
    }
  } else if (verb == "threshold") {
    double fraction = -1.0;
    if (in >> fraction) {
      if (fraction < 0.0 || fraction > 1.0) {
        std::cout << "threshold must be in [0, 1]\n";
        return;
      }
      views->options().max_delta_fraction = fraction;
    }
    std::cout << "recompute when delta > "
              << views->options().max_delta_fraction * 100
              << "% of base tuples\n";
  } else {
    std::cout << "usage: \\view create <name> <rules> | drop <name> | list | "
                 "threshold [<fraction>]\n";
  }
}

void PrintHelp() {
  std::cout <<
      "  { (x, y) | phi }      FO/FO+ query\n"
      "  bare formula          boolean query\n"
      "  let r = { ... }       materialize a query as relation r\n"
      "  create r(k)           new empty relation of arity k\n"
      "  insert into r <phi>   union { (x0..) | phi } into r\n"
      "  delete from r where <phi>   subtract { (x0..) | phi }\n"
      "  drop r                remove relation r\n"
      "  \\list                 list relations\n"
      "  \\show <r>             print relation r\n"
      "  \\load <f> / \\save <f> database I/O; .snap selects the binary\n"
      "                        snapshot format, anything else the text format\n"
      "  \\open <dir>           attach durable storage: recover the database\n"
      "                        from the newest snapshot + WAL, then log every\n"
      "                        mutation (create/insert/delete/drop/let/...)\n"
      "                        write-ahead before applying it; refused\n"
      "                        unless the catalog is empty (\\save first)\n"
      "  \\checkpoint           write a new snapshot generation and retire\n"
      "                        the old WAL (also happens on \\quit)\n"
      "  \\wal on|off           re-attach the last \\open directory / detach\n"
      "                        the storage engine (no further logging)\n"
      "  \\datalog <f>          run a Datalog(not) program file\n"
      "  \\view create <name> <rules>\n"
      "                        register a Datalog program as a materialized\n"
      "                        view; committed DML on its base relations is\n"
      "                        propagated incrementally (O(delta) semi-naive\n"
      "                        inserts, DRed-style deletes with support\n"
      "                        counting), falling back to a full recompute\n"
      "                        for large deltas or negated programs\n"
      "  \\view drop <name> | list | threshold [<fraction>]\n"
      "  \\begin                open a transaction: DML buffers into a\n"
      "                        private write set, queries see the snapshot\n"
      "                        pinned at begin plus the buffered writes,\n"
      "                        nothing touches the WAL or the catalog\n"
      "  \\commit               install the write set atomically (one WAL\n"
      "                        record group; all-or-nothing on crash)\n"
      "  \\abort                discard the write set\n"
      "  \\serve <port> [<n>]   serve this database over TCP to dodb_client\n"
      "                        sessions (at most n concurrent, default 8;\n"
      "                        extra connections are shed with a typed\n"
      "                        overloaded error). \\limit budgets become the\n"
      "                        per-request session limits. Enter stops.\n"
      "  \\ccalc <query>        C-CALC query with set quantifiers\n"
      "  \\encode               switch to the standard encoding\n"
      "  \\limit time <ms> | tuples <n> | mem <bytes>\n"
      "                        per-query resource budgets (\\limit shows,\n"
      "                        \\limit clear removes); a tripped budget\n"
      "                        aborts the query with a clean error\n"
      "  \\stats                cumulative evaluation statistics (pruned\n"
      "                        pairs, subsumption checks, index time,\n"
      "                        guard checkpoints / trips)\n"
      "  \\quit\n";
}

}  // namespace

int main(int argc, char** argv) {
  Database db;
  if (argc > 1) {
    dodb::Result<Database> loaded = dodb::LoadDatabaseFile(argv[1]);
    if (!loaded.ok()) {
      std::cerr << loaded.status().ToString() << "\n";
      return 1;
    }
    db = std::move(loaded).value();
    std::cout << "loaded " << db.relation_count() << " relation(s) from "
              << argv[1] << "\n";
  }
  std::cout << "dodb shell — dense-order constraint databases. \\help for "
               "commands.\n";

  // Session-wide evaluation options; \limit edits the guard budgets that
  // every evaluator in this shell observes.
  dodb::EvalOptions session_options;

  // Materialized views, kept consistent with the catalog by the command
  // layer; maintenance passes inherit the session's guard limits.
  dodb::ViewRegistry views;

  // Durable storage, attached by \open / \wal on. Null = in-memory only.
  std::unique_ptr<StorageEngine> engine;
  std::string storage_dir = "dodb_data";

  // One open shell transaction at a time. The manager is created fresh at
  // \begin (pinning the catalog as it stands then) and torn down at
  // \commit/\abort — the shell has no concurrent committers, so a
  // per-transaction manager gives exactly the server's buffering, WAL
  // commit-group and install semantics without a resident snapshot chain.
  std::unique_ptr<dodb::txn::TransactionManager> txn_mgr;
  std::unique_ptr<dodb::txn::Transaction> shell_txn;

  std::string line;
  while (true) {
    std::cout << (shell_txn != nullptr ? "dodb*> " : "dodb> ") << std::flush;
    if (!std::getline(std::cin, line)) break;
    std::string trimmed(dodb::StripWhitespace(line));
    if (trimmed.empty()) continue;
    if (trimmed == "\\quit" || trimmed == "\\q") {
      if (shell_txn != nullptr) {
        txn_mgr->Abort(std::move(shell_txn));
        std::cout << "open transaction aborted\n";
      }
      break;
    }
    // Inside a transaction only the transactional surface is available:
    // queries, DML (buffered), \list/\show (reading the workspace), and
    // the transaction verbs themselves. Everything else mutates state the
    // pinned workspace cannot see or the commit cannot replay.
    if (shell_txn != nullptr && trimmed[0] == '\\' && trimmed != "\\help" &&
        trimmed != "\\commit" && trimmed != "\\abort" &&
        trimmed != "\\list" && trimmed.rfind("\\show ", 0) != 0) {
      std::cout << "not available inside a transaction; \\commit or "
                   "\\abort first\n";
      continue;
    }
    if (trimmed == "\\begin") {
      txn_mgr = std::make_unique<dodb::txn::TransactionManager>(
          &db, engine.get(), &views);
      shell_txn = txn_mgr->Begin();
      std::cout << "transaction " << shell_txn->id()
                << " began at generation " << shell_txn->begin_generation()
                << "\n";
      continue;
    }
    if (trimmed == "\\commit") {
      if (shell_txn == nullptr) {
        std::cout << "no open transaction; \\begin first\n";
        continue;
      }
      uint64_t id = shell_txn->id();
      size_t writes = shell_txn->write_set_size();
      std::string warning;
      dodb::Status status = txn_mgr->Commit(std::move(shell_txn), &warning);
      txn_mgr.reset();
      if (status.ok()) {
        std::cout << "transaction " << id << " committed (" << writes
                  << " buffered statements)";
        if (!warning.empty()) std::cout << "; warning: " << warning;
        std::cout << "\n";
      } else {
        std::cout << "error: " << status.ToString() << "\n";
      }
      continue;
    }
    if (trimmed == "\\abort") {
      if (shell_txn == nullptr) {
        std::cout << "no open transaction; \\begin first\n";
        continue;
      }
      uint64_t id = shell_txn->id();
      size_t writes = shell_txn->write_set_size();
      txn_mgr->Abort(std::move(shell_txn));
      txn_mgr.reset();
      std::cout << "transaction " << id << " aborted (" << writes
                << " buffered statements discarded)\n";
      continue;
    }
    // The catalog this iteration reads: the transaction's workspace when
    // one is open, the authoritative database otherwise.
    Database* read_db =
        shell_txn != nullptr ? shell_txn->mutable_workspace() : &db;
    if (trimmed == "\\help") {
      PrintHelp();
    } else if (trimmed == "\\list") {
      for (const std::string& name : read_db->RelationNames()) {
        const dodb::GeneralizedRelation* rel = read_db->FindRelation(name);
        std::cout << "  " << name << "/" << rel->arity() << "  ("
                  << rel->tuple_count() << " tuples, "
                  << rel->Constants().size() << " constants)\n";
      }
    } else if (trimmed.rfind("\\show ", 0) == 0) {
      std::string name(dodb::StripWhitespace(trimmed.substr(6)));
      const dodb::GeneralizedRelation* rel = read_db->FindRelation(name);
      if (rel == nullptr) {
        std::cout << "no relation '" << name << "'\n";
      } else {
        PrintRelation(name, *rel);
      }
    } else if (trimmed.rfind("\\load ", 0) == 0) {
      std::string path(dodb::StripWhitespace(trimmed.substr(6)));
      dodb::Result<Database> loaded =
          HasSuffix(path, ".snap") ? dodb::storage::LoadSnapshotFile(path)
                                   : dodb::LoadDatabaseFile(path);
      if (!loaded.ok()) {
        std::cout << "error: " << loaded.status().ToString() << "\n";
      } else {
        db = std::move(loaded).value();
        std::cout << "loaded " << db.relation_count() << " relation(s)\n";
      }
    } else if (trimmed.rfind("\\save ", 0) == 0) {
      std::string path(dodb::StripWhitespace(trimmed.substr(6)));
      dodb::Status status =
          HasSuffix(path, ".snap")
              ? dodb::storage::WriteSnapshotFile(db, path)
              : dodb::SaveDatabaseFile(db, path);
      std::cout << (status.ok() ? "saved" : status.ToString()) << "\n";
    } else if (trimmed.rfind("\\open ", 0) == 0) {
      std::string dir(dodb::StripWhitespace(trimmed.substr(6)));
      if (engine != nullptr) {
        std::cout << "storage already open on '" << engine->dir()
                  << "'; \\wal off first\n";
      } else if (db.relation_count() > 0 || views.view_count() > 0) {
        // Recovery replaces the catalog with the directory's state.
        std::cout << "refusing to \\open '" << dir << "': the catalog holds "
                  << db.relation_count() << " relation(s) and "
                  << views.view_count()
                  << " view(s) that recovery would replace; \\save them "
                     "to a file first\n";
      } else if (auto opened = OpenStorage(dir, &db, &views)) {
        engine = std::move(opened);
        storage_dir = dir;
      }
    } else if (trimmed == "\\checkpoint") {
      if (engine == nullptr) {
        std::cout << "no storage attached; \\open <dir> first\n";
      } else {
        dodb::Status status = engine->Checkpoint();
        std::cout << (status.ok()
                          ? "checkpointed to generation " +
                                std::to_string(engine->generation())
                          : status.ToString())
                  << "\n";
      }
    } else if (trimmed == "\\wal on") {
      if (engine != nullptr) {
        std::cout << "storage already open on '" << engine->dir() << "'\n";
      } else if (auto opened = OpenStorage(storage_dir, &db, &views)) {
        engine = std::move(opened);
      }
    } else if (trimmed == "\\wal off") {
      if (engine == nullptr) {
        std::cout << "storage not attached\n";
      } else {
        dodb::Status status = engine->Close();
        engine.reset();
        std::cout << (status.ok() ? "storage detached" : status.ToString())
                  << "\n";
      }
    } else if (trimmed.rfind("\\serve", 0) == 0) {
      // \serve <port> [<max-sessions>]: expose this shell's database over
      // TCP (DESIGN.md §15). Blocks the REPL while serving — the catalog
      // must not be mutated behind the server's back — until Enter.
      std::istringstream in(trimmed.size() > 6 ? trimmed.substr(7) : "");
      int port = -1;
      int max_sessions = 8;
      if (!(in >> port) || port < 0 || port > 65535) {
        std::cout << "usage: \\serve <port> [<max-sessions>]  (port 0 = "
                     "ephemeral)\n";
        continue;
      }
      in >> max_sessions;
      dodb::server::ServerConfig config;
      config.port = static_cast<uint16_t>(port);
      config.max_sessions = max_sessions;
      config.session_limits = session_options.limits;
      config.eval_options = session_options;
      dodb::server::DodbServer server(&db, engine.get(), &views, config);
      dodb::Status started = server.Start();
      if (!started.ok()) {
        std::cout << "error: " << started.ToString() << "\n";
        continue;
      }
      std::cout << "serving on 127.0.0.1:" << server.port() << " (max "
                << max_sessions << " sessions";
      if (session_options.limits.any()) std::cout << ", \\limit budgets apply";
      std::cout << "; press Enter to stop)\n";
      std::string ignored;
      std::getline(std::cin, ignored);
      server.Stop();
      const dodb::server::ServerStats& stats = server.stats();
      std::cout << "server stopped: " << stats.sessions_admitted.load()
                << " session(s), " << stats.requests_ok.load() << " ok, "
                << stats.requests_error.load() << " error(s), "
                << stats.sessions_rejected.load() +
                       stats.queue_rejected.load()
                << " shed\n";
      if (const dodb::txn::TxnCounters* txn = server.txn_counters()) {
        std::cout << "transactions: " << txn->committed.load()
                  << " committed (" << txn->read_only_commits.load()
                  << " read-only), " << txn->aborted.load() << " aborted, "
                  << txn->conflicts.load() << " conflict(s), "
                  << txn->snapshots_published.load()
                  << " snapshot(s) published\n";
      }
    } else if (trimmed.rfind("\\datalog ", 0) == 0) {
      RunDatalogFile(&db, engine.get(), views,
                     std::string(dodb::StripWhitespace(trimmed.substr(9))),
                     session_options);
    } else if (trimmed == "\\view" || trimmed.rfind("\\view ", 0) == 0) {
      views.options().datalog.eval_options = session_options;
      RunViewCommand(&db, engine.get(), &views,
                     trimmed.size() > 5 ? trimmed.substr(6) : "");
    } else if (trimmed.rfind("\\ccalc ", 0) == 0) {
      RunCCalc(&db, trimmed.substr(7), session_options);
    } else if (trimmed == "\\limit" || trimmed.rfind("\\limit ", 0) == 0) {
      RunLimitCommand(trimmed.size() > 6 ? trimmed.substr(7) : "",
                      &session_options.limits);
    } else if (trimmed == "\\stats") {
      std::cout << "evaluation statistics (cumulative for this session):\n"
                << dodb::EvalCounters::Snapshot().ToString();
    } else if (trimmed == "\\encode") {
      Database encoded = db.Encoded();
      bool logged = true;
      for (const std::string& name : encoded.RelationNames()) {
        if (!DurableSetRelation(&db, engine.get(), name,
                                *encoded.FindRelation(name))) {
          logged = false;
          break;
        }
      }
      if (logged) {
        std::cout << "database replaced by its standard encoding ("
                  << db.AllConstants().size() << " integer constants)\n";
      }
    } else if (trimmed.rfind("let ", 0) == 0) {
      if (shell_txn != nullptr) {
        // let bypasses the write set (it logs kSetRelation directly);
        // inside a transaction that would dodge commit atomicity.
        std::cout << "let is not available inside a transaction; \\commit "
                     "or \\abort first\n";
      } else {
        RunLet(&db, engine.get(), views, trimmed, session_options);
      }
    } else if (trimmed.rfind("create ", 0) == 0 ||
               trimmed.rfind("drop ", 0) == 0 ||
               trimmed.rfind("insert ", 0) == 0 ||
               trimmed.rfind("delete ", 0) == 0) {
      views.options().datalog.eval_options = session_options;
      dodb::Result<std::string> outcome =
          shell_txn != nullptr
              ? txn_mgr->ExecuteBuffered(shell_txn.get(), trimmed)
              : dodb::ExecuteCommand(&db, trimmed, engine.get(), &views);
      std::cout << (outcome.ok() ? outcome.value()
                                 : outcome.status().ToString())
                << "\n";
    } else if (trimmed[0] == '\\') {
      std::cout << "unknown command; \\help lists commands\n";
    } else {
      RunFoQuery(read_db, trimmed, session_options);
    }
  }
  if (engine != nullptr) {
    dodb::Status status = engine->Close();
    if (!status.ok()) {
      std::cerr << "storage close: " << status.ToString() << "\n";
      return 1;
    }
  }
  return 0;
}
