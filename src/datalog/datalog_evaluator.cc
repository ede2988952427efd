#include "datalog/datalog_evaluator.h"

#include <algorithm>
#include <map>
#include <optional>
#include <set>

#include "algebra/relational_ops.h"
#include "constraints/closure_cache.h"
#include "core/check.h"
#include "core/fault_injection.h"
#include "core/query_guard.h"
#include "core/str_util.h"
#include "core/thread_pool.h"

namespace dodb {

DatalogEvaluator::DatalogEvaluator(DatalogProgram program, const Database* edb,
                                   DatalogOptions options)
    : program_(std::move(program)), edb_(edb), options_(options) {
  DODB_CHECK(edb != nullptr);
}

namespace {

// Conjunction of body literals as a first-order formula.
FormulaPtr LowerLiterals(const std::vector<DatalogLiteral>& literals) {
  FormulaPtr body;
  for (const DatalogLiteral& literal : literals) {
    FormulaPtr part;
    if (literal.kind == DatalogLiteral::Kind::kCompare) {
      part = MakeCompare(literal.lhs, literal.op, literal.rhs);
    } else {
      part = MakeRelation(literal.relation, literal.args);
      if (literal.negated) part = MakeNot(std::move(part));
    }
    body = body ? MakeAnd(std::move(body), std::move(part)) : std::move(part);
  }
  if (!body) body = MakeBool(true);
  return body;
}

// Lowers a rule body into a first-order formula, existentially closing the
// variables that do not occur in the head.
FormulaPtr LowerBody(const DatalogRule& rule) {
  FormulaPtr body = LowerLiterals(rule.body);

  std::set<std::string> head_vars;
  for (const FoExpr& arg : rule.head_args) {
    if (arg.IsSimpleVar()) head_vars.insert(arg.VarName());
  }
  std::vector<std::string> closed;
  for (const std::string& var : body->FreeVars()) {
    if (head_vars.count(var) == 0) closed.push_back(var);
  }
  if (!closed.empty()) body = MakeExists(std::move(closed), std::move(body));
  return body;
}

}  // namespace

Result<GeneralizedRelation> DatalogEvaluator::EvalRule(
    const DatalogRule& rule, const Database& snapshot) {
  Query query;
  query.body = LowerBody(rule);
  // Head variables in first-occurrence order.
  for (const FoExpr& arg : rule.head_args) {
    if (arg.IsSimpleVar() &&
        std::find(query.head.begin(), query.head.end(), arg.VarName()) ==
            query.head.end()) {
      query.head.push_back(arg.VarName());
    }
  }
  FoEvaluator evaluator(&snapshot, options_.eval_options);
  Result<GeneralizedRelation> answer = evaluator.Evaluate(query);
  if (!answer.ok()) return answer;

  // Widen the answer over distinct variables to the full head arity,
  // duplicating variable columns and pinning constant arguments.
  int arity = static_cast<int>(rule.head_args.size());
  std::vector<int> mapping(query.head.size(), -1);
  std::vector<int> first_column(query.head.size(), -1);
  for (int i = 0; i < arity; ++i) {
    const FoExpr& arg = rule.head_args[i];
    if (!arg.IsSimpleVar()) continue;
    int v = static_cast<int>(
        std::find(query.head.begin(), query.head.end(), arg.VarName()) -
        query.head.begin());
    if (first_column[v] < 0) {
      first_column[v] = i;
      mapping[v] = i;
    }
  }
  GeneralizedRelation widened =
      algebra::Rename(answer.value(), mapping, arity);
  for (int i = 0; i < arity; ++i) {
    const FoExpr& arg = rule.head_args[i];
    if (arg.IsSimpleVar()) {
      int v = static_cast<int>(
          std::find(query.head.begin(), query.head.end(), arg.VarName()) -
          query.head.begin());
      if (first_column[v] != i) {
        widened = algebra::Select(
            widened, DenseAtom(Term::Var(i), RelOp::kEq,
                               Term::Var(first_column[v])));
      }
    } else {
      widened = algebra::Select(
          widened,
          DenseAtom(Term::Var(i), RelOp::kEq, Term::Const(arg.constant)));
    }
  }
  return widened;
}

std::optional<std::vector<size_t>> DatalogEvaluator::PositiveIdbOccurrences(
    const DatalogRule& rule, const std::map<std::string, int>& idb_arities) {
  std::vector<size_t> positions;
  for (size_t i = 0; i < rule.body.size(); ++i) {
    const DatalogLiteral& literal = rule.body[i];
    if (literal.kind != DatalogLiteral::Kind::kRelation) continue;
    if (idb_arities.count(literal.relation) == 0) continue;
    if (literal.negated) return std::nullopt;
    positions.push_back(i);
  }
  return positions;
}

GeneralizedRelation StructuralTupleDifference(const GeneralizedRelation& next,
                                              const GeneralizedRelation& prev) {
  GeneralizedRelation out(next.arity());
  size_t i = 0;
  const auto& old_tuples = prev.tuples();
  for (const GeneralizedTuple& tuple : next.tuples()) {
    while (i < old_tuples.size() && old_tuples[i].Compare(tuple) < 0) ++i;
    if (i < old_tuples.size() && old_tuples[i].Compare(tuple) == 0) continue;
    // Stored tuples are already canonical; skip the closure re-run.
    out.AddCanonicalTuple(tuple);
  }
  return out;
}

namespace {

constexpr char kDeltaRelationName[] = "__dodb_delta";

}  // namespace

// Populates and closes the lazily cached constraint network of every stored
// tuple, each tuple's signature and each relation's constraint-signature
// index. Copies of these tuples and relations made inside pool workers share
// the caches, and all of them are read-only once warm — so after warming,
// concurrent rule evaluations may read the snapshot freely, and every job in
// the round probes the one snapshot index instead of rebuilding its own.
static void WarmRelationCaches(const GeneralizedRelation& rel) {
  for (const GeneralizedTuple& tuple : rel.tuples()) {
    tuple.IsSatisfiable();
    tuple.CachedSignature();
  }
  // Fault in the shard partition too, so concurrent rule jobs read a warm
  // structure instead of serializing on the lazy-build mutex.
  rel.Index().Shards();
}

void WarmDatabaseCaches(const Database& db) {
  for (const std::string& name : db.RelationNames()) {
    WarmRelationCaches(*db.FindRelation(name));
  }
}

namespace {

// Writes the engine-counter delta covering its lifetime into `out`.
class CounterDeltaScope {
 public:
  explicit CounterDeltaScope(EvalCounterSnapshot* out)
      : start_(EvalCounters::Snapshot()), out_(out) {}
  ~CounterDeltaScope() { *out_ = EvalCounters::Snapshot() - start_; }

 private:
  EvalCounterSnapshot start_;
  EvalCounterSnapshot* out_;
};

// One unit of work in a fixpoint round: a rule fired naively against the
// full snapshot, or (semi-naive) one positive IDB occurrence of a rule
// redirected to the previous round's delta.
struct RuleJob {
  const DatalogRule* rule = nullptr;
  const GeneralizedRelation* delta = nullptr;  // null = naive firing
  size_t occurrence = 0;
};

}  // namespace

Result<GeneralizedRelation> DatalogEvaluator::FireRule(
    size_t rule_index, const Database& snapshot,
    std::optional<size_t> redirect_occurrence,
    std::string_view redirect_relation) {
  DODB_CHECK(rule_index < program_.rules.size());
  const DatalogRule& rule = program_.rules[rule_index];
  if (!redirect_occurrence.has_value()) return EvalRule(rule, snapshot);
  DODB_CHECK(*redirect_occurrence < rule.body.size());
  DatalogRule focused = rule;
  focused.body[*redirect_occurrence].relation = std::string(redirect_relation);
  return EvalRule(focused, snapshot);
}

Result<GeneralizedRelation> DatalogEvaluator::FireRule(
    size_t rule_index, const Database& snapshot,
    const std::vector<std::pair<size_t, std::string>>& redirects) {
  DODB_CHECK(rule_index < program_.rules.size());
  const DatalogRule& rule = program_.rules[rule_index];
  if (redirects.empty()) return EvalRule(rule, snapshot);
  DatalogRule focused = rule;
  for (const auto& [occurrence, relation] : redirects) {
    DODB_CHECK(occurrence < focused.body.size());
    focused.body[occurrence].relation = relation;
  }
  return EvalRule(focused, snapshot);
}

Status DatalogEvaluator::RunToFixpoint(
    const std::vector<const DatalogRule*>& rules, Database* idb) {
  std::map<std::string, int> idb_arities = program_.IdbArities();
  // Deltas from the previous round (only consulted when semi-naive).
  std::map<std::string, GeneralizedRelation> delta_in;
  bool first_round = true;

  while (true) {
    if (options_.max_iterations != 0 &&
        iterations_ >= options_.max_iterations) {
      return Status::ResourceExhausted(
          StrCat("datalog fixpoint did not stabilize within ",
                 options_.max_iterations, " rounds"));
    }
    if (options_.max_fix_rounds != 0 &&
        iterations_ >= options_.max_fix_rounds) {
      return Status::ResourceExhausted(
          StrCat("datalog fixpoint did not stabilize within the round "
                 "budget of ",
                 options_.max_fix_rounds));
    }
    // One guard checkpoint per round: a deadline or budget hit between
    // rounds aborts here; mid-round trips surface from the rule jobs.
    if (QueryGuard* guard = CurrentQueryGuard();
        guard != nullptr && !guard->Checkpoint(GuardSite::kDatalogRound)) {
      return guard->status();
    }
    ++iterations_;

    // Snapshot: EDB plus the current IDB.
    Database snapshot = *edb_;
    for (const std::string& name : idb->RelationNames()) {
      snapshot.SetRelation(name, *idb->FindRelation(name));
    }

    std::map<std::string, GeneralizedRelation> derived_by_head;
    auto merge_derived = [&derived_by_head](const std::string& head,
                                            GeneralizedRelation rel) {
      auto it = derived_by_head.find(head);
      if (it == derived_by_head.end()) {
        derived_by_head.emplace(head, std::move(rel));
      } else {
        it->second = algebra::Union(it->second, rel);
      }
    };

    // Plan the round's independent firings up front (in rule order), then
    // evaluate them on the pool and merge sequentially in plan order — the
    // same derivation sequence as a one-rule-at-a-time loop, so
    // the fixpoint trajectory is bit-identical at any thread count.
    std::vector<RuleJob> jobs;
    for (const DatalogRule* rule : rules) {
      std::optional<std::vector<size_t>> positive =
          options_.semi_naive && !first_round
              ? PositiveIdbOccurrences(*rule, idb_arities)
              : std::nullopt;
      if (!positive.has_value()) {
        // Naive: negation present, semi-naive disabled, or first round.
        jobs.push_back(RuleJob{rule, nullptr, 0});
        continue;
      }
      // EDB-only rules (positive->empty()) saturated in round 1: no job.
      // Semi-naive: once per positive IDB occurrence, with that occurrence
      // redirected to the previous round's delta.
      for (size_t occurrence : *positive) {
        const std::string& pred = rule->body[occurrence].relation;
        auto delta_it = delta_in.find(pred);
        if (delta_it == delta_in.end() || delta_it->second.IsEmpty()) {
          continue;
        }
        jobs.push_back(RuleJob{rule, &delta_it->second, occurrence});
      }
    }

    // Install the round's deltas into the shared snapshot under reserved
    // per-predicate names, so each semi-naive job only rewrites its own
    // (small) rule copy instead of deep-copying the whole database.
    for (const auto& [pred, delta] : delta_in) {
      if (!delta.IsEmpty()) {
        snapshot.SetRelation(StrCat(kDeltaRelationName, ":", pred), delta);
      }
    }

    auto eval_job = [&](size_t j) -> Result<GeneralizedRelation> {
      // The shared guard travels to pool workers through eval_options (set
      // by Evaluate), not the thread-local scope — workers don't inherit
      // thread-locals. The nested FoEvaluator re-installs it; this entry
      // checkpoint makes an already-tripped round skip the rule outright.
      if (QueryGuard* guard = options_.eval_options.guard;
          guard != nullptr && !guard->Checkpoint(GuardSite::kDatalogRule)) {
        return guard->status();
      }
      const RuleJob& job = jobs[j];
      if (job.delta == nullptr) return EvalRule(*job.rule, snapshot);
      DatalogRule focused = *job.rule;
      focused.body[job.occurrence].relation =
          StrCat(kDeltaRelationName, ":", focused.body[job.occurrence].relation);
      return EvalRule(focused, snapshot);
    };

    std::vector<Result<GeneralizedRelation>> derived;
    if (!ShouldParallelize(jobs.size())) {
      derived.reserve(jobs.size());
      for (size_t j = 0; j < jobs.size(); ++j) {
        derived.push_back(eval_job(j));
        if (!derived.back().ok()) return derived.back().status();
      }
    } else {
      // Concurrent jobs share the snapshot (which now holds the round's
      // deltas too) read-only; warming makes every shared tuple's closure
      // cache closed (hence read-only) before the first worker touches it.
      WarmDatabaseCaches(snapshot);
      derived = ParallelMap<Result<GeneralizedRelation>>(jobs.size(),
                                                         eval_job);
    }
    for (size_t j = 0; j < jobs.size(); ++j) {
      if (!derived[j].ok()) return derived[j].status();
      merge_derived(jobs[j].rule->head, std::move(derived[j]).value());
    }

    bool changed = false;
    std::map<std::string, GeneralizedRelation> delta_out;
    for (auto& [name, rel] : derived_by_head) {
      const GeneralizedRelation* old = idb->FindRelation(name);
      DODB_CHECK(old != nullptr);
      GeneralizedRelation merged = algebra::Union(*old, rel);
      // merged != old exactly when the union inserted a tuple structurally
      // absent from old — and every such tuple survives into the delta (a
      // later subsuming insert is itself new), so the delta scan doubles as
      // the change check.
      GeneralizedRelation delta = StructuralTupleDifference(merged, *old);
      if (!delta.IsEmpty()) {
        changed = true;
        delta_out.emplace(name, std::move(delta));
        idb->SetRelation(name, std::move(merged));
      }
    }
    if (!changed) return Status::Ok();
    delta_in = std::move(delta_out);
    first_round = false;
  }
}

Result<std::vector<std::vector<std::string>>> DatalogEvaluator::Stratify()
    const {
  std::map<std::string, int> arities = program_.IdbArities();
  std::map<std::string, int> stratum;
  for (const auto& [name, arity] : arities) stratum[name] = 0;
  int num_preds = static_cast<int>(arities.size());

  bool changed = true;
  while (changed) {
    changed = false;
    for (const DatalogRule& rule : program_.rules) {
      int& head_stratum = stratum[rule.head];
      for (const DatalogLiteral& literal : rule.body) {
        if (literal.kind != DatalogLiteral::Kind::kRelation) continue;
        auto it = stratum.find(literal.relation);
        if (it == stratum.end()) continue;  // EDB
        int required = it->second + (literal.negated ? 1 : 0);
        if (head_stratum < required) {
          head_stratum = required;
          if (head_stratum > num_preds) {
            return Status::InvalidArgument(
                StrCat("program is not stratifiable: predicate '", rule.head,
                       "' depends negatively on itself through recursion"));
          }
          changed = true;
        }
      }
    }
  }
  int max_stratum = 0;
  for (const auto& [name, s] : stratum) max_stratum = std::max(max_stratum, s);
  std::vector<std::vector<std::string>> strata(max_stratum + 1);
  for (const auto& [name, s] : stratum) strata[s].push_back(name);
  return strata;
}

Result<GeneralizedRelation> DatalogEvaluator::Answer(
    const DatalogQuery& query, const Database& idb) {
  Database snapshot = *edb_;
  for (const std::string& name : idb.RelationNames()) {
    snapshot.SetRelation(name, *idb.FindRelation(name));
  }
  Query fo_query;
  fo_query.head = query.HeadVars();
  fo_query.body = LowerLiterals(query.body);
  FoEvaluator evaluator(&snapshot, options_.eval_options);
  return evaluator.Evaluate(fo_query);
}

Result<Database> DatalogEvaluator::Evaluate() {
  EvalThreadsScope threads(options_.eval_options.num_threads);
  // One guard shared across every round, stratum and rule job: the first
  // trip anywhere cancels the whole fixpoint. The guard is installed both
  // as the thread-local (covering the sequential merge/union phases here)
  // and into eval_options (so each rule job's nested FoEvaluator adopts it
  // as the explicit guard instead of creating its own).
  ResolvedGuard guard(options_.eval_options.guard, options_.eval_options.limits,
                      options_.eval_options.fault_spec);
  QueryGuardScope guard_scope(guard.get());
  QueryGuard* caller_guard = options_.eval_options.guard;
  options_.eval_options.guard = guard.get();
  struct GuardOptionRestore {
    EvalOptions* options;
    QueryGuard* prev;
    ~GuardOptionRestore() { options->guard = prev; }
  } guard_restore{&options_.eval_options, caller_guard};
  DODB_RETURN_IF_ERROR(guard.status());
  // One closure memo spanning every round and stratum: semi-naive refirings
  // keep re-deriving the same candidate conjunctions, so later rounds serve
  // most canonicalizations from the memo. Installed into eval_options so
  // each rule job's FoEvaluator shares it (the memo is thread-safe);
  // restored on exit since the memo dies with this call.
  ClosureCache memo;
  ClosureCache* caller_memo = options_.eval_options.closure_cache;
  if (caller_memo == nullptr) options_.eval_options.closure_cache = &memo;
  struct MemoOptionRestore {
    EvalOptions* options;
    ClosureCache* prev;
    ~MemoOptionRestore() { options->closure_cache = prev; }
  } memo_restore{&options_.eval_options, caller_memo};
  ClosureCacheScope memo_scope(options_.eval_options.closure_cache);
  CounterDeltaScope counters(&counters_);
  DODB_RETURN_IF_ERROR(program_.Validate(*edb_));
  iterations_ = 0;

  Database idb;
  for (const auto& [name, arity] : program_.IdbArities()) {
    idb.SetRelation(name, GeneralizedRelation(arity));
  }

  if (options_.semantics == DatalogSemantics::kInflationary) {
    std::vector<const DatalogRule*> rules;
    rules.reserve(program_.rules.size());
    for (const DatalogRule& rule : program_.rules) rules.push_back(&rule);
    DODB_RETURN_IF_ERROR(RunToFixpoint(rules, &idb));
    return idb;
  }

  Result<std::vector<std::vector<std::string>>> strata = Stratify();
  if (!strata.ok()) return strata.status();
  for (const std::vector<std::string>& level : strata.value()) {
    std::set<std::string> preds(level.begin(), level.end());
    std::vector<const DatalogRule*> rules;
    for (const DatalogRule& rule : program_.rules) {
      if (preds.count(rule.head)) rules.push_back(&rule);
    }
    if (!rules.empty()) {
      DODB_RETURN_IF_ERROR(RunToFixpoint(rules, &idb));
    }
  }
  return idb;
}

}  // namespace dodb
