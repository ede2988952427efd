#include "datalog/datalog_evaluator.h"

#include <algorithm>
#include <map>
#include <numeric>
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

namespace {

// Conjunction of body literals as a first-order formula. When `atoms` is
// given, appends the lowered relation atom of each literal to it (null for
// a constraint literal).
FormulaPtr LowerLiterals(const std::vector<DatalogLiteral>& literals,
                         std::vector<const Formula*>* atoms = nullptr) {
  FormulaPtr body;
  for (const DatalogLiteral& literal : literals) {
    FormulaPtr part;
    const Formula* atom = nullptr;
    if (literal.kind == DatalogLiteral::Kind::kCompare) {
      part = MakeCompare(literal.lhs, literal.op, literal.rhs);
    } else {
      part = MakeRelation(literal.relation, literal.args);
      atom = part.get();
      if (literal.negated) part = MakeNot(std::move(part));
    }
    if (atoms != nullptr) atoms->push_back(atom);
    body = body ? MakeAnd(std::move(body), std::move(part)) : std::move(part);
  }
  if (!body) body = MakeBool(true);
  return body;
}

// Lowers a rule body into a first-order formula, existentially closing the
// variables that are not head variables.
FormulaPtr LowerBody(const std::vector<DatalogLiteral>& literals,
                     const std::vector<std::string>& head_vars,
                     std::vector<const Formula*>* atoms) {
  FormulaPtr body = LowerLiterals(literals, atoms);
  std::vector<std::string> closed;
  for (const std::string& var : body->FreeVars()) {
    if (std::find(head_vars.begin(), head_vars.end(), var) ==
        head_vars.end()) {
      closed.push_back(var);
    }
  }
  if (!closed.empty()) body = MakeExists(std::move(closed), std::move(body));
  return body;
}

}  // namespace

DatalogEvaluator::DatalogEvaluator(DatalogProgram program, const Database* edb,
                                   DatalogOptions options)
    : program_(std::move(program)), edb_(edb), options_(options) {
  DODB_CHECK(edb != nullptr);
  compiled_.reserve(program_.rules.size());
  for (const DatalogRule& rule : program_.rules) {
    compiled_.push_back(Compile(rule));
  }
}

DatalogEvaluator::CompiledRule DatalogEvaluator::Compile(
    const DatalogRule& rule) {
  CompiledRule compiled;
  std::vector<std::string>& head_vars = compiled.head_vars;
  for (const FoExpr& arg : rule.head_args) {
    if (arg.IsSimpleVar() && std::find(head_vars.begin(), head_vars.end(),
                                       arg.VarName()) == head_vars.end()) {
      head_vars.push_back(arg.VarName());
    }
  }
  compiled.body.formula =
      LowerBody(rule.body, head_vars, &compiled.body.atoms);
  // The extra head atom mentions only head variables, so both forms close
  // the same ones.
  std::vector<DatalogLiteral> with_head = rule.body;
  DatalogLiteral head_atom;
  head_atom.kind = DatalogLiteral::Kind::kRelation;
  head_atom.relation = rule.head;
  head_atom.args = rule.head_args;
  with_head.push_back(std::move(head_atom));
  compiled.rederive.formula =
      LowerBody(with_head, head_vars, &compiled.rederive.atoms);

  compiled.widen_mapping.assign(head_vars.size(), -1);
  for (int i = 0; i < static_cast<int>(rule.head_args.size()); ++i) {
    const FoExpr& arg = rule.head_args[i];
    if (!arg.IsSimpleVar()) {
      compiled.widen_pins.emplace_back(Term::Var(i), RelOp::kEq,
                                       Term::Const(arg.constant));
      continue;
    }
    int& first = compiled.widen_mapping[std::find(head_vars.begin(),
                                                  head_vars.end(),
                                                  arg.VarName()) -
                                        head_vars.begin()];
    if (first < 0) {
      first = i;
    } else {
      compiled.widen_pins.emplace_back(Term::Var(i), RelOp::kEq,
                                       Term::Var(first));
    }
  }
  return compiled;
}

Result<GeneralizedRelation> DatalogEvaluator::FireRule(
    size_t rule_index, const Database& snapshot,
    const std::vector<const GeneralizedRelation*>& inputs) {
  DODB_CHECK(rule_index < compiled_.size());
  const CompiledRule& rule = compiled_[rule_index];
  const LoweredBody& body =
      inputs.size() > rule.body.atoms.size() ? rule.rederive : rule.body;
  DODB_CHECK(inputs.size() <= body.atoms.size());
  AtomInputs bound;
  for (size_t o = 0; o < inputs.size(); ++o) {
    if (inputs[o] == nullptr) continue;
    DODB_CHECK(body.atoms[o] != nullptr);
    bound.emplace_back(body.atoms[o], inputs[o]);
  }
  FoEvaluator evaluator(&snapshot, options_.eval_options);
  Result<GeneralizedRelation> answer =
      evaluator.EvaluateFormula(*body.formula, rule.head_vars, bound);
  if (!answer.ok()) return answer;
  GeneralizedRelation widened = algebra::Rename(
      answer.value(), rule.widen_mapping,
      static_cast<int>(program_.rules[rule_index].head_args.size()));
  for (const DenseAtom& pin : rule.widen_pins) {
    widened = algebra::Select(widened, pin);
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

// Populates and closes the lazily cached constraint network of every stored
// tuple, each tuple's signature and each relation's constraint-signature
// index. Rule jobs read these relations in place (atoms share the stored
// tuples) or through copies that share the caches, and all of them are
// read-only once warm — so after warming, concurrent rule evaluations may
// read the snapshot and the bound inputs freely, and every job in the round
// probes one index instead of rebuilding its own.
static void WarmRelationCaches(const GeneralizedRelation& rel) {
  for (const GeneralizedTuple& tuple : rel.tuples()) {
    tuple.IsSatisfiable();
    tuple.CachedSignature();
  }
  // Fault in the shard partition too, so concurrent rule jobs read a warm
  // structure instead of serializing on the lazy-build mutex.
  rel.Index().Shards();
}

void WarmDatabaseCaches(
    const Database& db, const std::vector<const GeneralizedRelation*>& inputs) {
  for (const std::string& name : db.RelationNames()) {
    WarmRelationCaches(*db.FindRelation(name));
  }
  for (const GeneralizedRelation* input : inputs) {
    if (input != nullptr) WarmRelationCaches(*input);
  }
}

namespace {

// One unit of work in a fixpoint round: a rule fired naively against the
// full snapshot (no inputs), or one positive IDB occurrence of a rule bound
// to the previous round's delta.
struct RuleJob {
  size_t rule = 0;
  std::vector<const GeneralizedRelation*> inputs;
};

}  // namespace

Status DatalogEvaluator::RunToFixpoint(const std::vector<size_t>& rules,
                                       Database* idb) {
  std::map<std::string, int> idb_arities = program_.IdbArities();
  // Deltas from the previous round.
  std::map<std::string, GeneralizedRelation> delta_in;
  bool first_round = true;

  while (true) {
    if (options_.max_iterations != 0 &&
        iterations_ >= options_.max_iterations) {
      return Status::ResourceExhausted(
          StrCat("datalog fixpoint did not stabilize within the round "
                 "budget of ",
                 options_.max_iterations, " rounds"));
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
    std::vector<const GeneralizedRelation*> bound;  // every job's inputs
    for (size_t rule : rules) {
      const DatalogRule& body = program_.rules[rule];
      std::optional<std::vector<size_t>> positive =
          first_round ? std::nullopt
                      : PositiveIdbOccurrences(body, idb_arities);
      if (!positive.has_value()) {
        // Naive: negation present, or the first round.
        jobs.push_back(RuleJob{rule, {}});
        continue;
      }
      // EDB-only rules (positive->empty()) saturated in round 1: no job.
      for (size_t occurrence : *positive) {
        auto delta_it = delta_in.find(body.body[occurrence].relation);
        if (delta_it == delta_in.end() || delta_it->second.IsEmpty()) {
          continue;
        }
        RuleJob job{rule, std::vector<const GeneralizedRelation*>(
                              occurrence + 1, nullptr)};
        job.inputs[occurrence] = &delta_it->second;
        bound.push_back(&delta_it->second);
        jobs.push_back(std::move(job));
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
      return FireRule(jobs[j].rule, snapshot, jobs[j].inputs);
    };

    std::vector<Result<GeneralizedRelation>> derived;
    if (!ShouldParallelize(jobs.size())) {
      derived.reserve(jobs.size());
      for (size_t j = 0; j < jobs.size(); ++j) {
        derived.push_back(eval_job(j));
        if (!derived.back().ok()) return derived.back().status();
      }
    } else {
      // Concurrent jobs share the snapshot and the deltas they are bound
      // to, read in place; warming makes every shared tuple's closure cache
      // closed (hence read-only) before the first worker touches it.
      WarmDatabaseCaches(snapshot, bound);
      derived = ParallelMap<Result<GeneralizedRelation>>(jobs.size(),
                                                         eval_job);
    }
    for (size_t j = 0; j < jobs.size(); ++j) {
      if (!derived[j].ok()) return derived[j].status();
      merge_derived(program_.rules[jobs[j].rule].head,
                    std::move(derived[j]).value());
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
    std::vector<size_t> rules(program_.rules.size());
    std::iota(rules.begin(), rules.end(), 0);
    DODB_RETURN_IF_ERROR(RunToFixpoint(rules, &idb));
    return idb;
  }

  Result<std::vector<std::vector<std::string>>> strata = Stratify();
  if (!strata.ok()) return strata.status();
  for (const std::vector<std::string>& level : strata.value()) {
    std::set<std::string> preds(level.begin(), level.end());
    std::vector<size_t> rules;
    for (size_t i = 0; i < program_.rules.size(); ++i) {
      if (preds.count(program_.rules[i].head)) rules.push_back(i);
    }
    if (!rules.empty()) {
      DODB_RETURN_IF_ERROR(RunToFixpoint(rules, &idb));
    }
  }
  return idb;
}

}  // namespace dodb
