#ifndef DODB_FO_EVALUATOR_H_
#define DODB_FO_EVALUATOR_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "constraints/eval_counters.h"
#include "constraints/generalized_relation.h"
#include "core/query_guard.h"
#include "core/status.h"
#include "fo/ast.h"
#include "io/database.h"

namespace dodb {

class ClosureCache;

/// Evaluation limits and counters.
struct EvalOptions {
  /// Abort with ResourceExhausted when an intermediate relation exceeds this
  /// many generalized tuples (0 = unlimited).
  uint64_t max_tuples = 1000000;
  /// Run the rewriter (NNF, quantifier flattening, conjunct reordering)
  /// before evaluation; see fo/rewriter.h. Semantics-preserving.
  bool optimize = false;
  /// Worker threads for tuple-parallel algebra, quantifier elimination and
  /// Datalog rule firing. 0 = auto: the DODB_THREADS environment override
  /// when set, else std::thread::hardware_concurrency(). 1 = sequential,
  /// no pool involvement. Canonical results are bit-identical at every
  /// setting; only wall-clock changes.
  int num_threads = 0;
  /// The closure memo to install (closure_cache.h; owned by the caller —
  /// the Datalog evaluator shares one across every fixpoint round, stratum
  /// and rule job). nullptr = each evaluation memoizes into its own.
  ClosureCache* closure_cache = nullptr;
  /// Query-level resource budgets (deadline, work-tuple budget, memory
  /// budget, mid-merge relation cap) enforced cooperatively at guard
  /// checkpoints inside every operator's hot loop, so a blowup aborts
  /// within one checkpoint stride instead of after full materialization
  /// (core/query_guard.h). All zero — the default — means no guard is
  /// created and evaluation is byte-for-byte the unguarded path. A guarded
  /// but untripped run returns bit-identical results at any thread count.
  GuardLimits limits;
  /// An externally owned guard to observe instead of creating one from
  /// `limits`; the Datalog and C-CALC evaluators share one guard across all
  /// nested FO evaluations this way so the first trip cancels everything.
  /// The caller keeps ownership and the guard's own limits apply.
  QueryGuard* guard = nullptr;
  /// Deterministic fault injection: trip the guard at a named checkpoint,
  /// spec "<site>:<nth>" (core/fault_injection.h). Empty = the DODB_FAULT
  /// environment variable when set, else off.
  std::string fault_spec;
};

struct EvalStats {
  uint64_t complements = 0;
  uint64_t eliminations = 0;
  uint64_t intersections = 0;
  uint64_t unions = 0;
  uint64_t max_intermediate_tuples = 0;
  /// Guard observability for the last call: checkpoints recorded, peak
  /// accounted bytes, and the name of the site that tripped first ("" when
  /// the run was unguarded or the guard never tripped).
  uint64_t guard_checkpoints = 0;
  uint64_t guard_peak_bytes = 0;
  std::string guard_trip_site;
  /// Engine-counter delta (pairs pruned, subsumption checks, index time...)
  /// attributed to the last Evaluate/EvaluateFormula call.
  EvalCounterSnapshot counters;
};

/// Writes the guard's observability numbers into an EvalStats when the
/// enclosing evaluation unwinds, whether it returned a value or a trip
/// Status. Shared by every evaluator that exposes EvalStats.
class GuardStatsScope {
 public:
  GuardStatsScope(QueryGuard* guard, EvalStats* stats)
      : guard_(guard),
        stats_(stats),
        start_checkpoints_(guard != nullptr ? guard->checkpoints() : 0) {}
  ~GuardStatsScope() {
    if (guard_ == nullptr) {
      stats_->guard_checkpoints = 0;
      stats_->guard_peak_bytes = 0;
      stats_->guard_trip_site.clear();
      return;
    }
    stats_->guard_checkpoints = guard_->checkpoints() - start_checkpoints_;
    stats_->guard_peak_bytes = guard_->peak_bytes();
    stats_->guard_trip_site = guard_->trip_site_name();
  }
  GuardStatsScope(const GuardStatsScope&) = delete;
  GuardStatsScope& operator=(const GuardStatsScope&) = delete;

 private:
  QueryGuard* guard_;
  EvalStats* stats_;
  uint64_t start_checkpoints_;
};

/// Relations bound to single relation atoms of a formula, by node address:
/// such an atom reads its bound relation instead of the database's relation
/// of that name. A Datalog firing binds a rule's body occurrences this way
/// (to a round's delta or a semi-join subset), so rule inputs never enter a
/// catalog.
using AtomInputs =
    std::vector<std::pair<const Formula*, const GeneralizedRelation*>>;

/// The relation atom R(args) over R's relation `stored`: a relation over the
/// atom's distinct variables in first-occurrence order (written to `vars`).
/// An atom over R's columns in order is `stored` itself, shared
/// copy-on-write. Otherwise constant arguments select and a repeated
/// variable equates columns, over only the stored tuples whose signature
/// box admits the constants. Every argument is a simple variable or a
/// constant, one per column. The FO and C-CALC evaluators read atoms here.
GeneralizedRelation ReadRelationAtom(const GeneralizedRelation& stored,
                                     const std::vector<FoExpr>& args,
                                     std::vector<std::string>* vars);

/// Bottom-up, closed-form evaluator for first-order queries over dense-order
/// constraint databases [KKR90]: every subformula evaluates to a finitely
/// representable relation over its free variables; quantifiers become
/// quantifier elimination, negation becomes complement.
///
/// Only the dense fragment (simple terms) is handled here; FO+ queries with
/// linear terms are evaluated by LinearFoEvaluator.
class FoEvaluator {
 public:
  explicit FoEvaluator(const Database* db, EvalOptions options = {});

  /// Evaluates a query into a relation whose column i is head variable i.
  Result<GeneralizedRelation> Evaluate(const Query& query);

  /// Evaluates a formula into a relation over exactly `columns` (which must
  /// cover the formula's free variables). Relation atoms of `formula` bound
  /// in `inputs` read their bound relation.
  Result<GeneralizedRelation> EvaluateFormula(
      const Formula& formula, const std::vector<std::string>& columns,
      const AtomInputs& inputs = {});

  const EvalStats& stats() const { return stats_; }

 private:
  struct Binding {
    std::vector<std::string> vars;
    GeneralizedRelation rel;

    Binding() : rel(0) {}
    Binding(std::vector<std::string> v, GeneralizedRelation r)
        : vars(std::move(v)), rel(std::move(r)) {}
  };

  Result<Binding> Eval(const Formula& formula);
  /// Flattened conjunction chain: evaluates every conjunct, aligns all of
  /// them to the joint column list, and folds Intersect in ascending
  /// cardinality order (smallest inputs first, stable on ties). Canonical-set
  /// intersection is order-independent, so the result is bit-identical to
  /// the left-to-right binary fold.
  Result<Binding> EvalAndChain(const std::vector<const Formula*>& conjuncts);
  Result<Binding> EvalCompare(const Formula& formula);
  Result<Binding> EvalRelation(const Formula& formula);
  Result<Binding> EliminateVars(Binding binding,
                                const std::vector<std::string>& vars);

  /// Widens/permutes `binding` to the column list `target` (a superset of
  /// binding.vars).
  Binding AlignTo(const Binding& binding,
                  const std::vector<std::string>& target);

  Status CheckSize(const GeneralizedRelation& rel);

  const Database* db_;
  EvalOptions options_;
  EvalStats stats_;
  AtomInputs inputs_;  // of the running EvaluateFormula
};

}  // namespace dodb

#endif  // DODB_FO_EVALUATOR_H_
