#ifndef DODB_DATALOG_DATALOG_EVALUATOR_H_
#define DODB_DATALOG_DATALOG_EVALUATOR_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/status.h"
#include "datalog/datalog_ast.h"
#include "fo/evaluator.h"
#include "io/database.h"

namespace dodb {

/// Which negation semantics to apply.
enum class DatalogSemantics {
  /// The paper's semantics (§4, Theorem 4.4): all rules fire against the
  /// current snapshot each round; derived facts are added and never
  /// retracted. Negation may be used freely (even recursively).
  kInflationary,
  /// Classical stratified semantics: negation only through strata; each
  /// stratum is evaluated to its least fixpoint.
  kStratified,
};

struct DatalogOptions {
  DatalogSemantics semantics = DatalogSemantics::kInflationary;
  /// Abort with ResourceExhausted, "round budget" in the message, when the
  /// fixpoint has not stabilized after this many rounds (0 = unlimited;
  /// termination is guaranteed anyway — see EvaluateInflationary). A deep
  /// safety backstop by default; set it lower to budget one query's rounds.
  uint64_t max_iterations = 100000;
  EvalOptions eval_options;
};

/// Fixpoint evaluator for Datalog(not) over dense-order constraint
/// databases. Each rule is compiled once, at construction: its body is
/// lowered to a first-order formula that FoEvaluator evaluates in closed
/// form, so IDB relations are themselves finitely representable at every
/// stage [KKR90]. A firing binds the body's occurrences to their input
/// relations by position.
///
/// Evaluation is semi-naive: after the first round, a rule whose IDB
/// references are all positive fires once per positive IDB occurrence, with
/// that occurrence bound to the previous round's delta. Sound because
/// positive bodies are monotone in the IDB; a rule with a negated IDB atom
/// fires against the full snapshot every round, so the inflationary
/// semantics is unchanged.
///
/// Termination: quantifier elimination and complement only ever reuse
/// constants already present, so all derivable canonical tuples come from a
/// finite universe and the inflationary sequence stabilizes.
class DatalogEvaluator {
 public:
  DatalogEvaluator(DatalogProgram program, const Database* edb,
                   DatalogOptions options = {});

  /// Runs to fixpoint; returns the IDB database.
  Result<Database> Evaluate();

  /// Answers a "?- body." query against a fixpoint previously computed by
  /// Evaluate() (pass its result as `idb`). Answer columns are
  /// query.HeadVars() in first-occurrence order.
  Result<GeneralizedRelation> Answer(const DatalogQuery& query,
                                     const Database& idb);

  /// Fires rule `rule_index` of the program once against `snapshot`, which
  /// holds every relation the body names (EDB and IDB). Body occurrence o
  /// reads `inputs[o]` instead when that is given and non-null: a delta, or
  /// a semi-join subset of the occurrence's relation. An input at position
  /// body.size() restricts the firing to the head tuples in that relation
  /// (DRed re-derivation): the body is then conjoined with an atom over the
  /// head's arguments that reads it. Inputs are read in place, so firings
  /// that run concurrently need them warm (WarmDatabaseCaches). Unlike
  /// Evaluate(), this installs no guard/memo/thread scopes — the caller owns
  /// that setup, as RunToFixpoint and the view-maintenance passes do.
  Result<GeneralizedRelation> FireRule(
      size_t rule_index, const Database& snapshot,
      const std::vector<const GeneralizedRelation*>& inputs = {});

  /// Positions of positive IDB atoms in a rule's body; nullopt when the rule
  /// has a *negated* IDB atom (then semi-naive delta firing is unsound and
  /// the rule must run naively every round).
  static std::optional<std::vector<size_t>> PositiveIdbOccurrences(
      const DatalogRule& rule, const std::map<std::string, int>& idb_arities);

  /// Rounds executed by the last Evaluate() call.
  uint64_t iterations() const { return iterations_; }

  /// Engine-counter delta (pairs pruned, subsumption checks, index time...)
  /// attributed to the last Evaluate() call.
  const EvalCounterSnapshot& counters() const { return counters_; }

 private:
  /// A rule body lowered to a formula over the head variables, with the
  /// lowered atom of each occurrence (null for a constraint literal): the
  /// nodes a firing binds its inputs to.
  struct LoweredBody {
    FormulaPtr formula;
    std::vector<const Formula*> atoms;
  };
  /// A rule as compiled once per evaluator: the distinct head variables (the
  /// answer's columns), the body plain and in re-derivation form (one more
  /// occurrence: the head atom), and the widening to the head's columns:
  /// answer column v goes to widen_mapping[v], then widen_pins equate
  /// repeated head variables and pin constant head arguments.
  struct CompiledRule {
    std::vector<std::string> head_vars;
    LoweredBody body;
    LoweredBody rederive;
    std::vector<int> widen_mapping;
    std::vector<DenseAtom> widen_pins;
  };

  static CompiledRule Compile(const DatalogRule& rule);
  Status RunToFixpoint(const std::vector<size_t>& rules, Database* idb);
  Result<std::vector<std::vector<std::string>>> Stratify() const;

  DatalogProgram program_;
  const Database* edb_;
  DatalogOptions options_;
  std::vector<CompiledRule> compiled_;  // one per program_.rules entry
  uint64_t iterations_ = 0;
  EvalCounterSnapshot counters_;
};

/// Syntactic set difference of canonical relations: tuples of `next` not
/// present (Compare == 0) in `prev`; both must be stored-sorted, as AddTuple
/// keeps them. This is the fixpoint's change check, exported because the
/// DML layer uses the same structural diff to capture base-relation deltas
/// for view maintenance.
GeneralizedRelation StructuralTupleDifference(const GeneralizedRelation& next,
                                              const GeneralizedRelation& prev);

/// Populates and closes the lazily cached constraint network, signature,
/// index and shard partition of every relation in `db` and of every
/// non-null relation in `inputs` (what a round's firings are bound to),
/// making all of them read-only-sharable across pool workers (see
/// RunToFixpoint's warm-before-parallel discipline). Exported for the
/// view-maintenance rounds, which fan out rule jobs the same way.
void WarmDatabaseCaches(const Database& db,
                        const std::vector<const GeneralizedRelation*>& inputs);

}  // namespace dodb

#endif  // DODB_DATALOG_DATALOG_EVALUATOR_H_
