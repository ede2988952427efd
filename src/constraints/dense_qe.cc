#include "constraints/dense_qe.h"

#include <optional>
#include <utility>

#include "constraints/eval_counters.h"
#include "core/check.h"
#include "core/query_guard.h"
#include "core/thread_pool.h"

namespace dodb {

namespace {

bool TermIsVar(const Term& term, int var) {
  return term.is_var() && term.var() == var;
}

Term SubstituteTerm(const Term& term, int var, const Term& replacement) {
  if (TermIsVar(term, var)) return replacement;
  return term;
}

// Substitutes `replacement` for x_var throughout `tuple`.
GeneralizedTuple Substitute(const GeneralizedTuple& tuple, int var,
                            const Term& replacement) {
  GeneralizedTuple out(tuple.arity());
  for (const DenseAtom& atom : tuple.atoms()) {
    Term lhs = SubstituteTerm(atom.lhs(), var, replacement);
    Term rhs = SubstituteTerm(atom.rhs(), var, replacement);
    out.AddAtom(DenseAtom(std::move(lhs), atom.op(), std::move(rhs)));
  }
  return out;
}

struct Bounds {
  std::vector<Term> lower_strict;     // t < x
  std::vector<Term> lower_nonstrict;  // t <= x
  std::vector<Term> upper_strict;     // x < t
  std::vector<Term> upper_nonstrict;  // x <= t
  std::vector<Term> forbidden;        // x != t
  std::vector<DenseAtom> others;      // atoms not involving x
};

// Classifies atoms relative to x_var. Requires that the tuple is satisfiable
// and x_var is not forced equal to any term (callers handle the equality
// case by substitution), so no kEq atom on x remains after closure handling;
// still, an explicit x = t atom is routed to the substitution path by
// EliminateVariable before this function runs.
Bounds ClassifyAtoms(const GeneralizedTuple& tuple, int var) {
  Bounds bounds;
  for (const DenseAtom& atom : tuple.atoms()) {
    bool lhs_is_x = TermIsVar(atom.lhs(), var);
    bool rhs_is_x = TermIsVar(atom.rhs(), var);
    if (!lhs_is_x && !rhs_is_x) {
      bounds.others.push_back(atom);
      continue;
    }
    if (lhs_is_x && rhs_is_x) {
      // x op x: trivially true here (unsatisfiable combinations were
      // filtered by the caller's satisfiability check).
      continue;
    }
    // Orient as: x op t.
    Term t = lhs_is_x ? atom.rhs() : atom.lhs();
    RelOp op = lhs_is_x ? atom.op() : FlipOp(atom.op());
    switch (op) {
      case RelOp::kLt:
        bounds.upper_strict.push_back(t);
        break;
      case RelOp::kLe:
        bounds.upper_nonstrict.push_back(t);
        break;
      case RelOp::kGt:
        bounds.lower_strict.push_back(t);
        break;
      case RelOp::kGe:
        bounds.lower_nonstrict.push_back(t);
        break;
      case RelOp::kNeq:
        bounds.forbidden.push_back(t);
        break;
      case RelOp::kEq:
        DODB_CHECK_MSG(false, "equality atom must be substituted away");
    }
  }
  return bounds;
}

}  // namespace

GeneralizedRelation EliminateVariable(const GeneralizedTuple& tuple, int var) {
  DODB_CHECK(var >= 0 && var < tuple.arity());
  GeneralizedRelation result(tuple.arity());

  // Reuse the tuple's own network. It may be a stored tuple that pool
  // workers or concurrent sessions read at once (atoms share the stored
  // relation); the caching accessor is safe because shared tuples are warm,
  // their networks built and closed (read-only): published snapshots by
  // WarmRelation, Datalog rounds by WarmDatabaseCaches, bound inputs too.
  OrderGraph* graph = tuple.CachedGraph();
  if (!graph->IsSatisfiable()) return result;  // exists x. false == false

  // Case 1: x is (syntactically or derivedly) equal to another term:
  // substitute the representative.
  if (std::optional<Term> rep = graph->EqualityRep(var); rep.has_value()) {
    result.AddTuple(Substitute(tuple, var, *rep));
    return result;
  }
  // An explicit x = t atom without a derived representative cannot occur
  // (the closure would have merged the nodes), so classification is safe.

  // Case 2: Fourier-style pairing of lower and upper bounds, with explicit
  // handling of inequations (see header comment).
  Bounds bounds = ClassifyAtoms(tuple, var);

  GeneralizedTuple base(tuple.arity(), bounds.others);
  auto add_pairs = [&base](const std::vector<Term>& lows,
                           const std::vector<Term>& highs, RelOp op) {
    for (const Term& l : lows) {
      for (const Term& u : highs) {
        base.AddAtom(DenseAtom(l, op, u));
      }
    }
  };
  add_pairs(bounds.lower_strict, bounds.upper_strict, RelOp::kLt);
  add_pairs(bounds.lower_strict, bounds.upper_nonstrict, RelOp::kLt);
  add_pairs(bounds.lower_nonstrict, bounds.upper_strict, RelOp::kLt);
  add_pairs(bounds.lower_nonstrict, bounds.upper_nonstrict, RelOp::kLe);

  // Inequation splits: the feasible interval for x can only degenerate to a
  // single point when some nonstrict lower bound meets some nonstrict upper
  // bound; that point must avoid every forbidden term. The work list can
  // double per (forbidden, lower, upper) triple — the one exponential loop
  // in QE — so the guard ticks per split candidate; a trip abandons the
  // remaining splits (the evaluator surfaces the guard's Status, never this
  // partial relation).
  GuardTicker ticker(CurrentQueryGuard(), GuardSite::kQuantifierElim, 256);
  std::vector<GeneralizedTuple> work = {base};
  for (const Term& f : bounds.forbidden) {
    for (const Term& l : bounds.lower_nonstrict) {
      for (const Term& u : bounds.upper_nonstrict) {
        std::vector<GeneralizedTuple> next;
        next.reserve(work.size() * 2);
        for (const GeneralizedTuple& t : work) {
          if (!ticker.Tick()) return result;
          GeneralizedTuple strict = t;
          strict.AddAtom(DenseAtom(l, RelOp::kLt, u));
          if (strict.IsSatisfiable()) next.push_back(std::move(strict));
          GeneralizedTuple avoid = t;
          avoid.AddAtom(DenseAtom(l, RelOp::kNeq, f));
          if (avoid.IsSatisfiable()) next.push_back(std::move(avoid));
        }
        work = std::move(next);
      }
    }
  }
  for (GeneralizedTuple& t : work) result.AddTuple(std::move(t));
  return result;
}

GeneralizedRelation EliminateVariable(const GeneralizedRelation& relation,
                                      int var) {
  GeneralizedRelation result(relation.arity());
  const std::vector<GeneralizedTuple>& tuples = relation.tuples();
  QueryGuard* guard = CurrentQueryGuard();
  if (guard != nullptr &&
      !guard->Checkpoint(GuardSite::kQuantifierElim, tuples.size())) {
    return result;
  }
  if (!ShouldParallelize(tuples.size())) {
    GuardTicker ticker(guard, GuardSite::kQuantifierElim, 64);
    for (const GeneralizedTuple& tuple : tuples) {
      if (!ticker.Tick()) return result;
      GeneralizedRelation part = EliminateVariable(tuple, var);
      for (const GeneralizedTuple& t : part.tuples()) result.AddTuple(t);
    }
    return result;
  }
  // Per-tuple elimination is a pure function of the tuple (it builds fresh
  // constraint networks throughout); the subsumption-sensitive merge runs
  // sequentially in input order, so the output is bit-identical to the
  // inline loop above at any thread count. The guard is read here and
  // re-installed per job — workers don't inherit the thread-local scope.
  std::vector<GeneralizedRelation> parts =
      ParallelMap<GeneralizedRelation>(
          tuples.size(), [&, guard](size_t i) {
            QueryGuardScope guard_scope(guard);
            if (guard != nullptr) {
              if ((i & 63) == 63 &&
                  !guard->Checkpoint(GuardSite::kQuantifierElim)) {
                return GeneralizedRelation(relation.arity());
              }
              if (guard->tripped()) {
                return GeneralizedRelation(relation.arity());
              }
            }
            return EliminateVariable(tuples[i], var);
          });
  GuardTicker merge_ticker(guard, GuardSite::kQuantifierElim, 64);
  for (const GeneralizedRelation& part : parts) {
    for (const GeneralizedTuple& t : part.tuples()) {
      if (!merge_ticker.Tick()) return result;
      result.AddTuple(t);
    }
  }
  return result;
}

GeneralizedRelation ProjectColumns(const GeneralizedRelation& relation,
                                   const std::vector<int>& keep) {
  std::vector<bool> kept(relation.arity(), false);
  for (int column : keep) {
    DODB_CHECK(column >= 0 && column < relation.arity());
    DODB_CHECK_MSG(!kept[column], "duplicate column in projection");
    kept[column] = true;
  }
  bool identity = static_cast<int>(keep.size()) == relation.arity();
  for (size_t i = 0; identity && i < keep.size(); ++i) {
    identity = keep[i] == static_cast<int>(i);
  }
  if (identity) return relation;
  GeneralizedRelation current = relation;
  for (int column = 0; column < relation.arity(); ++column) {
    if (!kept[column]) current = EliminateVariable(current, column);
  }
  std::vector<int> mapping(relation.arity(), 0);
  // Eliminated columns no longer occur in any atom; map them to slot 0
  // harmlessly (ReindexTerm is never consulted for them).
  for (size_t i = 0; i < keep.size(); ++i) mapping[keep[i]] = static_cast<int>(i);
  GeneralizedRelation result(static_cast<int>(keep.size()));
  const std::vector<GeneralizedTuple>& tuples = current.tuples();
  result.AddTuplesParallel(tuples.size(), [&](size_t i) {
    return tuples[i].Reindexed(mapping, static_cast<int>(keep.size()));
  });
  return result;
}

}  // namespace dodb
