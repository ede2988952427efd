#ifndef DODB_ALGEBRA_RELATIONAL_OPS_H_
#define DODB_ALGEBRA_RELATIONAL_OPS_H_

#include <utility>
#include <vector>

#include "constraints/generalized_relation.h"

namespace dodb {

/// Closed-form generalized relational algebra over dense-order constraint
/// relations [KKR90]: every operation maps finitely representable relations
/// to finitely representable relations, so first-order queries evaluate
/// bottom-up without ever materializing infinite point sets.
namespace algebra {

/// a ∪ b (same arity).
GeneralizedRelation Union(const GeneralizedRelation& a,
                          const GeneralizedRelation& b);

/// a ∩ b (same arity): pairwise conjunction, unsatisfiable products pruned.
GeneralizedRelation Intersect(const GeneralizedRelation& a,
                              const GeneralizedRelation& b);

/// Q^k \ rel. Exact. Dispatches between the two strategies below: cells for
/// arity 1 (linear in the scale), incremental DNF otherwise.
GeneralizedRelation Complement(const GeneralizedRelation& rel);

/// The incremental-DNF complement strategy: negate tuple by tuple with
/// subsumption pruning. Exact at any arity (dense-order atoms are closed
/// under negation); worst-case exponential in the tuple count, but output
/// stays compact. Exposed for the strategy ablation in bench_fo_complexity.
GeneralizedRelation ComplementViaDnf(const GeneralizedRelation& rel);

/// The cell-decomposition complement strategy: one output tuple per
/// uncovered cell of the relation's own scale. Exact; cost and output size
/// are the cell count — linear for arity 1, (2m+1)^k-ish beyond. Exposed
/// for the same ablation.
GeneralizedRelation ComplementViaCells(const GeneralizedRelation& rel);

/// a \ b == a ∩ Complement(b).
GeneralizedRelation Difference(const GeneralizedRelation& a,
                               const GeneralizedRelation& b);

/// a × b: columns of a then columns of b (EquiJoin with no column pairs).
GeneralizedRelation CrossProduct(const GeneralizedRelation& a,
                                 const GeneralizedRelation& b);

/// Equi-join: the cross product constrained by a.column == b.column for
/// every (a_column, b_column) pair. Result columns are a's columns followed
/// by b's columns (joined columns are kept, pinned equal).
GeneralizedRelation EquiJoin(
    const GeneralizedRelation& a, const GeneralizedRelation& b,
    const std::vector<std::pair<int, int>>& column_pairs);

/// σ_atom(rel): conjoins one atom onto every tuple.
GeneralizedRelation Select(const GeneralizedRelation& rel,
                           const DenseAtom& atom);

/// Column permutation / widening: column i of `rel` becomes column
/// mapping[i] of the result. Mapping two source columns to the same target
/// is allowed and means their equality (used for R(x, x) style atoms).
/// The identity mapping returns `rel` itself, sharing its tuples.
GeneralizedRelation Rename(const GeneralizedRelation& rel,
                           const std::vector<int>& mapping, int new_arity);

}  // namespace algebra
}  // namespace dodb

#endif  // DODB_ALGEBRA_RELATIONAL_OPS_H_
