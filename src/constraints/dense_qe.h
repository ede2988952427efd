#ifndef DODB_CONSTRAINTS_DENSE_QE_H_
#define DODB_CONSTRAINTS_DENSE_QE_H_

#include <vector>

#include "constraints/generalized_relation.h"
#include "constraints/generalized_tuple.h"

namespace dodb {

/// Exact quantifier elimination for dense order without endpoints [CK73].
///
/// EliminateVariable computes a quantifier-free DNF equivalent to
/// `exists x_var. tuple` over Q = (Q, <=). The result keeps the tuple's
/// arity; the eliminated variable simply no longer occurs. The output is a
/// relation (not a single tuple) because inequations interact with closed
/// bounds: `exists x (l <= x and x <= u and x != f)` is `l < u or (l <= u
/// and l != f)`, a genuine disjunction.
GeneralizedRelation EliminateVariable(const GeneralizedTuple& tuple, int var);

/// Tuple-wise elimination over a whole relation.
GeneralizedRelation EliminateVariable(const GeneralizedRelation& relation,
                                      int var);

/// Projection onto the listed columns, in the listed order: eliminates every
/// other variable, then reindexes keep[i] -> i. Keeping every column in
/// order returns `relation` itself, sharing its tuples.
GeneralizedRelation ProjectColumns(const GeneralizedRelation& relation,
                                   const std::vector<int>& keep);

}  // namespace dodb

#endif  // DODB_CONSTRAINTS_DENSE_QE_H_
