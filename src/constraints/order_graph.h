#ifndef DODB_CONSTRAINTS_ORDER_GRAPH_H_
#define DODB_CONSTRAINTS_ORDER_GRAPH_H_

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "constraints/atom_vec.h"
#include "constraints/dense_atom.h"
#include "core/rational.h"

namespace dodb {

/// Point-algebra relation between two points of a dense total order,
/// encoded as a bitmask over the basic relations {<, =, >}.
using PaRel = uint8_t;

inline constexpr PaRel kPaEmpty = 0;   // unsatisfiable
inline constexpr PaRel kPaLt = 1;      // {<}
inline constexpr PaRel kPaEq = 2;      // {=}
inline constexpr PaRel kPaGt = 4;      // {>}
inline constexpr PaRel kPaLe = 3;      // {<, =}
inline constexpr PaRel kPaNeq = 5;     // {<, >}
inline constexpr PaRel kPaGe = 6;      // {=, >}
inline constexpr PaRel kPaAll = 7;     // no information

/// The bitmask corresponding to a RelOp.
PaRel RelOpToPa(RelOp op);

/// The RelOp corresponding to a non-trivial bitmask (not kPaEmpty/kPaAll).
RelOp PaToRelOp(PaRel rel);

/// Point-algebra composition: the strongest relation R such that
/// x R z is implied by (x r1 y) and (y r2 z) over a dense total order.
PaRel PaCompose(PaRel r1, PaRel r2);

/// Inverse relation: x R y iff y Inv(R) x.
PaRel PaInverse(PaRel rel);

/// Constraint network of a conjunction of dense-order atoms.
///
/// Nodes are the tuple's variables (0..num_vars-1) plus one node per distinct
/// rational constant appearing in the atoms. The closure is computed by
/// path-consistency over the point algebra, which decides satisfiability over
/// dense total orders without endpoints (van Beek); the closed matrix also
/// yields a sound entailment test and a deterministic canonical atom list.
class OrderGraph {
 public:
  /// An empty (all-true) network over `num_vars` variables.
  explicit OrderGraph(int num_vars);

  /// Adds an atom; variable indices must be < num_vars.
  void AddAtom(const DenseAtom& atom);

  /// Computes the path-consistent closure. Idempotent; called implicitly by
  /// the query methods below. Returns whether the conjunction is satisfiable.
  bool Close();

  bool IsSatisfiable() { return Close(); }

  int num_vars() const { return num_vars_; }
  /// Total node count after closure: variables plus discovered constants.
  int num_nodes() const { return static_cast<int>(node_terms_.size()); }
  /// The term labeling a node (variable or constant).
  const Term& node_term(int node) const { return node_terms_[node]; }

  /// The closed relation between two nodes. Requires a satisfiable network.
  PaRel RelBetween(int a, int b);

  /// The closed relation between a variable and a rational value (the value
  /// need not be a node: it is located relative to the constant nodes).
  /// Sound but conservative for values strictly between constant nodes.
  PaRel RelToValue(int var, const Rational& value);

  /// Whether the closure entails `atom` (sound; complete for the convex
  /// fragment). An unsatisfiable network entails everything.
  bool Entails(const DenseAtom& atom);

  /// Deterministic canonical conjunction equivalent to the closure (the
  /// minimal form), skipping constant-constant pairs. Var-var pairs emit
  /// their informative closed relation. Var-const pairs emit, per variable,
  /// only the equality atom when one exists, else the tightest lower bound,
  /// the tightest upper bound, and the surviving inequations — every other
  /// var-const atom is implied by transitivity through the constant scale
  /// (proof sketch in the implementation and DESIGN.md §12). Empty when the
  /// network is unsatisfiable is NOT the convention: call IsSatisfiable()
  /// first.
  std::vector<DenseAtom> CanonicalAtoms();

  /// CanonicalAtoms() into an AtomVec (small lists stay inline — the
  /// minimal form usually fits with zero heap traffic). Primary emitter;
  /// updates the canonical-form counters.
  AtomVec CanonicalAtomVec();

  /// A point of Q^num_vars satisfying the conjunction, or nullopt when
  /// unsatisfiable. Witnesses avoid all constant values unless forced equal.
  std::optional<std::vector<Rational>> SampleWitness();

  /// If the closure forces variable `var` equal to another node, the term of
  /// the preferred representative (a constant if available, else the lowest
  /// other variable index); nullopt otherwise.
  std::optional<Term> EqualityRep(int var);

 private:
  int NodeForConstant(const Rational& value);
  void EnsureMatrix();
  void Set(int a, int b, PaRel rel);
  /// Closed-matrix entry (i, j). Constant-constant pairs are answered from
  /// the value-rank array — their relation is the exact basic order of the
  /// two values, never stored in the matrix; everything else reads the
  /// matrix.
  PaRel RelAt(int i, int j) const;

  int num_vars_;
  std::vector<Term> node_terms_;
  std::map<Rational, int> constant_nodes_;
  std::vector<std::pair<std::pair<int, int>, PaRel>> pending_;  // atom edges
  std::vector<PaRel> rel_;  // row-major num_nodes x num_nodes, after Close()
  std::vector<int> const_rank_;  // node -> rank of its value on the scale
  bool closed_ = false;
  bool satisfiable_ = true;
  bool forced_unsat_ = false;  // a ground atom was already false
};

}  // namespace dodb

#endif  // DODB_CONSTRAINTS_ORDER_GRAPH_H_
