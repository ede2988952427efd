#ifndef DODB_CONSTRAINTS_GENERALIZED_RELATION_H_
#define DODB_CONSTRAINTS_GENERALIZED_RELATION_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "constraints/generalized_tuple.h"
#include "constraints/relation_index.h"

namespace dodb {

/// A k-ary finitely representable relation [KKR90]: a finite set of k-ary
/// generalized tuples, denoting the union of their point sets (a
/// quantifier-free DNF formula over the dense-order language).
///
/// Invariants maintained by AddTuple: every stored tuple is satisfiable and
/// in canonical (closure) form, no stored tuple is subsumed by another, and
/// tuples are kept sorted for deterministic output. Semantic operations
/// (union, complement, projection, ...) live in algebra/relational_ops.h.
class GeneralizedRelation {
 public:
  /// The empty relation over Q^arity (formula "false").
  explicit GeneralizedRelation(int arity);

  /// Copies share tuple storage (copy-on-write) and the index snapshot, but
  /// never the atom arena: the arena is an append-only buffer owned by the
  /// thread mutating this relation, and two relations appending to one
  /// arena would race. The copy starts a fresh arena on its first insert;
  /// tuples it shares keep their spans alive through per-tuple refs.
  GeneralizedRelation(const GeneralizedRelation& other)
      : arity_(other.arity_), tuples_(other.tuples_), index_(other.index_) {}
  GeneralizedRelation& operator=(const GeneralizedRelation& other) {
    arity_ = other.arity_;
    tuples_ = other.tuples_;
    index_ = other.index_;
    arena_.reset();
    return *this;
  }
  GeneralizedRelation(GeneralizedRelation&&) noexcept = default;
  GeneralizedRelation& operator=(GeneralizedRelation&&) noexcept = default;

  /// The full space Q^arity (formula "true": one all-true tuple).
  static GeneralizedRelation True(int arity);
  /// Alias of the default constructor, for symmetry.
  static GeneralizedRelation False(int arity);

  /// A classical finite relation: one point tuple per row.
  static GeneralizedRelation FromPoints(
      int arity, const std::vector<std::vector<Rational>>& points);

  /// Installs an already-canonical tuple vector verbatim, trusting the
  /// caller for every AddTuple invariant (each tuple satisfiable and in
  /// closure form, pairwise non-subsuming, sorted). The binary snapshot
  /// loader uses this to rebuild a relation exactly as it was stored —
  /// skipping the closure and subsumption passes is what makes binary load
  /// several times faster than a text parse. Integrity of the input is the
  /// snapshot CRC's responsibility.
  static GeneralizedRelation FromCanonicalTuples(
      int arity, std::vector<GeneralizedTuple> tuples);

  int arity() const { return arity_; }
  /// The canonical tuple vector.
  const std::vector<GeneralizedTuple>& tuples() const;
  bool IsEmpty() const { return tuple_count() == 0; }
  size_t tuple_count() const { return tuples_ ? tuples_->size() : 0; }
  /// Total atom count across tuples (representation-size metric of §3).
  size_t atom_count() const;

  /// Inserts a tuple: drops it when unsatisfiable or subsumed by an existing
  /// tuple; removes existing tuples it subsumes. Keeps canonical order.
  void AddTuple(GeneralizedTuple tuple);

  /// AddTuple for a tuple already in closure-canonical form (as produced by
  /// GeneralizedTuple::CanonicalIfSatisfiable): skips the satisfiability
  /// check and re-canonicalization, keeps the same pruning contract.
  void AddCanonicalTuple(GeneralizedTuple canonical);

  /// AddCanonicalTuple that reports the structural delta: returns whether
  /// the tuple was actually inserted (false = exact duplicate or subsumed by
  /// a stored tuple) and, when `erased` is non-null, appends every stored
  /// tuple the insert displaced by subsumption. The view-maintenance layer
  /// uses this to capture per-statement base deltas without diffing whole
  /// relations. Identical relation state to AddCanonicalTuple.
  bool AddCanonicalTupleCaptured(GeneralizedTuple canonical,
                                 std::vector<GeneralizedTuple>* erased);

  /// Structurally removes the stored tuple equal to `canonical` (Compare ==
  /// 0); returns whether it was present. The index mirror is maintained
  /// incrementally (no rebuild). Note this is *structural* removal — the
  /// semantic counterpart (pointset subtraction) is algebra::Difference.
  bool EraseCanonicalTuple(const GeneralizedTuple& canonical);

  /// Evaluates make(i) for every i in [0, n) — on the shared thread pool
  /// when the current eval-thread setting allows — and inserts the results
  /// in index order. Bit-identical to `for (i) AddTuple(make(i))` at any
  /// thread count: per-candidate closure/canonicalization is a pure function
  /// of the candidate and runs on the workers, while the order-sensitive
  /// subsumption merge stays sequential. `make` must be safe to call
  /// concurrently for distinct indices (reading shared tuples and copying
  /// them is safe; calling their caching accessors is not).
  void AddTuplesParallel(size_t n,
                         const std::function<GeneralizedTuple(size_t)>& make);

  /// The stored tuples whose signature box overlaps `probe` on every column
  /// (RelationIndex::AppendOverlapCandidates), in stored order, sharing
  /// them: a subset of a canonical relation is canonical, so nothing is
  /// re-canonicalized. A tuple outside it cannot meet a conjunct that pins
  /// its columns inside the probe. Returns this relation itself when the
  /// probe prunes nothing. Builds the index lazily, like Index().
  GeneralizedRelation OverlapSubset(const TupleSignature& probe) const;

  /// Point membership in the represented (possibly infinite) point set.
  bool Contains(const std::vector<Rational>& point) const;

  /// Distinct constants across all tuples, ascending (the relation's
  /// "active scale" used by the cell decomposition and standard encoding).
  std::vector<Rational> Constants() const;

  /// Syntactic equality of canonical representations (sound for equality;
  /// semantic equality is decided via cells::SemanticallyEqual).
  bool StructurallyEquals(const GeneralizedRelation& other) const;

  /// The relation's constraint-signature index, built lazily from the
  /// stored tuples and thereafter maintained incrementally by every
  /// mutation. Copies share the index until one of them mutates. Not safe
  /// to call concurrently on a relation shared across threads — mutation,
  /// and hence indexing, happens on the owning thread only.
  const RelationIndex& Index() const;

  /// "{ tuple ; tuple ; ... }" or "{}".
  std::string ToString(const std::vector<std::string>* names = nullptr) const;

 private:
  /// Index() that is safe to mutate: clones a shared snapshot first, builds
  /// from scratch when absent.
  RelationIndex* MutableIndex();

  /// Moves an accepted tuple's heap-backed atom list into this relation's
  /// arena (allocating the arena on first use); counts a reuse hit when the
  /// tuple already borrows an arena span (typically another relation's —
  /// storing it is then a pointer copy, no atom traffic at all).
  void PlaceInArena(GeneralizedTuple& tuple);

  /// The tuple vector, unshared: clones a vector other copies of the
  /// relation still reference (copy-on-write), allocates when still empty.
  /// Every mutation goes through this.
  std::vector<GeneralizedTuple>& MutableTuples();

  int arity_;
  // Copy-on-write tuple storage: copies of a relation (per-round fixpoint
  // snapshots, the accumulator copy inside algebra::Union) share one vector
  // until a mutation detaches it, so a relation copy is O(1) instead of a
  // deep copy of every tuple. nullptr means empty (the common transient
  // case: algebra operators construct many empty intermediates).
  std::shared_ptr<std::vector<GeneralizedTuple>> tuples_;
  // See Index(). shared_ptr with the same sharing discipline.
  mutable std::shared_ptr<RelationIndex> index_;
  // Flat atom storage for stored tuples (see AtomArena): created on the
  // first insert that has a heap-backed atom list to place, deliberately
  // NOT shared by copies (see the copy constructor). Tuples hold their own
  // keepalive refs, so resetting this never dangles a span.
  std::shared_ptr<AtomArena> arena_;
};

}  // namespace dodb

#endif  // DODB_CONSTRAINTS_GENERALIZED_RELATION_H_
