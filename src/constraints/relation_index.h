#ifndef DODB_CONSTRAINTS_RELATION_INDEX_H_
#define DODB_CONSTRAINTS_RELATION_INDEX_H_

#include <cstddef>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "constraints/generalized_tuple.h"
#include "constraints/tuple_signature.h"

namespace dodb {

class ColumnIntervalIndex;
class RelationShards;

/// Position-parallel index over a GeneralizedRelation's stored tuple vector:
/// one TupleSignature per tuple plus a multiset of canonical-form hashes.
/// Built lazily on first use and maintained incrementally by
/// GeneralizedRelation::AddCanonicalTuple, mirroring its insert/erase
/// positions exactly.
///
/// What it buys:
///   - duplicate rejection: a candidate whose hash is absent from the
///     multiset cannot be stored already, so the Compare-based search is
///     skipped (O(1) amortized for the fixpoint-dominant fresh-tuple case);
///   - subsumption restriction: a candidate can subsume or be subsumed only
///     by tuples whose bound boxes overlap its own (both tuples are
///     satisfiable, so a subsumption in either direction forces the boxes
///     to share a point), which turns the O(n) EntailsTuple scan into a
///     cheap box filter plus a few real entailment checks.
///
/// Not thread-safe: relations are only mutated (and hence indexed) on their
/// owning thread — pool workers receive copies. Copies of a relation share
/// the index snapshot; the first mutation of a sharing copy clones it.
class RelationIndex {
 public:
  RelationIndex() = default;
  ~RelationIndex();
  // Copies/moves carry the signatures, the hash multiset and the shard
  // partition (cloned under the source's lazy-build mutex, so a concurrent
  // lazy build on the shared snapshot cannot race the copy); only the lazy
  // interval caches are rebuilt on demand. Carrying the partition matters
  // for delete-heavy view maintenance: every erase detaches the shared
  // index snapshot first, and before this the detach dropped the partition,
  // charging a from-scratch shard rebuild per erase.
  RelationIndex(const RelationIndex& other);
  RelationIndex& operator=(const RelationIndex& other);
  RelationIndex(RelationIndex&& other) noexcept;
  RelationIndex& operator=(RelationIndex&& other) noexcept;

  /// From-scratch build over a tuple vector (the lazy path).
  static RelationIndex Build(const std::vector<GeneralizedTuple>& tuples);

  /// Mirror of tuples.insert(tuples.begin() + pos, tuple).
  void InsertAt(size_t pos, const TupleSignature& signature);
  /// Mirror of tuples.erase(tuples.begin() + pos).
  void EraseAt(size_t pos);

  /// False guarantees no stored tuple has this canonical-form hash (so no
  /// exact duplicate exists); true means "possibly present, confirm".
  bool MayContainHash(size_t hash) const;

  /// Appends, in ascending position order, every position whose bound box
  /// overlaps `probe` on all columns — the only positions that can be in a
  /// subsumption relation (either direction) with a tuple of signature
  /// `probe`.
  void AppendOverlapCandidates(const TupleSignature& probe,
                               std::vector<size_t>* out) const;

  size_t size() const { return signatures_.size(); }
  const TupleSignature& signature(size_t pos) const {
    return signatures_[pos];
  }

  /// The sorted-endpoint interval index over `column`, built lazily on
  /// first use and cached until the next InsertAt/EraseAt (incremental
  /// maintenance by invalidation: mutation drops the cache, the next probe
  /// rebuilds). Thread-safe for concurrent probes of a shared snapshot —
  /// rule jobs within a Datalog round reuse one build — under the engine
  /// contract that nobody mutates a shared relation. Returned pointer stays
  /// valid until the next mutation.
  const ColumnIntervalIndex* IntervalIndex(int column) const;

  /// The signature-bound shard partition of the indexed tuples (see
  /// relation_shards.h), built lazily on first use and thereafter maintained
  /// incrementally by InsertAt/EraseAt (copies carry it); dropped (and
  /// lazily rebuilt) once the relation doubles past the partition's build
  /// size. Thread-safe for concurrent readers of a shared snapshot,
  /// like IntervalIndex(). Returned pointer stays valid until the next
  /// mutation.
  const RelationShards* Shards() const;

  /// Convenience forwarder: the lazy interval index over `column` restricted
  /// to one shard's members (positions in the returned index are local —
  /// indexes into RelationShards::Members(shard)).
  const ColumnIntervalIndex* ShardIntervalIndex(uint32_t shard,
                                                int column) const;

  /// Test hook: whether this index is exactly the from-scratch build of
  /// `tuples` (signatures position by position, hash multiset).
  bool MatchesTuples(const std::vector<GeneralizedTuple>& tuples) const;

 private:
  void InvalidateIntervals();

  std::vector<TupleSignature> signatures_;
  std::unordered_map<size_t, uint32_t> hash_counts_;
  // Lazy per-column interval indexes; see IntervalIndex().
  mutable std::mutex intervals_mu_;
  mutable std::vector<std::unique_ptr<ColumnIntervalIndex>> intervals_;
  // Lazy shard partition; see Shards(). Lazy build is guarded by
  // intervals_mu_; incremental maintenance happens on the owning thread
  // only (mutation is never concurrent with reads of the same index).
  mutable std::unique_ptr<RelationShards> shards_;
};

/// Sorted-endpoint index over one column of a tuple list, cached on the
/// probed side of a join (a whole relation or one shard): entries sorted
/// by lower bound, unbounded-below entries first. A probe interval
/// [l, u] binary-searches the prefix of entries whose lower bound can sit
/// under u, then filters that window by upper-vs-l — output-sensitive on
/// workloads whose tuples are constant-separated (points, scattered
/// intervals), never worse than the cheap linear box filter.
class ColumnIntervalIndex {
 public:
  /// `signatures` must outlive the index. `column` selects which
  /// ColumnBound the entries are keyed on.
  ColumnIntervalIndex(const std::vector<const TupleSignature*>& signatures,
                      int column);
  ColumnIntervalIndex(const std::vector<TupleSignature>& signatures,
                      int column);

  /// Appends every position whose `column` interval may overlap `probe`
  /// (unsorted; callers sort the final candidate list once).
  void AppendCandidates(const ColumnBound& probe,
                        std::vector<size_t>* out) const;

 private:
  struct Entry {
    const ColumnBound* bound;
    size_t pos;
  };

  int column_;
  std::vector<Entry> by_lower_;  // sorted: unbounded-below first, then lower
};

}  // namespace dodb

#endif  // DODB_CONSTRAINTS_RELATION_INDEX_H_
