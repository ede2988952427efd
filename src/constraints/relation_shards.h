#ifndef DODB_CONSTRAINTS_RELATION_SHARDS_H_
#define DODB_CONSTRAINTS_RELATION_SHARDS_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "constraints/relation_index.h"
#include "constraints/tuple_signature.h"

namespace dodb {

/// Signature-bound partitioning of a relation's tuple vector into shards:
/// first-column interval buckets cut at quantiles of the tuples' lower
/// bounds, so tuples whose boxes start nearby land in the same shard. The
/// assignment is position-parallel to the tuple vector (shard_of(pos)), so
/// it mirrors the relation's sorted-insert/erase positions exactly, like
/// RelationIndex does.
///
/// What it buys:
///   - shard-pair pruning: each shard keeps a widen-only cover box (the
///     interval hull of its members' signatures). Two shards whose covers
///     are disjoint on some column cannot contain an overlapping tuple pair,
///     so joins and subsumption scans skip whole shards instead of testing
///     tuple pairs one by one;
///   - per-shard probes: members of a surviving shard pair probe a lazy
///     per-shard interval index instead of the whole relation's (see the
///     join enumerator in algebra/relational_ops).
///
/// Determinism: pruning by covers is a strict superset filter of the
/// per-pair signature test (a member box is contained in its shard's cover,
/// so disjoint covers imply every member pair disjoint), and shard layout
/// never influences which candidates survive — only which ones are tested.
/// Results are therefore bit-identical to the unsharded path regardless of
/// cut placement, rebuild timing, or thread count.
///
/// Maintenance: InsertAt/EraseAt incrementally update the assignment and the
/// per-shard aggregates (covers only widen; a post-erase cover may be wider
/// than the exact hull, which is sound for pruning). Once the relation has
/// doubled since the cuts were computed the quantiles are stale; the owner
/// (RelationIndex) drops the sharding on NeedsRebuild() and the next use
/// rebuilds it from scratch, deterministically.
///
/// Mutation is single-threaded (owning thread only), matching the relation
/// contract; the lazy per-shard caches (member lists, per-shard interval
/// indexes) are mutex-guarded so concurrent readers of a shared snapshot can
/// fault them in safely.
class RelationShards {
 public:
  /// Below this many tuples a relation stays effectively unsharded (one
  /// shard); the pair-enumeration savings cannot pay for the bookkeeping.
  static constexpr size_t kMinTuples = 32;
  /// Tuples per shard the builder aims for.
  static constexpr size_t kTargetSize = 16;
  /// Hard cap on shard count (keeps the shard-pair matrix small).
  static constexpr size_t kMaxShards = 64;

  /// Deterministic quantile build over `signatures` (position-parallel).
  explicit RelationShards(const std::vector<TupleSignature>& signatures);

  // Copies carry the assignment, cuts and aggregates; the lazy member/index
  // caches are rebuilt on demand (they hold pointers into the source).
  RelationShards(const RelationShards& other);
  RelationShards& operator=(const RelationShards& other);

  /// Mirror of tuples.insert(tuples.begin() + pos, tuple).
  void InsertAt(size_t pos, const TupleSignature& signature);
  /// Mirror of tuples.erase(tuples.begin() + pos).
  void EraseAt(size_t pos);

  size_t shard_count() const { return stats_.size(); }
  size_t tuple_count() const { return shard_of_.size(); }
  uint32_t shard_of(size_t pos) const { return shard_of_[pos]; }

  /// Per-shard aggregates, maintained incrementally.
  struct ShardStats {
    size_t size = 0;           // current member count
    bool cover_seeded = false; // false while the shard has never had a member
    TupleSignature cover;      // widen-only hull of member signatures
  };
  const ShardStats& stats(uint32_t shard) const { return stats_[shard]; }

  /// True once the relation has grown to twice the size the cuts were
  /// computed for — the owner should drop and lazily rebuild the sharding.
  bool NeedsRebuild() const {
    return shard_of_.size() > 2 * built_size_ + kMinTuples;
  }

  /// Ascending member positions of `shard`. Built lazily for all shards in
  /// one pass; invalidated by any InsertAt/EraseAt. Thread-safe for
  /// concurrent readers of a shared snapshot.
  const std::vector<size_t>& Members(uint32_t shard) const;

  /// Lazy per-shard interval index over `column`: entries are the shard's
  /// member signatures, and AppendCandidates positions are *local* (indexes
  /// into Members(shard)). `signatures` must be the vector this sharding is
  /// maintained against; the returned pointer stays valid until the next
  /// mutation. Thread-safe like Members().
  const ColumnIntervalIndex* ShardIntervals(
      uint32_t shard, int column,
      const std::vector<TupleSignature>& signatures) const;

  /// Test hook: internal consistency against the signature vector the
  /// sharding claims to mirror — assignment matches the cut function,
  /// per-shard sizes match a recount, and every member's box is contained
  /// in its shard's cover.
  bool SoundFor(const std::vector<TupleSignature>& signatures) const;

 private:
  uint32_t ShardFor(const TupleSignature& signature) const;
  void Absorb(uint32_t shard, const TupleSignature& signature);
  void InvalidateCaches();
  void EnsureMembers() const;  // callers hold lazy_mu_

  // Ascending first-column cut keys (lower sides only); shard i holds the
  // tuples whose first-column lower bound sits at or above cut i-1 and
  // below cut i. stats_.size() == cuts_.size() + 1.
  std::vector<ColumnBound> cuts_;
  std::vector<uint32_t> shard_of_;  // position-parallel to the tuple vector
  std::vector<ShardStats> stats_;
  size_t built_size_ = 0;  // tuple count the cuts were computed for

  // Lazy caches; see Members()/ShardIntervals().
  mutable std::mutex lazy_mu_;
  mutable bool members_built_ = false;
  mutable std::vector<std::vector<size_t>> members_;
  mutable std::vector<std::vector<std::unique_ptr<ColumnIntervalIndex>>>
      shard_intervals_;
};

}  // namespace dodb

#endif  // DODB_CONSTRAINTS_RELATION_SHARDS_H_
