#include "constraints/relation_index.h"

#include <algorithm>

#include "constraints/eval_counters.h"
#include "constraints/relation_shards.h"
#include "core/check.h"

namespace dodb {

RelationIndex::~RelationIndex() = default;

namespace {

// Clones the source's shard partition under its lazy-build mutex (a reader
// of the shared snapshot may be faulting the partition in concurrently).
// Carrying the partition across a copy-on-write detach is what keeps
// delete-heavy maintenance loops from paying a from-scratch quantile
// rebuild per erase: the copy is a flat vector clone, maintained
// incrementally by InsertAt/EraseAt from then on, and is NOT counted as a
// shard index build (relation_shards_test asserts on that).
std::unique_ptr<RelationShards> CloneShards(
    std::mutex& mu, const std::unique_ptr<RelationShards>& shards) {
  std::lock_guard<std::mutex> lock(mu);
  if (!shards) return nullptr;
  return std::make_unique<RelationShards>(*shards);
}

}  // namespace

RelationIndex::RelationIndex(const RelationIndex& other)
    : signatures_(other.signatures_),
      hash_counts_(other.hash_counts_),
      shards_(CloneShards(other.intervals_mu_, other.shards_)) {}

RelationIndex& RelationIndex::operator=(const RelationIndex& other) {
  if (this != &other) {
    signatures_ = other.signatures_;
    hash_counts_ = other.hash_counts_;
    std::unique_ptr<RelationShards> cloned =
        CloneShards(other.intervals_mu_, other.shards_);
    InvalidateIntervals();
    shards_ = std::move(cloned);
  }
  return *this;
}

RelationIndex::RelationIndex(RelationIndex&& other) noexcept
    : signatures_(std::move(other.signatures_)),
      hash_counts_(std::move(other.hash_counts_)),
      shards_(std::move(other.shards_)) {}

RelationIndex& RelationIndex::operator=(RelationIndex&& other) noexcept {
  if (this != &other) {
    signatures_ = std::move(other.signatures_);
    hash_counts_ = std::move(other.hash_counts_);
    InvalidateIntervals();
    shards_ = std::move(other.shards_);
  }
  return *this;
}

void RelationIndex::InvalidateIntervals() {
  std::lock_guard<std::mutex> lock(intervals_mu_);
  intervals_.clear();
}

const RelationShards* RelationIndex::Shards() const {
  std::lock_guard<std::mutex> lock(intervals_mu_);
  if (!shards_) {
    shards_ = std::make_unique<RelationShards>(signatures_);
    EvalCounters::AddShardIndexBuilds(1);
  }
  return shards_.get();
}

const ColumnIntervalIndex* RelationIndex::ShardIntervalIndex(
    uint32_t shard, int column) const {
  return Shards()->ShardIntervals(shard, column, signatures_);
}

const ColumnIntervalIndex* RelationIndex::IntervalIndex(int column) const {
  DODB_CHECK(column >= 0);
  std::lock_guard<std::mutex> lock(intervals_mu_);
  if (static_cast<size_t>(column) >= intervals_.size()) {
    intervals_.resize(column + 1);
  }
  if (!intervals_[column]) {
    intervals_[column] =
        std::make_unique<ColumnIntervalIndex>(signatures_, column);
  }
  return intervals_[column].get();
}

RelationIndex RelationIndex::Build(
    const std::vector<GeneralizedTuple>& tuples) {
  RelationIndex index;
  index.signatures_.reserve(tuples.size());
  for (size_t pos = 0; pos < tuples.size(); ++pos) {
    index.signatures_.push_back(tuples[pos].CachedSignature());
    ++index.hash_counts_[index.signatures_.back().hash];
  }
  return index;
}

void RelationIndex::InsertAt(size_t pos, const TupleSignature& signature) {
  DODB_CHECK(pos <= signatures_.size());
  signatures_.insert(signatures_.begin() + pos, signature);
  ++hash_counts_[signature.hash];
  InvalidateIntervals();
  if (shards_) {
    shards_->InsertAt(pos, signature);
    // Quantile cuts go stale as the relation grows; drop the partition and
    // let the next use rebuild it (output-invariant either way — shard
    // layout only decides which pairs get tested, never which survive).
    if (shards_->NeedsRebuild()) shards_.reset();
  }
}

void RelationIndex::EraseAt(size_t pos) {
  DODB_CHECK(pos < signatures_.size());
  auto it = hash_counts_.find(signatures_[pos].hash);
  DODB_CHECK(it != hash_counts_.end() && it->second > 0);
  if (--it->second == 0) hash_counts_.erase(it);
  if (shards_) shards_->EraseAt(pos);
  signatures_.erase(signatures_.begin() + pos);
  InvalidateIntervals();
}

bool RelationIndex::MayContainHash(size_t hash) const {
  return hash_counts_.count(hash) > 0;
}

void RelationIndex::AppendOverlapCandidates(const TupleSignature& probe,
                                            std::vector<size_t>* out) const {
  if (signatures_.size() >= RelationShards::kMinTuples) {
    const RelationShards* shards = Shards();
    const size_t num_shards = shards->shard_count();
    if (num_shards > 1) {
      // Shard-skipping scan: a shard whose cover box is disjoint from the
      // probe cannot hold an overlapping member (member boxes are contained
      // in the cover), so its tuples skip the per-signature test. The
      // survivor set is exactly the unsharded scan's — the cover check is a
      // superset filter of the per-pair test — and positions stay ascending.
      std::vector<char> live(num_shards, 0);
      uint64_t pruned = 0;
      for (uint32_t s = 0; s < num_shards; ++s) {
        const RelationShards::ShardStats& stats = shards->stats(s);
        if (stats.size == 0) {
          ++pruned;
          continue;
        }
        if (SignaturesMayOverlap(stats.cover, probe)) {
          live[s] = 1;
        } else {
          ++pruned;
        }
      }
      EvalCounters::AddShardPairs(num_shards, pruned);
      for (size_t pos = 0; pos < signatures_.size(); ++pos) {
        if (live[shards->shard_of(pos)] &&
            SignaturesMayOverlap(signatures_[pos], probe)) {
          out->push_back(pos);
        }
      }
      return;
    }
  }
  for (size_t pos = 0; pos < signatures_.size(); ++pos) {
    if (SignaturesMayOverlap(signatures_[pos], probe)) out->push_back(pos);
  }
}

bool RelationIndex::MatchesTuples(
    const std::vector<GeneralizedTuple>& tuples) const {
  if (tuples.size() != signatures_.size()) return false;
  std::unordered_map<size_t, uint32_t> expected_hashes;
  for (size_t pos = 0; pos < tuples.size(); ++pos) {
    const TupleSignature& expected = tuples[pos].CachedSignature();
    const TupleSignature& actual = signatures_[pos];
    if (expected.hash != actual.hash) return false;
    if (expected.columns.size() != actual.columns.size()) return false;
    for (size_t c = 0; c < expected.columns.size(); ++c) {
      const ColumnBound& e = expected.columns[c];
      const ColumnBound& a = actual.columns[c];
      if (e.has_lower != a.has_lower || e.has_upper != a.has_upper) {
        return false;
      }
      if (e.has_lower &&
          (e.lower_open != a.lower_open || e.lower != a.lower)) {
        return false;
      }
      if (e.has_upper &&
          (e.upper_open != a.upper_open || e.upper != a.upper)) {
        return false;
      }
    }
    ++expected_hashes[expected.hash];
  }
  return expected_hashes == hash_counts_;
}

namespace {

// Can this entry's lower bound sit at or under `value`? (With an open flag
// on either side, touching does not count.) Unbounded-below always fits.
bool LowerFitsUnder(const ColumnBound& entry, const Rational& value,
                    bool value_open) {
  if (!entry.has_lower) return true;
  int cmp = entry.lower.Compare(value);
  if (cmp != 0) return cmp < 0;
  return !entry.lower_open && !value_open;
}

}  // namespace

namespace {

std::vector<const TupleSignature*> AsPointers(
    const std::vector<TupleSignature>& signatures) {
  std::vector<const TupleSignature*> out;
  out.reserve(signatures.size());
  for (const TupleSignature& signature : signatures) out.push_back(&signature);
  return out;
}

}  // namespace

ColumnIntervalIndex::ColumnIntervalIndex(
    const std::vector<TupleSignature>& signatures, int column)
    : ColumnIntervalIndex(AsPointers(signatures), column) {}

ColumnIntervalIndex::ColumnIntervalIndex(
    const std::vector<const TupleSignature*>& signatures, int column)
    : column_(column) {
  by_lower_.reserve(signatures.size());
  for (size_t pos = 0; pos < signatures.size(); ++pos) {
    by_lower_.push_back(Entry{&signatures[pos]->columns[column], pos});
  }
  std::sort(by_lower_.begin(), by_lower_.end(),
            [](const Entry& a, const Entry& b) {
              if (a.bound->has_lower != b.bound->has_lower) {
                return !a.bound->has_lower;  // unbounded-below first
              }
              if (!a.bound->has_lower) return a.pos < b.pos;
              int cmp = a.bound->lower.Compare(b.bound->lower);
              if (cmp != 0) return cmp < 0;
              if (a.bound->lower_open != b.bound->lower_open) {
                return !a.bound->lower_open;  // closed before open
              }
              return a.pos < b.pos;
            });
}

void ColumnIntervalIndex::AppendCandidates(const ColumnBound& probe,
                                           std::vector<size_t>* out) const {
  // Admissible entries (lower bound can sit under the probe's upper bound)
  // form a prefix of the sort order; binary-search its end, then filter the
  // window by the other half of the overlap test.
  auto end = by_lower_.end();
  if (probe.has_upper) {
    end = std::partition_point(
        by_lower_.begin(), by_lower_.end(), [&probe](const Entry& entry) {
          return LowerFitsUnder(*entry.bound, probe.upper, probe.upper_open);
        });
  }
  for (auto it = by_lower_.begin(); it != end; ++it) {
    if (BoundsMayOverlap(probe, *it->bound)) out->push_back(it->pos);
  }
}

}  // namespace dodb
