#include "constraints/relation_shards.h"

#include <algorithm>

#include "constraints/eval_counters.h"
#include "core/check.h"

namespace dodb {

namespace {

const ColumnBound& UnboundedKey() {
  static const ColumnBound kUnbounded;
  return kUnbounded;
}

const ColumnBound& FirstColumnKey(const TupleSignature& signature) {
  return signature.columns.empty() ? UnboundedKey() : signature.columns[0];
}

// member's admitted interval contained in cover's on one column.
bool BoundContains(const ColumnBound& cover, const ColumnBound& member) {
  if (cover.has_lower) {
    if (!member.has_lower) return false;
    if (CompareLowerBounds(cover, member) > 0) return false;
  }
  if (cover.has_upper) {
    if (!member.has_upper) return false;
    int cmp = member.upper.Compare(cover.upper);
    if (cmp > 0) return false;
    if (cmp == 0 && cover.upper_open && !member.upper_open) return false;
  }
  return true;
}

}  // namespace

RelationShards::RelationShards(const std::vector<TupleSignature>& signatures) {
  built_size_ = signatures.size();
  const size_t n = signatures.size();
  if (n >= kMinTuples) {
    // Quantile cuts over the sorted first-column lower bounds: aim for
    // kTargetSize tuples per shard, capped at kMaxShards. Duplicate keys
    // collapse (cuts are strictly increasing), so heavily repeated bounds
    // just yield fewer, larger shards.
    std::vector<const ColumnBound*> keys;
    keys.reserve(n);
    for (const TupleSignature& signature : signatures) {
      keys.push_back(&FirstColumnKey(signature));
    }
    std::sort(keys.begin(), keys.end(),
              [](const ColumnBound* a, const ColumnBound* b) {
                return CompareLowerBounds(*a, *b) < 0;
              });
    const size_t target = std::min(kMaxShards, (n + kTargetSize - 1) / kTargetSize);
    for (size_t k = 1; k < target; ++k) {
      const ColumnBound& candidate = *keys[k * n / target];
      if (cuts_.empty() || CompareLowerBounds(cuts_.back(), candidate) < 0) {
        cuts_.push_back(candidate);
      }
    }
  }
  stats_.resize(cuts_.size() + 1);
  shard_of_.reserve(n);
  for (const TupleSignature& signature : signatures) {
    uint32_t shard = ShardFor(signature);
    shard_of_.push_back(shard);
    Absorb(shard, signature);
  }
}

RelationShards::RelationShards(const RelationShards& other)
    : cuts_(other.cuts_),
      shard_of_(other.shard_of_),
      stats_(other.stats_),
      built_size_(other.built_size_) {}

RelationShards& RelationShards::operator=(const RelationShards& other) {
  if (this != &other) {
    cuts_ = other.cuts_;
    shard_of_ = other.shard_of_;
    stats_ = other.stats_;
    built_size_ = other.built_size_;
    InvalidateCaches();
  }
  return *this;
}

uint32_t RelationShards::ShardFor(const TupleSignature& signature) const {
  const ColumnBound& key = FirstColumnKey(signature);
  // Number of cuts at or below the key (cuts are strictly increasing).
  size_t lo = 0;
  size_t hi = cuts_.size();
  while (lo < hi) {
    size_t mid = lo + (hi - lo) / 2;
    if (CompareLowerBounds(cuts_[mid], key) <= 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return static_cast<uint32_t>(lo);
}

void RelationShards::Absorb(uint32_t shard, const TupleSignature& signature) {
  ShardStats& stats = stats_[shard];
  ++stats.size;
  if (!stats.cover_seeded) {
    stats.cover = signature;  // hull of one box is the box itself
    stats.cover.hash = 0;     // covers are boxes, not tuples
    stats.cover_seeded = true;
    return;
  }
  DODB_CHECK(stats.cover.columns.size() == signature.columns.size());
  for (size_t c = 0; c < signature.columns.size(); ++c) {
    WidenToCover(stats.cover.columns[c], signature.columns[c]);
  }
}

void RelationShards::InsertAt(size_t pos, const TupleSignature& signature) {
  DODB_CHECK(pos <= shard_of_.size());
  uint32_t shard = ShardFor(signature);
  shard_of_.insert(shard_of_.begin() + pos, shard);
  Absorb(shard, signature);
  InvalidateCaches();
}

void RelationShards::EraseAt(size_t pos) {
  DODB_CHECK(pos < shard_of_.size());
  ShardStats& stats = stats_[shard_of_[pos]];
  shard_of_.erase(shard_of_.begin() + pos);
  DODB_CHECK(stats.size > 0);
  --stats.size;
  // The cover stays as-is: it only widens, and a cover wider than the exact
  // member hull is still a sound overlap filter.
  InvalidateCaches();
}

void RelationShards::InvalidateCaches() {
  std::lock_guard<std::mutex> lock(lazy_mu_);
  members_built_ = false;
  members_.clear();
  shard_intervals_.clear();
}

void RelationShards::EnsureMembers() const {
  if (members_built_) return;
  members_.assign(stats_.size(), {});
  for (uint32_t shard = 0; shard < stats_.size(); ++shard) {
    members_[shard].reserve(stats_[shard].size);
  }
  for (size_t pos = 0; pos < shard_of_.size(); ++pos) {
    members_[shard_of_[pos]].push_back(pos);
  }
  members_built_ = true;
}

const std::vector<size_t>& RelationShards::Members(uint32_t shard) const {
  std::lock_guard<std::mutex> lock(lazy_mu_);
  EnsureMembers();
  return members_[shard];
}

const ColumnIntervalIndex* RelationShards::ShardIntervals(
    uint32_t shard, int column,
    const std::vector<TupleSignature>& signatures) const {
  DODB_CHECK(column >= 0);
  DODB_CHECK(signatures.size() == shard_of_.size());
  std::lock_guard<std::mutex> lock(lazy_mu_);
  EnsureMembers();
  if (shard_intervals_.size() < stats_.size()) {
    shard_intervals_.resize(stats_.size());
  }
  auto& row = shard_intervals_[shard];
  if (static_cast<size_t>(column) >= row.size()) {
    row.resize(column + 1);
  }
  if (!row[column]) {
    std::vector<const TupleSignature*> member_signatures;
    member_signatures.reserve(members_[shard].size());
    for (size_t pos : members_[shard]) {
      member_signatures.push_back(&signatures[pos]);
    }
    row[column] =
        std::make_unique<ColumnIntervalIndex>(member_signatures, column);
    EvalCounters::AddShardIndexBuilds(1);
  }
  return row[column].get();
}

bool RelationShards::SoundFor(
    const std::vector<TupleSignature>& signatures) const {
  if (signatures.size() != shard_of_.size()) return false;
  std::vector<size_t> sizes(stats_.size(), 0);
  for (size_t pos = 0; pos < signatures.size(); ++pos) {
    uint32_t shard = shard_of_[pos];
    if (shard >= stats_.size()) return false;
    if (ShardFor(signatures[pos]) != shard) return false;
    ++sizes[shard];
    const ShardStats& stats = stats_[shard];
    if (!stats.cover_seeded) return false;
    if (stats.cover.columns.size() != signatures[pos].columns.size()) {
      return false;
    }
    for (size_t c = 0; c < stats.cover.columns.size(); ++c) {
      if (!BoundContains(stats.cover.columns[c], signatures[pos].columns[c])) {
        return false;
      }
    }
  }
  for (uint32_t shard = 0; shard < stats_.size(); ++shard) {
    if (sizes[shard] != stats_[shard].size) return false;
  }
  return true;
}

}  // namespace dodb
