#ifndef DODB_CONSTRAINTS_CLOSURE_CACHE_H_
#define DODB_CONSTRAINTS_CLOSURE_CACHE_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "constraints/generalized_tuple.h"

namespace dodb {

/// Memo of closure canonicalizations keyed by a 128-bit fingerprint of the
/// exact raw atom list. Semi-naive fixpoints re-derive the same candidate
/// conjunctions round after round (a rule refired against an overlapping
/// delta regenerates mostly-known tuples); canonicalization is the O(k^3)
/// closure pass, so serving repeats from a memo removes the dominant
/// per-candidate cost.
///
/// Keying on a fingerprint rather than a stored copy of the atoms keeps both
/// sides of the memo cheap: a miss stores only the canonical result (no
/// 100+-atom key copy) and a hit does one table probe (no atom-by-atom key
/// comparison). The fingerprint is two independent order-sensitive 64-bit
/// accumulations over the atoms' own words (term indexes, constant-pool
/// slots and operators — never a lossy per-atom hash), so two distinct atom
/// lists collide only with probability ~2^-128 per pair — far below any
/// realistic key-set size — and it is a pure function of the atoms, so
/// lookups stay deterministic across runs and thread counts.
///
/// Thread-safe: the table is sharded into hash-bucketed stripes, each under
/// its own mutex, so pool workers canonicalizing in parallel rarely contend.
/// Misses compute outside any lock. Entries live for the lifetime of the
/// cache (one Datalog Evaluate call, or one FO query); there is no eviction
/// — the key set is bounded by the distinct candidates the evaluation
/// generates, which the max_tuples limit already bounds indirectly.
class ClosureCache {
 public:
  ClosureCache() = default;
  ClosureCache(const ClosureCache&) = delete;
  ClosureCache& operator=(const ClosureCache&) = delete;

  /// Equivalent to tuple.CanonicalIfSatisfiable(), served from the memo
  /// when this exact atom list has been canonicalized before.
  std::optional<GeneralizedTuple> CanonicalIfSatisfiable(
      GeneralizedTuple tuple);

  /// Distinct atom lists memoized so far (diagnostic; takes all stripes).
  size_t size() const;

 private:
  struct Entry {
    uint64_t hi;  // second fingerprint word; the first keys the map
    std::optional<GeneralizedTuple> canonical;
  };
  struct Stripe {
    std::mutex mu;
    std::unordered_map<uint64_t, std::vector<Entry>> entries;
  };
  static constexpr size_t kStripes = 16;

  mutable std::array<Stripe, kStripes> stripes_;
};

/// The closure memo installed on this thread, or nullptr. Evaluators
/// install a ClosureCacheScope from EvalOptions::closure_cache (or a local
/// cache); GeneralizedRelation's insertion paths read it once on the
/// calling thread and capture the pointer into worker lambdas, so the memo
/// reaches pool workers without relying on thread-local inheritance.
ClosureCache* CurrentClosureCache();

/// RAII thread-local override of CurrentClosureCache(). nullptr disables
/// memoization within the scope.
class ClosureCacheScope {
 public:
  explicit ClosureCacheScope(ClosureCache* cache);
  ~ClosureCacheScope();
  ClosureCacheScope(const ClosureCacheScope&) = delete;
  ClosureCacheScope& operator=(const ClosureCacheScope&) = delete;

 private:
  ClosureCache* prev_;
};

}  // namespace dodb

#endif  // DODB_CONSTRAINTS_CLOSURE_CACHE_H_
