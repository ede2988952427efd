#ifndef DODB_CONSTRAINTS_PAGED_SOURCE_H_
#define DODB_CONSTRAINTS_PAGED_SOURCE_H_

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "constraints/generalized_tuple.h"
#include "core/status.h"

namespace dodb {

/// Out-of-core tuple payload of one relation, split into runs of
/// consecutive positions of the (sorted, canonical) tuple vector. The
/// relation's signatures, index and shards stay resident; only the atom
/// payloads live behind this interface, so joins and subsumption prune on
/// resident metadata and fetch a run only when a surviving candidate needs
/// its atoms.
///
/// Implementations live in src/storage (record stores + buffer pool); this
/// abstract face keeps constraints/ free of a storage dependency.
/// FetchRun must be thread-safe: AddTuplesParallel workers fetch runs
/// concurrently.
class PagedTupleSource {
 public:
  virtual ~PagedTupleSource() = default;

  virtual int arity() const = 0;
  virtual size_t tuple_count() const = 0;
  virtual size_t run_count() const = 0;
  /// First tuple position of run `run`; run r covers
  /// [RunBegin(r), RunBegin(r + 1)), with RunBegin(run_count()) defined as
  /// tuple_count(). Runs partition [0, tuple_count()) in order.
  virtual size_t RunBegin(size_t run) const = 0;
  /// Decodes run `run` in position order. Non-OK on I/O or checksum
  /// failure, or when a query guard trips inside the page cache.
  virtual Status FetchRun(size_t run,
                          std::vector<GeneralizedTuple>* out) const = 0;
  /// Encoded payload bytes across all runs — the relation's out-of-core
  /// working set (what the page cache would hold at 100% residency).
  virtual uint64_t approx_bytes() const = 0;

  size_t RunEnd(size_t run) const {
    return run + 1 < run_count() ? RunBegin(run + 1) : tuple_count();
  }
  /// The run containing tuple position `pos` (binary search over RunBegin).
  size_t RunOf(size_t pos) const;
};

/// Thread-safe bounded cache of decoded runs over a PagedTupleSource —
/// the decoded-side counterpart of the buffer pool's encoded-page cache.
/// Streaming operators hold one per input relation; capacity is a handful
/// of runs, so decoded memory stays O(runs in flight), not O(relation).
/// Runs are pinned by the returned shared_ptr, never invalidated under a
/// reader.
class PagedRunCache {
 public:
  explicit PagedRunCache(std::shared_ptr<const PagedTupleSource> source,
                         size_t max_runs = 32);

  const PagedTupleSource& source() const { return *source_; }

  /// The decoded run, fetched on miss and retained until evicted by
  /// recency; the shared_ptr keeps an evicted run alive for its holder.
  Result<std::shared_ptr<const std::vector<GeneralizedTuple>>> Run(
      size_t run);

  /// Copy of the tuple at global position `pos` (fetching its run).
  Result<GeneralizedTuple> TupleAt(size_t pos);

 private:
  const std::shared_ptr<const PagedTupleSource> source_;
  const size_t max_runs_;
  std::mutex mu_;
  std::map<size_t, std::shared_ptr<const std::vector<GeneralizedTuple>>>
      runs_;
  std::list<size_t> order_;  // front = oldest (FIFO eviction)
};

}  // namespace dodb

#endif  // DODB_CONSTRAINTS_PAGED_SOURCE_H_
