#ifndef DODB_STORAGE_BUFFER_POOL_H_
#define DODB_STORAGE_BUFFER_POOL_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/status.h"
#include "storage/file_io.h"

namespace dodb {
namespace storage {

/// Fixed page size of the paged record stores. Page numbers address
/// kPageSize-aligned extents of a spill file (page p lives at byte offset
/// p * kPageSize).
inline constexpr size_t kPageSize = 4096;

/// Capped cache of spill-file pages shared by every PagedRecordStore.
///
/// Frames hold whole pages; Fetch/Create return RAII-pinned handles, and a
/// pinned frame is never evicted or recycled. When the pool is over its
/// byte capacity, CLOCK sweeps the frame table: clean unpinned frames are
/// dropped, dirty unpinned frames are written back first — and the
/// writeback is ordered behind the WAL via pre_writeback_hook (set by the
/// shell to StorageEngine::SyncWal), so a page never reaches a spill file
/// ahead of the log records that justify the data it encodes.
///
/// Eviction and writeback are guard checkpoints (kPageEvict /
/// kPageWriteback on CurrentQueryGuard()): an armed fault trips *before*
/// the page bytes reach the file, emulating a crash mid-writeback. Spill
/// files are ephemeral caches — the snapshot + WAL remain the source of
/// truth — so recovery after such a crash is ordinary WAL replay.
///
/// All methods are thread-safe; AddTuplesParallel workers fetch
/// concurrently.
/// When every frame is pinned the pool allocates past its cap rather than
/// deadlock (capacity is a target, pins are correctness).
class BufferPool {
 public:
  /// The process-wide pool (shell \pagecache resizes it; benches construct
  /// private pools to sweep cache sizes in isolation).
  static BufferPool& Global();

  explicit BufferPool(uint64_t capacity_bytes = 64ull << 20);
  ~BufferPool();
  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Registers a spill file; returned id keys Fetch/Create. The file must
  /// outlive its registration.
  uint64_t RegisterFile(RandomAccessFile* file);
  /// Drops every frame of `file_id` (writing dirty frames back when `flush`)
  /// and forgets the id. All of the file's pages must be unpinned.
  Status UnregisterFile(uint64_t file_id, bool flush);

  /// RAII pin on one resident page frame. Movable, not copyable; unpins on
  /// destruction. data() is stable while pinned.
  class Page {
   public:
    Page() = default;
    Page(BufferPool* pool, size_t frame, uint8_t* data)
        : pool_(pool), frame_(frame), data_(data) {}
    Page(Page&& other) noexcept { *this = std::move(other); }
    Page& operator=(Page&& other) noexcept;
    ~Page();
    Page(const Page&) = delete;
    Page& operator=(const Page&) = delete;

    bool valid() const { return pool_ != nullptr; }
    const uint8_t* data() const { return data_; }
    uint8_t* data() { return data_; }
    /// Marks the frame dirty; its bytes reach the file on eviction or
    /// FlushFile, after the pre-writeback hook runs.
    void MarkDirty();

   private:
    BufferPool* pool_ = nullptr;
    size_t frame_ = 0;
    uint8_t* data_ = nullptr;
  };

  /// Pins the page, reading it from the file on a miss.
  Result<Page> Fetch(uint64_t file_id, uint64_t page_no);
  /// Pins a zeroed frame for a page about to be written for the first time
  /// (no read; an existing resident frame for the same page is zeroed and
  /// reused so stale bytes can never resurface through the free list).
  Result<Page> Create(uint64_t file_id, uint64_t page_no);

  /// Writes back every dirty frame of `file_id` (pre-writeback hook first).
  Status FlushFile(uint64_t file_id);

  /// Runs before any dirty page's bytes reach a spill file; the shell sets
  /// this to sync the WAL so log records precede derived page contents.
  void set_pre_writeback_hook(std::function<Status()> hook);

  /// Target cache size; shrinking evicts immediately (except pinned frames).
  void set_capacity_bytes(uint64_t bytes);
  uint64_t capacity_bytes() const;

  uint64_t resident_bytes() const;
  size_t pinned_frames() const;

 private:
  struct Frame;
  struct Impl;

  void Unpin(size_t frame);
  void MarkFrameDirty(size_t frame);
  /// Evicts until resident <= capacity or nothing evictable remains.
  /// Caller holds the pool mutex.
  Status EvictForSpaceLocked(std::unique_lock<std::mutex>& lock);
  Status WritebackLocked(Frame& f, std::unique_lock<std::mutex>& lock);

  std::unique_ptr<Impl> impl_;

  friend class Page;
};

}  // namespace storage
}  // namespace dodb

#endif  // DODB_STORAGE_BUFFER_POOL_H_
