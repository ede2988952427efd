#ifndef DODB_STORAGE_RECORD_STORE_H_
#define DODB_STORAGE_RECORD_STORE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/status.h"
#include "storage/buffer_pool.h"
#include "storage/file_io.h"

namespace dodb {
namespace storage {

/// Pluggable store of opaque byte records (encoded tuple runs). The paged
/// relation layer encodes runs with the snapshot codec and parks them here;
/// which backend serves them is the per-relation storage choice surfaced by
/// the shell.
///
/// Implementations must be thread-safe: AddTuplesParallel workers Get
/// concurrently.
class RecordStore {
 public:
  virtual ~RecordStore() = default;

  /// Stores a copy of `size` bytes; the returned id retrieves them.
  virtual Result<uint64_t> Put(const void* data, size_t size) = 0;
  /// Retrieves a record verbatim (out is replaced). Non-OK on unknown id,
  /// I/O failure or checksum mismatch.
  virtual Status Get(uint64_t id, std::vector<uint8_t>* out) const = 0;
  /// Releases a record; its id must not be used again.
  virtual Status Free(uint64_t id) = 0;
  /// Forces buffered state down to the backing file (no-op in memory).
  virtual Status Flush() = 0;

  /// Bytes of payload currently stored (the out-of-core working set).
  virtual uint64_t payload_bytes() const = 0;
};

/// Default resident backend: records live in a map. This is what "paged
/// storage off" degenerates to when a caller still wants the RecordStore
/// interface.
class MemoryRecordStore : public RecordStore {
 public:
  Result<uint64_t> Put(const void* data, size_t size) override;
  Status Get(uint64_t id, std::vector<uint8_t>* out) const override;
  Status Free(uint64_t id) override;
  Status Flush() override { return Status::Ok(); }
  uint64_t payload_bytes() const override;

 private:
  mutable std::mutex mu_;
  std::map<uint64_t, std::vector<uint8_t>> records_;
  uint64_t next_id_ = 1;
  uint64_t payload_bytes_ = 0;
};

/// Out-of-core backend: records are chunked across fixed-size pages of one
/// spill file, served through a BufferPool. Page layout:
///
///   [u32 crc | u32 payload_len | u32 next_page] payload... (zero padding)
///
/// crc is CRC32 (the snapshot/WAL polynomial) over bytes [4, kPageSize) —
/// everything but the checksum itself, padding included — and is verified
/// on every page read, so a torn or corrupted spill page surfaces as a
/// clean error, never as silently wrong tuples. next_page == kNoPage ends
/// a record's chain; a record's id is its first page number. Freed chains
/// return their pages to a free list; the pool zeroes reused frames, so a
/// recycled page can never leak a stale record.
///
/// The spill file is an ephemeral cache (snapshot + WAL stay the source of
/// truth): Open always starts empty, and losing the file loses nothing.
class PagedRecordStore : public RecordStore {
 public:
  /// Creates/truncates the spill file at `path` and registers it with
  /// `pool` (which must outlive the store).
  static Result<std::unique_ptr<PagedRecordStore>> Open(
      const std::string& path, BufferPool* pool);

  ~PagedRecordStore() override;

  Result<uint64_t> Put(const void* data, size_t size) override;
  Status Get(uint64_t id, std::vector<uint8_t>* out) const override;
  Status Free(uint64_t id) override;
  /// Writes every dirty page of this store's file back (pre-writeback hook
  /// first, preserving WAL-before-writeback).
  Status Flush() override;
  uint64_t payload_bytes() const override;

  const std::string& path() const { return file_.path(); }
  /// Pages ever allocated (file size high-water mark in pages).
  uint64_t allocated_pages() const;

  static constexpr uint32_t kNoPage = 0xFFFFFFFFu;
  static constexpr size_t kPageHeaderSize = 12;
  static constexpr size_t kPagePayload = kPageSize - kPageHeaderSize;

 private:
  PagedRecordStore() = default;

  uint64_t AllocPageLocked();
  Status ReadPage(uint64_t page_no, std::vector<uint8_t>* payload,
                  uint32_t* next_page) const;

  BufferPool* pool_ = nullptr;
  uint64_t file_id_ = 0;
  RandomAccessFile file_;

  mutable std::mutex mu_;
  std::vector<uint64_t> free_pages_;
  uint64_t next_page_num_ = 0;
  uint64_t payload_bytes_ = 0;
};

}  // namespace storage
}  // namespace dodb

#endif  // DODB_STORAGE_RECORD_STORE_H_
