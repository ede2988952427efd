#ifndef DODB_STORAGE_FILE_IO_H_
#define DODB_STORAGE_FILE_IO_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/status.h"

namespace dodb {
namespace storage {

/// Thin POSIX file layer for the storage engine. Unbuffered on purpose:
/// every Append reaches the kernel before the call returns, so a crash (or
/// an emulated crash at a storage fault site) leaves exactly the prefix of
/// bytes the caller had appended — the property the WAL torn-record
/// detection and the crash-recovery tests are built on. Durability still
/// requires Sync (fsync); Append alone survives a process kill but not a
/// power cut.
class AppendFile {
 public:
  AppendFile() = default;
  ~AppendFile();
  AppendFile(const AppendFile&) = delete;
  AppendFile& operator=(const AppendFile&) = delete;

  /// Opens for appending; creates the file when absent. `truncate` drops
  /// any existing contents first.
  Status Open(const std::string& path, bool truncate = false);
  bool is_open() const { return fd_ >= 0; }
  const std::string& path() const { return path_; }

  Status Append(const void* data, size_t size);
  /// fsync. Counts toward the engine-wide fsync counter.
  Status Sync();
  /// Truncates the file to `size` bytes (recovery chops torn WAL tails
  /// before appending resumes).
  Status Truncate(uint64_t size);
  Status Close();

  /// Bytes appended through this handle plus the size found at Open.
  uint64_t size() const { return size_; }

 private:
  int fd_ = -1;
  std::string path_;
  uint64_t size_ = 0;
};

/// Whole-file read; NotFound when the file does not exist.
Result<std::vector<uint8_t>> ReadFileBytes(const std::string& path);

/// Atomic-on-POSIX rename followed by an fsync of the containing directory,
/// so the new name survives a crash.
Status RenameFileDurable(const std::string& from, const std::string& to);

/// fsync on a directory (publishes renames/creates/unlinks within it).
Status SyncDir(const std::string& dir);

Status CreateDirIfMissing(const std::string& dir);
bool FileExists(const std::string& path);
Status RemoveFileIfExists(const std::string& path);
/// Names (not paths) of directory entries, sorted; missing dir is an error.
Result<std::vector<std::string>> ListDir(const std::string& dir);

}  // namespace storage
}  // namespace dodb

#endif  // DODB_STORAGE_FILE_IO_H_
