#include "storage/file_io.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "constraints/eval_counters.h"
#include "core/str_util.h"

namespace dodb {
namespace storage {

namespace {

Status Errno(const char* op, const std::string& path) {
  return Status::Internal(
      StrCat(op, " '", path, "' failed: ", std::strerror(errno)));
}

}  // namespace

AppendFile::~AppendFile() {
  if (fd_ >= 0) ::close(fd_);
}

Status AppendFile::Open(const std::string& path, bool truncate) {
  DODB_CHECK_MSG(fd_ < 0, "AppendFile::Open on an open handle");
  int flags = O_WRONLY | O_CREAT | O_APPEND | (truncate ? O_TRUNC : 0);
  fd_ = ::open(path.c_str(), flags, 0644);
  if (fd_ < 0) return Errno("open", path);
  path_ = path;
  struct stat st;
  if (::fstat(fd_, &st) != 0) {
    Status status = Errno("fstat", path);
    ::close(fd_);
    fd_ = -1;
    return status;
  }
  size_ = static_cast<uint64_t>(st.st_size);
  return Status::Ok();
}

Status AppendFile::Append(const void* data, size_t size) {
  DODB_CHECK_MSG(fd_ >= 0, "AppendFile::Append on a closed handle");
  const uint8_t* p = static_cast<const uint8_t*>(data);
  size_t left = size;
  while (left > 0) {
    ssize_t n = ::write(fd_, p, left);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("write", path_);
    }
    p += n;
    left -= static_cast<size_t>(n);
  }
  size_ += size;
  EvalCounters::AddStorageBytesWritten(size);
  return Status::Ok();
}

Status AppendFile::Sync() {
  DODB_CHECK_MSG(fd_ >= 0, "AppendFile::Sync on a closed handle");
  if (::fsync(fd_) != 0) return Errno("fsync", path_);
  EvalCounters::AddStorageFsyncs(1);
  return Status::Ok();
}

Status AppendFile::Truncate(uint64_t size) {
  DODB_CHECK_MSG(fd_ >= 0, "AppendFile::Truncate on a closed handle");
  if (::ftruncate(fd_, static_cast<off_t>(size)) != 0) {
    return Errno("ftruncate", path_);
  }
  size_ = size;
  return Status::Ok();
}

Status AppendFile::Close() {
  if (fd_ < 0) return Status::Ok();
  int fd = fd_;
  fd_ = -1;
  if (::close(fd) != 0) return Errno("close", path_);
  return Status::Ok();
}

Result<std::vector<uint8_t>> ReadFileBytes(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) {
      return Status::NotFound(StrCat("no such file '", path, "'"));
    }
    return Errno("open", path);
  }
  std::vector<uint8_t> bytes;
  uint8_t buf[1 << 16];
  while (true) {
    ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      Status status = Errno("read", path);
      ::close(fd);
      return status;
    }
    if (n == 0) break;
    bytes.insert(bytes.end(), buf, buf + n);
  }
  ::close(fd);
  return bytes;
}

Status SyncDir(const std::string& dir) {
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return Errno("open dir", dir);
  Status status = Status::Ok();
  if (::fsync(fd) != 0) status = Errno("fsync dir", dir);
  if (status.ok()) EvalCounters::AddStorageFsyncs(1);
  ::close(fd);
  return status;
}

Status RenameFileDurable(const std::string& from, const std::string& to) {
  if (::rename(from.c_str(), to.c_str()) != 0) return Errno("rename", from);
  size_t slash = to.rfind('/');
  std::string dir = slash == std::string::npos ? "." : to.substr(0, slash);
  return SyncDir(dir);
}

Status CreateDirIfMissing(const std::string& dir) {
  if (::mkdir(dir.c_str(), 0755) == 0 || errno == EEXIST) return Status::Ok();
  return Errno("mkdir", dir);
}

bool FileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

Status RemoveFileIfExists(const std::string& path) {
  if (::unlink(path.c_str()) == 0 || errno == ENOENT) return Status::Ok();
  return Errno("unlink", path);
}

Result<std::vector<std::string>> ListDir(const std::string& dir) {
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return Errno("opendir", dir);
  std::vector<std::string> names;
  while (struct dirent* entry = ::readdir(d)) {
    std::string name = entry->d_name;
    if (name != "." && name != "..") names.push_back(std::move(name));
  }
  ::closedir(d);
  std::sort(names.begin(), names.end());
  return names;
}

}  // namespace storage
}  // namespace dodb
