#include "vfs/posix_vfs.h"

#include "common/synchronization.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>

#include "common/logging.h"

namespace lsmio::vfs {
namespace {

/// Prefetch windows are aligned down to this boundary and capped so a
/// runaway hint cannot pin unbounded memory.
constexpr uint64_t kPrefetchAlign = 4096;
constexpr size_t kMaxPrefetchBytes = 4 << 20;

/// A writable file asks the kernel to start writeback of its appended
/// bytes whenever this many have accumulated since the last submitted
/// offset, so disk writes overlap the caller's further appends and the
/// final Sync() waits only for the tail (DESIGN.md §16).
constexpr uint64_t kWritebackBytes = 1 << 20;

Status ErrnoStatus(const std::string& context, int err) {
  const std::string msg = context + ": " + std::strerror(err);
  if (err == ENOENT) return Status::NotFound(msg);
  return Status::IoError(msg);
}

class PosixWritableFile final : public WritableFile {
 public:
  PosixWritableFile(int fd, std::string path) : fd_(fd), path_(std::move(path)) {}
  ~PosixWritableFile() override {
    if (fd_ >= 0) ::close(fd_);
  }

  Status Append(const Slice& data) override {
    const char* p = data.data();
    size_t left = data.size();
    while (left > 0) {
      const ssize_t n = ::write(fd_, p, left);
      if (n < 0) {
        if (errno == EINTR) continue;
        return ErrnoStatus("write " + path_, errno);
      }
      p += n;
      left -= static_cast<size_t>(n);
    }
    size_ += data.size();
    StartWriteback();
    return Status::OK();
  }

  Status Flush() override { return Status::OK(); }

  Status Sync() override {
    if (::fdatasync(fd_) != 0) return ErrnoStatus("fdatasync " + path_, errno);
    return Status::OK();
  }

  Status Close() override {
    if (fd_ < 0) return Status::OK();
    const int fd = fd_;
    fd_ = -1;
    if (::close(fd) != 0) return ErrnoStatus("close " + path_, errno);
    return Status::OK();
  }

  uint64_t Size() const override { return size_; }

 private:
  /// Submits [writeback_offset_, size_) for asynchronous writeback once it
  /// reaches kWritebackBytes. Advisory only: durability still comes from
  /// Sync()'s fdatasync, so a failure (e.g. a filesystem without
  /// sync_file_range) just switches writeback off for this file.
  void StartWriteback() {
#if defined(__linux__) && defined(SYNC_FILE_RANGE_WRITE)
    if (!writeback_enabled_ || size_ - writeback_offset_ < kWritebackBytes) return;
    const uint64_t len = size_ - writeback_offset_;
    PosixVfsStats& stats = GetPosixVfsStats();
    if (::sync_file_range(fd_, static_cast<off_t>(writeback_offset_),
                          static_cast<off_t>(len), SYNC_FILE_RANGE_WRITE) != 0) {
      writeback_enabled_ = false;
      stats.writeback_failures.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    stats.writeback_calls.fetch_add(1, std::memory_order_relaxed);
    stats.writeback_bytes.fetch_add(len, std::memory_order_relaxed);
    writeback_offset_ = size_;
#endif
  }

  int fd_;
  std::string path_;
  uint64_t size_ = 0;
  uint64_t writeback_offset_ = 0;  // end of the last range handed to writeback
  bool writeback_enabled_ = true;
};

class PosixRandomAccessFile final : public RandomAccessFile {
 public:
  PosixRandomAccessFile(int fd, uint64_t size, void* map)
      : fd_(fd), size_(size), map_(map) {}
  ~PosixRandomAccessFile() override {
    if (map_ != nullptr) ::munmap(map_, size_);
    if (fd_ >= 0) ::close(fd_);
  }

  Status Read(uint64_t offset, size_t n, Slice* result,
              std::string* scratch) const override {
    if (offset > size_) {
      *result = Slice();
      return Status::OK();
    }
    const size_t avail = static_cast<size_t>(size_ - offset);
    const size_t want = n < avail ? n : avail;
    if (map_ != nullptr) {
      *result = Slice(static_cast<const char*>(map_) + offset, want);
      return Status::OK();
    }
    if (want > 0 && prefetch_active_.load(std::memory_order_acquire)) {
      MutexLock lock(&prefetch_mu_);
      if (offset >= prefetch_offset_ &&
          offset + want <= prefetch_offset_ + prefetch_.size()) {
        scratch->assign(prefetch_.data() + (offset - prefetch_offset_), want);
        *result = Slice(*scratch);
        GetPosixVfsStats().prefetch_hits.fetch_add(1, std::memory_order_relaxed);
        return Status::OK();
      }
    }
    scratch->resize(want);
    size_t done = 0;
    while (done < want) {
      const ssize_t r = ::pread(fd_, scratch->data() + done, want - done,
                                static_cast<off_t>(offset + done));
      if (r < 0) {
        if (errno == EINTR) continue;
        return ErrnoStatus("pread", errno);
      }
      if (r == 0) break;
      done += static_cast<size_t>(r);
    }
    scratch->resize(done);
    *result = Slice(*scratch);
    return Status::OK();
  }

  void Hint(uint64_t offset, size_t length) const override {
    if (offset >= size_ || length == 0) return;
    length = std::min<uint64_t>(length, size_ - offset);
    PosixVfsStats& stats = GetPosixVfsStats();
    stats.hint_calls.fetch_add(1, std::memory_order_relaxed);
    stats.hint_bytes.fetch_add(length, std::memory_order_relaxed);
    if (map_ != nullptr) {
      // Already mapped: nudge the page cache; no buffer needed.
      const uint64_t start = offset & ~(kPrefetchAlign - 1);
      ::madvise(static_cast<char*>(map_) + start,
                static_cast<size_t>(offset + length - start), MADV_WILLNEED);
      return;
    }
#ifdef POSIX_FADV_WILLNEED
    ::posix_fadvise(fd_, static_cast<off_t>(offset),
                    static_cast<off_t>(length), POSIX_FADV_WILLNEED);
#endif
    // Fill the aligned prefetch window so the caller's subsequent small
    // block reads are served from one large pread instead of many.
    length = std::min(length, kMaxPrefetchBytes);
    MutexLock lock(&prefetch_mu_);
    if (offset >= prefetch_offset_ &&
        offset + length <= prefetch_offset_ + prefetch_.size()) {
      return;  // window already covers the hinted range
    }
    const uint64_t start = offset & ~(kPrefetchAlign - 1);
    const size_t want = static_cast<size_t>(offset + length - start);
    prefetch_.resize(want);
    size_t done = 0;
    while (done < want) {
      const ssize_t r = ::pread(fd_, prefetch_.data() + done, want - done,
                                static_cast<off_t>(start + done));
      if (r < 0) {
        if (errno == EINTR) continue;
        done = 0;  // advisory only: drop the window on error
        break;
      }
      if (r == 0) break;
      done += static_cast<size_t>(r);
    }
    prefetch_.resize(done);
    prefetch_offset_ = start;
    prefetch_active_.store(done > 0, std::memory_order_release);
  }

  uint64_t Size() const override { return size_; }

 private:
  int fd_;         // unguarded: immutable after open
  uint64_t size_;  // unguarded: immutable after open
  void* map_;      // unguarded: immutable after open

  /// Readahead window filled by Hint; files are immutable once opened, so
  /// served bytes can never be stale.
  mutable Mutex prefetch_mu_;
  /// Cheap pre-check read outside prefetch_mu_ (acquire pairs with the
  /// release store in Hint); the guarded window state is re-checked under
  /// the lock before any byte is served.
  mutable std::atomic<bool> prefetch_active_{false};
  mutable std::string prefetch_ GUARDED_BY(prefetch_mu_);
  mutable uint64_t prefetch_offset_ GUARDED_BY(prefetch_mu_) = 0;
};

class PosixSequentialFile final : public SequentialFile {
 public:
  explicit PosixSequentialFile(int fd) : fd_(fd) {}
  ~PosixSequentialFile() override {
    if (fd_ >= 0) ::close(fd_);
  }

  Status Read(size_t n, Slice* result, std::string* scratch) override {
    scratch->resize(n);
    size_t done = 0;
    while (done < n) {
      const ssize_t r = ::read(fd_, scratch->data() + done, n - done);
      if (r < 0) {
        if (errno == EINTR) continue;
        return ErrnoStatus("read", errno);
      }
      if (r == 0) break;
      done += static_cast<size_t>(r);
    }
    scratch->resize(done);
    *result = Slice(*scratch);
    return Status::OK();
  }

  Status Skip(uint64_t n) override {
    if (::lseek(fd_, static_cast<off_t>(n), SEEK_CUR) < 0) {
      return ErrnoStatus("lseek", errno);
    }
    return Status::OK();
  }

 private:
  int fd_;
};

class PosixFileHandle final : public FileHandle {
 public:
  PosixFileHandle(int fd, std::string path) : fd_(fd), path_(std::move(path)) {}
  ~PosixFileHandle() override {
    if (fd_ >= 0) ::close(fd_);
  }

  Status WriteAt(uint64_t offset, const Slice& data) override {
    const char* p = data.data();
    size_t left = data.size();
    uint64_t off = offset;
    while (left > 0) {
      const ssize_t n = ::pwrite(fd_, p, left, static_cast<off_t>(off));
      if (n < 0) {
        if (errno == EINTR) continue;
        return ErrnoStatus("pwrite " + path_, errno);
      }
      p += n;
      off += static_cast<uint64_t>(n);
      left -= static_cast<size_t>(n);
    }
    return Status::OK();
  }

  Status ReadAt(uint64_t offset, size_t n, Slice* result,
                std::string* scratch) override {
    scratch->resize(n);
    size_t done = 0;
    while (done < n) {
      const ssize_t r = ::pread(fd_, scratch->data() + done, n - done,
                                static_cast<off_t>(offset + done));
      if (r < 0) {
        if (errno == EINTR) continue;
        return ErrnoStatus("pread " + path_, errno);
      }
      if (r == 0) break;
      done += static_cast<size_t>(r);
    }
    scratch->resize(done);
    *result = Slice(*scratch);
    return Status::OK();
  }

  Status Sync() override {
    if (::fdatasync(fd_) != 0) return ErrnoStatus("fdatasync " + path_, errno);
    return Status::OK();
  }

  Status Truncate(uint64_t size) override {
    if (::ftruncate(fd_, static_cast<off_t>(size)) != 0) {
      return ErrnoStatus("ftruncate " + path_, errno);
    }
    return Status::OK();
  }

  Status Close() override {
    if (fd_ < 0) return Status::OK();
    const int fd = fd_;
    fd_ = -1;
    if (::close(fd) != 0) return ErrnoStatus("close " + path_, errno);
    return Status::OK();
  }

  uint64_t Size() const override {
    struct stat st{};
    if (::fstat(fd_, &st) != 0) return 0;
    return static_cast<uint64_t>(st.st_size);
  }

 private:
  int fd_;
  std::string path_;
};

class PosixVfsImpl final : public Vfs {
 public:
  Status NewWritableFile(const std::string& path, const OpenOptions&,
                         std::unique_ptr<WritableFile>* file) override {
    const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) return ErrnoStatus("open(w) " + path, errno);
    *file = std::make_unique<PosixWritableFile>(fd, path);
    return Status::OK();
  }

  Status NewRandomAccessFile(const std::string& path, const OpenOptions& opts,
                             std::unique_ptr<RandomAccessFile>* file) override {
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) return ErrnoStatus("open(r) " + path, errno);
    struct stat st{};
    if (::fstat(fd, &st) != 0) {
      const int err = errno;
      ::close(fd);
      return ErrnoStatus("fstat " + path, err);
    }
    void* map = nullptr;
    if (opts.use_mmap && st.st_size > 0) {
      map = ::mmap(nullptr, static_cast<size_t>(st.st_size), PROT_READ,
                   MAP_SHARED, fd, 0);
      if (map == MAP_FAILED) {
        // Fall back to pread. Reads stay correct but lose the zero-copy
        // path the caller asked for, so make the degradation observable.
        const int err = errno;
        map = nullptr;
        GetPosixVfsStats().mmap_fallbacks.fetch_add(1, std::memory_order_relaxed);
        static std::once_flag warned;
        std::call_once(warned, [&] {
          LSMIO_WARN << "mmap(" << path << ") failed (" << std::strerror(err)
                     << "); falling back to pread (warning logged once; see "
                        "PosixVfsStats::mmap_fallbacks for the count)";
        });
      }
    }
    *file = std::make_unique<PosixRandomAccessFile>(
        fd, static_cast<uint64_t>(st.st_size), map);
    return Status::OK();
  }

  Status NewSequentialFile(const std::string& path, const OpenOptions&,
                           std::unique_ptr<SequentialFile>* file) override {
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) return ErrnoStatus("open(r) " + path, errno);
    *file = std::make_unique<PosixSequentialFile>(fd);
    return Status::OK();
  }

  Status OpenFileHandle(const std::string& path, bool create, const OpenOptions&,
                        std::unique_ptr<FileHandle>* file) override {
    int flags = O_RDWR;
    if (create) flags |= O_CREAT;
    const int fd = ::open(path.c_str(), flags, 0644);
    if (fd < 0) return ErrnoStatus("open(rw) " + path, errno);
    *file = std::make_unique<PosixFileHandle>(fd, path);
    return Status::OK();
  }

  bool FileExists(const std::string& path) override {
    return ::access(path.c_str(), F_OK) == 0;
  }

  Status GetFileSize(const std::string& path, uint64_t* size) override {
    struct stat st{};
    if (::stat(path.c_str(), &st) != 0) return ErrnoStatus("stat " + path, errno);
    *size = static_cast<uint64_t>(st.st_size);
    return Status::OK();
  }

  Status RemoveFile(const std::string& path) override {
    if (::unlink(path.c_str()) != 0) return ErrnoStatus("unlink " + path, errno);
    return Status::OK();
  }

  Status RenameFile(const std::string& from, const std::string& to) override {
    if (::rename(from.c_str(), to.c_str()) != 0) {
      return ErrnoStatus("rename " + from + " -> " + to, errno);
    }
    return Status::OK();
  }

  Status CreateDir(const std::string& path) override {
    std::error_code ec;
    std::filesystem::create_directories(path, ec);
    if (ec) return Status::IoError("mkdir " + path + ": " + ec.message());
    return Status::OK();
  }

  Status ListDir(const std::string& path, std::vector<std::string>* out) override {
    out->clear();
    std::error_code ec;
    for (const auto& entry : std::filesystem::directory_iterator(path, ec)) {
      out->push_back(entry.path().filename().string());
    }
    if (ec) return Status::IoError("listdir " + path + ": " + ec.message());
    return Status::OK();
  }
};

}  // namespace

Vfs& PosixVfs() {
  static PosixVfsImpl instance;
  return instance;
}

PosixVfsStats& GetPosixVfsStats() {
  static PosixVfsStats stats;
  return stats;
}

Status ReadFileToString(Vfs& fs, const std::string& path, std::string* out) {
  out->clear();
  std::unique_ptr<SequentialFile> file;
  LSMIO_RETURN_IF_ERROR(fs.NewSequentialFile(path, {}, &file));
  constexpr size_t kChunk = 1 << 20;
  std::string scratch;
  for (;;) {
    Slice chunk;
    LSMIO_RETURN_IF_ERROR(file->Read(kChunk, &chunk, &scratch));
    if (chunk.empty()) break;
    out->append(chunk.data(), chunk.size());
    if (chunk.size() < kChunk) break;
  }
  return Status::OK();
}

Status WriteStringToFile(Vfs& fs, const std::string& path, const Slice& data) {
  std::unique_ptr<WritableFile> file;
  LSMIO_RETURN_IF_ERROR(fs.NewWritableFile(path, {}, &file));
  LSMIO_RETURN_IF_ERROR(file->Append(data));
  LSMIO_RETURN_IF_ERROR(file->Sync());
  return file->Close();
}

}  // namespace lsmio::vfs
