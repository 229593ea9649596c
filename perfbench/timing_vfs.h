// Timing Vfs decorator of the checkpoint benchmark: wraps another Vfs and
// records one span (thread, kind, file class, start, end, bytes) per call,
// kept in memory until the benchmark drains it. An .sst file additionally
// yields a table-lifetime span from its creation to its Close(), which is
// how the benchmark sees memtable flushes from outside the engine.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "vfs/vfs.h"

namespace perfbench {

/// Monotonic clock in nanoseconds (steady_clock).
int64_t NowNs();

enum class IoKind : uint8_t {
  kOpen,       // New*File / OpenFileHandle
  kAppend,     // WritableFile::Append, FileHandle::WriteAt
  kFlush,      // WritableFile::Flush
  kSync,       // WritableFile::Sync, FileHandle::Sync
  kClose,      // WritableFile::Close, FileHandle::Close
  kRead,       // every read entry point
  kMeta,       // namespace calls: exists, size, remove, rename, mkdir, list, truncate
  kTableLife,  // an .sst file from creation to Close (a flush, with compaction off)
};

/// A path's LSM file kind: NNNNNN.sst, MANIFEST-* or CURRENT*, NNNNNN.log,
/// or anything else.
enum class FileClass : uint8_t { kTable, kManifest, kLog, kOther };

struct IoSpan {
  int64_t begin_ns = 0;
  int64_t end_ns = 0;
  uint64_t bytes = 0;
  uint32_t thread = 0;  // dense per-process thread index
  IoKind kind = IoKind::kMeta;
  FileClass file_class = FileClass::kOther;
};

/// Moves every span recorded so far out of the per-thread buffers. Call
/// when no traced store is open.
std::vector<IoSpan> DrainSpans();

class TimingVfs final : public lsmio::vfs::Vfs {
 public:
  explicit TimingVfs(lsmio::vfs::Vfs& base) : base_(base) {}

  lsmio::Status NewWritableFile(const std::string& path,
                                const lsmio::vfs::OpenOptions& opts,
                                std::unique_ptr<lsmio::vfs::WritableFile>* file) override;
  lsmio::Status NewRandomAccessFile(
      const std::string& path, const lsmio::vfs::OpenOptions& opts,
      std::unique_ptr<lsmio::vfs::RandomAccessFile>* file) override;
  lsmio::Status NewSequentialFile(const std::string& path,
                                  const lsmio::vfs::OpenOptions& opts,
                                  std::unique_ptr<lsmio::vfs::SequentialFile>* file) override;
  lsmio::Status OpenFileHandle(const std::string& path, bool create,
                               const lsmio::vfs::OpenOptions& opts,
                               std::unique_ptr<lsmio::vfs::FileHandle>* file) override;
  bool FileExists(const std::string& path) override;
  lsmio::Status GetFileSize(const std::string& path, uint64_t* size) override;
  lsmio::Status RemoveFile(const std::string& path) override;
  lsmio::Status RenameFile(const std::string& from, const std::string& to) override;
  lsmio::Status CreateDir(const std::string& path) override;
  lsmio::Status ListDir(const std::string& path, std::vector<std::string>* out) override;

 private:
  lsmio::vfs::Vfs& base_;
};

}  // namespace perfbench
