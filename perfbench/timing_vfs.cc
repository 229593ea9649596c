#include "timing_vfs.h"

#include <chrono>
#include <mutex>
#include <utility>

namespace perfbench {

using lsmio::Slice;
using lsmio::Status;
namespace vfs = lsmio::vfs;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

/// One thread's spans. The mutex is uncontended except while draining.
struct ThreadBuffer {
  std::mutex mu;
  std::vector<IoSpan> spans;
  uint32_t index = 0;
};

/// Buffers outlive their threads (engine background threads come and go
/// with each store), so the registry owns them.
struct Registry {
  std::mutex mu;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers;
};

Registry& GetRegistry() {
  static Registry* registry = new Registry();
  return *registry;
}

ThreadBuffer& LocalBuffer() {
  thread_local ThreadBuffer* buffer = [] {
    Registry& registry = GetRegistry();
    std::lock_guard<std::mutex> lock(registry.mu);
    registry.buffers.push_back(std::make_unique<ThreadBuffer>());
    registry.buffers.back()->index = static_cast<uint32_t>(registry.buffers.size() - 1);
    return registry.buffers.back().get();
  }();
  return *buffer;
}

void Record(IoKind kind, FileClass file_class, int64_t begin_ns, uint64_t bytes) {
  const int64_t end_ns = NowNs();
  ThreadBuffer& buffer = LocalBuffer();
  std::lock_guard<std::mutex> lock(buffer.mu);
  buffer.spans.push_back(IoSpan{begin_ns, end_ns, bytes, buffer.index, kind, file_class});
}

std::string BaseName(const std::string& path) {
  const size_t slash = path.rfind('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

bool EndsWith(const std::string& s, const char* suffix) {
  const std::string_view tail(suffix);
  return s.size() >= tail.size() && s.compare(s.size() - tail.size(), tail.size(), tail) == 0;
}

class TimedWritableFile final : public vfs::WritableFile {
 public:
  TimedWritableFile(std::unique_ptr<vfs::WritableFile> base, FileClass file_class,
                    int64_t created_ns)
      : base_(std::move(base)), class_(file_class), created_ns_(created_ns) {}

  Status Append(const Slice& data) override {
    const int64_t t = NowNs();
    Status s = base_->Append(data);
    Record(IoKind::kAppend, class_, t, data.size());
    return s;
  }
  Status Flush() override {
    const int64_t t = NowNs();
    Status s = base_->Flush();
    Record(IoKind::kFlush, class_, t, 0);
    return s;
  }
  Status Sync() override {
    const int64_t t = NowNs();
    Status s = base_->Sync();
    Record(IoKind::kSync, class_, t, 0);
    return s;
  }
  Status Close() override {
    const int64_t t = NowNs();
    Status s = base_->Close();
    Record(IoKind::kClose, class_, t, 0);
    if (class_ == FileClass::kTable) {
      Record(IoKind::kTableLife, class_, created_ns_, base_->Size());
    }
    return s;
  }
  uint64_t Size() const override { return base_->Size(); }

 private:
  std::unique_ptr<vfs::WritableFile> base_;
  FileClass class_;
  int64_t created_ns_;
};

class TimedRandomAccessFile final : public vfs::RandomAccessFile {
 public:
  TimedRandomAccessFile(std::unique_ptr<vfs::RandomAccessFile> base, FileClass file_class)
      : base_(std::move(base)), class_(file_class) {}

  Status Read(uint64_t offset, size_t n, Slice* result,
              std::string* scratch) const override {
    const int64_t t = NowNs();
    Status s = base_->Read(offset, n, result, scratch);
    Record(IoKind::kRead, class_, t, result->size());
    return s;
  }
  void Hint(uint64_t offset, size_t length) const override { base_->Hint(offset, length); }
  uint64_t Size() const override { return base_->Size(); }

 private:
  std::unique_ptr<vfs::RandomAccessFile> base_;
  FileClass class_;
};

class TimedSequentialFile final : public vfs::SequentialFile {
 public:
  TimedSequentialFile(std::unique_ptr<vfs::SequentialFile> base, FileClass file_class)
      : base_(std::move(base)), class_(file_class) {}

  Status Read(size_t n, Slice* result, std::string* scratch) override {
    const int64_t t = NowNs();
    Status s = base_->Read(n, result, scratch);
    Record(IoKind::kRead, class_, t, result->size());
    return s;
  }
  Status Skip(uint64_t n) override { return base_->Skip(n); }

 private:
  std::unique_ptr<vfs::SequentialFile> base_;
  FileClass class_;
};

class TimedFileHandle final : public vfs::FileHandle {
 public:
  TimedFileHandle(std::unique_ptr<vfs::FileHandle> base, FileClass file_class)
      : base_(std::move(base)), class_(file_class) {}

  Status WriteAt(uint64_t offset, const Slice& data) override {
    const int64_t t = NowNs();
    Status s = base_->WriteAt(offset, data);
    Record(IoKind::kAppend, class_, t, data.size());
    return s;
  }
  Status ReadAt(uint64_t offset, size_t n, Slice* result, std::string* scratch) override {
    const int64_t t = NowNs();
    Status s = base_->ReadAt(offset, n, result, scratch);
    Record(IoKind::kRead, class_, t, result->size());
    return s;
  }
  Status Sync() override {
    const int64_t t = NowNs();
    Status s = base_->Sync();
    Record(IoKind::kSync, class_, t, 0);
    return s;
  }
  Status Truncate(uint64_t size) override {
    const int64_t t = NowNs();
    Status s = base_->Truncate(size);
    Record(IoKind::kMeta, class_, t, 0);
    return s;
  }
  Status Close() override {
    const int64_t t = NowNs();
    Status s = base_->Close();
    Record(IoKind::kClose, class_, t, 0);
    return s;
  }
  uint64_t Size() const override { return base_->Size(); }

 private:
  std::unique_ptr<vfs::FileHandle> base_;
  FileClass class_;
};

FileClass ClassifyPath(const std::string& path) {
  const std::string name = BaseName(path);
  if (EndsWith(name, ".sst")) return FileClass::kTable;
  if (name.rfind("MANIFEST-", 0) == 0 || name.rfind("CURRENT", 0) == 0) {
    return FileClass::kManifest;
  }
  if (EndsWith(name, ".log")) return FileClass::kLog;
  return FileClass::kOther;
}

}  // namespace

std::vector<IoSpan> DrainSpans() {
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  std::vector<IoSpan> all;
  for (const auto& buffer : registry.buffers) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mu);
    all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
    buffer->spans.clear();
  }
  return all;
}

Status TimingVfs::NewWritableFile(const std::string& path, const vfs::OpenOptions& opts,
                                  std::unique_ptr<vfs::WritableFile>* file) {
  const FileClass file_class = ClassifyPath(path);
  const int64_t t = NowNs();
  std::unique_ptr<vfs::WritableFile> base;
  Status s = base_.NewWritableFile(path, opts, &base);
  Record(IoKind::kOpen, file_class, t, 0);
  if (s.ok()) *file = std::make_unique<TimedWritableFile>(std::move(base), file_class, t);
  return s;
}

Status TimingVfs::NewRandomAccessFile(const std::string& path, const vfs::OpenOptions& opts,
                                      std::unique_ptr<vfs::RandomAccessFile>* file) {
  const FileClass file_class = ClassifyPath(path);
  const int64_t t = NowNs();
  std::unique_ptr<vfs::RandomAccessFile> base;
  Status s = base_.NewRandomAccessFile(path, opts, &base);
  Record(IoKind::kOpen, file_class, t, 0);
  if (s.ok()) *file = std::make_unique<TimedRandomAccessFile>(std::move(base), file_class);
  return s;
}

Status TimingVfs::NewSequentialFile(const std::string& path, const vfs::OpenOptions& opts,
                                    std::unique_ptr<vfs::SequentialFile>* file) {
  const FileClass file_class = ClassifyPath(path);
  const int64_t t = NowNs();
  std::unique_ptr<vfs::SequentialFile> base;
  Status s = base_.NewSequentialFile(path, opts, &base);
  Record(IoKind::kOpen, file_class, t, 0);
  if (s.ok()) *file = std::make_unique<TimedSequentialFile>(std::move(base), file_class);
  return s;
}

Status TimingVfs::OpenFileHandle(const std::string& path, bool create,
                                 const vfs::OpenOptions& opts,
                                 std::unique_ptr<vfs::FileHandle>* file) {
  const FileClass file_class = ClassifyPath(path);
  const int64_t t = NowNs();
  std::unique_ptr<vfs::FileHandle> base;
  Status s = base_.OpenFileHandle(path, create, opts, &base);
  Record(IoKind::kOpen, file_class, t, 0);
  if (s.ok()) *file = std::make_unique<TimedFileHandle>(std::move(base), file_class);
  return s;
}

bool TimingVfs::FileExists(const std::string& path) {
  const int64_t t = NowNs();
  const bool exists = base_.FileExists(path);
  Record(IoKind::kMeta, ClassifyPath(path), t, 0);
  return exists;
}

Status TimingVfs::GetFileSize(const std::string& path, uint64_t* size) {
  const int64_t t = NowNs();
  Status s = base_.GetFileSize(path, size);
  Record(IoKind::kMeta, ClassifyPath(path), t, 0);
  return s;
}

Status TimingVfs::RemoveFile(const std::string& path) {
  const int64_t t = NowNs();
  Status s = base_.RemoveFile(path);
  Record(IoKind::kMeta, ClassifyPath(path), t, 0);
  return s;
}

Status TimingVfs::RenameFile(const std::string& from, const std::string& to) {
  const int64_t t = NowNs();
  Status s = base_.RenameFile(from, to);
  Record(IoKind::kMeta, ClassifyPath(to), t, 0);
  return s;
}

Status TimingVfs::CreateDir(const std::string& path) {
  const int64_t t = NowNs();
  Status s = base_.CreateDir(path);
  Record(IoKind::kMeta, FileClass::kOther, t, 0);
  return s;
}

Status TimingVfs::ListDir(const std::string& path, std::vector<std::string>* out) {
  const int64_t t = NowNs();
  Status s = base_.ListDir(path, out);
  Record(IoKind::kMeta, FileClass::kOther, t, 0);
  return s;
}

}  // namespace perfbench
