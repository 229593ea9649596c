// SlowTableVfs: a Vfs decorator that slows appends to table (.sst) files,
// so flushes and compactions take long enough for tests to observe writers
// piling up against the memtable queue or L0, or background jobs
// overlapping. The delay is charged per 4 KiB appended, like a device of
// fixed bandwidth, so it does not depend on how the table builder batches
// its appends. A file takes the delay in force when it is created.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "vfs/vfs.h"

namespace lsmio::testutil {

class SlowTableVfs final : public vfs::Vfs {
 public:
  explicit SlowTableVfs(vfs::Vfs& base, int delay_us = 0)
      : base_(base), delay_us_(delay_us) {}

  /// Delay per 4 KiB for table files created from now on.
  void set_delay_us(int delay) { delay_us_.store(delay); }

  Status NewWritableFile(const std::string& path, const vfs::OpenOptions& opts,
                         std::unique_ptr<vfs::WritableFile>* file) override {
    std::unique_ptr<vfs::WritableFile> inner;
    LSMIO_RETURN_IF_ERROR(base_.NewWritableFile(path, opts, &inner));
    const bool slow = path.size() > 4 && path.rfind(".sst") == path.size() - 4;
    *file = std::make_unique<Writable>(std::move(inner), slow ? delay_us_.load() : 0);
    return Status::OK();
  }
  Status NewRandomAccessFile(const std::string& path, const vfs::OpenOptions& opts,
                             std::unique_ptr<vfs::RandomAccessFile>* file) override {
    return base_.NewRandomAccessFile(path, opts, file);
  }
  Status NewSequentialFile(const std::string& path, const vfs::OpenOptions& opts,
                           std::unique_ptr<vfs::SequentialFile>* file) override {
    return base_.NewSequentialFile(path, opts, file);
  }
  Status OpenFileHandle(const std::string& path, bool create,
                        const vfs::OpenOptions& opts,
                        std::unique_ptr<vfs::FileHandle>* file) override {
    return base_.OpenFileHandle(path, create, opts, file);
  }
  bool FileExists(const std::string& path) override { return base_.FileExists(path); }
  Status GetFileSize(const std::string& path, uint64_t* size) override {
    return base_.GetFileSize(path, size);
  }
  Status RemoveFile(const std::string& path) override { return base_.RemoveFile(path); }
  Status RenameFile(const std::string& from, const std::string& to) override {
    return base_.RenameFile(from, to);
  }
  Status CreateDir(const std::string& path) override { return base_.CreateDir(path); }
  Status ListDir(const std::string& path, std::vector<std::string>* out) override {
    return base_.ListDir(path, out);
  }

 private:
  class Writable final : public vfs::WritableFile {
   public:
    Writable(std::unique_ptr<vfs::WritableFile> inner, int delay_us)
        : inner_(std::move(inner)), delay_us_(delay_us) {}
    Status Append(const Slice& data) override {
      if (delay_us_ > 0) {
        const auto pages = static_cast<int64_t>((data.size() + 4095) / 4096);
        std::this_thread::sleep_for(std::chrono::microseconds(delay_us_ * pages));
      }
      return inner_->Append(data);
    }
    Status Flush() override { return inner_->Flush(); }
    Status Sync() override { return inner_->Sync(); }
    Status Close() override { return inner_->Close(); }
    [[nodiscard]] uint64_t Size() const override { return inner_->Size(); }

   private:
    std::unique_ptr<vfs::WritableFile> inner_;
    int delay_us_;
  };

  vfs::Vfs& base_;
  std::atomic<int> delay_us_;
};

}  // namespace lsmio::testutil
