#include "vfs/posix_vfs.h"

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <thread>

namespace lsmio::vfs {
namespace {

class PosixVfsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("lsmio_posix_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
    ASSERT_TRUE(PosixVfs().CreateDir(dir_.string()).ok());
  }

  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Path(const std::string& name) const { return (dir_ / name).string(); }

  std::filesystem::path dir_;
};

/// Writeback counters, read before and after a test to take deltas (the
/// stats are process-wide).
struct WritebackCounts {
  uint64_t calls, bytes, failures;

  static WritebackCounts Now() {
    const PosixVfsStats& s = GetPosixVfsStats();
    return {s.writeback_calls.load(), s.writeback_bytes.load(),
            s.writeback_failures.load()};
  }
  WritebackCounts operator-(const WritebackCounts& o) const {
    return {calls - o.calls, bytes - o.bytes, failures - o.failures};
  }
};

constexpr size_t kPiece = 256 * 1024;

std::string Pattern(size_t n) {
  std::string out(n, '\0');
  for (size_t i = 0; i < n; ++i) out[i] = static_cast<char>((i * 131 + i / 4099) % 251);
  return out;
}

TEST_F(PosixVfsTest, WriteSyncReadBack) {
  Vfs& fs = PosixVfs();
  ASSERT_TRUE(WriteStringToFile(fs, Path("f"), "persisted bytes").ok());
  std::string contents;
  ASSERT_TRUE(ReadFileToString(fs, Path("f"), &contents).ok());
  EXPECT_EQ(contents, "persisted bytes");
}

TEST_F(PosixVfsTest, MissingFileIsNotFound) {
  Vfs& fs = PosixVfs();
  std::unique_ptr<SequentialFile> file;
  EXPECT_TRUE(fs.NewSequentialFile(Path("missing"), {}, &file).IsNotFound());
}

TEST_F(PosixVfsTest, RandomAccessWithAndWithoutMmap) {
  Vfs& fs = PosixVfs();
  std::string payload(100000, '\0');
  for (size_t i = 0; i < payload.size(); ++i) payload[i] = static_cast<char>(i % 251);
  ASSERT_TRUE(WriteStringToFile(fs, Path("f"), payload).ok());

  for (const bool mmap : {false, true}) {
    OpenOptions opts;
    opts.use_mmap = mmap;
    std::unique_ptr<RandomAccessFile> file;
    ASSERT_TRUE(fs.NewRandomAccessFile(Path("f"), opts, &file).ok());
    EXPECT_EQ(file->Size(), payload.size());
    std::string scratch;
    Slice result;
    ASSERT_TRUE(file->Read(50000, 123, &result, &scratch).ok());
    EXPECT_EQ(result.ToString(), payload.substr(50000, 123)) << "mmap=" << mmap;
  }
}

TEST_F(PosixVfsTest, FileHandleStridedWrites) {
  Vfs& fs = PosixVfs();
  std::unique_ptr<FileHandle> handle;
  ASSERT_TRUE(fs.OpenFileHandle(Path("f"), true, {}, &handle).ok());
  ASSERT_TRUE(handle->WriteAt(4096, "stripe1").ok());
  ASSERT_TRUE(handle->WriteAt(0, "stripe0").ok());
  ASSERT_TRUE(handle->Sync().ok());
  EXPECT_EQ(handle->Size(), 4096u + 7);

  std::string scratch;
  Slice result;
  ASSERT_TRUE(handle->ReadAt(4096, 7, &result, &scratch).ok());
  EXPECT_EQ(result.ToString(), "stripe1");
  ASSERT_TRUE(handle->Close().ok());
}

TEST_F(PosixVfsTest, RenameAndRemove) {
  Vfs& fs = PosixVfs();
  ASSERT_TRUE(WriteStringToFile(fs, Path("a"), "x").ok());
  ASSERT_TRUE(fs.RenameFile(Path("a"), Path("b")).ok());
  EXPECT_FALSE(fs.FileExists(Path("a")));
  EXPECT_TRUE(fs.FileExists(Path("b")));
  ASSERT_TRUE(fs.RemoveFile(Path("b")).ok());
  EXPECT_FALSE(fs.FileExists(Path("b")));
}

TEST_F(PosixVfsTest, ListDir) {
  Vfs& fs = PosixVfs();
  ASSERT_TRUE(WriteStringToFile(fs, Path("one"), "1").ok());
  ASSERT_TRUE(WriteStringToFile(fs, Path("two"), "2").ok());
  std::vector<std::string> children;
  ASSERT_TRUE(fs.ListDir(dir_.string(), &children).ok());
  EXPECT_EQ(children.size(), 2u);
}

TEST_F(PosixVfsTest, GetFileSize) {
  Vfs& fs = PosixVfs();
  ASSERT_TRUE(WriteStringToFile(fs, Path("f"), std::string(12345, 'x')).ok());
  uint64_t size = 0;
  ASSERT_TRUE(fs.GetFileSize(Path("f"), &size).ok());
  EXPECT_EQ(size, 12345u);
}

TEST_F(PosixVfsTest, LargeSequentialReadInChunks) {
  Vfs& fs = PosixVfs();
  const std::string payload(3 * 1024 * 1024 + 17, 'q');
  ASSERT_TRUE(WriteStringToFile(fs, Path("big"), payload).ok());
  std::string contents;
  ASSERT_TRUE(ReadFileToString(fs, Path("big"), &contents).ok());
  EXPECT_EQ(contents.size(), payload.size());
  EXPECT_EQ(contents, payload);
}

TEST_F(PosixVfsTest, WritebackStartsEveryMibAppended) {
  Vfs& fs = PosixVfs();
  const std::string payload = Pattern(3 * 1024 * 1024 + 512 * 1024);
  const WritebackCounts before = WritebackCounts::Now();
  std::unique_ptr<WritableFile> file;
  ASSERT_TRUE(fs.NewWritableFile(Path("wb"), {}, &file).ok());
  for (size_t off = 0; off < payload.size(); off += kPiece) {
    ASSERT_TRUE(file->Append(Slice(payload.data() + off, kPiece)).ok());
  }
  const WritebackCounts delta = WritebackCounts::Now() - before;
#if defined(__linux__)
  if (delta.failures == 1 && delta.calls == 0) {
    GTEST_SKIP() << "filesystem under " << dir_ << " rejects sync_file_range";
  }
  EXPECT_EQ(delta.calls, 3u);
  EXPECT_EQ(delta.bytes, 3u * 1024 * 1024);
  EXPECT_EQ(delta.failures, 0u);
#else
  EXPECT_EQ(delta.calls, 0u);
#endif
  EXPECT_EQ(file->Size(), payload.size());
  ASSERT_TRUE(file->Sync().ok());
  EXPECT_EQ(file->Size(), payload.size());
  ASSERT_TRUE(file->Close().ok());

  std::string contents;
  ASSERT_TRUE(ReadFileToString(fs, Path("wb"), &contents).ok());
  EXPECT_EQ(contents.size(), payload.size());
  EXPECT_TRUE(contents == payload);
}

TEST_F(PosixVfsTest, NoWritebackBelowOneMib) {
  Vfs& fs = PosixVfs();
  const std::string payload = Pattern(1024 * 1024 - 1);
  const WritebackCounts before = WritebackCounts::Now();
  std::unique_ptr<WritableFile> file;
  ASSERT_TRUE(fs.NewWritableFile(Path("small"), {}, &file).ok());
  for (size_t off = 0; off < payload.size(); off += kPiece) {
    const size_t n = std::min(kPiece, payload.size() - off);
    ASSERT_TRUE(file->Append(Slice(payload.data() + off, n)).ok());
  }
  ASSERT_TRUE(file->Sync().ok());
  ASSERT_TRUE(file->Close().ok());
  const WritebackCounts delta = WritebackCounts::Now() - before;
  EXPECT_EQ(delta.calls, 0u);
  EXPECT_EQ(delta.bytes, 0u);
  EXPECT_EQ(delta.failures, 0u);

  std::string contents;
  ASSERT_TRUE(ReadFileToString(fs, Path("small"), &contents).ok());
  EXPECT_TRUE(contents == payload);
}

#if defined(__linux__)
// sync_file_range fails with ESPIPE on a pipe: the first failure switches
// writeback off for the file, and Append keeps succeeding.
TEST_F(PosixVfsTest, WritebackFailureSwitchesItOffWithoutFailingAppend) {
  const std::string fifo = Path("fifo");
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0644), 0);
  const int reader = ::open(fifo.c_str(), O_RDONLY | O_NONBLOCK);
  ASSERT_GE(reader, 0);
  ASSERT_EQ(::fcntl(reader, F_SETFL, 0), 0);  // blocking reads from here on
  const WritebackCounts before = WritebackCounts::Now();
  std::unique_ptr<WritableFile> file;
  ASSERT_TRUE(PosixVfs().NewWritableFile(fifo, {}, &file).ok());
  // Drain only once the write end is open: until then a read sees EOF.
  const size_t total = 3 * 1024 * 1024;
  size_t drained = 0;
  std::thread drain([&] {
    std::string buf(64 * 1024, '\0');
    ssize_t n;
    while ((n = ::read(reader, buf.data(), buf.size())) > 0) drained += static_cast<size_t>(n);
  });
  // No ASSERT until the drain thread is joined.
  const std::string piece = Pattern(kPiece);
  bool appended = true;
  for (size_t off = 0; appended && off < total; off += kPiece) {
    appended = file->Append(piece).ok();
  }
  const uint64_t size = file->Size();
  const bool closed = file->Close().ok();  // the reader then sees EOF
  drain.join();
  ::close(reader);

  EXPECT_TRUE(appended);
  EXPECT_TRUE(closed);
  EXPECT_EQ(size, total);
  const WritebackCounts delta = WritebackCounts::Now() - before;
  EXPECT_EQ(delta.calls, 0u);
  EXPECT_EQ(delta.bytes, 0u);
  EXPECT_EQ(delta.failures, 1u);  // not retried after the first failure
  EXPECT_EQ(drained, total);
}
#endif

}  // namespace
}  // namespace lsmio::vfs
