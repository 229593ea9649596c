#include "core/fstream.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/random.h"
#include "vfs/mem_vfs.h"

namespace lsmio {
namespace {

// FStreamApi holds process-global state; tests run it per-fixture.
class FStreamTest : public ::testing::Test {
 protected:
  void SetUp() override {
    LsmioOptions options;
    options.vfs = &fs_;
    options.fstream_chunk_size = 4096;  // small chunks exercise boundaries
    ASSERT_TRUE(FStreamApi::Initialize(options, "/fstream-store").ok());
  }

  void TearDown() override { ASSERT_TRUE(FStreamApi::Cleanup().ok()); }

  vfs::MemVfs fs_;
};

TEST_F(FStreamTest, WriteThenReadBack) {
  {
    FStream out("hello.txt", std::ios::out);
    ASSERT_TRUE(out.good());
    out << "hello, checkpoint world";
    out.flush();
    ASSERT_TRUE(out.good());
  }
  FStream in("hello.txt", std::ios::in);
  ASSERT_TRUE(in.good());
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "hello, checkpoint world");
}

TEST_F(FStreamTest, OpenMissingFileForReadFails) {
  FStream in("missing.txt", std::ios::in);
  EXPECT_TRUE(in.fail());
  EXPECT_FALSE(in.is_open());
}

TEST_F(FStreamTest, TruncateModeDiscardsOldContents) {
  {
    FStream out("f", std::ios::out);
    out << "long old contents here";
  }
  {
    FStream out("f", std::ios::out | std::ios::trunc);
    out << "new";
  }
  FStream in("f", std::ios::in);
  EXPECT_EQ(in.size(), 3u);
  std::string contents;
  in >> contents;
  EXPECT_EQ(contents, "new");
}

/// Reads a whole stored file; gcount() must cover its logical size.
std::string ReadAll(const std::string& name) {
  FStream in(name, std::ios::in | std::ios::binary);
  std::string got(in.size(), '?');
  in.read(got.data(), static_cast<std::streamsize>(got.size()));
  EXPECT_EQ(static_cast<size_t>(in.gcount()), got.size()) << name;
  return got;
}

/// Compares two byte strings, reporting the first differing offset rather
/// than both (multi-KiB) strings.
::testing::AssertionResult SameBytes(const std::string& got, const std::string& want) {
  if (got == want) return ::testing::AssertionSuccess();
  size_t first = 0;
  while (first < got.size() && first < want.size() && got[first] == want[first]) ++first;
  size_t differing = 0;
  for (size_t i = first; i < std::min(got.size(), want.size()); ++i) {
    differing += got[i] != want[i] ? 1 : 0;
  }
  return ::testing::AssertionFailure()
         << "sizes " << got.size() << " vs " << want.size() << "; " << differing
         << " bytes differ, the first at offset " << first;
}

void WriteFile(const std::string& name, const std::string& contents) {
  FStream out(name, std::ios::out | std::ios::binary);
  out.write(contents.data(), static_cast<std::streamsize>(contents.size()));
  ASSERT_TRUE(out.good());
}

// Bytes skipped by seekp after a truncating open read back as zeros, not as
// the bytes the chunks held before the truncation.
TEST_F(FStreamTest, TruncatedFileHoleReadsZeros) {
  WriteFile("trunc-hole", std::string(8192, 'A'));
  {
    FStream out("trunc-hole", std::ios::out | std::ios::trunc);
    out << "new";
    out.seekp(5000);
    out << "x";
  }
  EXPECT_TRUE(SameBytes(ReadAll("trunc-hole"), "new" + std::string(4997, '\0') + "x"));
}

// Same, with the chunk before the hole never rewritten after the truncation.
TEST_F(FStreamTest, TruncatedFileUnwrittenChunkReadsZeros) {
  WriteFile("trunc-gap", std::string(8192, 'A'));
  {
    FStream out("trunc-gap", std::ios::out | std::ios::trunc);
    out.seekp(5000);
    out << "x";
  }
  EXPECT_TRUE(SameBytes(ReadAll("trunc-gap"), std::string(5000, '\0') + "x"));
}

// A chunk stored shorter than the file's size (a hole follows its last
// written byte) reads back zero-filled instead of ending the read early.
TEST_F(FStreamTest, ShortChunkBeforeHoleReadsZeros) {
  {
    FStream out("short-chunk", std::ios::out);
    out << "abc";
    out.seekp(5000);
    out << "x";
  }
  EXPECT_TRUE(SameBytes(ReadAll("short-chunk"), "abc" + std::string(4997, '\0') + "x"));
}

// A new file's chunks have no stored bytes to load: writing one looks up
// only the size record.
TEST_F(FStreamTest, WritingNewFileSkipsChunkLookups) {
  const uint64_t gets_before = FStreamApi::manager()->counters().gets;
  WriteFile("fresh", std::string(3 * 4096 + 100, 'z'));
  EXPECT_EQ(FStreamApi::manager()->counters().gets - gets_before, 1u);
  EXPECT_TRUE(SameBytes(ReadAll("fresh"), std::string(3 * 4096 + 100, 'z')));
}

TEST_F(FStreamTest, SeekpTellpRoundTrip) {
  FStream stream("seek", std::ios::in | std::ios::out);
  ASSERT_TRUE(stream.good());
  stream << "0123456789";
  EXPECT_EQ(static_cast<long>(stream.tellp()), 10);
  stream.seekp(4);
  EXPECT_EQ(static_cast<long>(stream.tellp()), 4);
  stream << "XY";
  stream.flush();

  stream.seekg(0);
  std::string contents;
  stream >> contents;
  EXPECT_EQ(contents, "0123XY6789");
}

TEST_F(FStreamTest, SeekRelativeAndFromEnd) {
  FStream stream("rel", std::ios::in | std::ios::out);
  stream << "abcdefgh";
  stream.flush();
  stream.seekg(-3, std::ios::end);
  std::string tail;
  tail.resize(3);
  stream.read(tail.data(), 3);
  EXPECT_EQ(tail, "fgh");

  stream.seekg(2, std::ios::beg);
  stream.seekg(2, std::ios::cur);
  char c;
  stream.get(c);
  EXPECT_EQ(c, 'e');
}

TEST_F(FStreamTest, BinaryDataAcrossChunkBoundaries) {
  // 3.5 chunks of binary data through the 4 KiB chunk size.
  std::string payload(14336, '\0');
  Rng rng(8);
  rng.Fill(payload.data(), payload.size());
  {
    FStream out("bin", std::ios::out | std::ios::binary);
    out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
    ASSERT_TRUE(out.good());
  }
  FStream in("bin", std::ios::in | std::ios::binary);
  EXPECT_EQ(in.size(), payload.size());
  std::string read_back(payload.size(), '\0');
  in.read(read_back.data(), static_cast<std::streamsize>(read_back.size()));
  EXPECT_EQ(static_cast<size_t>(in.gcount()), payload.size());
  EXPECT_EQ(read_back, payload);
}

TEST_F(FStreamTest, AppendMode) {
  {
    FStream out("log", std::ios::out);
    out << "first";
  }
  {
    FStream out("log", std::ios::out | std::ios::app);
    out << "+second";
  }
  FStream in("log", std::ios::in);
  std::string contents;
  in >> contents;
  EXPECT_EQ(contents, "first+second");
}

TEST_F(FStreamTest, RdbufIsAccessible) {
  FStream out("rb", std::ios::out);
  EXPECT_NE(out.rdbuf(), nullptr);  // paper Table 3 lists rdbuf
}

TEST_F(FStreamTest, WriteBarrierFlushesToStorage) {
  {
    FStream out("durable", std::ios::out);
    out << std::string(10000, 'd');
  }
  ASSERT_TRUE(FStreamApi::WriteBarrier().ok());
  EXPECT_GE(FStreamApi::manager()->engine_stats().memtable_flushes, 1u);
}

TEST_F(FStreamTest, RemoveAndExists) {
  {
    FStream out("temp", std::ios::out);
    out << "x";
  }
  EXPECT_TRUE(FStreamExists("temp"));
  ASSERT_TRUE(FStreamRemove("temp").ok());
  EXPECT_FALSE(FStreamExists("temp"));
  EXPECT_TRUE(FStreamRemove("temp").IsNotFound());
}

TEST_F(FStreamTest, ManyFilesCoexist) {
  for (int i = 0; i < 20; ++i) {
    FStream out("multi" + std::to_string(i), std::ios::out);
    out << "contents-" << i;
  }
  for (int i = 0; i < 20; ++i) {
    FStream in("multi" + std::to_string(i), std::ios::in);
    std::string contents;
    in >> contents;
    EXPECT_EQ(contents, "contents-" + std::to_string(i));
  }
}

TEST_F(FStreamTest, DoubleInitializeFails) {
  LsmioOptions options;
  options.vfs = &fs_;
  EXPECT_TRUE(FStreamApi::Initialize(options, "/other").IsBusy());
}

TEST_F(FStreamTest, StreamWithoutInitializeFails) {
  ASSERT_TRUE(FStreamApi::Cleanup().ok());
  {
    FStream out("orphan", std::ios::out);
    EXPECT_TRUE(out.fail());
  }
  // Restore for TearDown.
  LsmioOptions options;
  options.vfs = &fs_;
  ASSERT_TRUE(FStreamApi::Initialize(options, "/fstream-store2").ok());
}

}  // namespace
}  // namespace lsmio
