#include "lsm/table.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <thread>
#include <tuple>
#include <vector>

#include "common/crc32c.h"
#include "common/random.h"
#include "common/units.h"
#include "common/coding.h"
#include "lsm/arena.h"
#include "lsm/block_builder.h"
#include "lsm/builder.h"
#include "lsm/cache.h"
#include "lsm/comparator.h"
#include "lsm/dbformat.h"
#include "lsm/filter_policy.h"
#include "lsm/format.h"
#include "lsm/memtable.h"
#include "lsm/read_stats.h"
#include "lsm/table_builder.h"
#include "vfs/fault_vfs.h"
#include "vfs/mem_vfs.h"
#include "vfs/posix_vfs.h"

namespace lsmio::lsm {
namespace {

// Builds a table of internal keys in a MemVfs and reopens it for reading.
// Writes go through a FaultVfs, which passes everything through unless a
// test arms it and counts the write-class operations the builder makes.
class TableTest : public ::testing::Test {
 protected:
  TableTest()
      : icmp_(BytewiseComparator()),
        policy_(NewBloomFilterPolicy(10)),
        fault_fs_(fs_) {}

  std::string IKey(const std::string& user_key, SequenceNumber seq = 1,
                   ValueType t = ValueType::kValue) {
    std::string encoded;
    AppendInternalKey(&encoded, user_key, seq, t);
    return encoded;
  }

  void BuildAndOpen(const std::map<std::string, std::string>& user_entries,
                    Options options = {}) {
    std::unique_ptr<vfs::WritableFile> file;
    ASSERT_TRUE(fault_fs_.NewWritableFile("/t.sst", {}, &file).ok());
    const uint64_t ops_before = fault_fs_.write_ops();
    TableBuilder builder(options, &icmp_, policy_.get(), file.get());
    for (const auto& [k, v] : user_entries) builder.Add(IKey(k), v);
    ASSERT_TRUE(builder.Finish().ok());
    appends_ = fault_fs_.write_ops() - ops_before;
    ASSERT_TRUE(file->Close().ok());

    uint64_t size = 0;
    ASSERT_TRUE(fs_.GetFileSize("/t.sst", &size).ok());
    ASSERT_EQ(size, builder.FileSize());
    ASSERT_TRUE(fs_.NewRandomAccessFile("/t.sst", {}, &raf_).ok());
    cache_ = NewLRUCache(1 << 20);
    ASSERT_TRUE(Table::Open(options, &icmp_, policy_.get(), cache_.get(), 1,
                            raf_.get(), size, &table_)
                    .ok());
  }

  // Gets a user key through InternalGet.
  bool Get(const std::string& user_key, std::string* value) {
    std::string seek;
    AppendInternalKey(&seek, user_key, kMaxSequenceNumber, kValueTypeForSeek);
    bool found = false;
    const Status s = table_->InternalGet(
        {}, seek, [&](const Slice& k, const Slice& v) {
          ParsedInternalKey parsed;
          if (ParseInternalKey(k, &parsed) &&
              parsed.user_key == Slice(user_key)) {
            *value = v.ToString();
            found = true;
          }
        });
    EXPECT_TRUE(s.ok()) << s.ToString();
    return found;
  }

  vfs::MemVfs fs_;
  InternalKeyComparator icmp_;
  std::unique_ptr<const FilterPolicy> policy_;
  vfs::FaultVfs fault_fs_;
  uint64_t appends_ = 0;  // file appends made by the last BuildAndOpen
  std::unique_ptr<vfs::RandomAccessFile> raf_;
  std::unique_ptr<Cache> cache_;
  std::unique_ptr<Table> table_;
};

TEST_F(TableTest, PointLookups) {
  std::map<std::string, std::string> entries;
  for (int i = 0; i < 500; ++i) {
    entries["key" + std::to_string(10000 + i)] = "value" + std::to_string(i);
  }
  BuildAndOpen(entries);

  std::string value;
  ASSERT_TRUE(Get("key10000", &value));
  EXPECT_EQ(value, "value0");
  ASSERT_TRUE(Get("key10250", &value));
  EXPECT_EQ(value, "value250");
  ASSERT_TRUE(Get("key10499", &value));
  EXPECT_EQ(value, "value499");
  EXPECT_FALSE(Get("key99999", &value));
  EXPECT_FALSE(Get("aaa", &value));
}

TEST_F(TableTest, FullScanInOrder) {
  std::map<std::string, std::string> entries;
  Rng rng(31);
  for (int i = 0; i < 1000; ++i) {
    std::string key(8, '\0');
    rng.Fill(key.data(), key.size());
    entries[key] = std::to_string(i);
  }
  BuildAndOpen(entries);

  std::unique_ptr<Iterator> iter(table_->NewIterator({}));
  auto expected = entries.begin();
  for (iter->SeekToFirst(); iter->Valid(); iter->Next(), ++expected) {
    ASSERT_NE(expected, entries.end());
    EXPECT_EQ(ExtractUserKey(iter->key()).ToString(), expected->first);
    EXPECT_EQ(iter->value().ToString(), expected->second);
  }
  EXPECT_EQ(expected, entries.end());
  EXPECT_TRUE(iter->status().ok());
}

TEST_F(TableTest, SeekWithinScan) {
  BuildAndOpen({{"b", "1"}, {"d", "2"}, {"f", "3"}});
  std::unique_ptr<Iterator> iter(table_->NewIterator({}));
  iter->Seek(IKey("c", kMaxSequenceNumber, kValueTypeForSeek));
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ(ExtractUserKey(iter->key()).ToString(), "d");
  iter->Next();
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ(ExtractUserKey(iter->key()).ToString(), "f");
  iter->Next();
  EXPECT_FALSE(iter->Valid());
}

TEST_F(TableTest, SmallBlockSizeProducesManyBlocks) {
  std::map<std::string, std::string> entries;
  for (int i = 0; i < 300; ++i) {
    entries["key" + std::to_string(1000 + i)] = std::string(100, 'v');
  }
  Options options;
  options.block_size = 256;  // force many data blocks
  BuildAndOpen(entries, options);

  std::string value;
  for (int i = 0; i < 300; i += 37) {
    ASSERT_TRUE(Get("key" + std::to_string(1000 + i), &value)) << i;
  }
  std::unique_ptr<Iterator> iter(table_->NewIterator({}));
  int count = 0;
  for (iter->SeekToFirst(); iter->Valid(); iter->Next()) ++count;
  EXPECT_EQ(count, 300);
}

TEST_F(TableTest, CompressedTableRoundTrips) {
  std::map<std::string, std::string> entries;
  for (int i = 0; i < 200; ++i) {
    entries["key" + std::to_string(1000 + i)] = std::string(500, 'r');
  }
  Options options;
  options.compression = CompressionType::kLzLite;
  BuildAndOpen(entries, options);

  uint64_t compressed_size = 0;
  ASSERT_TRUE(fs_.GetFileSize("/t.sst", &compressed_size).ok());
  EXPECT_LT(compressed_size, 200 * 500u);  // repetitive values must shrink

  std::string value;
  ASSERT_TRUE(Get("key1000", &value));
  EXPECT_EQ(value, std::string(500, 'r'));
  ASSERT_TRUE(Get("key1199", &value));
}

TEST_F(TableTest, ChecksumVerificationDetectsCorruption) {
  std::map<std::string, std::string> entries;
  for (int i = 0; i < 100; ++i) {
    entries["key" + std::to_string(i)] = "payload" + std::to_string(i);
  }
  Options options;
  BuildAndOpen(entries, options);

  // Flip a byte in the middle of the data region.
  std::unique_ptr<vfs::FileHandle> handle;
  ASSERT_TRUE(fs_.OpenFileHandle("/t.sst", false, {}, &handle).ok());
  ASSERT_TRUE(handle->WriteAt(100, "X").ok());

  // Reopen with a cold cache so the read hits the corrupted bytes.
  uint64_t size = 0;
  ASSERT_TRUE(fs_.GetFileSize("/t.sst", &size).ok());
  std::unique_ptr<Table> table2;
  ASSERT_TRUE(Table::Open(options, &icmp_, policy_.get(), nullptr, 2,
                          raf_.get(), size, &table2)
                  .ok());
  ReadOptions read_opts;
  read_opts.verify_checksums = true;
  std::unique_ptr<Iterator> iter(table2->NewIterator(read_opts));
  iter->SeekToFirst();
  while (iter->Valid()) iter->Next();
  EXPECT_TRUE(iter->status().IsCorruption());
}

TEST_F(TableTest, OpenRejectsNonTableFile) {
  ASSERT_TRUE(vfs::WriteStringToFile(fs_, "/junk", std::string(200, 'j')).ok());
  std::unique_ptr<vfs::RandomAccessFile> raf;
  ASSERT_TRUE(fs_.NewRandomAccessFile("/junk", {}, &raf).ok());
  std::unique_ptr<Table> table;
  EXPECT_TRUE(Table::Open({}, &icmp_, policy_.get(), nullptr, 1, raf.get(), 200,
                          &table)
                  .IsCorruption());
}

TEST_F(TableTest, OpenRejectsTooShortFile) {
  ASSERT_TRUE(vfs::WriteStringToFile(fs_, "/tiny", "x").ok());
  std::unique_ptr<vfs::RandomAccessFile> raf;
  ASSERT_TRUE(fs_.NewRandomAccessFile("/tiny", {}, &raf).ok());
  std::unique_ptr<Table> table;
  EXPECT_TRUE(
      Table::Open({}, &icmp_, policy_.get(), nullptr, 1, raf.get(), 1, &table)
          .IsCorruption());
}

TEST_F(TableTest, ApproximateOffsetsAreMonotone) {
  std::map<std::string, std::string> entries;
  for (int i = 0; i < 500; ++i) {
    entries["key" + std::to_string(10000 + i)] = std::string(200, 'o');
  }
  Options options;
  options.block_size = 1024;
  BuildAndOpen(entries, options);

  uint64_t prev = 0;
  for (int i = 0; i < 500; i += 50) {
    const uint64_t off =
        table_->ApproximateOffsetOf(IKey("key" + std::to_string(10000 + i)));
    EXPECT_GE(off, prev);
    prev = off;
  }
  EXPECT_GT(prev, 0u);
}

// Fixed input for the golden test: 3000 keys with random 50-450 byte values
// (many 4 KiB data blocks), plus one 1 MiB value that makes a data block
// larger than the builder's staging buffer.
std::map<std::string, std::string> GoldenEntries() {
  std::map<std::string, std::string> entries;
  Rng rng(2023);
  for (int i = 0; i < 3000; ++i) {
    char key[16];
    std::snprintf(key, sizeof key, "key%06d", i);
    std::string value(50 + rng.Uniform(400), '\0');
    rng.Fill(value.data(), value.size());
    entries[key] = std::move(value);
  }
  std::string big(1 * MiB, '\0');
  rng.Fill(big.data(), big.size());
  entries["key001500"] = std::move(big);
  return entries;
}

// The table file format is frozen: whatever way the builder hands bytes to
// the file, the same input must produce the same file. The CRC and size
// were recorded from the builder that made one append per block and one
// per trailer.
TEST_F(TableTest, GoldenFileBytes) {
  BuildAndOpen(GoldenEntries());
  std::string contents;
  ASSERT_TRUE(vfs::ReadFileToString(fs_, "/t.sst", &contents).ok());
  EXPECT_EQ(contents.size(), 1847407u);
  EXPECT_EQ(crc32c::Value(contents.data(), contents.size()), 0xde49fac7u);
}

TEST_F(TableTest, StagedAppendsCoverManyBlocksPerCall) {
  // ~4 MiB of 1 KiB values: about a thousand 4 KiB data blocks, each of
  // which used to cost two appends (block, then trailer).
  std::map<std::string, std::string> entries;
  for (int i = 0; i < 4000; ++i) {
    char key[16];
    std::snprintf(key, sizeof key, "key%06d", i);
    entries[key] = std::string(1 * KiB, static_cast<char>('a' + i % 26));
  }
  BuildAndOpen(entries);

  uint64_t size = 0;
  ASSERT_TRUE(fs_.GetFileSize("/t.sst", &size).ok());
  ASSERT_GT(size, 4 * MiB);
  const uint64_t full_buffers =
      (size + kTableStagingBytes - 1) / kTableStagingBytes;
  EXPECT_LE(appends_, full_buffers + 1);

  std::string value;
  ASSERT_TRUE(Get("key003999", &value));
  EXPECT_EQ(value, std::string(1 * KiB, static_cast<char>('a' + 3999 % 26)));
}

TEST_F(TableTest, BlockLargerThanStagingBufferRoundTrips) {
  std::map<std::string, std::string> entries;
  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    std::string value(300, '\0');
    rng.Fill(value.data(), value.size());
    entries["key" + std::to_string(1000 + i)] = std::move(value);
  }
  std::string big(1 * MiB, '\0');
  rng.Fill(big.data(), big.size());
  entries["key1100"] = big;
  BuildAndOpen(entries);

  ReadOptions verify;
  verify.verify_checksums = true;
  verify.fill_cache = false;
  std::unique_ptr<Iterator> iter(table_->NewIterator(verify));
  auto expected = entries.begin();
  for (iter->SeekToFirst(); iter->Valid(); iter->Next(), ++expected) {
    ASSERT_NE(expected, entries.end());
    ASSERT_EQ(ExtractUserKey(iter->key()).ToString(), expected->first);
    ASSERT_EQ(iter->value().ToString(), expected->second);
  }
  EXPECT_EQ(expected, entries.end());
  EXPECT_TRUE(iter->status().ok()) << iter->status().ToString();
}

// A short write on any staged append must fail the flush and leave no
// table file behind, whether it hits a full-buffer append in the middle of
// the table or the final one made by Finish().
TEST_F(TableTest, ShortWriteOnStagedAppendFailsBuildTable) {
  MemTable* mem = new MemTable(icmp_);
  mem->Ref();
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    std::string value(600, '\0');
    rng.Fill(value.data(), value.size());
    mem->Add(static_cast<SequenceNumber>(i + 1), ValueType::kValue,
             "key" + std::to_string(10000 + i), value);
  }
  const Options options;
  const std::string fname = TableFileName("/db", 7);

  // Unarmed run: count the appends one flush of this memtable makes.
  uint64_t appends = 0;
  {
    std::unique_ptr<Iterator> iter(mem->NewIterator());
    FileMetaData meta;
    meta.number = 7;
    const uint64_t ops_before = fault_fs_.write_ops();
    ASSERT_TRUE(BuildTable("/db", fault_fs_, options, &icmp_, policy_.get(),
                           iter.get(), &meta)
                    .ok());
    // Create and sync are write-class operations too.
    appends = fault_fs_.write_ops() - ops_before - 2;
    ASSERT_TRUE(fs_.RemoveFile(fname).ok());
  }
  ASSERT_GE(appends, 3u);  // >600 KiB: at least two full buffers + Finish

  for (uint64_t nth = 1; nth <= appends; ++nth) {
    vfs::FaultPoint point;
    point.kind = vfs::FaultKind::kShortWrite;
    point.file_classes = vfs::kTableFile;
    point.ops = vfs::kAppendOp;
    point.countdown = static_cast<int>(nth);
    point.sticky = false;
    fault_fs_.Arm(point);

    std::unique_ptr<Iterator> iter(mem->NewIterator());
    FileMetaData meta;
    meta.number = 7;
    const Status s = BuildTable("/db", fault_fs_, options, &icmp_,
                                policy_.get(), iter.get(), &meta);
    EXPECT_TRUE(s.IsIoError()) << "append " << nth << ": " << s.ToString();
    EXPECT_EQ(meta.file_size, 0u) << "append " << nth;
    EXPECT_FALSE(fs_.FileExists(fname)) << "append " << nth;
    EXPECT_EQ(fault_fs_.faults_injected(), static_cast<int>(nth));
  }
  fault_fs_.Disarm();
  mem->Unref();
}

// Value length whose entry, alone in a data block, makes a block of exactly
// `block_bytes` (header varints + internal key + value + one restart point
// and its count). Keys are "key%06d" user keys: 17-byte internal keys.
size_t ValueForBlockOf(size_t block_bytes) {
  constexpr size_t kFixed = 1 + 1 + 17 + 2 * sizeof(uint32_t);
  for (size_t varint = 1; varint <= 5; ++varint) {
    const size_t len = block_bytes - kFixed - varint;
    char buf[5];
    if (EncodeVarint32(buf, static_cast<uint32_t>(len)) - buf ==
        static_cast<ptrdiff_t>(varint)) {
      return len;
    }
  }
  return 0;
}

// Fixed input for the second golden test: entries around the sizes where
// the builder's way of writing a block changes. Alone in a block they make
// blocks of block_size - 1 (joins the next entries), block_size and
// block_size + 1 (a block of its own), and blocks whose block-plus-trailer
// bytes are kTableStagingBytes - 1, kTableStagingBytes (staged) and
// kTableStagingBytes + 1 (too large to stage). Each size appears after a
// small entry (the large one joins a non-empty block) and after a full
// block, and the table opens with a block too large to stage.
std::map<std::string, std::string> BoundaryEntries() {
  const size_t block_size = Options().block_size;
  const std::vector<size_t> blocks = {
      block_size - 1,
      block_size,
      block_size + 1,
      kTableStagingBytes - 1 - kBlockTrailerSize,
      kTableStagingBytes - kBlockTrailerSize,
      kTableStagingBytes + 1 - kBlockTrailerSize};
  std::map<std::string, std::string> entries;
  Rng rng(2024);
  int i = 0;
  auto add = [&](size_t value_len) {
    char key[16];
    std::snprintf(key, sizeof key, "key%06d", i++);
    std::string value(value_len, '\0');
    rng.Fill(value.data(), value.size());
    entries[key] = std::move(value);
  };
  add(ValueForBlockOf(kTableStagingBytes + 1 - kBlockTrailerSize));
  for (const size_t block : blocks) {
    add(100);
    add(ValueForBlockOf(block));
    add(ValueForBlockOf(block));
    add(ValueForBlockOf(block));
  }
  add(1 * MiB);
  add(1 * MiB);
  add(100);
  return entries;
}

// Recorded from the builder that copied every entry into a BlockBuilder:
// writing an entry as its own block without that copy must not change a
// byte of the file.
TEST_F(TableTest, GoldenFileBytesAtBlockBoundaries) {
  const auto entries = BoundaryEntries();
  BuildAndOpen(entries);
  std::string contents;
  ASSERT_TRUE(vfs::ReadFileToString(fs_, "/t.sst", &contents).ok());
  EXPECT_EQ(contents.size(), 4766356u);
  EXPECT_EQ(crc32c::Value(contents.data(), contents.size()), 0xeda4698fu);

  ReadOptions verify;
  verify.verify_checksums = true;
  std::unique_ptr<Iterator> iter(table_->NewIterator(verify));
  auto expected = entries.begin();
  for (iter->SeekToFirst(); iter->Valid(); iter->Next(), ++expected) {
    ASSERT_NE(expected, entries.end());
    ASSERT_EQ(ExtractUserKey(iter->key()).ToString(), expected->first);
    ASSERT_EQ(iter->value().ToString(), expected->second);
  }
  EXPECT_EQ(expected, entries.end());
  EXPECT_TRUE(iter->status().ok()) << iter->status().ToString();
}

// A large entry that arrives while a data block already holds entries joins
// that block, exactly as BlockBuilder lays it out.
TEST_F(TableTest, LargeEntryAfterSmallOneSharesItsBlock) {
  const std::string big(64 * KiB, 'b');
  BuildAndOpen({{"a", "small"}, {"b", big}});

  Options options;
  BlockBuilder expected_block(&options);
  expected_block.Add(IKey("a"), "small");
  expected_block.Add(IKey("b"), big);
  const std::string expected = expected_block.Finish().ToString();

  std::string contents;
  ASSERT_TRUE(vfs::ReadFileToString(fs_, "/t.sst", &contents).ok());
  ASSERT_GT(contents.size(), expected.size() + kBlockTrailerSize);
  EXPECT_TRUE(contents.compare(0, expected.size(), expected) == 0);
  EXPECT_EQ(contents[expected.size()],
            static_cast<char>(CompressionType::kNone));
  std::string value;
  ASSERT_TRUE(Get("b", &value));
  EXPECT_EQ(value, big);
}

// Compressed tables keep the BlockBuilder path for entries of any size,
// whether LZ shrinks their blocks or they are stored raw.
TEST_F(TableTest, CompressedTableWithLargeValuesRoundTrips) {
  std::map<std::string, std::string> entries;
  Rng rng(5);
  for (int i = 0; i < 40; ++i) {
    char key[16];
    std::snprintf(key, sizeof key, "key%06d", i);
    const size_t len = i % 3 == 0 ? 1 * MiB : (i % 3 == 1 ? 4 * KiB : 300);
    std::string value(len, static_cast<char>('a' + i % 26));
    if (i % 2 == 1) rng.Fill(value.data(), value.size());
    entries[key] = std::move(value);
  }
  Options options;
  options.compression = CompressionType::kLzLite;
  BuildAndOpen(entries, options);

  ReadOptions verify;
  verify.verify_checksums = true;
  std::unique_ptr<Iterator> iter(table_->NewIterator(verify));
  auto expected = entries.begin();
  for (iter->SeekToFirst(); iter->Valid(); iter->Next(), ++expected) {
    ASSERT_NE(expected, entries.end());
    ASSERT_EQ(ExtractUserKey(iter->key()).ToString(), expected->first);
    ASSERT_EQ(iter->value().ToString(), expected->second);
  }
  EXPECT_EQ(expected, entries.end());
  EXPECT_TRUE(iter->status().ok()) << iter->status().ToString();
}

// A table of 1 MiB values costs two appends per value: the first block is
// appended whole, every later one as the staged chunk (previous trailer
// plus this block's header and key) and then the value, and Finish()
// appends the last chunk.
TEST_F(TableTest, OneMiBValuesCostTwoAppendsEach) {
  std::map<std::string, std::string> entries;
  for (int i = 0; i < 8; ++i) {
    char key[16];
    std::snprintf(key, sizeof key, "key%06d", i);
    entries[key] = std::string(1 * MiB, static_cast<char>('a' + i));
  }
  BuildAndOpen(entries);
  EXPECT_EQ(appends_, 2 * entries.size());

  std::string value;
  ASSERT_TRUE(Get("key000005", &value));
  EXPECT_EQ(value, std::string(1 * MiB, 'f'));
}

// Values too large to stage are appended from the memtable's own memory.
// A short write on any append of such a flush, the direct value appends
// included, must fail it and leave no table file behind.
TEST_F(TableTest, ShortWriteOnDirectValueAppendFailsBuildTable) {
  MemTable* mem = new MemTable(icmp_);
  mem->Ref();
  Rng rng(13);
  for (int i = 0; i < 3; ++i) {
    std::string value(1 * MiB, '\0');
    rng.Fill(value.data(), value.size());
    mem->Add(static_cast<SequenceNumber>(i + 1), ValueType::kValue,
             "key" + std::to_string(10000 + i), value);
  }
  const Options options;
  const std::string fname = TableFileName("/db", 9);

  // Appends: the first block whole, then chunk + value for each of the two
  // others (appends 3 and 5 are the direct value appends), then Finish().
  constexpr uint64_t kAppends = 6;
  {
    std::unique_ptr<Iterator> iter(mem->NewIterator());
    FileMetaData meta;
    meta.number = 9;
    const uint64_t ops_before = fault_fs_.write_ops();
    ASSERT_TRUE(BuildTable("/db", fault_fs_, options, &icmp_, policy_.get(),
                           iter.get(), &meta)
                    .ok());
    // Create and sync are write-class operations too.
    ASSERT_EQ(fault_fs_.write_ops() - ops_before - 2, kAppends);
    ASSERT_TRUE(fs_.RemoveFile(fname).ok());
  }

  for (uint64_t nth = 1; nth <= kAppends; ++nth) {
    vfs::FaultPoint point;
    point.kind = vfs::FaultKind::kShortWrite;
    point.file_classes = vfs::kTableFile;
    point.ops = vfs::kAppendOp;
    point.countdown = static_cast<int>(nth);
    point.sticky = false;
    fault_fs_.Arm(point);

    std::unique_ptr<Iterator> iter(mem->NewIterator());
    FileMetaData meta;
    meta.number = 9;
    const Status s = BuildTable("/db", fault_fs_, options, &icmp_,
                                policy_.get(), iter.get(), &meta);
    EXPECT_TRUE(s.IsIoError()) << "append " << nth << ": " << s.ToString();
    EXPECT_EQ(meta.file_size, 0u) << "append " << nth;
    EXPECT_FALSE(fs_.FileExists(fname)) << "append " << nth;
    EXPECT_EQ(fault_fs_.faults_injected(), static_cast<int>(nth));
  }
  fault_fs_.Disarm();
  mem->Unref();
}

// Read/iterate matrix over {use_mmap} x {block cache on/off} against the
// real file system: mmap is a PosixVfs feature, and both ways of pinning
// the index and filter (held in the block cache, or owned by the table)
// must serve identical results.
class TableMatrixTest
    : public ::testing::TestWithParam<std::tuple<bool, bool>> {
 protected:
  TableMatrixTest() : icmp_(BytewiseComparator()), policy_(NewBloomFilterPolicy(10)) {}

  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("lsmio_table_matrix_" + std::to_string(::getpid()) + "_" +
            std::to_string(std::get<0>(GetParam())) +
            std::to_string(std::get<1>(GetParam())));
    std::filesystem::remove_all(dir_);
    ASSERT_TRUE(vfs::PosixVfs().CreateDir(dir_.string()).ok());
  }

  void TearDown() override {
    table_.reset();
    raf_.reset();
    std::filesystem::remove_all(dir_);
  }

  std::string IKey(const std::string& user_key, SequenceNumber seq = 1,
                   ValueType t = ValueType::kValue) {
    std::string encoded;
    AppendInternalKey(&encoded, user_key, seq, t);
    return encoded;
  }

  void BuildAndOpen(const std::map<std::string, std::string>& user_entries) {
    const auto [use_mmap, with_cache] = GetParam();
    vfs::Vfs& fs = vfs::PosixVfs();
    const std::string path = (dir_ / "t.sst").string();

    Options options;
    options.block_size = 512;

    std::unique_ptr<vfs::WritableFile> file;
    ASSERT_TRUE(fs.NewWritableFile(path, {}, &file).ok());
    TableBuilder builder(options, &icmp_, policy_.get(), file.get());
    for (const auto& [k, v] : user_entries) builder.Add(IKey(k), v);
    ASSERT_TRUE(builder.Finish().ok());
    ASSERT_TRUE(file->Close().ok());

    uint64_t size = 0;
    ASSERT_TRUE(fs.GetFileSize(path, &size).ok());
    vfs::OpenOptions open_opts;
    open_opts.use_mmap = use_mmap;
    ASSERT_TRUE(fs.NewRandomAccessFile(path, open_opts, &raf_).ok());
    if (with_cache) cache_ = NewLRUCache(1 << 20);
    ASSERT_TRUE(Table::Open(options, &icmp_, policy_.get(), cache_.get(), 1,
                            raf_.get(), size, &table_, &counters_)
                    .ok());
  }

  bool Get(const std::string& user_key, std::string* value) {
    std::string seek;
    AppendInternalKey(&seek, user_key, kMaxSequenceNumber, kValueTypeForSeek);
    bool found = false;
    const Status s = table_->InternalGet(
        {}, seek, [&](const Slice& k, const Slice& v) {
          ParsedInternalKey parsed;
          if (ParseInternalKey(k, &parsed) &&
              parsed.user_key == Slice(user_key)) {
            *value = v.ToString();
            found = true;
          }
        });
    EXPECT_TRUE(s.ok()) << s.ToString();
    return found;
  }

  std::filesystem::path dir_;
  InternalKeyComparator icmp_;
  std::unique_ptr<const FilterPolicy> policy_;
  std::unique_ptr<vfs::RandomAccessFile> raf_;
  std::unique_ptr<Cache> cache_;
  std::unique_ptr<Table> table_;
  ReadCounters counters_;
};

TEST_P(TableMatrixTest, LookupsIterationAndMultiGet) {
  std::map<std::string, std::string> entries;
  for (int i = 0; i < 400; ++i) {
    char key[16];
    std::snprintf(key, sizeof key, "key%06d", i);
    entries[key] = "value" + std::to_string(i);
  }
  BuildAndOpen(entries);

  // Point lookups: hits and bloom-filtered misses.
  std::string value;
  ASSERT_TRUE(Get("key000000", &value));
  EXPECT_EQ(value, "value0");
  ASSERT_TRUE(Get("key000399", &value));
  EXPECT_EQ(value, "value399");
  EXPECT_FALSE(Get("key999999", &value));
  EXPECT_FALSE(Get("aaa", &value));

  // Full in-order iteration, with readahead hints enabled.
  ReadOptions scan;
  scan.readahead_bytes = 64 << 10;
  std::unique_ptr<Iterator> iter(table_->NewIterator(scan));
  auto expected = entries.begin();
  for (iter->SeekToFirst(); iter->Valid(); iter->Next(), ++expected) {
    ASSERT_NE(expected, entries.end());
    EXPECT_EQ(ExtractUserKey(iter->key()).ToString(), expected->first);
    EXPECT_EQ(iter->value().ToString(), expected->second);
  }
  EXPECT_EQ(expected, entries.end());
  EXPECT_TRUE(iter->status().ok());
  EXPECT_GT(counters_.readahead_bytes.load(), 0u);

  // MultiGet over a sorted batch: present keys, bloom-rejected absences,
  // and duplicates. Results must match the per-key lookups.
  std::vector<std::string> storage;
  for (int i = 0; i < 400; i += 5) {
    char key[16];
    std::snprintf(key, sizeof key, "key%06d", i);
    storage.push_back(IKey(key, kMaxSequenceNumber, kValueTypeForSeek));
    if (i % 50 == 0) storage.push_back(storage.back());  // duplicate
  }
  std::vector<Slice> ikeys(storage.begin(), storage.end());
  std::map<size_t, std::string> got;
  const Status s = table_->MultiGet(
      {}, ikeys, [&](size_t i, const Slice& k, const Slice& v) {
        ParsedInternalKey parsed;
        ASSERT_TRUE(ParseInternalKey(k, &parsed));
        if (parsed.user_key == ExtractUserKey(ikeys[i])) {
          got[i] = v.ToString();
        }
      });
  ASSERT_TRUE(s.ok()) << s.ToString();
  for (size_t i = 0; i < ikeys.size(); ++i) {
    const std::string user_key = ExtractUserKey(ikeys[i]).ToString();
    ASSERT_TRUE(got.count(i)) << user_key;
    EXPECT_EQ(got[i], entries[user_key]) << user_key;
  }

  // The same batch again: with a warm cache nothing should need the file;
  // without one, every data block is read from the file again.
  const uint64_t misses_before = counters_.block_cache_misses.load();
  std::map<size_t, std::string> again;
  ASSERT_TRUE(table_
                  ->MultiGet({}, ikeys,
                             [&](size_t i, const Slice&, const Slice& v) {
                               again[i] = v.ToString();
                             })
                  .ok());
  EXPECT_EQ(again, got);
  EXPECT_EQ(again.size(), ikeys.size());
  if (cache_ != nullptr) {
    EXPECT_EQ(counters_.block_cache_misses.load(), misses_before);
  } else {
    EXPECT_GT(counters_.block_cache_misses.load(), misses_before);
  }
}

TEST_P(TableMatrixTest, MultiGetColdCacheCoalesces) {
  std::map<std::string, std::string> entries;
  for (int i = 0; i < 300; ++i) {
    char key[16];
    std::snprintf(key, sizeof key, "key%06d", i);
    entries[key] = std::string(100, 'v');
  }
  BuildAndOpen(entries);

  std::vector<std::string> storage;
  for (int i = 0; i < 300; i += 2) {
    char key[16];
    std::snprintf(key, sizeof key, "key%06d", i);
    storage.push_back(IKey(key, kMaxSequenceNumber, kValueTypeForSeek));
  }
  std::vector<Slice> ikeys(storage.begin(), storage.end());
  size_t found = 0;
  ASSERT_TRUE(table_
                  ->MultiGet({}, ikeys,
                             [&](size_t, const Slice&, const Slice&) { ++found; })
                  .ok());
  EXPECT_EQ(found, ikeys.size());
  // A dense batch over adjacent 512-byte blocks must coalesce reads.
  EXPECT_GT(counters_.coalesced_reads.load(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    MmapByCache, TableMatrixTest,
    ::testing::Combine(::testing::Bool(), ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<bool, bool>>& info) {
      return std::string(std::get<0>(info.param) ? "Mmap" : "Pread") +
             (std::get<1>(info.param) ? "CacheHeld" : "TableOwned");
    });


// Uncached MultiGet reads each coalesced run into memory borrowed from the
// arena region pool for the call. These tables live on the real file
// system, so the runs go through pread into the borrowed regions.
class RunBufferTest : public ::testing::Test {
 protected:
  RunBufferTest() : icmp_(BytewiseComparator()), policy_(NewBloomFilterPolicy(10)) {}

  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("lsmio_run_buffer_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir_);
    ASSERT_TRUE(vfs::PosixVfs().CreateDir(dir_.string()).ok());
  }

  void TearDown() override {
    table_.reset();
    raf_.reset();
    std::filesystem::remove_all(dir_);
  }

  static std::string Key(int i) {
    char key[16];
    std::snprintf(key, sizeof key, "key%06d", i);
    return key;
  }

  // Builds `count` values of `value_bytes` pseudo-random bytes each and
  // opens the table without a block cache (the uncached read path).
  void BuildAndOpen(int count, size_t value_bytes) {
    vfs::Vfs& fs = vfs::PosixVfs();
    path_ = (dir_ / "t.sst").string();
    Rng rng(7);
    std::unique_ptr<vfs::WritableFile> file;
    ASSERT_TRUE(fs.NewWritableFile(path_, {}, &file).ok());
    TableBuilder builder(options_, &icmp_, policy_.get(), file.get());
    for (int i = 0; i < count; ++i) {
      std::string value(value_bytes, '\0');
      for (char& c : value) c = static_cast<char>(rng.Next());
      std::string ikey;
      AppendInternalKey(&ikey, Key(i), 1, ValueType::kValue);
      builder.Add(ikey, value);
      values_.push_back(std::move(value));
    }
    ASSERT_TRUE(builder.Finish().ok());
    ASSERT_TRUE(file->Close().ok());
    Reopen();
  }

  void Reopen() {
    table_.reset();
    uint64_t size = 0;
    ASSERT_TRUE(vfs::PosixVfs().GetFileSize(path_, &size).ok());
    ASSERT_TRUE(vfs::PosixVfs().NewRandomAccessFile(path_, {}, &raf_).ok());
    ASSERT_TRUE(Table::Open(options_, &icmp_, policy_.get(), nullptr, 1,
                            raf_.get(), size, &table_)
                    .ok());
  }

  // MultiGets keys [first, first + count) and checks every returned byte;
  // `on_value` runs inside the result callback.
  Status MultiGetAndCheck(int first, int count,
                          const std::function<void()>& on_value = [] {}) {
    std::vector<std::string> storage;
    for (int i = first; i < first + count; ++i) {
      storage.emplace_back();
      AppendInternalKey(&storage.back(), Key(i), kMaxSequenceNumber,
                        kValueTypeForSeek);
    }
    const std::vector<Slice> ikeys(storage.begin(), storage.end());
    int found = 0;
    const Status s = table_->MultiGet(
        {}, ikeys, [&](size_t i, const Slice&, const Slice& v) {
          EXPECT_TRUE(v == Slice(values_[first + i])) << Key(first + static_cast<int>(i));
          ++found;
          on_value();
        });
    if (s.ok()) EXPECT_EQ(found, count);
    return s;
  }

  std::filesystem::path dir_;
  std::string path_;
  Options options_;
  InternalKeyComparator icmp_;
  std::unique_ptr<const FilterPolicy> policy_;
  std::vector<std::string> values_;
  std::unique_ptr<vfs::RandomAccessFile> raf_;
  std::unique_ptr<Table> table_;
};

TEST_F(RunBufferTest, OneMiBValuesSpanningSeveralRegionsReadBack) {
  // Ten one-entry 1 MiB blocks are ten runs; an 8 MiB region holds seven.
  BuildAndOpen(10, 1 * MiB);
  const size_t baseline = Arena::RegionsInUseForTesting();
  size_t most_in_use = 0;
  ASSERT_TRUE(MultiGetAndCheck(0, 10, [&] {
                most_in_use = std::max(most_in_use, Arena::RegionsInUseForTesting());
              }).ok());
  EXPECT_GE(most_in_use, baseline + 2);
  EXPECT_EQ(Arena::RegionsInUseForTesting(), baseline);
  // Again, now from regions the first call left resident in the pool.
  ASSERT_TRUE(MultiGetAndCheck(0, 10).ok());
  EXPECT_EQ(Arena::RegionsInUseForTesting(), baseline);
}

TEST_F(RunBufferTest, RunLongerThanARegionReadsBack) {
  // A 9 MiB one-entry block does not fit an 8 MiB region, so each run
  // gets a buffer of its own and no region is borrowed.
  BuildAndOpen(2, 9 * MiB);
  const size_t baseline = Arena::RegionsInUseForTesting();
  ASSERT_TRUE(MultiGetAndCheck(0, 2).ok());
  EXPECT_EQ(Arena::RegionsInUseForTesting(), baseline);
}

TEST_F(RunBufferTest, CorruptBlockInsideARunFailsAndReturnsItsRegion) {
  // Eight 64 KiB one-entry blocks are adjacent and coalesce into one run.
  options_.paranoid_checks = true;
  BuildAndOpen(8, 64 * KiB);
  std::string middle;
  AppendInternalKey(&middle, Key(4), kMaxSequenceNumber, kValueTypeForSeek);
  const uint64_t offset = table_->ApproximateOffsetOf(middle);
  ASSERT_GT(offset, 0u);
  {
    std::unique_ptr<vfs::FileHandle> handle;
    ASSERT_TRUE(vfs::PosixVfs().OpenFileHandle(path_, false, {}, &handle).ok());
    ASSERT_TRUE(handle->WriteAt(offset + 1000, "XYZ").ok());
    ASSERT_TRUE(handle->Close().ok());
  }
  Reopen();

  const size_t baseline = Arena::RegionsInUseForTesting();
  const Status s = MultiGetAndCheck(0, 8);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_EQ(Arena::RegionsInUseForTesting(), baseline);
  // The blocks before the corrupt one still read back on their own.
  EXPECT_TRUE(MultiGetAndCheck(0, 4).ok());
  EXPECT_EQ(Arena::RegionsInUseForTesting(), baseline);
}

TEST_F(RunBufferTest, ConcurrentMultiGetsOfOneMiBValues) {
  BuildAndOpen(8, 1 * MiB);
  const size_t baseline = Arena::RegionsInUseForTesting();
  std::vector<std::thread> readers;
  for (int t = 0; t < 8; ++t) {
    readers.emplace_back([this, t] {
      for (int round = 0; round < 3; ++round) {
        const int first = (t + round) % 5;
        EXPECT_TRUE(MultiGetAndCheck(first, 4).ok());
      }
    });
  }
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(Arena::RegionsInUseForTesting(), baseline);
}

}  // namespace
}  // namespace lsmio::lsm
