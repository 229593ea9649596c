// google-benchmark microbenchmarks of the LSM engine's building blocks:
// the real-time costs behind the virtual CostModel constants used in the
// figure benchmarks (EXPERIMENTS.md documents the mapping).
#include <benchmark/benchmark.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/crc32c.h"
#include "common/random.h"
#include "common/units.h"
#include "lsm/arena.h"
#include "lsm/compression.h"
#include "lsm/db.h"
#include "lsm/filter_policy.h"
#include "lsm/iterator.h"
#include "lsm/memtable.h"
#include "lsm/skiplist.h"
#include "lsm/table.h"
#include "lsm/table_builder.h"
#include "vfs/mem_vfs.h"
#include "vfs/posix_vfs.h"

namespace {

using namespace lsmio;
using namespace lsmio::lsm;

void BM_Crc32c(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  std::string data(n, '\0');
  Rng rng(1);
  rng.Fill(data.data(), n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crc32c::Value(data.data(), n));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_Crc32c)->Arg(4096)->Arg(65536)->Arg(1 << 20);

void BM_LzLiteCompress(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  // Half-compressible data: realistic checkpoint payloads.
  std::string data(n, '\0');
  Rng rng(2);
  for (size_t i = 0; i < n; i += 64) {
    if (rng.Bernoulli(0.5)) rng.Fill(data.data() + i, std::min<size_t>(64, n - i));
  }
  std::string out;
  for (auto _ : state) {
    LzLiteCompress(data, &out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_LzLiteCompress)->Arg(65536)->Arg(1 << 20);

void BM_LzLiteDecompress(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  std::string data(n, 'r');
  std::string compressed;
  LzLiteCompress(data, &compressed);
  std::string out;
  for (auto _ : state) {
    LzLiteDecompress(compressed, &out).IgnoreError();
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_LzLiteDecompress)->Arg(65536)->Arg(1 << 20);

void BM_SkipListInsert(benchmark::State& state) {
  struct Cmp {
    int operator()(uint64_t a, uint64_t b) const {
      return a < b ? -1 : (a > b ? 1 : 0);
    }
  };
  Rng rng(3);
  for (auto _ : state) {
    state.PauseTiming();
    auto arena = std::make_unique<Arena>();
    SkipList<uint64_t, Cmp> list(Cmp{}, arena.get());
    state.ResumeTiming();
    for (int i = 0; i < state.range(0); ++i) list.Insert(rng.Next());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SkipListInsert)->Arg(10000);

uint64_t MinorFaults() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<uint64_t>(usage.ru_minflt);
}

// Adds into a fresh memtable each iteration: 1000 entries, or one 32 MiB
// memtable's worth of 1 MiB values. The first touch of arena memory is
// inside the timing; `minflt_per_iter` counts the minor page faults the
// adds take (0 once the arena writes into recycled, resident regions).
void BM_MemTableAdd(benchmark::State& state) {
  const size_t value_size = static_cast<size_t>(state.range(0));
  const int entries = value_size >= MiB ? static_cast<int>(32 * MiB / value_size) : 1000;
  InternalKeyComparator icmp(BytewiseComparator());
  const std::string value(value_size, 'v');
  uint64_t faults = 0;
  for (auto _ : state) {
    state.PauseTiming();
    MemTable* mem = new MemTable(icmp);
    mem->Ref();
    const uint64_t faults_before = MinorFaults();
    state.ResumeTiming();
    for (int i = 0; i < entries; ++i) {
      mem->Add(static_cast<SequenceNumber>(i + 1), ValueType::kValue,
               "key" + std::to_string(i), value);
    }
    state.PauseTiming();
    faults += MinorFaults() - faults_before;
    mem->Unref();
    state.ResumeTiming();
  }
  state.SetBytesProcessed(state.iterations() * entries *
                          static_cast<int64_t>(value_size));
  state.counters["minflt_per_iter"] =
      static_cast<double>(faults) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_MemTableAdd)->Arg(256)->Arg(4096)->Arg(65536)->Arg(1 << 20);

// Table file that keeps only its size: the flush produces every byte, but
// nothing is stored, so no allocator or page-fault cost enters the timing.
class DiscardFile final : public vfs::WritableFile {
 public:
  Status Append(const Slice& data) override {
    size_ += data.size();
    return Status::OK();
  }
  Status Flush() override { return Status::OK(); }
  Status Sync() override { return Status::OK(); }
  Status Close() override { return Status::OK(); }
  [[nodiscard]] uint64_t Size() const override { return size_; }

 private:
  uint64_t size_ = 0;
};

// One memtable flush: 32 MiB of values of the given size, drained through
// TableBuilder as BuildTable does. Times block encoding, value copies and
// block CRCs, the flush thread's CPU work, without any file system.
void BM_BuildTable(benchmark::State& state) {
  const size_t value_size = static_cast<size_t>(state.range(0));
  const size_t count = 32 * MiB / value_size;
  InternalKeyComparator icmp(BytewiseComparator());
  const std::unique_ptr<const FilterPolicy> policy(NewBloomFilterPolicy(10));
  std::string value(value_size, '\0');
  Rng rng(4);
  rng.Fill(value.data(), value.size());
  auto* mem = new MemTable(icmp);
  mem->Ref();
  for (size_t i = 0; i < count; ++i) {
    char key[16];
    std::snprintf(key, sizeof key, "key%08zu", i);
    mem->Add(static_cast<SequenceNumber>(i + 1), ValueType::kValue, key, value);
  }
  const Options options;
  for (auto _ : state) {
    DiscardFile file;
    TableBuilder builder(options, &icmp, policy.get(), &file);
    std::unique_ptr<Iterator> iter(mem->NewIterator());
    for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
      builder.Add(iter->key(), iter->value());
    }
    builder.Finish().IgnoreError();  // DiscardFile appends cannot fail
    benchmark::DoNotOptimize(file.Size());
  }
  mem->Unref();
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(count * value_size));
}
BENCHMARK(BM_BuildTable)->Arg(4096)->Arg(1 << 20)->Unit(benchmark::kMillisecond);

void BM_BloomFilterCreate(benchmark::State& state) {
  auto policy = std::unique_ptr<const FilterPolicy>(NewBloomFilterPolicy(10));
  std::vector<std::string> key_storage;
  std::vector<Slice> keys;
  for (int i = 0; i < state.range(0); ++i) {
    key_storage.push_back("bloom-key-" + std::to_string(i));
  }
  for (const auto& key : key_storage) keys.emplace_back(key);
  std::string filter;
  for (auto _ : state) {
    filter.clear();
    policy->CreateFilter(keys.data(), static_cast<int>(keys.size()), &filter);
    benchmark::DoNotOptimize(filter.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BloomFilterCreate)->Arg(10000);

void BM_DbPut(benchmark::State& state) {
  const size_t value_size = static_cast<size_t>(state.range(0));
  vfs::MemVfs fs;
  Options options;
  options.vfs = &fs;
  options.disable_wal = true;
  options.disable_compaction = true;
  std::unique_ptr<DB> db;
  DB::Open(options, "/bm", &db).IgnoreError();  // bench scratch store
  const std::string value(value_size, 'v');
  uint64_t key = 0;
  for (auto _ : state) {
    db->Put({}, "key" + std::to_string(key++), value).IgnoreError();
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(value_size));
}
BENCHMARK(BM_DbPut)->Arg(4096)->Arg(65536)->Arg(1 << 20);

void BM_DbGet(benchmark::State& state) {
  vfs::MemVfs fs;
  Options options;
  options.vfs = &fs;
  options.disable_wal = true;
  options.disable_compaction = true;
  std::unique_ptr<DB> db;
  DB::Open(options, "/bm", &db).IgnoreError();  // bench scratch store
  constexpr int kKeys = 2000;
  const std::string value(4096, 'v');
  for (int i = 0; i < kKeys; ++i) {
    db->Put({}, "key" + std::to_string(i), value).IgnoreError();
  }
  db->FlushMemTable(true).IgnoreError();  // force table reads, not memtable hits
  Rng rng(7);
  std::string out;
  for (auto _ : state) {
    db->Get({}, "key" + std::to_string(rng.Uniform(kKeys)), &out).IgnoreError();
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DbGet);

// Uncached MultiGet of 4 adjacent values per call from a table on the local
// file system, whose pages are in the page cache after the build: the
// paper's restore path (no block cache). Each value is copied into a fresh
// string, as DB::MultiGet does for its caller. `minflt_per_iter` counts the
// minor page faults per call after one warm-up call: those of the value
// strings, plus those of the read buffers until these come from resident
// memory.
void BM_TableMultiGet(benchmark::State& state) {
  const size_t value_size = static_cast<size_t>(state.range(0));
  constexpr int kValues = 16;
  constexpr size_t kBatch = 4;
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("lsmio_bm_multiget_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "t.sst").string();
  vfs::Vfs& fs = vfs::PosixVfs();
  InternalKeyComparator icmp(BytewiseComparator());
  const std::unique_ptr<const FilterPolicy> policy(NewBloomFilterPolicy(10));
  const Options options;
  std::vector<std::string> seek_keys;
  std::unique_ptr<vfs::RandomAccessFile> file;
  std::unique_ptr<Table> table;
  Status s = [&] {
    std::string value(value_size, '\0');
    Rng rng(5);
    rng.Fill(value.data(), value.size());
    std::unique_ptr<vfs::WritableFile> out;
    LSMIO_RETURN_IF_ERROR(fs.NewWritableFile(path, {}, &out));
    TableBuilder builder(options, &icmp, policy.get(), out.get());
    for (int i = 0; i < kValues; ++i) {
      char key[16];
      std::snprintf(key, sizeof key, "key%08d", i);
      std::string ikey;
      AppendInternalKey(&ikey, key, 1, ValueType::kValue);
      builder.Add(ikey, value);
      seek_keys.emplace_back();
      AppendInternalKey(&seek_keys.back(), key, kMaxSequenceNumber,
                        kValueTypeForSeek);
    }
    LSMIO_RETURN_IF_ERROR(builder.Finish());
    LSMIO_RETURN_IF_ERROR(out->Close());
    LSMIO_RETURN_IF_ERROR(fs.NewRandomAccessFile(path, {}, &file));
    return Table::Open(options, &icmp, policy.get(), nullptr, 1, file.get(),
                       file->Size(), &table);
  }();
  const std::vector<Slice> keys(seek_keys.begin(), seek_keys.end());
  size_t first = 0;
  const auto read_batch = [&] {
    std::vector<std::string> values(kBatch);
    s = table->MultiGet({}, std::span(keys).subspan(first, kBatch),
                        [&](size_t i, const Slice&, const Slice& v) {
                          values[i].assign(v.data(), v.size());
                        });
    benchmark::DoNotOptimize(values.data());
    first = (first + kBatch) % kValues;
  };
  if (s.ok()) read_batch();  // warm-up
  uint64_t faults = 0;
  if (s.ok()) {
    const uint64_t faults_before = MinorFaults();
    for (auto _ : state) {
      read_batch();
      if (!s.ok()) break;
    }
    faults = MinorFaults() - faults_before;
  }
  if (!s.ok()) state.SkipWithError(s.ToString().c_str());
  table.reset();
  file.reset();
  std::filesystem::remove_all(dir);
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(kBatch * value_size));
  state.counters["minflt_per_iter"] =
      static_cast<double>(faults) / static_cast<double>(std::max<int64_t>(1, state.iterations()));
}
BENCHMARK(BM_TableMultiGet)->Arg(65536)->Arg(1 << 20);

}  // namespace

BENCHMARK_MAIN();
