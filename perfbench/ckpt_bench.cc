// End-to-end checkpoint benchmark over LSMIO's user APIs.
//
// Four ranks (minimpi threads in this process) write one checkpoint epoch
// at a time through the K/V Manager, FStream or the ADIOS2-style plugin
// onto real files (PosixVfs) under --data. Each epoch is timed between two
// barriers: the first before the first write call, the second after every
// rank's durability call (Manager::WriteBarrier(kSync),
// FStreamApi::WriteBarrier(), Engine::Close()) returned. The loop is
// closed: each rank issues its next call only when the previous returned.
// Outside the timed window the epoch is read back and checked byte for
// byte, and epoch N-2 is deleted before epoch N is written, so the disk
// holds at most two epochs.
//
//   ckpt_bench --workload kv-4k-per-rank --seed 1 --seconds 10 --trace 0
//              --data DIR [--tiny] [--trace-out FILE]
//
// --trace 0 prints the end-to-end metrics; --trace 1 interleaves epochs
// through a timing Vfs decorator, a raw POSIX reference (and, for
// plugin-restart, the BP-lite engine) and prints per-layer metrics. The
// last stdout line is one JSON object {correct, attempted, failed, metrics}.
#include <fcntl.h>
#include <sys/resource.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "a2/a2.h"
#include "core/fstream.h"
#include "core/manager.h"
#include "core/plugin.h"
#include "minimpi/minimpi.h"
#include "stats.h"
#include "timing_vfs.h"
#include "vfs/posix_vfs.h"

namespace perfbench {
namespace {

using lsmio::Slice;
using lsmio::Status;

constexpr int kRanks = 4;
constexpr double kMiB = 1024.0 * 1024.0;
constexpr uint64_t KiB = 1024;
constexpr uint64_t MiB = 1024 * KiB;
/// No new epoch starts this long after the program started.
constexpr double kHardCapSeconds = 110.0;

// ---------------------------------------------------------------- options

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string data_dir;
  bool tiny = false;
  std::string trace_out;
};

struct WorkloadParams {
  uint64_t rank_bytes = 0;  // user payload per rank per epoch
  uint64_t call_bytes = 0;  // bytes per API write call
  uint64_t read_bytes = 0;  // bytes per API read call on restore
  int variables = 1;        // plugin-restart: variables per rank
};

bool ParamsFor(const std::string& workload, bool tiny, WorkloadParams* p) {
  if (workload == "kv-4k-per-rank") {
    *p = {128 * MiB, 4 * KiB, 4 * KiB, 1};
  } else if (workload == "fstream-1m-shared") {
    // 256 KiB writes: one in 4 stores a 1 MiB chunk, which puts p99 among
    // the stalled chunk puts. With 64 KiB writes only one in 16 does, and
    // p99 lands on the knee between unstalled and stalled puts, where it
    // swung 2.4-6.3 ms across seeds with the host's CPU contention.
    *p = {128 * MiB, 256 * KiB, 64 * KiB, 1};
  } else if (workload == "plugin-restart") {
    *p = {16 * MiB, 64 * KiB, 256 * KiB, 4};
  } else {
    return false;
  }
  // The self-check size: every code path, a few MiB per epoch.
  if (tiny) p->rank_bytes = workload == "plugin-restart" ? 2 * MiB : 4 * MiB;
  return true;
}

enum class Variant { kLsmio, kLsmioTraced, kPosixRef, kBpLite };

const char* VariantName(Variant v) {
  switch (v) {
    case Variant::kLsmio: return "lsmio";
    case Variant::kLsmioTraced: return "lsmio-traced";
    case Variant::kPosixRef: return "posix-ref";
    case Variant::kBpLite: return "bplite";
  }
  return "?";
}

// ---------------------------------------------------------------- payload

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Doubles of a seeded smooth field (two slow waves, advanced by rotation)
/// plus small uniform noise: what a simulation's state array looks like.
void FillPayload(uint64_t seed, int epoch, int rank, std::vector<double>* out) {
  uint64_t state = seed ^ (static_cast<uint64_t>(epoch) << 32) ^
                   (static_cast<uint64_t>(rank) << 48);
  auto uniform = [&state] {
    return static_cast<double>(SplitMix64(&state) >> 11) * 0x1.0p-53;
  };
  const double w1 = 2 * M_PI / (4096 + 4096 * uniform());
  const double w2 = 2 * M_PI / (65536 + 65536 * uniform());
  const double c1 = std::cos(w1), s1 = std::sin(w1);
  const double c2 = std::cos(w2), s2 = std::sin(w2);
  double re1 = std::cos(2 * M_PI * uniform()), im1 = std::sin(2 * M_PI * uniform());
  double re2 = 1, im2 = 0;
  const double a1 = 1 + uniform(), a2 = 10 * uniform();
  uint64_t x = SplitMix64(&state) | 1;  // xorshift64 noise stream
  double* v = out->data();
  for (size_t i = 0; i < out->size(); ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const double noise = static_cast<double>(x >> 11) * 0x1.0p-53 - 0.5;
    v[i] = a1 * re1 + a2 * re2 + 0.01 * noise;
    const double r1 = re1 * c1 - im1 * s1;
    im1 = re1 * s1 + im1 * c1;
    re1 = r1;
    const double r2 = re2 * c2 - im2 * s2;
    im2 = re2 * s2 + im2 * c2;
    re2 = r2;
  }
}

// ---------------------------------------------------------------- records

/// One rank's view of one epoch.
struct RankEpoch {
  uint64_t write_calls = 0;
  int64_t write_busy_ns = 0;
  int64_t barrier_ns = 0;
  int64_t finish_ns = 0;              // when this rank's part became durable
  std::optional<int64_t> open_ns;     // restore-side store open, if this rank opened
  double manager_put_us = 0;          // ManagerCounters.put_latency_us sum
  uint64_t index_appends = 0;
  uint64_t restore_bytes = 0;
  std::optional<lsmio::lsm::DbStats> write_stats;
  std::optional<lsmio::lsm::DbStats> read_stats;
  std::vector<double> put_us;         // each API write call
  std::vector<double> get_us;         // each API read call on restore
  std::vector<Interval> write_spans;  // API write calls, traced epochs only
};

/// Call-latency percentiles over blocks of consecutive epochs, each block
/// just large enough for p99 to have kMinSamplesBeyond samples beyond it
/// (one epoch, unless an epoch makes few calls). The metric is the median
/// over blocks, so one slow epoch moves it little; samples are dropped once
/// their block is summarized.
class BlockPercentiles {
 public:
  struct Block {
    double p50 = 0;
    double p99 = 0;
    int epochs = 0;
    PickedPercentile tail;  // highest percentile the block supports
  };

  void Add(const std::array<RankEpoch, kRanks>& ranks, std::vector<double> RankEpoch::*field) {
    for (const RankEpoch& r : ranks) {
      pending_.insert(pending_.end(), (r.*field).begin(), (r.*field).end());
    }
    ++pending_epochs_;
    if (PercentileSupported(pending_.size(), 99)) Close();
  }

  /// Summarizes a last partial block only when no full block exists.
  void Finish() {
    if (blocks_.empty() && !pending_.empty()) Close();
  }

  [[nodiscard]] const std::vector<Block>& blocks() const { return blocks_; }

 private:
  void Close() {
    std::sort(pending_.begin(), pending_.end());
    blocks_.push_back({PercentileOfSorted(pending_, 50), PercentileOfSorted(pending_, 99),
                       pending_epochs_, PickTailPercentile(pending_)});
    pending_.clear();
    pending_epochs_ = 0;
  }

  std::vector<double> pending_;
  int pending_epochs_ = 0;
  std::vector<Block> blocks_;
};

struct EpochRecord {
  Variant variant = Variant::kLsmio;
  bool measured = false;  // false for the cold first epoch
  int64_t setup_ns = 0;
  int64_t window_begin = 0, window_end = 0;
  int64_t restore_begin = 0, restore_end = 0;
  uint64_t user_bytes = 0;
  uint64_t disk_bytes = 0;
  double slowest_barrier_ms = 0;
  std::array<RankEpoch, kRanks> ranks;  // latency samples dropped once summarized

  [[nodiscard]] double window_s() const { return (window_end - window_begin) / 1e9; }
  [[nodiscard]] double ckpt_mib_s() const { return user_bytes / kMiB / window_s(); }
  [[nodiscard]] uint64_t restore_bytes() const {
    uint64_t total = 0;
    for (const RankEpoch& r : ranks) total += r.restore_bytes;
    return total;
  }
  [[nodiscard]] double restore_mib_s() const {
    return restore_bytes() / kMiB / ((restore_end - restore_begin) / 1e9);
  }
};

/// State shared by the rank threads. Each rank writes only its own slots;
/// the barriers between phases order those writes before rank 0 reads them.
struct Shared {
  Args args;
  WorkloadParams params;
  std::array<std::vector<double>, kRanks> payload;
  std::array<RankEpoch, kRanks> current;
  BlockPercentiles put_us, get_us;  // untraced measured epochs
  std::vector<EpochRecord> epochs;
  std::atomic<uint64_t> attempted{0};
  std::atomic<uint64_t> failed{0};
  int64_t start_ns = 0;
  int64_t measure_start_ns = 0;
};

/// Everything a workload's rank needs for one epoch.
struct EpochEnv {
  lsmio::minimpi::Comm& comm;
  Shared& shared;
  int rank;
  Variant variant;
  lsmio::vfs::Vfs* vfs;
  std::string dir;  // this epoch's directory
  RankEpoch& out;

  [[nodiscard]] const WorkloadParams& params() const { return shared.params; }
  [[nodiscard]] const char* payload(int r) const {
    return reinterpret_cast<const char*>(shared.payload[r].data());
  }

  /// Counts one attempted operation; a non-OK status counts as failed.
  bool Check(const Status& s, const char* what) {
    shared.attempted.fetch_add(1, std::memory_order_relaxed);
    if (s.ok()) return true;
    Fail(what, s.ToString());
    return false;
  }
  void Fail(const char* what, const std::string& detail) {
    if (shared.failed.fetch_add(1) < 10) {
      std::fprintf(stderr, "rank %d: %s failed: %s\n", rank, what, detail.c_str());
    }
  }

  void RecordWrite(int64_t begin, int64_t end) {
    ++out.write_calls;
    out.write_busy_ns += end - begin;
    out.put_us.push_back((end - begin) / 1e3);
    if (variant == Variant::kLsmioTraced) out.write_spans.push_back({begin, end});
  }
  void RecordBarrier(int64_t begin, int64_t end) { out.barrier_ns += end - begin; }
  /// Marks this rank's part of the checkpoint durable (by default, when its
  /// durability call returns).
  void RecordFinish() { out.finish_ns = NowNs(); }
  void RecordRead(int64_t begin, int64_t end, uint64_t bytes) {
    out.restore_bytes += bytes;
    out.get_us.push_back((end - begin) / 1e3);
  }
  /// Compares restored bytes with what rank `owner` wrote at `offset`; a
  /// mismatch counts as a failed operation of the read call just checked.
  void Verify(const char* got, size_t n, int owner, uint64_t offset) {
    if (std::memcmp(got, payload(owner) + offset, n) != 0) {
      Fail("verify", "restored bytes differ at rank " + std::to_string(owner) +
                         " offset " + std::to_string(offset));
    }
  }
};

// ---------------------------------------------------------------- workloads

/// One rank's side of a workload. Every method is called by every rank in
/// the same order; none may skip a collective call, even after a failure.
class RankWorkload {
 public:
  virtual ~RankWorkload() = default;
  virtual void Open(EpochEnv& env) = 0;         // set-up, untimed
  virtual void Write(EpochEnv& env) = 0;        // timed API write calls
  virtual void Durable(EpochEnv& env) = 0;      // the durability call
  virtual void CloseWriter(EpochEnv& env) = 0;  // after the window
  virtual void Restore(EpochEnv& env) = 0;      // open, read, verify
  virtual void CloseReader(EpochEnv& env) = 0;
};

lsmio::LsmioOptions PaperOptions(lsmio::vfs::Vfs* fs) {
  lsmio::LsmioOptions options;  // WAL, compression, cache, compaction off
  options.vfs = fs;
  return options;
}

/// kv-4k-per-rank: Manager::Put of 4 KiB values into one store per rank.
class KvWorkload final : public RankWorkload {
 public:
  explicit KvWorkload(const WorkloadParams& p) {
    const uint64_t n = p.rank_bytes / p.call_bytes;
    keys_.reserve(n);
    char buf[32];
    for (uint64_t i = 0; i < n; ++i) {
      std::snprintf(buf, sizeof buf, "ckpt/%08" PRIx64, i);
      keys_.emplace_back(buf);
    }
  }

  void Open(EpochEnv& env) override {
    env.Check(lsmio::Manager::Open(PaperOptions(env.vfs), StoreDir(env), &writer_),
              "Manager::Open");
  }

  void Write(EpochEnv& env) override {
    if (!writer_) return;
    const uint64_t n = env.params().call_bytes;
    const char* data = env.payload(env.rank);
    for (size_t i = 0; i < keys_.size(); ++i) {
      const int64_t t0 = NowNs();
      const Status s = writer_->Put(keys_[i], Slice(data + i * n, n));
      env.RecordWrite(t0, NowNs());
      env.Check(s, "Manager::Put");
    }
  }

  void Durable(EpochEnv& env) override {
    if (!writer_) return;
    const int64_t t0 = NowNs();
    const Status s = writer_->WriteBarrier(lsmio::BarrierMode::kSync);
    env.RecordBarrier(t0, NowNs());
    env.Check(s, "Manager::WriteBarrier");
  }

  void CloseWriter(EpochEnv& env) override {
    if (!writer_) return;
    const lsmio::ManagerCounters counters = writer_->counters();
    env.out.manager_put_us = counters.put_latency_us.sum();
    env.out.index_appends = counters.appends;
    env.out.write_stats = writer_->engine_stats();
    writer_.reset();
  }

  void Restore(EpochEnv& env) override {
    lsmio::LsmioOptions options = PaperOptions(env.vfs);
    options.read_only = true;
    const int64_t t0 = NowNs();
    const bool opened =
        env.Check(lsmio::Manager::Open(options, StoreDir(env), &reader_), "Manager::Open");
    env.out.open_ns = NowNs() - t0;
    if (!opened) return;
    const uint64_t n = env.params().read_bytes;
    std::string value;
    for (size_t i = 0; i < keys_.size(); ++i) {
      const int64_t begin = NowNs();
      const Status s = reader_->Get(keys_[i], &value);
      env.RecordRead(begin, NowNs(), value.size());
      if (!env.Check(s, "Manager::Get")) continue;
      if (value.size() != n) {
        env.Fail("Manager::Get", "value of " + keys_[i] + " has the wrong size");
        continue;
      }
      env.Verify(value.data(), n, env.rank, i * n);
    }
  }

  void CloseReader(EpochEnv& env) override {
    if (!reader_) return;
    env.out.read_stats = reader_->engine_stats();
    reader_.reset();
  }

 private:
  static std::string StoreDir(const EpochEnv& env) {
    return env.dir + "/rank-" + std::to_string(env.rank);
  }

  std::vector<std::string> keys_;
  std::unique_ptr<lsmio::Manager> writer_;
  std::unique_ptr<lsmio::Manager> reader_;
};

/// fstream-1m-shared: each rank writes its own file in 256 KiB write()
/// calls; all files live in the one process-wide FStreamApi store (1 MiB
/// chunks).
class FStreamWorkload final : public RankWorkload {
 public:
  void Open(EpochEnv& env) override {
    if (env.rank != 0) return;
    env.Check(lsmio::FStreamApi::Initialize(PaperOptions(env.vfs), StoreDir(env)),
              "FStreamApi::Initialize");
  }

  void Write(EpochEnv& env) override {
    if (lsmio::FStreamApi::manager() == nullptr) return;
    const uint64_t n = env.params().call_bytes;
    const char* data = env.payload(env.rank);
    lsmio::FStream out(FileName(env), std::ios::out | std::ios::trunc);
    env.Check(out.good() ? Status::OK() : Status::IoError("open"), "FStream::open");
    for (uint64_t off = 0; off < env.params().rank_bytes; off += n) {
      const int64_t t0 = NowNs();
      out.write(data + off, static_cast<std::streamsize>(n));
      env.RecordWrite(t0, NowNs());
      env.Check(out.good() ? Status::OK() : Status::IoError("write"), "FStream::write");
    }
    // flush() stores the last chunk and the size record, reporting failure
    // in the stream state; close() reports nothing. Both count as one call.
    const int64_t t0 = NowNs();
    out.flush();
    const bool flushed = out.good();
    out.close();
    env.RecordWrite(t0, NowNs());
    env.Check(flushed ? Status::OK() : Status::IoError("flush"), "FStream::flush");
    env.RecordFinish();  // the shared store's barrier below is not this rank's
  }

  /// The store is process-wide, so its one durability call comes once every
  /// rank's stream is closed, as a threaded application would make it.
  void Durable(EpochEnv& env) override {
    env.comm.Barrier();
    if (env.rank != 0 || lsmio::FStreamApi::manager() == nullptr) return;
    const int64_t t0 = NowNs();
    const Status s = lsmio::FStreamApi::WriteBarrier();
    env.RecordBarrier(t0, NowNs());
    env.Check(s, "FStreamApi::WriteBarrier");
  }

  void CloseWriter(EpochEnv& env) override {
    if (env.rank != 0 || lsmio::FStreamApi::manager() == nullptr) return;
    lsmio::Manager* manager = lsmio::FStreamApi::manager();
    const lsmio::ManagerCounters counters = manager->counters();
    env.out.manager_put_us = counters.put_latency_us.sum();
    env.out.index_appends = counters.appends;
    env.out.write_stats = manager->engine_stats();
    env.Check(lsmio::FStreamApi::Cleanup(), "FStreamApi::Cleanup");
  }

  void Restore(EpochEnv& env) override {
    if (env.rank == 0) {
      lsmio::LsmioOptions options = PaperOptions(env.vfs);
      options.read_only = true;
      const int64_t t0 = NowNs();
      env.Check(lsmio::FStreamApi::Initialize(options, StoreDir(env)),
                "FStreamApi::Initialize");
      env.out.open_ns = NowNs() - t0;
    }
    env.comm.Barrier();
    if (lsmio::FStreamApi::manager() == nullptr) return;
    const uint64_t n = env.params().read_bytes;
    lsmio::FStream in(FileName(env), std::ios::in);
    env.Check(in.good() ? Status::OK() : Status::IoError("open"), "FStream::open");
    std::vector<char> buf(n);
    for (uint64_t off = 0; off < env.params().rank_bytes; off += n) {
      const int64_t t0 = NowNs();
      in.read(buf.data(), static_cast<std::streamsize>(n));
      env.RecordRead(t0, NowNs(), static_cast<uint64_t>(in.gcount()));
      if (!env.Check(static_cast<uint64_t>(in.gcount()) == n ? Status::OK()
                                                             : Status::IoError("short read"),
                     "FStream::read")) {
        break;
      }
      env.Verify(buf.data(), n, env.rank, off);
    }
  }

  void CloseReader(EpochEnv& env) override {
    if (env.rank != 0 || lsmio::FStreamApi::manager() == nullptr) return;
    env.out.read_stats = lsmio::FStreamApi::manager()->engine_stats();
    env.Check(lsmio::FStreamApi::Cleanup(), "FStreamApi::Cleanup");
  }

 private:
  static std::string StoreDir(const EpochEnv& env) { return env.dir + "/store"; }
  static std::string FileName(const EpochEnv& env) {
    return "rank-" + std::to_string(env.rank) + ".dat";
  }
};

/// plugin-restart: an A2 application writes 4 double variables per rank in
/// 64 KiB blocks through the engine its XML selects; a restart phase then
/// reads 256 KiB selections shifted by half a slab, so that each reader's
/// range spans two writers' stores.
class PluginWorkload final : public RankWorkload {
 public:
  void Open(EpochEnv& env) override {
    adios_ = std::make_unique<lsmio::a2::Adios>(*env.vfs, Xml(env.variant), env.rank, kRanks);
    lsmio::a2::IO& io = adios_->DeclareIO("checkpoint");
    DefineVariables(env, io);
    auto engine = io.Open(StepDir(env), lsmio::a2::Mode::kWrite);
    if (env.Check(engine.status(), "IO::Open(write)")) engine_ = std::move(engine.value());
  }

  void Write(EpochEnv& env) override {
    if (!engine_) return;
    const uint64_t slab = SlabElements(env);
    const uint64_t block = env.params().call_bytes / sizeof(double);
    const double* data = env.shared.payload[env.rank].data();
    for (lsmio::a2::Variable* var : vars_) {
      for (uint64_t b = 0; b < slab; b += block) {
        var->SetSelection(env.rank * slab + b, block);
        const int64_t t0 = NowNs();
        const Status s = engine_->Put(*var, data + b, lsmio::a2::PutMode::kSync);
        env.RecordWrite(t0, NowNs());
        env.Check(s, "Engine::Put");
      }
      data += slab;
    }
  }

  void Durable(EpochEnv& env) override {
    if (!engine_) return;
    const int64_t t0 = NowNs();
    const Status s = engine_->Close();
    env.RecordBarrier(t0, NowNs());
    env.Check(s, "Engine::Close");
    // The plugin appends one block-index entry per stored block.
    if (env.variant != Variant::kBpLite) env.out.index_appends = engine_->stats().puts;
  }

  void CloseWriter(EpochEnv&) override {
    engine_.reset();
    adios_.reset();
  }

  void Restore(EpochEnv& env) override {
    adios_ = std::make_unique<lsmio::a2::Adios>(*env.vfs, Xml(env.variant), env.rank, kRanks);
    lsmio::a2::IO& io = adios_->DeclareIO("checkpoint");
    DefineVariables(env, io);
    const int64_t t0 = NowNs();
    auto engine = io.Open(StepDir(env), lsmio::a2::Mode::kRead);
    env.out.open_ns = NowNs() - t0;
    if (!env.Check(engine.status(), "IO::Open(read)")) return;
    engine_ = std::move(engine.value());

    const uint64_t slab = SlabElements(env);
    const uint64_t global = slab * kRanks;
    const uint64_t selection = env.params().read_bytes / sizeof(double);
    std::vector<double> buf(selection);
    for (size_t v = 0; v < vars_.size(); ++v) {
      for (uint64_t k = 0; k < slab; k += selection) {
        const uint64_t offset = (env.rank * slab + slab / 2 + k) % global;
        vars_[v]->SetSelection(offset, selection);
        const int64_t begin = NowNs();
        const Status s = engine_->Get(*vars_[v], buf.data());
        env.RecordRead(begin, NowNs(), selection * sizeof(double));
        if (!env.Check(s, "Engine::Get")) continue;
        const int owner = static_cast<int>(offset / slab);
        env.Verify(reinterpret_cast<const char*>(buf.data()), selection * sizeof(double),
                   owner, (v * slab + offset % slab) * sizeof(double));
      }
    }
  }

  void CloseReader(EpochEnv&) override {
    engine_.reset();
    adios_.reset();
  }

 private:
  static std::string Xml(Variant variant) {
    const char* engine = variant == Variant::kBpLite ? "BPLite" : lsmio::kLsmioPluginName;
    return std::string("<adios-config><io name=\"checkpoint\"><engine type=\"") + engine +
           "\"/></io></adios-config>";
  }
  static std::string StepDir(const EpochEnv& env) { return env.dir + "/step.bp"; }
  static uint64_t SlabElements(const EpochEnv& env) {
    return env.params().rank_bytes / env.params().variables / sizeof(double);
  }
  void DefineVariables(const EpochEnv& env, lsmio::a2::IO& io) {
    const uint64_t slab = SlabElements(env);
    vars_.clear();
    for (int v = 0; v < env.params().variables; ++v) {
      vars_.push_back(io.DefineVariable("var" + std::to_string(v), slab * kRanks,
                                        env.rank * slab, slab, sizeof(double)));
    }
  }

  std::unique_ptr<lsmio::a2::Adios> adios_;
  std::unique_ptr<lsmio::a2::Engine> engine_;
  std::vector<lsmio::a2::Variable*> vars_;
};

/// The raw POSIX reference: the same bytes per rank, written in 1 MiB
/// write() calls to one file and made durable with fdatasync().
class PosixRefWorkload final : public RankWorkload {
 public:
  void Open(EpochEnv& env) override {
    const std::string path = env.dir + "/posix." + std::to_string(env.rank);
    fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    env.Check(fd_ >= 0 ? Status::OK() : Status::IoError("open " + path), "open");
  }
  void Write(EpochEnv& env) override {
    if (fd_ < 0) return;
    const char* data = env.payload(env.rank);
    for (uint64_t off = 0; off < env.params().rank_bytes; off += MiB) {
      const size_t n = std::min<uint64_t>(MiB, env.params().rank_bytes - off);
      const int64_t t0 = NowNs();
      const bool ok = ::write(fd_, data + off, n) == static_cast<ssize_t>(n);
      env.RecordWrite(t0, NowNs());
      env.Check(ok ? Status::OK() : Status::IoError("write"), "write");
    }
  }
  void Durable(EpochEnv& env) override {
    if (fd_ < 0) return;
    const int64_t t0 = NowNs();
    const bool ok = ::fdatasync(fd_) == 0;
    env.RecordBarrier(t0, NowNs());
    env.Check(ok ? Status::OK() : Status::IoError("fdatasync"), "fdatasync");
  }
  void CloseWriter(EpochEnv&) override {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }
  void Restore(EpochEnv&) override {}
  void CloseReader(EpochEnv&) override {}

 private:
  int fd_ = -1;
};

std::unique_ptr<RankWorkload> MakeWorkload(const std::string& name, const WorkloadParams& p) {
  if (name == "kv-4k-per-rank") return std::make_unique<KvWorkload>(p);
  if (name == "fstream-1m-shared") return std::make_unique<FStreamWorkload>();
  return std::make_unique<PluginWorkload>();
}

// ---------------------------------------------------------------- epoch loop

std::string EpochDir(const Shared& shared, int epoch) {
  return shared.args.data_dir + "/epoch-" + std::to_string(epoch);
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  }
  return total;
}

/// The variants one run cycles through after its cold first epoch.
std::vector<Variant> Cycle(const Args& args) {
  if (!args.trace) return {Variant::kLsmio};
  std::vector<Variant> cycle = {Variant::kLsmio, Variant::kLsmioTraced, Variant::kPosixRef};
  if (args.workload == "plugin-restart") cycle.push_back(Variant::kBpLite);
  return cycle;
}

/// Rank 0's decision for epoch `e`: the variant to run, or none to stop.
std::optional<Variant> PlanEpoch(Shared& shared, int e) {
  const std::vector<Variant> cycle = Cycle(shared.args);
  if (e == 0) return Variant::kLsmio;  // cold warm-up, not measured
  if (shared.failed.load() > 0) return std::nullopt;
  const int64_t now = NowNs();
  if (e == 1) shared.measure_start_ns = now;
  const int done = e - 1;
  const int min_epochs = std::max<int>(3, static_cast<int>(cycle.size()));
  const double measured_s = (now - shared.measure_start_ns) / 1e9;
  const double total_s = (now - shared.start_ns) / 1e9;
  if (done >= min_epochs && measured_s >= shared.args.seconds) return std::nullopt;
  if (done >= static_cast<int>(cycle.size()) && total_s >= kHardCapSeconds) return std::nullopt;
  return cycle[static_cast<size_t>(done) % cycle.size()];
}

void RankMain(lsmio::minimpi::Comm& comm, Shared& shared) {
  const int rank = comm.rank();
  std::unique_ptr<RankWorkload> lsmio_workload =
      MakeWorkload(shared.args.workload, shared.params);
  PosixRefWorkload posix_ref;
  TimingVfs timing_vfs(lsmio::vfs::PosixVfs());
  shared.payload[rank].resize(shared.params.rank_bytes / sizeof(double));

  for (int e = 0;; ++e) {
    std::string plan;
    if (rank == 0) {
      const std::optional<Variant> v = PlanEpoch(shared, e);
      plan = v ? std::to_string(static_cast<int>(*v)) : "";
    }
    comm.Bcast(&plan, 0);
    if (plan.empty()) break;
    const auto variant = static_cast<Variant>(std::stoi(plan));

    shared.current[rank] = RankEpoch{};
    EpochEnv env{comm, shared, rank, variant,
                 variant == Variant::kLsmioTraced ? static_cast<lsmio::vfs::Vfs*>(&timing_vfs)
                                                  : &lsmio::vfs::PosixVfs(),
                 EpochDir(shared, e), shared.current[rank]};
    RankWorkload& workload = variant == Variant::kPosixRef ? posix_ref : *lsmio_workload;

    // Set-up: this epoch's payload and fresh stores, outside the window.
    comm.Barrier();
    const int64_t setup_begin = NowNs();
    if (rank == 0) std::filesystem::create_directories(env.dir);
    FillPayload(shared.args.seed, e, rank, &shared.payload[rank]);
    comm.Barrier();
    workload.Open(env);
    comm.Barrier();
    const int64_t setup_end = NowNs();

    // The timed checkpoint window.
    comm.Barrier();
    const int64_t window_begin = NowNs();
    workload.Write(env);
    workload.Durable(env);
    if (env.out.finish_ns == 0) env.RecordFinish();
    comm.Barrier();
    const int64_t window_end = NowNs();

    workload.CloseWriter(env);
    comm.Barrier();
    uint64_t disk_bytes = 0;
    if (rank == 0) disk_bytes = DirBytes(env.dir);

    // Restore: open, read every byte back, verify.
    comm.Barrier();
    const int64_t restore_begin = NowNs();
    workload.Restore(env);
    comm.Barrier();
    const int64_t restore_end = NowNs();
    workload.CloseReader(env);
    comm.Barrier();

    if (rank == 0) {
      EpochRecord record;
      record.variant = variant;
      record.measured = e > 0;
      record.setup_ns = setup_end - setup_begin;
      record.window_begin = window_begin;
      record.window_end = window_end;
      record.restore_begin = restore_begin;
      record.restore_end = restore_end;
      record.user_bytes = shared.params.rank_bytes * kRanks;
      record.disk_bytes = disk_bytes;
      if (record.measured && variant == Variant::kLsmio) {
        shared.put_us.Add(shared.current, &RankEpoch::put_us);
        shared.get_us.Add(shared.current, &RankEpoch::get_us);
      }
      for (RankEpoch& r : shared.current) {
        record.slowest_barrier_ms = std::max(record.slowest_barrier_ms, r.barrier_ns / 1e6);
        r.put_us = {};
        r.get_us = {};
      }
      record.ranks = std::move(shared.current);
      shared.epochs.push_back(std::move(record));
      // Epoch e-1 goes now, so that while epoch e+1 is written the disk
      // holds at most two epochs.
      std::error_code ec;
      if (e >= 1) std::filesystem::remove_all(EpochDir(shared, e - 1), ec);
    }
  }
}

// ---------------------------------------------------------------- metrics

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

template <typename F>
std::vector<double> Over(const std::vector<const EpochRecord*>& epochs, F f) {
  std::vector<double> out;
  for (const EpochRecord* e : epochs) out.push_back(f(*e));
  return out;
}

std::vector<const EpochRecord*> Select(const Shared& shared, Variant variant) {
  std::vector<const EpochRecord*> out;
  for (const EpochRecord& e : shared.epochs) {
    if (e.measured && e.variant == variant) out.push_back(&e);
  }
  return out;
}

double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss / 1024.0;
}

/// Median over blocks of a block latency percentile, with a report line
/// giving the block sizes and the highest percentile they support.
double BlockMedian(const char* name, const BlockPercentiles& latencies,
                   double BlockPercentiles::Block::*stat) {
  const auto& blocks = latencies.blocks();
  auto median = [&blocks](auto f) {
    std::vector<double> v;
    for (const BlockPercentiles::Block& b : blocks) v.push_back(f(b));
    return Median(v);
  };
  using Block = BlockPercentiles::Block;
  const double value = median([stat](const Block& b) { return b.*stat; });
  std::printf("# %s = %.4g: median over %zu blocks of %g epochs, n=%g per block; highest "
              "supported p%g = %.4g (%g samples beyond)\n",
              name, value, blocks.size(), median([](const Block& b) { return b.epochs; }),
              median([](const Block& b) { return b.tail.count; }),
              median([](const Block& b) { return b.tail.p; }),
              median([](const Block& b) { return b.tail.value; }),
              median([](const Block& b) { return b.tail.beyond; }));
  return value;
}

std::vector<Metric> EndToEndMetrics(Shared& shared) {
  const auto epochs = Select(shared, Variant::kLsmio);
  std::vector<double> setup;
  for (const EpochRecord& e : shared.epochs) setup.push_back(e.setup_ns / 1e9);
  shared.put_us.Finish();
  shared.get_us.Finish();
  using Block = BlockPercentiles::Block;
  return {
      {"ckpt_mib_s", Median(Over(epochs, [](const EpochRecord& e) { return e.ckpt_mib_s(); })),
       "MiB/s"},
      {"put_us_p50", BlockMedian("put_us_p50", shared.put_us, &Block::p50), "us"},
      {"put_us_p99", BlockMedian("put_us_p99", shared.put_us, &Block::p99), "us"},
      // The slowest durability call is the epoch's durability point.
      {"barrier_ms_p50",
       Median(Over(epochs, [](const EpochRecord& e) { return e.slowest_barrier_ms; })), "ms"},
      {"restore_mib_s",
       Median(Over(epochs, [](const EpochRecord& e) { return e.restore_mib_s(); })), "MiB/s"},
      {"get_us_p50", BlockMedian("get_us_p50", shared.get_us, &Block::p50), "us"},
      {"get_us_p99", BlockMedian("get_us_p99", shared.get_us, &Block::p99), "us"},
      {"space_amp", Median(Over(epochs, [](const EpochRecord& e) {
         return static_cast<double>(e.disk_bytes) / e.user_bytes;
       })), "ratio"},
      {"peak_rss_mib", PeakRssMiB(), "MiB"},
      {"setup_s", Median(setup), "s"},
  };
}

/// Per-epoch means and ratios over the traced epochs, from the VFS spans,
/// the API call spans and the engine counters the program exports.
std::vector<Metric> PerLayerMetrics(const Shared& shared, const std::vector<IoSpan>& spans) {
  const auto traced = Select(shared, Variant::kLsmioTraced);
  const double n = std::max<size_t>(1, traced.size());
  const bool plugin = shared.args.workload == "plugin-restart";

  uint64_t write_calls = 0, index_appends = 0, user_bytes = 0;
  double write_busy_ns = 0, barrier_ns = 0, manager_put_us = 0, stall_us = 0;
  uint64_t gc_writers = 0, gc_batches = 0, mg_batches = 0, mg_keys = 0;
  uint64_t bloom_checked = 0, bloom_useful = 0;
  lsmio::Histogram write_latency, multiget_latency;
  std::vector<double> open_ms, skew_ms;
  for (const EpochRecord* e : traced) {
    user_bytes += e->user_bytes;
    std::vector<double> finish;
    for (const RankEpoch& r : e->ranks) {
      write_calls += r.write_calls;
      write_busy_ns += r.write_busy_ns;
      barrier_ns += r.barrier_ns;
      manager_put_us += r.manager_put_us;
      index_appends += r.index_appends;
      finish.push_back((r.finish_ns - e->window_begin) / 1e6);
      if (r.open_ns) open_ms.push_back(*r.open_ns / 1e6);
      if (r.write_stats) {
        stall_us += r.write_stats->stall_memtable_micros;
        gc_writers += r.write_stats->group_commit_writers;
        gc_batches += r.write_stats->group_commit_batches;
        write_latency.Merge(r.write_stats->write_latency);
      }
      if (r.read_stats) {
        mg_batches += r.read_stats->multiget_batches;
        mg_keys += r.read_stats->multiget_keys;
        bloom_checked += r.read_stats->bloom_checked;
        bloom_useful += r.read_stats->bloom_useful;
        multiget_latency.Merge(r.read_stats->multiget_latency);
      }
    }
    skew_ms.push_back(*std::max_element(finish.begin(), finish.end()) - Median(finish));
  }

  // VFS spans, attributed to the write window or the restore window.
  struct VfsTotals {
    uint64_t calls = 0, bytes = 0;
    double ns = 0;
    void Add(const IoSpan& s) {
      ++calls;
      bytes += s.bytes;
      ns += s.end_ns - s.begin_ns;
    }
  } append, sync, manifest, read, meta, table;
  std::vector<IoSpan> flushes;
  std::map<uint32_t, std::vector<Interval>> write_children;  // per thread
  auto in_window = [&traced](int64_t t, bool restore) {
    for (const EpochRecord* e : traced) {
      const int64_t b = restore ? e->restore_begin : e->window_begin;
      const int64_t en = restore ? e->restore_end : e->window_end;
      if (t >= b && t <= en) return true;
    }
    return false;
  };
  for (const IoSpan& s : spans) {
    if (in_window(s.begin_ns, true)) {
      if (s.kind == IoKind::kRead) read.Add(s);
      continue;
    }
    if (!in_window(s.begin_ns, false)) continue;
    if (s.kind == IoKind::kTableLife) {
      table.Add(s);
      flushes.push_back(s);
      continue;
    }
    write_children[s.thread].push_back({s.begin_ns, s.end_ns});
    if (s.file_class == FileClass::kManifest) manifest.Add(s);
    switch (s.kind) {
      case IoKind::kAppend: append.Add(s); break;
      case IoKind::kSync: sync.Add(s); break;
      case IoKind::kOpen:
      case IoKind::kClose:
      case IoKind::kMeta: meta.Add(s); break;
      default: break;
    }
  }
  double flush_self_ns = 0;
  std::vector<Interval> flush_intervals;
  for (const IoSpan& f : flushes) {
    flush_intervals.push_back({f.begin_ns, f.end_ns});
    flush_self_ns += SelfTime(flush_intervals.back(), write_children[f.thread]);
  }
  std::vector<Interval> api_spans;
  for (const EpochRecord* e : traced) {
    for (const RankEpoch& r : e->ranks) {
      api_spans.insert(api_spans.end(), r.write_spans.begin(), r.write_spans.end());
    }
  }
  const std::vector<Interval> api_union = MergeIntervals(std::move(api_spans));
  double flush_overlap_ns = 0;
  for (const Interval& f : flush_intervals) flush_overlap_ns += OverlapLength({f}, api_union);

  const auto untraced = Select(shared, Variant::kLsmio);
  const auto posix = Select(shared, Variant::kPosixRef);
  const auto bplite = Select(shared, Variant::kBpLite);
  auto ckpt = [](const EpochRecord& e) { return e.ckpt_mib_s(); };
  auto window = [](const EpochRecord& e) { return e.window_s(); };
  const double posix_ref = Median(Over(posix, ckpt));
  const double ub = std::max<double>(1, user_bytes);
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };

  std::vector<Metric> m;
  m.push_back({"core.write_calls", write_calls / n, "count"});
  m.push_back({"core.write_busy_s", write_busy_ns / 1e9 / n, "s"});
  m.push_back({"core.barrier_busy_s", barrier_ns / 1e9 / n, "s"});
  // The plugin hides its Manager, so its put latency is not observable.
  m.push_back({"core.self_us_per_call",
               plugin ? 0.0 : ratio(write_busy_ns / 1e3 - manager_put_us, write_calls), "us"});
  m.push_back({"core.index_append_calls", index_appends / n, "count"});
  m.push_back({"core.posix_efficiency", ratio(Median(Over(untraced, ckpt)), posix_ref), "ratio"});
  m.push_back({"lsm.write_us_p50", write_latency.Percentile(50), "us"});
  m.push_back({"lsm.write_us_p99", write_latency.Percentile(99), "us"});
  m.push_back({"lsm.stall_memtable_s", stall_us / 1e6 / n, "s"});
  m.push_back({"lsm.group_commit_writers_per_batch", ratio(gc_writers, gc_batches), "ratio"});
  m.push_back({"lsm.memtable_flushes", table.calls / n, "count"});
  m.push_back({"lsm.write_amp", table.bytes / ub, "ratio"});
  m.push_back({"lsm.flush_s", table.ns / 1e9 / n, "s"});
  m.push_back({"lsm.flush_self_s", flush_self_ns / 1e9 / n, "s"});
  m.push_back({"lsm.flush_overlap_ratio", ratio(flush_overlap_ns, table.ns), "ratio"});
  m.push_back({"lsm.open_ms", Median(open_ms), "ms"});
  m.push_back({"lsm.multiget_us_p50", multiget_latency.Percentile(50), "us"});
  m.push_back({"lsm.multiget_keys_per_batch", ratio(mg_keys, mg_batches), "count"});
  m.push_back({"lsm.bloom_useful_ratio", ratio(bloom_useful, bloom_checked), "ratio"});
  m.push_back({"vfs.append_calls", append.calls / n, "count"});
  m.push_back({"vfs.append_mib", append.bytes / kMiB / n, "MiB"});
  m.push_back({"vfs.append_s", append.ns / 1e9 / n, "s"});
  m.push_back({"vfs.append_kib_per_call", ratio(append.bytes / 1024.0, append.calls), "KiB"});
  m.push_back({"vfs.sync_calls", sync.calls / n, "count"});
  m.push_back({"vfs.sync_s", sync.ns / 1e9 / n, "s"});
  m.push_back({"vfs.manifest_s", manifest.ns / 1e9 / n, "s"});
  m.push_back({"vfs.read_calls", read.calls / n, "count"});
  m.push_back({"vfs.read_mib", read.bytes / kMiB / n, "MiB"});
  m.push_back({"vfs.read_s", read.ns / 1e9 / n, "s"});
  m.push_back({"vfs.meta_calls", meta.calls / n, "count"});
  m.push_back({"vfs.meta_s", meta.ns / 1e9 / n, "s"});
  m.push_back({"vfs.bytes_per_user_byte", append.bytes / ub, "ratio"});
  m.push_back({"vfs.posix_ref_mib_s", posix_ref, "MiB/s"});
  m.push_back({"a2.bplite_ckpt_mib_s", Median(Over(bplite, ckpt)), "MiB/s"});
  m.push_back({"a2.bplite_restore_mib_s", Median(Over(bplite, [](const EpochRecord& e) {
                 return e.restore_mib_s();
               })), "MiB/s"});
  m.push_back({"minimpi.rank_skew_ms", Median(skew_ms), "ms"});
  m.push_back({"trace_overhead",
               ratio(Median(Over(traced, window)), Median(Over(untraced, window))) - 1, "ratio"});
  return m;
}

// ---------------------------------------------------------------- output

std::string FsTypeName(const std::string& path) {
  struct statfs st{};
  if (statfs(path.c_str(), &st) != 0) return "unknown";
  switch (static_cast<uint64_t>(st.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x794C7630: return "overlayfs";
    case 0x6969: return "nfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof buf, "0x%llx", static_cast<unsigned long long>(st.f_type));
      return buf;
    }
  }
}

void PrintEpochs(const Shared& shared) {
  for (size_t i = 0; i < shared.epochs.size(); ++i) {
    const EpochRecord& e = shared.epochs[i];
    std::printf("# epoch %zu %-12s%s setup=%.3fs window=%.3fs ckpt=%.1fMiB/s "
                "barrier=%.1fms restore=%.1fMiB/s disk=%" PRIu64 "B\n",
                i, VariantName(e.variant), e.measured ? "" : " (cold)", e.setup_ns / 1e9,
                e.window_s(), e.ckpt_mib_s(), e.slowest_barrier_ms,
                e.restore_bytes() ? e.restore_mib_s() : 0.0, e.disk_bytes);
  }
}

/// Writes every recorded VFS span as CSV (thread,kind,class,begin,end,bytes).
void WriteSpans(const std::string& path, const std::vector<IoSpan>& spans) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  std::fprintf(f, "thread,kind,class,begin_ns,end_ns,bytes\n");
  for (const IoSpan& s : spans) {
    std::fprintf(f, "%u,%d,%d,%" PRId64 ",%" PRId64 ",%" PRIu64 "\n", s.thread,
                 static_cast<int>(s.kind), static_cast<int>(s.file_class), s.begin_ns,
                 s.end_ns, s.bytes);
  }
  std::fclose(f);
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      args->tiny = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (flag == "--workload") args->workload = value;
    else if (flag == "--seed") args->seed = std::stoull(value);
    else if (flag == "--seconds") args->seconds = std::stod(value);
    else if (flag == "--trace") args->trace = value == "1";
    else if (flag == "--data") args->data_dir = value;
    else if (flag == "--trace-out") args->trace_out = value;
    else return false;
  }
  return !args->workload.empty() && !args->data_dir.empty();
}

int Main(int argc, char** argv) {
  Shared shared;
  if (!ParseArgs(argc, argv, &shared.args) ||
      !ParamsFor(shared.args.workload, shared.args.tiny, &shared.params)) {
    std::fprintf(stderr,
                 "usage: ckpt_bench --workload kv-4k-per-rank|fstream-1m-shared|plugin-restart "
                 "--seed N --seconds S --trace 0|1 --data DIR [--tiny] [--trace-out FILE]\n");
    return 2;
  }
  if (LSMIO_STATUS_DEBUG) {
    std::fprintf(stderr, "refusing to measure: built with LSMIO_STATUS_DEBUG=1, whose "
                         "unchecked-Status tracker would dominate the numbers\n");
    return 2;
  }
  std::error_code ec;
  std::filesystem::remove_all(shared.args.data_dir, ec);
  std::filesystem::create_directories(shared.args.data_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", shared.args.data_dir.c_str(),
                 ec.message().c_str());
    return 2;
  }
  std::printf("# host {\"host_cpus\": %u, \"compiler\": \"%s\", \"build_type\": \"%s\", "
              "\"lsmio_status_debug\": %d, \"data_fs\": \"%s\", \"ranks\": %d, "
              "\"loop\": \"closed\"}\n",
              std::thread::hardware_concurrency(), __VERSION__, PERFBENCH_BUILD_TYPE,
              LSMIO_STATUS_DEBUG, FsTypeName(shared.args.data_dir).c_str(), kRanks);

  lsmio::RegisterLsmioPlugin();
  shared.start_ns = NowNs();
  lsmio::minimpi::RunWorld(kRanks, [&shared](lsmio::minimpi::Comm& comm) {
    RankMain(comm, shared);
  });
  std::filesystem::remove_all(shared.args.data_dir, ec);

  PrintEpochs(shared);
  std::vector<Metric> metrics;
  if (shared.args.trace) {
    const std::vector<IoSpan> spans = DrainSpans();
    if (!shared.args.trace_out.empty()) WriteSpans(shared.args.trace_out, spans);
    metrics = PerLayerMetrics(shared, spans);
  } else {
    metrics = EndToEndMetrics(shared);
  }
  const uint64_t attempted = shared.attempted.load();
  const uint64_t failed = shared.failed.load();
  std::printf("# failed_op_ratio=%.6g (%" PRIu64 " of %" PRIu64 ")\n",
              attempted ? static_cast<double>(failed) / attempted : 0.0, failed, attempted);

  std::string json = "{\"correct\": " + std::string(failed == 0 ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                  metrics[i].unit.c_str());
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
