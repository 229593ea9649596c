// Public API of the lsmio::lsm storage engine — the from-scratch LSM-tree
// that plays the role RocksDB plays in the paper.
//
// Usage:
//   lsm::Options options;
//   options.disable_wal = true;           // paper's checkpoint configuration
//   options.disable_compaction = true;
//   std::unique_ptr<lsm::DB> db;
//   auto s = lsm::DB::Open(options, "/path/to/db", &db);
//   db->Put({}, "key", "value");
//   db->FlushMemTable(true);              // explicit write barrier
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "common/slice.h"
#include "common/status.h"
#include "lsm/iterator.h"
#include "lsm/options.h"
#include "lsm/write_batch.h"

namespace lsmio::lsm {

/// Opaque consistent read point (see DB::GetSnapshot).
class Snapshot {
 public:
  virtual ~Snapshot() = default;
};

/// Point-in-time statistics of the engine (performance counters).
struct DbStats {
  uint64_t puts = 0;
  uint64_t deletes = 0;
  uint64_t gets = 0;
  uint64_t get_hits = 0;
  uint64_t memtable_flushes = 0;
  uint64_t compactions = 0;
  uint64_t bytes_written = 0;   // user payload accepted
  uint64_t bytes_flushed = 0;   // table bytes produced by flushes
  uint64_t bytes_compacted = 0; // table bytes produced by compactions
  uint64_t wal_bytes = 0;
  // --- write pipeline ---
  uint64_t group_commit_batches = 0;  // write groups led (1 WAL append each)
  uint64_t group_commit_writers = 0;  // writers absorbed into groups
  uint64_t write_stall_micros = 0;    // wall-clock time writers were hard-
                                      // stalled (sum of the two causes below;
                                      // NOT multiplied by waiter count)
  uint64_t stall_memtable_micros = 0; // ... because every memtable was full
                                      // and queued behind in-flight flushes
  uint64_t stall_l0_micros = 0;       // ... because L0 hit the stop trigger
  uint64_t slowdown_delay_micros = 0; // pacing delay injected by graduated
                                      // backpressure (soft trigger), which
                                      // replaces hard stalls under load
  uint64_t slowdown_writes = 0;       // write groups admitted while pacing
                                      // was active (delay can be zero when
                                      // the bucket had drained)
  uint64_t flush_queue_depth = 0;     // gauge: immutable memtables pending
  uint64_t compaction_queue_depth = 0;// gauge: compactions scheduled/running
                                      // (incl. parked on the store limiter)
  // --- background I/O rate limiting (Options::bytes_per_sec) ---
  uint64_t rate_limited_bytes_flush = 0;      // flush bytes paced (high pri)
  uint64_t rate_limited_bytes_compaction = 0; // compaction bytes paced (low)
  uint64_t rate_limiter_wait_micros = 0;      // background-writer sleep time
  // --- per-operation latency (microseconds; lock-free recorders folded in
  // by GetStats, merged across shards) ---
  Histogram write_latency;     // DB::Write / Put / Delete, incl. stalls
  Histogram get_latency;       // DB::Get
  Histogram multiget_latency;  // DB::MultiGet (per batch)
  // --- read path ---
  uint64_t multiget_batches = 0;      // MultiGet calls
  uint64_t multiget_keys = 0;         // keys looked up via MultiGet
  uint64_t multiget_coalesced_reads = 0;  // block reads saved by coalescing
  uint64_t bloom_checked = 0;         // bloom-filter probes
  uint64_t bloom_useful = 0;          // probes that proved a key absent
  uint64_t block_cache_hits = 0;
  uint64_t block_cache_misses = 0;
  uint64_t readahead_bytes = 0;       // bytes hinted ahead to the VFS
  // --- health ---
  uint64_t read_only_mode = 0;        // gauge: 1 once a background error
                                      // latched the engine read-only
  // --- sharding / compaction parallelism ---
  uint64_t shards = 1;                // gauge: sub-LSM count of the store
  uint64_t concurrent_compactions = 0;      // gauge: compactions executing
                                            // right now (store-wide)
  uint64_t peak_concurrent_compactions = 0; // high-water mark of the above
  uint64_t compaction_pipeline_batches = 0; // entry batches handed from the
                                            // compaction read/merge producer
                                            // to the encode/write consumer
  // --- write amplification / value log ---
  uint64_t compaction_bytes_read = 0;     // input table bytes read by compactions
  uint64_t compaction_bytes_written = 0;  // output table bytes written by
                                          // compactions (== bytes_compacted)
  uint64_t value_log_bytes_written = 0;   // user value bytes separated into
                                          // blob segments at write time
  uint64_t value_log_separated_batches = 0; // write groups that had at least
                                            // one value separated
  uint64_t value_log_gc_rewritten_bytes = 0; // value bytes GC relocated into
                                             // fresh segments
  uint64_t value_log_segments_deleted = 0;   // blob segments reclaimed by GC
  uint64_t value_log_segments = 0;     // gauge: blob segments on disk
  uint64_t value_log_live_bytes = 0;   // gauge: record bytes still referenced
  uint64_t value_log_garbage_bytes = 0;// gauge: record bytes awaiting GC
  // --- global memory arbitration (Options::write_memory_pool / MemoryArbiter)
  uint64_t memtable_bytes = 0;         // gauge: active + immutable memtable
                                       // bytes (summed across shards)
  uint64_t tenant_cache_bytes = 0;     // gauge: block-cache bytes charged to
                                       // this store's tenant (shared cache),
                                       // else the private cache's total
  uint64_t arbiter_forced_flushes = 0; // memtable switches forced by the
                                       // global write-memory arbiter
  uint64_t write_pool_usage_bytes = 0; // gauge: aggregate pool usage across
                                       // every attached store (process-wide)
  uint64_t write_pool_budget_bytes = 0;// gauge: configured pool budget
};

class DB {
 public:
  /// Opens (creating per options) the database at `name`.
  static Status Open(const Options& options, const std::string& name,
                     std::unique_ptr<DB>* dbptr);

  /// Destroys the database at `name` (removes all its files).
  static Status Destroy(const Options& options, const std::string& name);

  DB() = default;
  virtual ~DB() = default;
  DB(const DB&) = delete;
  DB& operator=(const DB&) = delete;

  virtual Status Put(const WriteOptions& options, const Slice& key,
                     const Slice& value) = 0;
  virtual Status Delete(const WriteOptions& options, const Slice& key) = 0;
  /// Applies the batch atomically.
  virtual Status Write(const WriteOptions& options, WriteBatch* updates) = 0;

  virtual Status Get(const ReadOptions& options, const Slice& key,
                     std::string* value) = 0;

  /// Batched point lookup: fills (*values)[i] / (*statuses)[i] for keys[i]
  /// (both resized to keys.size()), all at one consistent sequence number.
  /// The returned Status reflects batch-level failures (I/O errors);
  /// per-key presence is in *statuses (OK / NotFound). Memtable hits
  /// resolve under one mutex acquisition; the rest are grouped by table
  /// file with adjacent block reads coalesced.
  virtual Status MultiGet(const ReadOptions& options,
                          std::span<const Slice> keys,
                          std::vector<std::string>* values,
                          std::vector<Status>* statuses) = 0;

  /// Iterator over the DB (caller deletes before the DB closes).
  virtual Iterator* NewIterator(const ReadOptions& options) = 0;

  /// Consistent read point; release with ReleaseSnapshot.
  virtual const Snapshot* GetSnapshot() = 0;
  virtual void ReleaseSnapshot(const Snapshot* snapshot) = 0;

  /// Write barrier (paper §3.1.2 writeBarrier): flushes the active memtable
  /// to an SSTable. When `wait`, blocks until the flush (and any pending
  /// one) has completed and the data is on storage.
  virtual Status FlushMemTable(bool wait) = 0;

  /// Manually compacts the user-key range [begin, end]; either bound may be
  /// null for "unbounded". Only files (and, on a sharded store, shards)
  /// whose key range overlaps the request are compacted; shards compact
  /// concurrently. No-op with compaction disabled.
  virtual Status CompactRange(const Slice* begin, const Slice* end) = 0;

  /// Manually compacts the whole key range.
  Status CompactRange() { return CompactRange(nullptr, nullptr); }

  /// OK while the engine is healthy. Once a WAL/manifest/flush failure has
  /// latched the engine into sticky read-only mode, returns the ReadOnly
  /// status every subsequent write receives. Reads keep working either way;
  /// reopen the DB to clear the condition.
  virtual Status HealthStatus() const = 0;

  /// Engine counters. On a sharded store these are whole-store aggregates:
  /// counters are summed across shards, gauges (queue depths, read-only
  /// mode, compaction concurrency) take the max.
  virtual DbStats GetStats() const = 0;

  /// Per-shard counter breakdown (the verbose form of GetStats). Unsharded
  /// stores report a single entry identical to GetStats.
  virtual void GetShardStats(std::vector<DbStats>* out) const {
    out->assign(1, GetStats());
  }

  /// Approximate bytes held by active+immutable memtables.
  virtual uint64_t ApproximateMemoryUsage() const = 0;
};

}  // namespace lsmio::lsm
