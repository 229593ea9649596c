#include "lsm/table.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <vector>

#include "common/coding.h"
#include "lsm/arena.h"
#include "lsm/block.h"
#include "lsm/comparator.h"
#include "lsm/dbformat.h"
#include "lsm/filter_block.h"
#include "lsm/format.h"
#include "lsm/read_stats.h"
#include "lsm/two_level_iterator.h"

namespace lsmio::lsm {

namespace {

/// Upper bound on one coalesced MultiGet read (several adjacent blocks
/// fetched with a single VFS read).
constexpr uint64_t kMaxCoalescedReadBytes = 1 << 20;

void DeleteCachedBlock(const Slice&, void* value) {
  delete static_cast<Block*>(value);
}

void DeleteCachedFilterData(const Slice&, void* value) {
  delete static_cast<std::string*>(value);
}

/// Memory for the coalesced runs of one uncached MultiGet, bump-allocated
/// from arena regions borrowed for the call. A region that a memtable or an
/// earlier read has used is already resident, so a run's read neither maps,
/// zero-fills nor faults in its buffer, and nothing is unmapped when the
/// call returns. A run longer than a region gets a buffer of its own.
class RunBuffers {
 public:
  RunBuffers() = default;
  RunBuffers(const RunBuffers&) = delete;
  RunBuffers& operator=(const RunBuffers&) = delete;
  ~RunBuffers() {
    if (regions_.empty()) return;
    NoteUse();
    Arena::ReturnRegions(regions_);
  }

  /// Uninitialized memory for `bytes`, valid until this object dies.
  char* Allocate(size_t bytes) {
    const size_t padded = (bytes + alignof(void*) - 1) & ~(alignof(void*) - 1);
    if (padded > Arena::kRegionSize) {
      large_.push_back(std::make_unique_for_overwrite<char[]>(bytes));
      return large_.back().get();
    }
    if (padded > remaining_) {
      if (!regions_.empty()) NoteUse();
      // Reserve first so the push cannot throw and leak a borrowed region.
      regions_.reserve(regions_.size() + 1);
      regions_.push_back(Arena::BorrowRegion());
      ptr_ = regions_.back().base;
      remaining_ = Arena::kRegionSize;
    }
    char* result = ptr_;
    ptr_ += padded;
    remaining_ -= padded;
    return result;
  }

 private:
  // Records how far the current region has been written.
  void NoteUse() {
    Arena::Region& current = regions_.back();
    current.touched =
        std::max(current.touched, static_cast<size_t>(ptr_ - current.base));
  }

  std::vector<Arena::Region> regions_;  // the last one is being filled
  char* ptr_ = nullptr;
  size_t remaining_ = 0;
  std::vector<std::unique_ptr<char[]>> large_;
};

/// A resolved data block plus how to let go of it.
struct BlockGuard {
  Block* block = nullptr;
  Cache::Handle* cache_handle = nullptr;  // release when non-null
  bool owned = false;                     // delete when true
};

}  // namespace

struct Table::Rep {
  Options options;
  const Comparator* comparator = nullptr;
  const FilterPolicy* filter_policy = nullptr;
  Cache* block_cache = nullptr;
  uint64_t cache_id = 0;
  vfs::RandomAccessFile* file = nullptr;
  ReadCounters* counters = nullptr;

  BlockHandle metaindex_handle;

  /// Index and filter are resolved once at Open and stay valid for the
  /// table's lifetime: pinned in the block cache via a retained handle when
  /// there is one, table-owned otherwise.
  std::unique_ptr<Block> owned_index;
  Cache::Handle* pinned_index_handle = nullptr;
  Block* index = nullptr;

  std::unique_ptr<std::string> owned_filter_data;
  Cache::Handle* pinned_filter_handle = nullptr;
  std::unique_ptr<FilterBlockReader> filter;  // null when the table has none

  /// End of the last readahead window hinted to the VFS; avoids re-hinting
  /// the same range for every block of a sequential scan.
  std::atomic<uint64_t> hinted_end{0};

  [[nodiscard]] bool use_cache() const {
    return block_cache != nullptr && !options.disable_cache;
  }

  void CacheKey(uint64_t offset, char out[16]) const {
    EncodeFixed64(out, cache_id);
    EncodeFixed64(out + 8, offset);
  }

  void CountCacheHit() const {
    if (counters) counters->block_cache_hits.fetch_add(1, std::memory_order_relaxed);
  }
  void CountCacheMiss() const {
    if (counters) counters->block_cache_misses.fetch_add(1, std::memory_order_relaxed);
  }
};

Table::Table(std::unique_ptr<Rep> rep) : rep_(std::move(rep)) {}

Table::~Table() {
  if (rep_->pinned_index_handle != nullptr) {
    rep_->block_cache->Release(rep_->pinned_index_handle);
  }
  if (rep_->pinned_filter_handle != nullptr) {
    rep_->filter.reset();  // reader points into the cached bytes
    rep_->block_cache->Release(rep_->pinned_filter_handle);
  }
}

Status Table::Open(const Options& options, const Comparator* comparator,
                   const FilterPolicy* filter_policy, Cache* block_cache,
                   uint64_t cache_id, vfs::RandomAccessFile* file,
                   uint64_t file_size, std::unique_ptr<Table>* table,
                   ReadCounters* counters) {
  table->reset();
  if (file_size < Footer::kEncodedLength) {
    return Status::Corruption("file is too short to be an sstable");
  }

  std::string footer_scratch;
  Slice footer_input;
  LSMIO_RETURN_IF_ERROR(file->Read(file_size - Footer::kEncodedLength,
                                   Footer::kEncodedLength, &footer_input,
                                   &footer_scratch));
  if (footer_input.size() != Footer::kEncodedLength) {
    return Status::Corruption("truncated sstable footer");
  }

  Footer footer;
  LSMIO_RETURN_IF_ERROR(footer.DecodeFrom(&footer_input));

  // Read the index block (always checksum-verified: it's small and vital).
  ReadOptions opt;
  opt.verify_checksums = options.paranoid_checks;
  std::string index_contents;
  LSMIO_RETURN_IF_ERROR(ReadBlockContents(file, opt, /*always_verify=*/true,
                                          footer.index_handle(), &index_contents));

  auto rep = std::make_unique<Rep>();
  rep->options = options;
  rep->comparator = comparator;
  rep->filter_policy = filter_policy;
  rep->block_cache = block_cache;
  rep->cache_id = cache_id;
  rep->file = file;
  rep->counters = counters;
  rep->metaindex_handle = footer.metaindex_handle();

  auto index_block = std::make_unique<Block>(std::move(index_contents));
  if (rep->use_cache()) {
    char key[16];
    rep->CacheKey(footer.index_handle().offset(), key);
    Block* raw = index_block.release();
    rep->pinned_index_handle =
        rep->block_cache->Insert(Slice(key, sizeof key), raw, raw->size(),
                                 DeleteCachedBlock, rep->options.tenant_id);
    rep->index = raw;
  } else {
    rep->index = index_block.get();
    rep->owned_index = std::move(index_block);
  }

  auto* t = new Table(std::move(rep));
  // Best-effort: reads work without a filter, just with more block probes.
  t->ReadMeta(footer).IgnoreError();
  table->reset(t);
  return Status::OK();
}

Status Table::ReadMeta(const Footer& footer) {
  Rep* r = rep_.get();
  if (r->filter_policy == nullptr) return Status::OK();

  ReadOptions opt;
  opt.verify_checksums = r->options.paranoid_checks;
  std::string meta_contents;
  LSMIO_RETURN_IF_ERROR(ReadBlockContents(r->file, opt, false,
                                          footer.metaindex_handle(),
                                          &meta_contents));
  Block meta(std::move(meta_contents));
  std::unique_ptr<Iterator> iter(meta.NewIterator(BytewiseComparator()));
  const std::string key = std::string("filter.") + r->filter_policy->Name();
  iter->Seek(key);
  if (!iter->Valid() || iter->key() != Slice(key)) return Status::OK();

  Slice v = iter->value();
  BlockHandle filter_handle;
  LSMIO_RETURN_IF_ERROR(filter_handle.DecodeFrom(&v));

  auto filter_data = std::make_unique<std::string>();
  LSMIO_RETURN_IF_ERROR(
      ReadBlockContents(r->file, opt, false, filter_handle, filter_data.get()));

  std::string* raw = filter_data.release();
  if (r->use_cache()) {
    char ckey[16];
    r->CacheKey(filter_handle.offset(), ckey);
    r->pinned_filter_handle = r->block_cache->Insert(
        Slice(ckey, sizeof ckey), raw, raw->size(), DeleteCachedFilterData,
        r->options.tenant_id);
  } else {
    r->owned_filter_data.reset(raw);
  }
  r->filter = std::make_unique<FilterBlockReader>(r->filter_policy, Slice(*raw));
  return Status::OK();
}

bool Table::FilterKeyMayMatch(uint64_t block_offset, const Slice& user_key) const {
  Rep* r = rep_.get();
  if (r->filter == nullptr) return true;
  if (r->counters) {
    r->counters->bloom_checked.fetch_add(1, std::memory_order_relaxed);
  }
  const bool may_match = r->filter->KeyMayMatch(block_offset, user_key);
  if (!may_match && r->counters) {
    r->counters->bloom_useful.fetch_add(1, std::memory_order_relaxed);
  }
  return may_match;
}

void Table::MaybeReadahead(const ReadOptions& options,
                           const BlockHandle& handle) const {
  if (options.readahead_bytes == 0) return;
  Rep* r = rep_.get();
  const uint64_t span = handle.size() + kBlockTrailerSize;
  const uint64_t need = handle.offset() + span;
  if (need <= r->hinted_end.load(std::memory_order_relaxed)) return;
  const uint64_t len = std::max<uint64_t>(span, options.readahead_bytes);
  r->file->Hint(handle.offset(), len);
  r->hinted_end.store(handle.offset() + len, std::memory_order_relaxed);
  if (r->counters) {
    r->counters->readahead_bytes.fetch_add(len, std::memory_order_relaxed);
  }
}

Iterator* Table::NewBlockIterator(const ReadOptions& options,
                                  const Slice& index_value) const {
  Rep* r = rep_.get();
  Slice input = index_value;
  BlockHandle handle;
  Status s = handle.DecodeFrom(&input);
  if (!s.ok()) return NewErrorIterator(s);

  MaybeReadahead(options, handle);

  // Block-cache key: cache_id (8) | block offset (8).
  Block* block = nullptr;
  Cache::Handle* cache_handle = nullptr;
  const bool use_cache = r->use_cache();

  if (use_cache) {
    char cache_key[16];
    r->CacheKey(handle.offset(), cache_key);
    const Slice key(cache_key, sizeof cache_key);
    cache_handle = r->block_cache->Lookup(key);
    if (cache_handle != nullptr) {
      r->CountCacheHit();
      block = static_cast<Block*>(r->block_cache->Value(cache_handle));
    } else {
      r->CountCacheMiss();
      std::string contents;
      s = ReadBlockContents(r->file, options, r->options.paranoid_checks,
                            handle, &contents);
      if (!s.ok()) return NewErrorIterator(s);
      block = new Block(std::move(contents));
      if (options.fill_cache) {
        cache_handle = r->block_cache->Insert(key, block, block->size(),
                                              DeleteCachedBlock,
                                              r->options.tenant_id);
      }
    }
  } else {
    std::string contents;
    s = ReadBlockContents(r->file, options, r->options.paranoid_checks, handle,
                          &contents);
    if (!s.ok()) return NewErrorIterator(s);
    block = new Block(std::move(contents));
  }

  Iterator* iter = block->NewIterator(r->comparator);
  if (cache_handle != nullptr) {
    Cache* cache = r->block_cache;
    iter->RegisterCleanup([cache, cache_handle] { cache->Release(cache_handle); });
  } else if (!use_cache || !options.fill_cache) {
    iter->RegisterCleanup([block] { delete block; });
  }
  return iter;
}

Iterator* Table::NewIterator(const ReadOptions& options) const {
  Iterator* index_iter = rep_->index->NewIterator(rep_->comparator);
  const Table* self = this;
  return NewTwoLevelIterator(
      index_iter,
      [self](const ReadOptions& opts, const Slice& index_value) {
        return self->NewBlockIterator(opts, index_value);
      },
      options);
}

Status Table::InternalGet(
    const ReadOptions& options, const Slice& internal_key,
    const std::function<void(const Slice&, const Slice&)>& handle_result) const {
  std::unique_ptr<Iterator> index_iter(rep_->index->NewIterator(rep_->comparator));
  index_iter->Seek(internal_key);
  if (!index_iter->Valid()) return index_iter->status();

  // Bloom check against the block this key would live in.
  const Slice handle_value = index_iter->value();
  if (internal_key.size() >= 8) {
    Slice hv = handle_value;
    BlockHandle handle;
    if (handle.DecodeFrom(&hv).ok() &&
        !FilterKeyMayMatch(handle.offset(), ExtractUserKey(internal_key))) {
      return Status::OK();  // definitively absent
    }
  }

  std::unique_ptr<Iterator> block_iter(NewBlockIterator(options, handle_value));
  block_iter->Seek(internal_key);
  if (block_iter->Valid()) {
    handle_result(block_iter->key(), block_iter->value());
  }
  return block_iter->status();
}

Status Table::MultiGet(
    const ReadOptions& options, std::span<const Slice> internal_keys,
    const std::function<void(size_t, const Slice&, const Slice&)>& handle_result)
    const {
  if (internal_keys.empty()) return Status::OK();
  Rep* r = rep_.get();

  // Pass 1: walk the index forward (keys are sorted, so block offsets are
  // non-decreasing), bloom-filter probes, group keys by data block.
  struct BlockWork {
    BlockHandle handle;
    std::vector<size_t> keys;  // indices into internal_keys
  };
  std::vector<BlockWork> work;
  {
    std::unique_ptr<Iterator> index_iter(r->index->NewIterator(r->comparator));
    BlockHandle handle;
    bool positioned = false;  // index_iter valid and `handle` decoded for it
    for (size_t i = 0; i < internal_keys.size(); ++i) {
      const Slice& ikey = internal_keys[i];
      // Ascending keys mean entries before the current one are already
      // proven smaller, so the iterator only ever moves forward: stay put
      // when the current entry still covers the key, try the adjacent
      // entry (the common case for a sequential batch) before paying a
      // binary re-seek.
      bool moved = false;
      if (!positioned) {
        index_iter->Seek(ikey);
        moved = true;
      } else if (r->comparator->Compare(ikey, index_iter->key()) > 0) {
        index_iter->Next();
        moved = true;
        if (index_iter->Valid() &&
            r->comparator->Compare(ikey, index_iter->key()) > 0) {
          index_iter->Seek(ikey);
        }
      }
      if (moved) {
        if (!index_iter->Valid()) {
          LSMIO_RETURN_IF_ERROR(index_iter->status());
          break;  // sorted: every remaining key is also past the last block
        }
        Slice hv = index_iter->value();
        LSMIO_RETURN_IF_ERROR(handle.DecodeFrom(&hv));
        positioned = true;
      }
      if (ikey.size() >= 8 &&
          !FilterKeyMayMatch(handle.offset(), ExtractUserKey(ikey))) {
        continue;  // definitively absent
      }
      if (!work.empty() && work.back().handle.offset() == handle.offset()) {
        work.back().keys.push_back(i);
      } else {
        work.push_back(BlockWork{handle, {i}});
      }
    }
  }
  if (work.empty()) return Status::OK();

  // Pass 2: resolve blocks — cache lookups first, then coalesce runs of
  // adjacent missing blocks into single VFS reads.
  const bool use_cache = r->use_cache();
  // Buffers backing blocks that borrow their bytes (the non-cached path):
  // the runs' read buffers and the decompressed blocks. They must stay
  // alive until the guards release those blocks.
  RunBuffers run_buffers;
  std::vector<std::unique_ptr<std::string>> backing;
  std::vector<BlockGuard> guards(work.size());
  struct GuardRelease {
    std::vector<BlockGuard>* guards;
    Cache* cache;
    ~GuardRelease() {
      for (BlockGuard& g : *guards) {
        if (g.cache_handle != nullptr) cache->Release(g.cache_handle);
        else if (g.owned) delete g.block;
      }
    }
  } guard_release{&guards, r->block_cache};

  if (use_cache) {
    for (size_t j = 0; j < work.size(); ++j) {
      char cache_key[16];
      r->CacheKey(work[j].handle.offset(), cache_key);
      Cache::Handle* h = r->block_cache->Lookup(Slice(cache_key, sizeof cache_key));
      if (h != nullptr) {
        r->CountCacheHit();
        guards[j].block = static_cast<Block*>(r->block_cache->Value(h));
        guards[j].cache_handle = h;
      } else {
        r->CountCacheMiss();
      }
    }
  } else {
    for (size_t j = 0; j < work.size(); ++j) r->CountCacheMiss();
  }

  const bool cache_fill = use_cache && options.fill_cache;
  std::string scratch;
  for (size_t j = 0; j < work.size();) {
    if (guards[j].block != nullptr) {
      ++j;
      continue;
    }
    // Extend the run while blocks are physically adjacent
    // (offset + size + trailer == next offset) and also unresolved.
    size_t k = j;
    const uint64_t start = work[j].handle.offset();
    uint64_t end = start + work[j].handle.size() + kBlockTrailerSize;
    while (k + 1 < work.size() && guards[k + 1].block == nullptr &&
           work[k + 1].handle.offset() == end &&
           end - start + work[k + 1].handle.size() + kBlockTrailerSize <=
               kMaxCoalescedReadBytes) {
      ++k;
      end = work[k].handle.offset() + work[k].handle.size() + kBlockTrailerSize;
    }
    const auto run_bytes = static_cast<size_t>(end - start);
    Slice raw;
    if (cache_fill) {
      // The cache takes a copy of each block, so one buffer serves all runs.
      LSMIO_RETURN_IF_ERROR(r->file->Read(start, run_bytes, &raw, &scratch));
    } else {
      // Uncached blocks serve straight out of the run's buffer.
      LSMIO_RETURN_IF_ERROR(r->file->ReadInto(start, run_bytes, &raw,
                                              run_buffers.Allocate(run_bytes)));
    }
    if (raw.size() != run_bytes) {
      return Status::Corruption("truncated coalesced block read");
    }
    if (k > j && r->counters) {
      r->counters->coalesced_reads.fetch_add(k - j, std::memory_order_relaxed);
    }
    for (size_t m = j; m <= k; ++m) {
      const Slice block_raw(
          raw.data() + (work[m].handle.offset() - start),
          static_cast<size_t>(work[m].handle.size()) + kBlockTrailerSize);
      if (cache_fill) {
        std::string contents;
        LSMIO_RETURN_IF_ERROR(DecodeBlockContents(block_raw, options,
                                                  r->options.paranoid_checks,
                                                  &contents));
        auto* block = new Block(std::move(contents));
        guards[m].block = block;
        char cache_key[16];
        r->CacheKey(work[m].handle.offset(), cache_key);
        guards[m].cache_handle = r->block_cache->Insert(
            Slice(cache_key, sizeof cache_key), block, block->size(),
            DeleteCachedBlock, r->options.tenant_id);
      } else {
        // Zero-copy: the block views the read buffer (or, when compressed,
        // its own decompression buffer parked in `backing`).
        std::string decompressed;
        Slice view;
        LSMIO_RETURN_IF_ERROR(DecodeBlockView(block_raw, options,
                                              r->options.paranoid_checks,
                                              &decompressed, &view));
        if (!decompressed.empty()) {
          backing.push_back(
              std::make_unique<std::string>(std::move(decompressed)));
          view = Slice(*backing.back());
        }
        guards[m].block = new Block(view);
        guards[m].owned = true;
      }
    }
    j = k + 1;
  }

  // Pass 3: seek each key inside its block.
  for (size_t j = 0; j < work.size(); ++j) {
    std::unique_ptr<Iterator> block_iter(
        guards[j].block->NewIterator(r->comparator));
    for (const size_t i : work[j].keys) {
      block_iter->Seek(internal_keys[i]);
      if (block_iter->Valid()) {
        handle_result(i, block_iter->key(), block_iter->value());
      }
      LSMIO_RETURN_IF_ERROR(block_iter->status());
    }
  }
  return Status::OK();
}

uint64_t Table::ApproximateOffsetOf(const Slice& internal_key) const {
  std::unique_ptr<Iterator> index_iter(rep_->index->NewIterator(rep_->comparator));
  index_iter->Seek(internal_key);
  if (index_iter->Valid()) {
    Slice input = index_iter->value();
    BlockHandle handle;
    if (handle.DecodeFrom(&input).ok()) return handle.offset();
  }
  return rep_->metaindex_handle.offset();  // ≈ file end
}

}  // namespace lsmio::lsm
