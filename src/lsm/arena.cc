#include "lsm/arena.h"

#include <sys/mman.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <new>
#include <utility>

#include "common/synchronization.h"

#if defined(__SANITIZE_ADDRESS__)
#define LSMIO_ARENA_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define LSMIO_ARENA_ASAN 1
#endif
#endif
#ifdef LSMIO_ARENA_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace lsmio::lsm {

namespace {

// Under ASan a pooled region is poisoned whole and each allocation is
// unpoisoned as it is handed out, so reading a memtable's memory after its
// arena died still reports, as it does for freed malloc'd blocks.
void Poison([[maybe_unused]] char* p, [[maybe_unused]] size_t bytes) {
#ifdef LSMIO_ARENA_ASAN
  ASAN_POISON_MEMORY_REGION(p, bytes);
#endif
}

void Unpoison([[maybe_unused]] char* p, [[maybe_unused]] size_t bytes) {
#ifdef LSMIO_ARENA_ASAN
  ASAN_UNPOISON_MEMORY_REGION(p, bytes);
#endif
}

/// Process-wide free list of kRegionSize regions. A region is mapped only
/// when the list is empty. The list keeps at most kPooledRegions regions,
/// the most filled ones; a region that does not make the cut is unmapped.
///
/// Take() hands an arena's n-th region out of the regions last used as an
/// n-th region, the most filled first, the most recently pooled on a tie;
/// a borrower (kAnyOrdinal) gets the most filled region and leaves its
/// ordinal as it was.
/// Stores refill their memtables the same way every checkpoint, so an
/// arena's part-used last region goes to another arena's last region, not
/// to its first, where filling it would fault in pages while a fully
/// resident region sits unused.
class RegionPool {
 public:
  // Return() never allocates (it runs in ~Arena): the list has room for
  // every region it may keep.
  RegionPool() { free_.reserve(Arena::kPooledRegions); }

  static constexpr size_t kAnyOrdinal = SIZE_MAX;

  Arena::Region Take(size_t ordinal) EXCLUDES(mu_) {
    {
      MutexLock lock(&mu_);
      if (!free_.empty()) {
        const auto score = [ordinal](const Arena::Region& r) {
          return std::pair(ordinal != kAnyOrdinal && r.ordinal == ordinal,
                           r.touched);
        };
        auto best = free_.rbegin();
        for (auto it = free_.rbegin(); it != free_.rend(); ++it) {
          if (score(*it) > score(*best)) best = it;
        }
        Arena::Region region = *best;
        free_.erase(std::next(best).base());  // keeps the pooling order
        if (ordinal != kAnyOrdinal) region.ordinal = ordinal;
        return region;
      }
    }
    void* mapped = mmap(nullptr, Arena::kRegionSize, PROT_READ | PROT_WRITE,
                        MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (mapped == MAP_FAILED) throw std::bad_alloc();
    char* base = static_cast<char*>(mapped);
    Poison(base, Arena::kRegionSize);
    MutexLock lock(&mu_);
    ++mapped_;
    return Arena::Region{base, 0, ordinal};
  }

  void Return(const std::vector<Arena::Region>& regions) EXCLUDES(mu_) {
    for (const Arena::Region& region : regions) {
      Poison(region.base, Arena::kRegionSize);
      char* dropped = Keep(region);
      if (dropped == nullptr) continue;
      Unpoison(dropped, Arena::kRegionSize);
      munmap(dropped, Arena::kRegionSize);
    }
  }

  size_t mapped() EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return mapped_;
  }

  size_t in_use() EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return mapped_ - free_.size();
  }

 private:
  // Pools `region`; if the list is full, drops whichever of it and the
  // pooled regions is least filled (the longest pooled on a tie) and
  // returns the dropped region's base for unmapping.
  char* Keep(const Arena::Region& region) EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    if (free_.size() < Arena::kPooledRegions) {
      free_.push_back(region);
      return nullptr;
    }
    --mapped_;
    const auto least = std::min_element(
        free_.begin(), free_.end(),
        [](const Arena::Region& a, const Arena::Region& b) {
          return a.touched < b.touched;
        });
    if (least->touched > region.touched) return region.base;
    char* dropped = least->base;
    free_.erase(least);
    free_.push_back(region);
    return dropped;
  }

  Mutex mu_;
  std::vector<Arena::Region> free_ GUARDED_BY(mu_);
  size_t mapped_ GUARDED_BY(mu_) = 0;
};

// Never destroyed: memtables (and so arenas) can die during static
// destruction.
RegionPool& Pool() {
  static RegionPool* const pool = new RegionPool();
  return *pool;
}

}  // namespace

Arena::~Arena() {
  if (regions_.empty()) return;
  NoteRegionUse();
  Pool().Return(regions_);
}

void Arena::NoteRegionUse() {
  Region& current = regions_.back();
  current.touched = std::max(current.touched,
                             static_cast<size_t>(region_ptr_ - current.base));
}

Arena::Region Arena::BorrowRegion() {
  Region region = Pool().Take(RegionPool::kAnyOrdinal);
  Unpoison(region.base, kRegionSize);
  return region;
}

void Arena::ReturnRegions(const std::vector<Region>& regions) {
  Pool().Return(regions);
}

size_t Arena::RegionsMappedForTesting() { return Pool().mapped(); }

size_t Arena::RegionsInUseForTesting() { return Pool().in_use(); }

char* Arena::AllocateFallback(size_t bytes) {
  if (bytes > kBlockSize / 4) {
    // Large allocation: packed into a pooled region so we don't waste the
    // remainder of the current block. It gets its own block past a quarter
    // of a region, or while the arena has charged under half a region, so
    // a region never maps more than twice what its arena charges.
    if (bytes > kRegionSize / 4 || MemoryUsage() < kRegionSize / 2) {
      return AllocateNewBlock(bytes);
    }
    return AllocateFromRegion(bytes);
  }
  alloc_ptr_ = AllocateNewBlock(kBlockSize);
  alloc_bytes_remaining_ = kBlockSize;

  char* result = alloc_ptr_;
  alloc_ptr_ += bytes;
  alloc_bytes_remaining_ -= bytes;
  return result;
}

char* Arena::AllocateAligned(size_t bytes) {
  constexpr size_t align = alignof(void*);
  static_assert((align & (align - 1)) == 0, "alignment must be a power of two");
  const size_t current_mod = reinterpret_cast<uintptr_t>(alloc_ptr_) & (align - 1);
  const size_t slop = current_mod == 0 ? 0 : align - current_mod;
  const size_t needed = bytes + slop;
  if (needed <= alloc_bytes_remaining_) {
    char* result = alloc_ptr_ + slop;
    alloc_ptr_ += needed;
    alloc_bytes_remaining_ -= needed;
    return result;
  }
  // AllocateFallback always returns pointer-aligned memory (fresh block,
  // new/operator-new aligned allocation, or pointer-aligned region bump).
  return AllocateFallback(bytes);
}

char* Arena::AllocateNewBlock(size_t block_bytes) {
  // Not zero-filled: every byte handed out is written by its caller.
  auto block = std::make_unique_for_overwrite<char[]>(block_bytes);
  char* result = block.get();
  blocks_.push_back(std::move(block));
  memory_usage_.fetch_add(block_bytes + sizeof(void*), std::memory_order_relaxed);
  return result;
}

char* Arena::AllocateFromRegion(size_t bytes) {
  // Keep the bump pointer pointer-aligned; the padding is not charged.
  const size_t padded = (bytes + alignof(void*) - 1) & ~(alignof(void*) - 1);
  if (padded > region_bytes_remaining_) {
    if (!regions_.empty()) NoteRegionUse();
    // Reserve first so the push cannot throw and leak a taken region.
    regions_.reserve(regions_.size() + 1);
    regions_.push_back(Pool().Take(regions_.size()));
    region_ptr_ = regions_.back().base;
    region_bytes_remaining_ = kRegionSize;
  }
  char* result = region_ptr_;
  region_ptr_ += padded;
  region_bytes_remaining_ -= padded;
  Unpoison(result, bytes);
  // Charged as the dedicated block it used to get, so memtables switch at
  // the same points whatever the packing.
  memory_usage_.fetch_add(bytes + sizeof(void*), std::memory_order_relaxed);
  return result;
}

}  // namespace lsmio::lsm
