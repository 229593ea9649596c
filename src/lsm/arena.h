// Bump allocator backing a MemTable: allocations live until the arena dies
// (the memtable is flushed and dropped as a unit, so no per-node frees).
//
// Small allocations (skip-list nodes, small entries) come from 4 KiB
// malloc'd blocks. Large ones (above kBlockSize / 4, which covers the
// values of checkpoint writes) are bump-allocated from 8 MiB regions of
// anonymous memory taken from one process-wide free list, once the arena
// has charged half a region; before that they get malloc'd blocks of their
// own, so an arena's regions never map more than twice its charge. A dying
// arena returns its regions to that list with their pages still resident,
// so the next memtable, in this store or in one opened later, writes into
// memory that is already faulted in instead of paying a first-touch fault
// per 4 KiB. The list keeps at most kPooledRegions regions and unmaps the
// rest. Uncached block reads borrow whole regions from the same list for
// the length of one call. See DESIGN.md "Memtable memory".
#pragma once

#include <atomic>
#include <cassert>
#include <cstddef>
#include <memory>
#include <vector>

namespace lsmio::lsm {

class Arena {
 public:
  /// Size of one pooled region. An allocation above a quarter of it gets a
  /// dedicated malloc'd block instead, and so does any large allocation
  /// made before the arena has charged half a region.
  static constexpr size_t kRegionSize = size_t{8} << 20;

  /// Most regions the process-wide free list keeps (256 MiB); a region
  /// returned to a full list is unmapped, or displaces a less filled one.
  static constexpr size_t kPooledRegions = 32;

  /// A pooled region, the most bytes any arena or borrower has written to it
  /// (how much of it is already faulted in), and its position among the
  /// regions of the arena that used it last.
  struct Region {
    char* base;
    size_t touched;
    size_t ordinal;
  };

  Arena() = default;
  ~Arena();
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Returns bytes-aligned storage for `bytes` (> 0).
  char* Allocate(size_t bytes);

  /// Returns pointer-aligned storage for `bytes` (> 0).
  char* AllocateAligned(size_t bytes);

  /// Approximate total memory footprint of the arena: a block's or a large
  /// allocation's bytes plus one pointer each. Region slack is not charged,
  /// so the figure (and the memtable switch points it drives) does not
  /// depend on how allocations pack into regions.
  [[nodiscard]] size_t MemoryUsage() const noexcept {
    return memory_usage_.load(std::memory_order_relaxed);
  }

  /// Whole regions as short-lived scratch memory outside any arena (block
  /// reads): BorrowRegion takes the most filled pooled region, or maps one
  /// when the pool is empty, and hands it out whole. ReturnRegions pools
  /// regions again; a borrower raises `touched` to the bytes it wrote.
  static Region BorrowRegion();
  static void ReturnRegions(const std::vector<Region>& regions);

  /// Regions the process has mapped now (pooled plus in use); for tests.
  static size_t RegionsMappedForTesting();

  /// Regions live arenas hold now (mapped minus pooled); for tests.
  static size_t RegionsInUseForTesting();

  /// Bytes of the regions this arena holds; for tests.
  [[nodiscard]] size_t RegionBytesForTesting() const noexcept {
    return regions_.size() * kRegionSize;
  }

 private:
  static constexpr size_t kBlockSize = 4096;

  char* AllocateFallback(size_t bytes);
  char* AllocateNewBlock(size_t block_bytes);
  char* AllocateFromRegion(size_t bytes);
  // Records how far the current region has been filled.
  void NoteRegionUse();

  char* alloc_ptr_ = nullptr;
  size_t alloc_bytes_remaining_ = 0;
  std::vector<std::unique_ptr<char[]>> blocks_;
  // Bump state of the current region (the last one in regions_).
  char* region_ptr_ = nullptr;
  size_t region_bytes_remaining_ = 0;
  std::vector<Region> regions_;
  std::atomic<size_t> memory_usage_{0};
};

inline char* Arena::Allocate(size_t bytes) {
  assert(bytes > 0);
  if (bytes <= alloc_bytes_remaining_) {
    char* result = alloc_ptr_;
    alloc_ptr_ += bytes;
    alloc_bytes_remaining_ -= bytes;
    return result;
  }
  return AllocateFallback(bytes);
}

}  // namespace lsmio::lsm
