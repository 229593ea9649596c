#include "lsm/arena.h"

#include <cstdint>

namespace lsmio::lsm {

char* Arena::AllocateFallback(size_t bytes) {
  if (bytes > kBlockSize / 4) {
    // Large allocation gets its own block so we don't waste the remainder
    // of the current block.
    return AllocateNewBlock(bytes);
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
  // AllocateFallback always returns pointer-aligned memory (fresh block or
  // new/operator-new aligned allocation).
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

}  // namespace lsmio::lsm
