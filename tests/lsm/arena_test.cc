#include "lsm/arena.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "common/random.h"

#if defined(__SANITIZE_ADDRESS__)
#define ARENA_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define ARENA_TEST_ASAN 1
#endif
#endif

namespace lsmio::lsm {
namespace {

TEST(ArenaTest, SmallAllocationsDoNotOverlap) {
  Arena arena;
  std::vector<std::pair<char*, size_t>> allocs;
  Rng rng(301);
  for (int i = 0; i < 1000; ++i) {
    const size_t n = 1 + rng.Uniform(64);
    char* p = arena.Allocate(n);
    ASSERT_NE(p, nullptr);
    std::memset(p, static_cast<int>(i % 256), n);
    allocs.emplace_back(p, n);
  }
  // Verify every allocation still carries its fill pattern (no overlap).
  for (size_t i = 0; i < allocs.size(); ++i) {
    const auto [p, n] = allocs[i];
    for (size_t j = 0; j < n; ++j) {
      ASSERT_EQ(static_cast<unsigned char>(p[j]), i % 256);
    }
  }
}

TEST(ArenaTest, LargeAndSmallAllocationsDoNotOverlap) {
  Arena arena;
  char* big = arena.Allocate(100000);
  std::memset(big, 0x5a, 100000);
  char* small = arena.Allocate(8);
  std::memset(small, 0x11, 8);
  EXPECT_EQ(static_cast<unsigned char>(big[99999]), 0x5a);
}

TEST(ArenaTest, AlignedAllocationsArePointerAligned) {
  Arena arena;
  arena.Allocate(1);  // misalign the bump pointer
  for (int i = 0; i < 100; ++i) {
    char* p = arena.AllocateAligned(24);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % alignof(void*), 0u);
    arena.Allocate(1 + static_cast<size_t>(i % 7));  // keep misaligning
  }
}

TEST(ArenaTest, MemoryUsageGrowsMonotonically) {
  Arena arena;
  size_t prev = arena.MemoryUsage();
  for (int i = 0; i < 100; ++i) {
    arena.Allocate(1024);
    EXPECT_GE(arena.MemoryUsage(), prev);
    prev = arena.MemoryUsage();
  }
  EXPECT_GE(arena.MemoryUsage(), 100 * 1024u);
}

bool IsPointerAligned(const char* p) {
  return reinterpret_cast<uintptr_t>(p) % alignof(void*) == 0;
}

// Charges `arena` half a region with one dedicated block, so its next
// large allocations come from regions.
void ChargeHalfARegion(Arena* arena) {
  arena->Allocate(Arena::kRegionSize / 2);
  ASSERT_EQ(arena->RegionBytesForTesting(), 0u);
}

// Fills `arena` with `count` large allocations of `bytes`, each carrying its
// own byte pattern, and checks none was overwritten by a later one.
void FillAndCheck(Arena* arena, int count, size_t bytes) {
  std::vector<char*> allocs;
  for (int i = 0; i < count; ++i) {
    char* p = arena->Allocate(bytes);
    std::memset(p, i % 251, bytes);
    allocs.push_back(p);
  }
  for (int i = 0; i < count; ++i) {
    ASSERT_EQ(static_cast<unsigned char>(allocs[i][0]), i % 251);
    ASSERT_EQ(static_cast<unsigned char>(allocs[i][bytes - 1]), i % 251);
  }
}

// The figure memtables switch on: every block and every large allocation
// is charged its bytes plus one pointer, as when each large allocation had
// its own malloc'd block, so region packing never moves a flush point.
TEST(ArenaTest, MemoryUsageMatchesPerBlockCharging) {
  Arena arena;
  arena.Allocate(100);                            // new 4 KiB block: 4104
  arena.Allocate(1024);                           // fits the block
  arena.Allocate(1025);                           // still fits the block
  arena.Allocate(3000);                           // large: 3008
  arena.Allocate(1947);                           // fills the block exactly
  arena.AllocateAligned(24);                      // new block: 4104
  arena.Allocate(65536);                          // 65544
  arena.Allocate(Arena::kRegionSize / 4);         // 2097160
  arena.Allocate(Arena::kRegionSize / 4 + 1);     // dedicated: 2097161
  arena.Allocate(1 << 20);                        // 1048584
  EXPECT_EQ(arena.MemoryUsage(), 5319665u);
}

// Until an arena has charged half a region its large allocations get
// blocks of their own, so a memtable that stays small (a cold tenant, a
// small write buffer) maps no 8 MiB region for a few entries.
TEST(ArenaTest, RegionsWaitForHalfARegionOfCharge) {
  Arena arena;
  constexpr size_t kEntry = 64 * 1024;
  while (arena.MemoryUsage() < Arena::kRegionSize / 2) {
    arena.Allocate(kEntry);
    EXPECT_EQ(arena.RegionBytesForTesting(), 0u) << arena.MemoryUsage();
  }
  arena.Allocate(kEntry);
  EXPECT_EQ(arena.RegionBytesForTesting(), Arena::kRegionSize);
}

// The bound that ties regions to what the memory arbiter sees: a live
// arena's regions never map more than twice the bytes it charges.
TEST(ArenaTest, RegionBytesStayWithinTwiceTheCharge) {
  Rng rng(307);
  for (int round = 0; round < 4; ++round) {
    Arena arena;
    for (int i = 0; i < 100; ++i) {
      // Sizes up to a quarter region, the largest a region takes.
      const size_t n = 1025 + rng.Uniform(Arena::kRegionSize / 4 - 1024);
      arena.Allocate(n);
      ASSERT_LE(arena.RegionBytesForTesting(), 2 * arena.MemoryUsage())
          << "round " << round << " allocation " << i;
    }
  }
}

TEST(ArenaTest, AllocationsAroundTheThresholdsKeepTheirBytes) {
  Arena arena;
  const std::vector<size_t> sizes = {
      1023, 1024, 1025, 4095, 4096, 4097,
      Arena::kRegionSize / 4 - 1, Arena::kRegionSize / 4,
      Arena::kRegionSize / 4 + 1, 1, 1025};
  std::vector<std::pair<char*, size_t>> allocs;
  for (size_t i = 0; i < sizes.size(); ++i) {
    char* p = arena.Allocate(sizes[i]);
    std::memset(p, static_cast<int>(i + 1), sizes[i]);
    allocs.emplace_back(p, sizes[i]);
    char* aligned = arena.AllocateAligned(24);  // skip-list node after it
    EXPECT_TRUE(IsPointerAligned(aligned)) << sizes[i];
    std::memset(aligned, 0xee, 24);
  }
  for (size_t i = 0; i < allocs.size(); ++i) {
    const auto [p, n] = allocs[i];
    EXPECT_EQ(static_cast<unsigned char>(p[0]), i + 1);
    EXPECT_EQ(static_cast<unsigned char>(p[n - 1]), i + 1);
  }
}

TEST(ArenaTest, LargeAllocationsArePointerAlignedAndPacked) {
  Arena arena;
  ChargeHalfARegion(&arena);
  // Odd sizes would misalign a plain bump pointer.
  for (const size_t n : {1025u, 1999u, 4097u, 65537u, 70001u}) {
    char* p = arena.Allocate(n);
    EXPECT_TRUE(IsPointerAligned(p)) << n;
  }
  EXPECT_EQ(arena.RegionBytesForTesting(), Arena::kRegionSize);
  // Four quarter-region allocations share one region, back to back.
  Arena packed;
  ChargeHalfARegion(&packed);
  char* first = packed.Allocate(Arena::kRegionSize / 4);
  for (size_t i = 1; i < 4; ++i) {
    EXPECT_EQ(packed.Allocate(Arena::kRegionSize / 4),
              first + i * (Arena::kRegionSize / 4));
  }
}

TEST(ArenaTest, RegionsAreReusedAcrossArenas) {
  constexpr int kEntries = 300;  // ~19 MiB: 4 MiB in blocks, 2 regions
  constexpr size_t kEntryBytes = 64 * 1024 + 40;
  {
    Arena warm;
    FillAndCheck(&warm, kEntries, kEntryBytes);
  }
  const size_t mapped = Arena::RegionsMappedForTesting();
  for (int cycle = 0; cycle < 100; ++cycle) {
    auto arena = std::make_unique<Arena>();
    FillAndCheck(arena.get(), kEntries, kEntryBytes);
  }
  EXPECT_EQ(Arena::RegionsMappedForTesting(), mapped);
}

// A store refills its memtable the same way every checkpoint, so an
// arena's n-th region comes from the regions last used as an n-th region:
// a part-used last region is not handed to another arena's first, which
// would fault in a fresh region's worth of pages.
TEST(ArenaTest, RegionsComeBackInTheOrderTheyWereFilled) {
  constexpr size_t kQuarter = Arena::kRegionSize / 4;
  const auto fill = [](Arena* arena) {
    ChargeHalfARegion(arena);
    std::vector<const void*> region_starts;  // not char*: gtest prints those
    for (int i = 0; i < 12; ++i) {  // three regions, each filled whole
      char* p = arena->Allocate(kQuarter);
      std::memset(p, i, kQuarter);
      if (i % 4 == 0) region_starts.push_back(p);
    }
    return region_starts;
  };
  auto first = std::make_unique<Arena>();
  const std::vector<const void*> before = fill(first.get());
  first.reset();
  Arena second;
  EXPECT_EQ(fill(&second), before);
}

TEST(ArenaTest, SmallAllocationsTakeNoRegion) {
  const size_t mapped = Arena::RegionsMappedForTesting();
  std::vector<std::unique_ptr<Arena>> arenas;
  for (int i = 0; i < 64; ++i) {
    arenas.push_back(std::make_unique<Arena>());
    for (int j = 0; j < 100; ++j) arenas.back()->Allocate(1024);
  }
  EXPECT_EQ(Arena::RegionsMappedForTesting(), mapped);
}

TEST(ArenaTest, ConcurrentArenasShareThePool) {
  constexpr int kThreads = 4;
  constexpr int kRegionsPerArena = 1;  // 42 of 100 entries in blocks
  const size_t before = Arena::RegionsMappedForTesting();
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < 50; ++i) {
        Arena arena;
        FillAndCheck(&arena, 100, 100 * 1000 + 7);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  // Pooled plus live regions never exceed the peak live at once.
  EXPECT_LE(Arena::RegionsMappedForTesting(),
            before + kThreads * kRegionsPerArena);
}

// However many regions were live at once, the free list keeps at most
// kPooledRegions of them once their arenas are gone.
TEST(ArenaTest, ThePoolKeepsAtMostItsCap) {
  std::vector<std::unique_ptr<Arena>> arenas;
  for (size_t i = 0; i < Arena::kPooledRegions + 8; ++i) {
    arenas.push_back(std::make_unique<Arena>());
    ChargeHalfARegion(arenas.back().get());
    std::memset(arenas.back()->Allocate(4096 * (i + 1)), 1, 4096 * (i + 1));
  }
  EXPECT_GE(Arena::RegionsMappedForTesting(), Arena::kPooledRegions + 8);
  arenas.clear();
  EXPECT_EQ(Arena::RegionsMappedForTesting(), Arena::kPooledRegions);
  // The next arena takes a kept region instead of mapping one.
  Arena next;
  ChargeHalfARegion(&next);
  std::memset(next.Allocate(2048), 2, 2048);
  EXPECT_EQ(Arena::RegionsMappedForTesting(), Arena::kPooledRegions);
}

TEST(ArenaDeathTest, ReadAfterArenaDiesReports) {
#ifndef ARENA_TEST_ASAN
  GTEST_SKIP() << "needs AddressSanitizer";
#else
  EXPECT_DEATH(
      {
        auto arena = std::make_unique<Arena>();
        ChargeHalfARegion(arena.get());
        char* p = arena->Allocate(64 * 1024);
        std::memset(p, 1, 64 * 1024);
        arena.reset();
        volatile char sink = p[100];
        static_cast<void>(sink);
      },
      "AddressSanitizer");
#endif
}

}  // namespace
}  // namespace lsmio::lsm
