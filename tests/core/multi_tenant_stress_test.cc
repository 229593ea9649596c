// Multi-tenant memory-arbitration stress (DESIGN.md §15): many stores in
// one process share a MemoryArbiter whose write budget is 25% of what fixed
// per-store sizing would reserve, under heavily skewed traffic (a small hot
// set takes ~90% of the writes). The run must complete without unbounded
// memory growth (the OOM the arbiter exists to prevent) and without any
// store latching read-only, and every acked write must read back intact.
//
// Scale defaults stay CI-fast (24 tenants); the nightly workflow raises
// them with LSMIO_TENANTS=200 / LSMIO_STRESS_OPS (by default the op count
// grows with the fleet: see StressOps). LSMIO_STRESS_THROUGHPUT=1
// additionally runs an uncapped baseline and asserts the hot tenants kept
// at least 80% of their uncapped throughput (wall-clock dependent, so it is
// opt-in rather than part of the default deterministic run).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/units.h"
#include "core/manager.h"
#include "core/memory_arbiter.h"
#include "lsm/arena.h"
#include "vfs/mem_vfs.h"

namespace lsmio {
namespace {

int EnvInt(const char* name, int fallback) {
  const char* env = std::getenv(name);
  if (env != nullptr) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  return fallback;
}

// Fixed per-store sizing the arbiter replaces: this is what each store
// would reserve as its private memtable budget without arbitration.
constexpr uint64_t kPerStoreBuffer = 1 * MiB;
constexpr uint64_t kValueBytes = 4 * KiB;

// The shared write budget of a budgeted fleet: 25% of the fixed sizing.
uint64_t WriteBudget(int tenants) {
  return std::max<uint64_t>(1 * MiB, tenants * kPerStoreBuffer / 4);
}

// LSMIO_STRESS_OPS, by default 6000 puts or enough to write twice the
// write budget, so a large fleet still drives the arbiter to pick victims.
int StressOps(int tenants) {
  const auto twice_budget = static_cast<int>(2 * WriteBudget(tenants) / kValueBytes);
  return EnvInt("LSMIO_STRESS_OPS", std::max(6000, twice_budget));
}

struct Fleet {
  vfs::MemVfs fs;
  std::unique_ptr<MemoryArbiter> arbiter;
  std::vector<std::unique_ptr<Manager>> managers;

  // Opens `tenants` stores; budgeted == true shares one arbiter at 25% of
  // the fixed sizing, budgeted == false gives every store its private
  // fixed-size buffer (the uncapped baseline).
  void Open(int tenants, bool budgeted) {
    if (budgeted) {
      MemoryArbiterOptions arb;
      arb.write_budget_bytes = WriteBudget(tenants);
      arb.cache_budget_bytes = 8 * MiB;
      arb.min_victim_bytes = 32 * KiB;
      arbiter = std::make_unique<MemoryArbiter>(arb);
    }
    for (int i = 0; i < tenants; ++i) {
      LsmioOptions options;
      options.vfs = &fs;
      options.write_buffer_size = kPerStoreBuffer;
      // Soft-pacing zone so flush lag paces writers instead of stalling.
      options.disable_compaction = false;
      options.max_write_buffer_number = 4;
      if (budgeted) options.memory_arbiter = arbiter.get();
      std::unique_ptr<Manager> manager;
      ASSERT_TRUE(
          Manager::Open(options, "/stress/t" + std::to_string(i), &manager)
              .ok());
      managers.push_back(std::move(manager));
    }
  }

  void Close() {
    managers.clear();
    arbiter.reset();
  }
};

// Runs `ops` skewed puts across the fleet; returns wall micros spent on
// hot-tenant puts. Checks budget boundedness as it goes when capped.
uint64_t RunSkewedWrites(Fleet& fleet, int ops, uint64_t seed) {
  const int tenants = static_cast<int>(fleet.managers.size());
  const int hot = std::max(1, tenants / 10);
  const uint64_t budget =
      fleet.arbiter != nullptr ? fleet.arbiter->Budget() : 0;
  Rng rng(seed);
  uint64_t hot_micros = 0;
  const std::string value(kValueBytes, 'v');
  for (int op = 0; op < ops; ++op) {
    // 90% of traffic lands on the hot tenants.
    const bool is_hot = rng.Next() % 10 != 0;
    const int t = is_hot ? static_cast<int>(rng.Next() % hot)
                         : hot + static_cast<int>(rng.Next() % std::max(
                                                      1, tenants - hot));
    Manager* m = fleet.managers[t % tenants].get();
    const std::string key =
        "op" + std::to_string(op) + "k" + std::to_string(rng.Next() % 512);
    if (is_hot) {
      const auto start = std::chrono::steady_clock::now();
      EXPECT_TRUE(m->Put(key, value).ok());
      hot_micros += std::chrono::duration_cast<std::chrono::microseconds>(
                        std::chrono::steady_clock::now() - start)
                        .count();
    } else {
      EXPECT_TRUE(m->Put(key, value).ok());
    }
    // Aggregate memtable residency must stay bounded near the budget: the
    // cap-and-pace machinery, not tenant count, bounds process memory.
    // (2x slack covers in-flight flushes and per-batch overshoot.)
    if (budget != 0 && op % 256 == 0) {
      EXPECT_LE(fleet.arbiter->TotalUsage(), 2 * budget)
          << "aggregate memtable usage escaped the budget at op " << op;
      // Memtable arena regions stay tied to that usage too: a live
      // arena's regions map at most twice its charge, and the free list
      // keeps at most kPooledRegions on top.
      constexpr uint64_t kRegion = lsm::Arena::kRegionSize;
      EXPECT_LE(lsm::Arena::RegionsInUseForTesting() * kRegion, 2 * (2 * budget))
          << "arena regions in use escaped the budget at op " << op;
      EXPECT_LE(lsm::Arena::RegionsMappedForTesting() * kRegion,
                2 * (2 * budget) + lsm::Arena::kPooledRegions * kRegion)
          << "arena regions escaped the budget at op " << op;
    }
  }
  return hot_micros;
}

TEST(MultiTenantStressTest, BudgetedFleetSurvivesSkewedTraffic) {
  const int tenants = EnvInt("LSMIO_TENANTS", 24);
  const int ops = StressOps(tenants);

  Fleet fleet;
  fleet.Open(tenants, /*budgeted=*/true);
  if (::testing::Test::HasFatalFailure()) return;

  RunSkewedWrites(fleet, ops, /*seed=*/0xC0FFEE);

  // No store latched read-only (an arbiter-forced flush that failed would
  // show up here), and every store still accepts writes.
  for (int t = 0; t < tenants; ++t) {
    Manager* m = fleet.managers[t].get();
    EXPECT_TRUE(m->Health().ok()) << "tenant " << t;
    EXPECT_TRUE(m->WriteBarrier(BarrierMode::kSync).ok()) << "tenant " << t;
    EXPECT_TRUE(m->Put("final" + std::to_string(t), "alive").ok());
  }

  // Writes read back intact through the budgeted fleet.
  std::string value;
  for (int t = 0; t < tenants; ++t) {
    ASSERT_TRUE(
        fleet.managers[t]->Get("final" + std::to_string(t), &value).ok());
    EXPECT_EQ(value, "alive");
  }

  // The arbiter actually arbitrated: under a 4x-overcommitted budget with
  // skewed traffic, victim picks must have happened.
  EXPECT_GT(fleet.arbiter->flush_requests(), 0u);

  // Residency attribution covers every registered tenant.
  const std::vector<TenantResidency> residency = fleet.arbiter->AllResidency();
  EXPECT_EQ(residency.size(), static_cast<size_t>(tenants));

  fleet.Close();
}

TEST(MultiTenantStressTest, HotTenantsKeepThroughputUnderBudget) {
  if (EnvInt("LSMIO_STRESS_THROUGHPUT", 0) == 0) {
    GTEST_SKIP() << "wall-clock comparison; set LSMIO_STRESS_THROUGHPUT=1";
  }
  const int tenants = EnvInt("LSMIO_TENANTS", 24);
  const int ops = StressOps(tenants);

  Fleet uncapped;
  uncapped.Open(tenants, /*budgeted=*/false);
  if (::testing::Test::HasFatalFailure()) return;
  const uint64_t baseline_micros =
      RunSkewedWrites(uncapped, ops, /*seed=*/0xBEEF);
  uncapped.Close();

  Fleet capped;
  capped.Open(tenants, /*budgeted=*/true);
  if (::testing::Test::HasFatalFailure()) return;
  const uint64_t capped_micros = RunSkewedWrites(capped, ops, /*seed=*/0xBEEF);
  capped.Close();

  // Hot tenants must keep >= 80% of uncapped throughput: the arbiter
  // flushes cold tenants and paces globally, it does not starve the hot
  // set. Time-per-op is the inverse of throughput, so capped time may be
  // at most 1/0.8 = 1.25x the baseline.
  EXPECT_LE(static_cast<double>(capped_micros),
            1.25 * static_cast<double>(baseline_micros))
      << "hot-tenant puts took " << capped_micros << "us capped vs "
      << baseline_micros << "us uncapped";
}

}  // namespace
}  // namespace lsmio
