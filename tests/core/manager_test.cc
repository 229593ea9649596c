#include "core/manager.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "minimpi/minimpi.h"
#include "vfs/mem_vfs.h"

namespace lsmio {
namespace {

class ManagerTest : public ::testing::Test {
 protected:
  LsmioOptions Options() {
    LsmioOptions options;
    options.vfs = &fs_;
    return options;
  }

  void Open() { ASSERT_TRUE(Manager::Open(Options(), "/mgr", &manager_).ok()); }

  vfs::MemVfs fs_;
  std::unique_ptr<Manager> manager_;
};

TEST_F(ManagerTest, FactoryOpensStore) {
  Open();
  ASSERT_NE(manager_, nullptr);
}

TEST_F(ManagerTest, PutGetRoundTrip) {
  Open();
  ASSERT_TRUE(manager_->Put("key", "value").ok());
  std::string value;
  ASSERT_TRUE(manager_->Get("key", &value).ok());
  EXPECT_EQ(value, "value");
}

TEST_F(ManagerTest, TypedPuts) {
  Open();
  ASSERT_TRUE(manager_->PutUint64("count", 123456789012345ULL).ok());
  ASSERT_TRUE(manager_->PutDouble("pi", 3.14159265358979).ok());

  uint64_t count = 0;
  ASSERT_TRUE(manager_->GetUint64("count", &count).ok());
  EXPECT_EQ(count, 123456789012345ULL);
  double pi = 0;
  ASSERT_TRUE(manager_->GetDouble("pi", &pi).ok());
  EXPECT_DOUBLE_EQ(pi, 3.14159265358979);
}

TEST_F(ManagerTest, TypedGetRejectsWrongWidth) {
  Open();
  ASSERT_TRUE(manager_->Put("short", "abc").ok());
  uint64_t v = 0;
  EXPECT_TRUE(manager_->GetUint64("short", &v).IsCorruption());
}

TEST_F(ManagerTest, AppendAccumulates) {
  Open();
  ASSERT_TRUE(manager_->Append("trace", "a").ok());
  ASSERT_TRUE(manager_->Append("trace", "b").ok());
  std::string value;
  ASSERT_TRUE(manager_->Get("trace", &value).ok());
  EXPECT_EQ(value, "ab");
}

TEST_F(ManagerTest, DelRemoves) {
  Open();
  ASSERT_TRUE(manager_->Put("gone", "x").ok());
  ASSERT_TRUE(manager_->Del("gone").ok());
  std::string value;
  EXPECT_TRUE(manager_->Get("gone", &value).IsNotFound());
}

TEST_F(ManagerTest, CountersTrackOperations) {
  Open();
  ASSERT_TRUE(manager_->Put("a", "12345").ok());
  ASSERT_TRUE(manager_->Append("a", "678").ok());
  std::string value;
  ASSERT_TRUE(manager_->Get("a", &value).ok());
  ASSERT_TRUE(manager_->Del("a").ok());
  ASSERT_TRUE(manager_->WriteBarrier().ok());

  const ManagerCounters counters = manager_->counters();
  EXPECT_EQ(counters.puts, 1u);
  EXPECT_EQ(counters.appends, 1u);
  EXPECT_EQ(counters.gets, 1u);
  EXPECT_EQ(counters.dels, 1u);
  EXPECT_EQ(counters.write_barriers, 1u);
  EXPECT_EQ(counters.bytes_put, 5u + 3u);
  EXPECT_EQ(counters.bytes_got, 8u);
  EXPECT_EQ(counters.put_latency_us.count(), 1u);
}

// The counters are lock-free: concurrent callers on one Manager must still
// add up exactly.
TEST_F(ManagerTest, CountersExactUnderConcurrentCallers) {
  Open();
  constexpr int kThreads = 8;
  constexpr int kOps = 500;
  constexpr size_t kValueBytes = 100;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([this, t] {
      const std::string value(kValueBytes, static_cast<char>('a' + t));
      std::string got;
      for (int i = 0; i < kOps; ++i) {
        const std::string key = "t" + std::to_string(t) + "-" + std::to_string(i);
        EXPECT_TRUE(manager_->Put(key, value).ok());
        EXPECT_TRUE(manager_->Get(key, &got).ok());
        EXPECT_TRUE(manager_->Del(key).ok());
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  const ManagerCounters counters = manager_->counters();
  constexpr uint64_t kTotal = kThreads * kOps;
  EXPECT_EQ(counters.puts, kTotal);
  EXPECT_EQ(counters.gets, kTotal);
  EXPECT_EQ(counters.dels, kTotal);
  EXPECT_EQ(counters.bytes_put, kTotal * kValueBytes);
  EXPECT_EQ(counters.bytes_got, kTotal * kValueBytes);
  EXPECT_EQ(counters.put_latency_us.count(), kTotal);
  EXPECT_EQ(counters.appends, 0u);
  EXPECT_EQ(counters.write_barriers, 0u);
}

TEST_F(ManagerTest, WriteBarrierModes) {
  Open();
  ASSERT_TRUE(manager_->Put("k", std::string(4096, 'v')).ok());
  ASSERT_TRUE(manager_->WriteBarrier(BarrierMode::kAsync).ok());
  ASSERT_TRUE(manager_->WriteBarrier(BarrierMode::kSync).ok());
  EXPECT_GE(manager_->engine_stats().memtable_flushes, 1u);
}

TEST_F(ManagerTest, LargeValuesThroughKvApi) {
  Open();
  const std::string big(8 * MiB, 'B');
  ASSERT_TRUE(manager_->Put("big", big).ok());
  ASSERT_TRUE(manager_->WriteBarrier().ok());
  std::string value;
  ASSERT_TRUE(manager_->Get("big", &value).ok());
  EXPECT_EQ(value.size(), big.size());
  EXPECT_EQ(value, big);
}

TEST(ManagerCollectiveTest, PutsRouteToOwnerRank) {
  // 4 ranks put keys in collective mode; after the fence, every key is
  // readable from its owner's store (and the data survived routing).
  vfs::MemVfs fs;
  constexpr int kRanks = 4;
  constexpr int kKeys = 64;

  minimpi::RunWorld(kRanks, [&fs](minimpi::Comm& comm) {
    LsmioOptions options;
    options.vfs = &fs;
    options.comm = &comm;
    options.collective_io = true;

    std::unique_ptr<Manager> manager;
    ASSERT_TRUE(Manager::Open(options, "/coll/rank" + std::to_string(comm.rank()),
                              &manager)
                    .ok());

    // Every rank writes its slice of the key space.
    for (int i = comm.rank(); i < kKeys; i += comm.size()) {
      ASSERT_TRUE(manager
                      ->Put("key" + std::to_string(i),
                            "value" + std::to_string(i))
                      .ok());
    }
    ASSERT_TRUE(manager->CollectiveFence().ok());

    // After the fence, all keys owned by this rank are locally present.
    int found = 0;
    for (int i = 0; i < kKeys; ++i) {
      std::string value;
      if (manager->Get("key" + std::to_string(i), &value).ok()) {
        EXPECT_EQ(value, "value" + std::to_string(i));
        ++found;
      }
    }
    // Keys spread over ranks: each rank holds roughly kKeys/kRanks.
    EXPECT_GT(found, 0);
    const uint64_t total =
        comm.Allreduce(static_cast<uint64_t>(found), minimpi::ReduceOp::kSum);
    EXPECT_EQ(total, static_cast<uint64_t>(kKeys));
  });
}

TEST(ManagerCollectiveTest, FenceIsNoOpWithoutCollectiveMode) {
  vfs::MemVfs fs;
  LsmioOptions options;
  options.vfs = &fs;
  std::unique_ptr<Manager> manager;
  ASSERT_TRUE(Manager::Open(options, "/plain", &manager).ok());
  EXPECT_TRUE(manager->CollectiveFence().ok());
}

}  // namespace
}  // namespace lsmio
