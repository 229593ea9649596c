// Failure injection: the engine must surface I/O errors as Status (never
// crash or corrupt silently), and a store that survived a fault must still
// serve everything durably written before it.
#include <gtest/gtest.h>

#include "common/units.h"
#include "lsm/db.h"
#include "vfs/fault_vfs.h"
#include "vfs/mem_vfs.h"

namespace lsmio::lsm {
namespace {

class DbFaultTest : public ::testing::Test {
 protected:
  DbFaultTest() : fault_fs_(mem_) {}

  Options MakeOptions() {
    Options options;
    options.vfs = &fault_fs_;
    options.write_buffer_size = 64 * KiB;
    return options;
  }

  vfs::MemVfs mem_;
  vfs::FaultVfs fault_fs_;
};

TEST_F(DbFaultTest, WalWriteFailureSurfacesToCaller) {
  Options options = MakeOptions();
  options.disable_wal = false;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "/db", &db).ok());

  fault_fs_.Arm(vfs::FaultPoint{});  // next write-class op fails
  Status s = db->Put({}, "k", "v");
  EXPECT_TRUE(s.IsIoError()) << s.ToString();
  EXPECT_GE(fault_fs_.faults_injected(), 1);
  fault_fs_.Disarm();
}

TEST_F(DbFaultTest, FlushFailureReportedByBarrier) {
  Options options = MakeOptions();
  options.disable_wal = true;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "/db", &db).ok());

  ASSERT_TRUE(db->Put({}, "k", std::string(8 * KiB, 'v')).ok());
  fault_fs_.Arm(vfs::FaultPoint{});
  // The flush happens in the background; the synchronous barrier must
  // observe and report the failure.
  Status s = db->FlushMemTable(true);
  EXPECT_FALSE(s.ok());
  fault_fs_.Disarm();
}

TEST_F(DbFaultTest, DataBeforeFaultSurvivesReopen) {
  Options options = MakeOptions();
  options.disable_wal = true;
  {
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(options, "/db", &db).ok());
    ASSERT_TRUE(db->Put({}, "durable", "yes").ok());
    ASSERT_TRUE(db->FlushMemTable(true).ok());  // durable before the fault

    ASSERT_TRUE(db->Put({}, "doomed", "maybe").ok());
    fault_fs_.Arm(vfs::FaultPoint{});
    db->FlushMemTable(true).IgnoreError();  // fails mid-flush, by design
    fault_fs_.Disarm();
  }

  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "/db", &db).ok());
  std::string value;
  ASSERT_TRUE(db->Get({}, "durable", &value).ok());
  EXPECT_EQ(value, "yes");
}

TEST_F(DbFaultTest, LateFaultsDoNotAffectReads) {
  Options options = MakeOptions();
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "/db", &db).ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(db->Put({}, "k" + std::to_string(i), "v").ok());
  }
  ASSERT_TRUE(db->FlushMemTable(true).ok());

  fault_fs_.Arm(vfs::FaultPoint{});  // all further writes fail...
  std::string value;
  for (int i = 0; i < 20; ++i) {
    // ...but reads never touch the write path.
    EXPECT_TRUE(db->Get({}, "k" + std::to_string(i), &value).ok()) << i;
  }
  fault_fs_.Disarm();
}

TEST_F(DbFaultTest, OpenFailsCleanlyWhenManifestWriteFails) {
  fault_fs_.Arm(vfs::FaultPoint{});
  Options options = MakeOptions();
  std::unique_ptr<DB> db;
  const Status s = DB::Open(options, "/fresh", &db);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(db, nullptr);
  fault_fs_.Disarm();
}

}  // namespace
}  // namespace lsmio::lsm
