#include "core/plugin.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "vfs/mem_vfs.h"

namespace lsmio {
namespace {

class PluginTest : public ::testing::Test {
 protected:
  void SetUp() override { RegisterLsmioPlugin(); }

  vfs::MemVfs fs_;
};

TEST_F(PluginTest, RegistrationIsIdempotent) {
  EXPECT_STREQ(RegisterLsmioPlugin(), "LsmioPlugin");
  EXPECT_TRUE(a2::IsEngineRegistered("LsmioPlugin"));
  RegisterLsmioPlugin();
  EXPECT_TRUE(a2::IsEngineRegistered("LsmioPlugin"));
}

TEST_F(PluginTest, WriteThenReadThroughA2Api) {
  a2::Adios adios(fs_);
  a2::IO& io = adios.DeclareIO("ckpt");
  io.SetEngine("LsmioPlugin");
  a2::Variable* var = io.DefineVariable("field", 1000, 0, 1000, 8);

  std::string data(8000, '\0');
  Rng rng(10);
  rng.Fill(data.data(), data.size());

  auto writer = io.Open("/plugin-out", a2::Mode::kWrite);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  ASSERT_TRUE(writer.value()->Put(*var, data.data(), a2::PutMode::kDeferred).ok());
  ASSERT_TRUE(writer.value()->PerformPuts().ok());
  ASSERT_TRUE(writer.value()->Close().ok());

  auto reader = io.Open("/plugin-out", a2::Mode::kRead);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  std::string out(8000, '\0');
  ASSERT_TRUE(reader.value()->Get(*var, out.data()).ok());
  EXPECT_EQ(out, data);
}

TEST_F(PluginTest, XmlConfigSwitchesToPluginWithoutCodeChange) {
  // The paper's headline plugin property: same application code, engine
  // selected by configuration.
  const std::string config = R"(
    <adios-config>
      <io name="checkpoint">
        <engine type="LsmioPlugin">
          <parameter key="BufferChunkSize" value="1M"/>
        </engine>
      </io>
    </adios-config>)";
  a2::Adios adios(fs_, config);
  a2::IO& io = adios.DeclareIO("checkpoint");
  EXPECT_EQ(io.engine_type(), "LsmioPlugin");

  a2::Variable* var = io.DefineVariable("v", 64, 0, 64, 4);
  auto writer = io.Open("/xml-out", a2::Mode::kWrite);
  ASSERT_TRUE(writer.ok());
  const std::string data(256, 'x');
  ASSERT_TRUE(writer.value()->Put(*var, data.data(), a2::PutMode::kSync).ok());
  ASSERT_TRUE(writer.value()->Close().ok());

  auto reader = io.Open("/xml-out", a2::Mode::kRead);
  ASSERT_TRUE(reader.ok());
  std::string out(256, '\0');
  ASSERT_TRUE(reader.value()->Get(*var, out.data()).ok());
  EXPECT_EQ(out, data);
}

TEST_F(PluginTest, MultiRankStoresAssembleOnRead) {
  constexpr int kRanks = 4;
  constexpr uint64_t kPerRank = 256;
  for (int r = 0; r < kRanks; ++r) {
    a2::Adios adios(fs_, "", r, kRanks);
    a2::IO& io = adios.DeclareIO("ckpt");
    io.SetEngine("LsmioPlugin");
    a2::Variable* var =
        io.DefineVariable("field", kRanks * kPerRank,
                          static_cast<uint64_t>(r) * kPerRank, kPerRank, 4);
    auto writer = io.Open("/mr", a2::Mode::kWrite).value();
    const std::string payload(kPerRank * 4, static_cast<char>('A' + r));
    ASSERT_TRUE(writer->Put(*var, payload.data(), a2::PutMode::kDeferred).ok());
    ASSERT_TRUE(writer->Close().ok());  // Close implies PerformPuts + barrier
  }

  a2::Adios adios(fs_);
  a2::IO& io = adios.DeclareIO("read");
  io.SetEngine("LsmioPlugin");
  a2::Variable* var =
      io.DefineVariable("field", kRanks * kPerRank, 0, kRanks * kPerRank, 4);
  auto reader = io.Open("/mr", a2::Mode::kRead).value();
  std::string out(kRanks * kPerRank * 4, '\0');
  ASSERT_TRUE(reader->Get(*var, out.data()).ok());
  for (int r = 0; r < kRanks; ++r) {
    EXPECT_EQ(out[static_cast<size_t>(r) * kPerRank * 4], 'A' + r) << r;
  }

  // Cross-rank partial selection.
  var->SetSelection(kPerRank - 8, 16);
  std::string partial(16 * 4, '\0');
  ASSERT_TRUE(reader->Get(*var, partial.data()).ok());
  EXPECT_EQ(partial.substr(0, 32), std::string(32, 'A'));
  EXPECT_EQ(partial.substr(32), std::string(32, 'B'));
}

TEST_F(PluginTest, MultipleVariablesAndSteps) {
  a2::Adios adios(fs_);
  a2::IO& io = adios.DeclareIO("ckpt");
  io.SetEngine("LsmioPlugin");
  a2::Variable* temperature = io.DefineVariable("T", 128, 0, 128, 8);
  a2::Variable* pressure = io.DefineVariable("P", 64, 0, 64, 8);

  auto writer = io.Open("/vars", a2::Mode::kWrite).value();
  const std::string t_data(1024, 'T');
  const std::string p_data(512, 'P');
  ASSERT_TRUE(writer->Put(*temperature, t_data.data(), a2::PutMode::kDeferred).ok());
  ASSERT_TRUE(writer->Put(*pressure, p_data.data(), a2::PutMode::kDeferred).ok());
  ASSERT_TRUE(writer->PerformPuts().ok());
  ASSERT_TRUE(writer->Close().ok());

  auto reader = io.Open("/vars", a2::Mode::kRead).value();
  std::string t_out(1024, '\0');
  std::string p_out(512, '\0');
  ASSERT_TRUE(reader->Get(*temperature, t_out.data()).ok());
  ASSERT_TRUE(reader->Get(*pressure, p_out.data()).ok());
  EXPECT_EQ(t_out, t_data);
  EXPECT_EQ(p_out, p_data);
}

// The block index of a variable is written once at Close(), not rewritten
// on every block, so the flushed tables carry no stale index versions:
// 64 blocks of 64 KiB used to leave ~41 KB of them (about 1% of the data).
TEST_F(PluginTest, BlockIndexIsWrittenOncePerVariable) {
  constexpr uint64_t kBlocks = 64;
  constexpr uint64_t kBlockElems = 64 * 1024 / 8;
  a2::Adios adios(fs_);
  a2::IO& io = adios.DeclareIO("ckpt");
  io.SetEngine("LsmioPlugin");
  a2::Variable* var =
      io.DefineVariable("field", kBlocks * kBlockElems, 0, kBlockElems, 8);

  std::string data(kBlocks * kBlockElems * 8, '\0');
  Rng rng(11);
  rng.Fill(data.data(), data.size());
  auto writer = io.Open("/step", a2::Mode::kWrite).value();
  for (uint64_t b = 0; b < kBlocks; ++b) {
    var->SetSelection(b * kBlockElems, kBlockElems);
    ASSERT_TRUE(writer->Put(*var, data.data() + b * kBlockElems * 8,
                            a2::PutMode::kDeferred).ok());
  }
  ASSERT_TRUE(writer->Close().ok());

  uint64_t table_bytes = 0;
  std::vector<std::string> stores;
  ASSERT_TRUE(fs_.ListDir("/step", &stores).ok());
  for (const std::string& store : stores) {
    std::vector<std::string> files;
    ASSERT_TRUE(fs_.ListDir("/step/" + store, &files).ok());
    for (const std::string& file : files) {
      if (file.size() < 4 || file.substr(file.size() - 4) != ".sst") continue;
      uint64_t size = 0;
      ASSERT_TRUE(fs_.GetFileSize("/step/" + store + "/" + file, &size).ok());
      table_bytes += size;
    }
  }
  EXPECT_GT(table_bytes, data.size());
  EXPECT_LE(static_cast<double>(table_bytes), 1.005 * data.size());

  auto reader = io.Open("/step", a2::Mode::kRead).value();
  var->SetSelection(0, kBlocks * kBlockElems);
  std::string out(data.size(), '\0');
  ASSERT_TRUE(reader->Get(*var, out.data()).ok());
  EXPECT_EQ(out, data);
}

// A store reopened for writing extends the variable's index rather than
// replacing it, so blocks from both sessions stay readable.
TEST_F(PluginTest, ReopenedWriterExtendsTheIndex) {
  a2::Adios adios(fs_);
  a2::IO& io = adios.DeclareIO("ckpt");
  io.SetEngine("LsmioPlugin");
  a2::Variable* var = io.DefineVariable("v", 64, 0, 32, 1);
  const std::string first(32, 'a');
  const std::string second(32, 'b');
  {
    auto writer = io.Open("/reopen", a2::Mode::kWrite).value();
    ASSERT_TRUE(writer->Put(*var, first.data(), a2::PutMode::kSync).ok());
    ASSERT_TRUE(writer->Close().ok());
  }
  {
    var->SetSelection(32, 32);
    auto writer = io.Open("/reopen", a2::Mode::kWrite).value();
    ASSERT_TRUE(writer->Put(*var, second.data(), a2::PutMode::kSync).ok());
    ASSERT_TRUE(writer->Close().ok());
  }
  auto reader = io.Open("/reopen", a2::Mode::kRead).value();
  var->SetSelection(0, 64);
  std::string out(64, '\0');
  ASSERT_TRUE(reader->Get(*var, out.data()).ok());
  EXPECT_EQ(out, first + second);
}

TEST_F(PluginTest, ReadMissingPathFails) {
  a2::Adios adios(fs_);
  a2::IO& io = adios.DeclareIO("ckpt");
  io.SetEngine("LsmioPlugin");
  EXPECT_FALSE(io.Open("/no-such-path", a2::Mode::kRead).ok());
}

TEST_F(PluginTest, UncoveredSelectionFails) {
  a2::Adios adios(fs_);
  a2::IO& io = adios.DeclareIO("ckpt");
  io.SetEngine("LsmioPlugin");
  a2::Variable* var = io.DefineVariable("v", 100, 0, 50, 1);
  auto writer = io.Open("/unc", a2::Mode::kWrite).value();
  const std::string data(50, 'x');
  ASSERT_TRUE(writer->Put(*var, data.data(), a2::PutMode::kSync).ok());
  ASSERT_TRUE(writer->Close().ok());

  auto reader = io.Open("/unc", a2::Mode::kRead).value();
  var->SetSelection(0, 100);
  std::string out(100, '\0');
  EXPECT_TRUE(reader->Get(*var, out.data()).IsNotFound());
}

// A malformed engine parameter fails the open with InvalidArgument naming
// the key and the value, for writers and readers alike, instead of
// silently running on the default.
TEST_F(PluginTest, MalformedParametersFailTheOpen) {
  const std::vector<std::pair<std::string, std::string>> bad = {
      {"NumShards", "abc"},           {"NumShards", "-2"},
      {"BackgroundThreads", "0"},     {"BackgroundThreads", "5000"},
      {"MaxWriteBufferNumber", "2x"}, {"Sync", "yes"},
      {"Mmap", "1"},                  {"BufferChunkSize", "lots"},
      {"BlockSize", "4Q"},
  };
  for (const auto& [key, value] : bad) {
    for (const a2::Mode mode : {a2::Mode::kWrite, a2::Mode::kRead}) {
      a2::Adios adios(fs_);
      a2::IO& io = adios.DeclareIO("ckpt");
      io.SetEngine("LsmioPlugin");
      io.SetParameter(key, value);
      const auto engine = io.Open("/bad-params", mode);
      ASSERT_FALSE(engine.ok()) << key << "=" << value;
      const std::string message = engine.status().ToString();
      EXPECT_TRUE(engine.status().IsInvalidArgument()) << message;
      EXPECT_NE(message.find(key), std::string::npos) << message;
      EXPECT_NE(message.find("'" + value + "'"), std::string::npos) << message;
    }
  }
}

TEST_F(PluginTest, WellFormedParametersAreAccepted) {
  a2::Adios adios(fs_);
  a2::IO& io = adios.DeclareIO("ckpt");
  io.SetEngine("LsmioPlugin");
  io.SetParameter("NumShards", "2");
  io.SetParameter("BackgroundThreads", "3");
  io.SetParameter("MaxWriteBufferNumber", "4");
  io.SetParameter("Sync", "false");
  io.SetParameter("Mmap", "true");
  io.SetParameter("BufferChunkSize", "1MiB");
  io.SetParameter("BlockSize", "8K");
  a2::Variable* var = io.DefineVariable("v", 64, 0, 64, 4);

  auto writer = io.Open("/good-params", a2::Mode::kWrite);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  const std::string data(256, 'g');
  ASSERT_TRUE(writer.value()->Put(*var, data.data(), a2::PutMode::kSync).ok());
  ASSERT_TRUE(writer.value()->Close().ok());

  auto reader = io.Open("/good-params", a2::Mode::kRead);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  std::string out(256, '\0');
  ASSERT_TRUE(reader.value()->Get(*var, out.data()).ok());
  EXPECT_EQ(out, data);
}

}  // namespace
}  // namespace lsmio
