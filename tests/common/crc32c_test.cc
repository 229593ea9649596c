#include "common/crc32c.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"

namespace lsmio::crc32c {
namespace {

using ExtendFn = uint32_t (*)(uint32_t, const char*, size_t) noexcept;

// Known CRC32C test vectors (RFC 3720 / iSCSI).
void ExpectStandardVectors(ExtendFn extend) {
  char buf[32];

  std::memset(buf, 0, sizeof buf);
  EXPECT_EQ(extend(0, buf, sizeof buf), 0x8a9136aa);

  std::memset(buf, 0xff, sizeof buf);
  EXPECT_EQ(extend(0, buf, sizeof buf), 0x62a8ab43);

  for (int i = 0; i < 32; ++i) buf[i] = static_cast<char>(i);
  EXPECT_EQ(extend(0, buf, sizeof buf), 0x46dd794e);

  for (int i = 0; i < 32; ++i) buf[i] = static_cast<char>(31 - i);
  EXPECT_EQ(extend(0, buf, sizeof buf), 0x113fdb5c);
}

TEST(Crc32cTest, StandardVectors) { ExpectStandardVectors(&Extend); }

TEST(Crc32cTest, PortableStandardVectors) {
  ExpectStandardVectors(&internal::ExtendPortable);
}

TEST(Crc32cTest, HardwareStandardVectors) {
  if (!internal::HardwareAvailable()) {
    GTEST_SKIP() << "CPU lacks SSE4.2 crc32; only the portable path runs";
  }
  ExpectStandardVectors(&internal::ExtendHardware);
}

// Both paths must agree on every length around the 8-byte stride and the
// 4 KiB block size, at every alignment, and when the data is fed in two
// Extend calls that switch paths in the middle.
TEST(Crc32cTest, HardwareMatchesPortable) {
  if (!internal::HardwareAvailable()) {
    GTEST_SKIP() << "CPU lacks SSE4.2 crc32; only the portable path runs";
  }
  constexpr size_t kMaxLen = 4200;
  constexpr size_t kMaxOffset = 7;
  std::string data(kMaxLen + kMaxOffset, '\0');
  Rng rng(3720);
  rng.Fill(data.data(), data.size());

  for (size_t offset = 0; offset <= kMaxOffset; ++offset) {
    for (size_t len = 0; len <= kMaxLen; ++len) {
      const char* p = data.data() + offset;
      const uint32_t expected = internal::ExtendPortable(0, p, len);
      ASSERT_EQ(internal::ExtendHardware(0, p, len), expected)
          << "offset " << offset << " len " << len;

      const size_t split = len == 0 ? 0 : rng.Uniform(len + 1);
      ASSERT_EQ(internal::ExtendPortable(internal::ExtendHardware(0, p, split),
                                         p + split, len - split),
                expected)
          << "offset " << offset << " len " << len << " split " << split;
      ASSERT_EQ(internal::ExtendHardware(internal::ExtendPortable(0, p, split),
                                         p + split, len - split),
                expected)
          << "offset " << offset << " len " << len << " split " << split;
    }
  }
}

// The hardware path runs three interleaved streams over 3 x 8 KiB and
// then 3 x 256 B stretches before its one-stream 8-byte tail. Lengths on
// both sides of each stretch boundary, at every start offset, must match
// the portable path, also when an Extend split point falls inside a
// stream's stride.
TEST(Crc32cTest, HardwareMatchesPortableAcrossStrides) {
  if (!internal::HardwareAvailable()) {
    GTEST_SKIP() << "CPU lacks SSE4.2 crc32; only the portable path runs";
  }
  constexpr size_t kMaxOffset = 7;
  const std::vector<size_t> lengths = {767,   768,   769,   24575,
                                       24576, 24577, 49151, 49152,
                                       49153, (1u << 20) + 13};
  std::string data(lengths.back() + kMaxOffset, '\0');
  Rng rng(3721);
  rng.Fill(data.data(), data.size());

  for (size_t offset = 0; offset <= kMaxOffset; ++offset) {
    for (const size_t len : lengths) {
      const char* p = data.data() + offset;
      const uint32_t expected = internal::ExtendPortable(0, p, len);
      ASSERT_EQ(internal::ExtendHardware(0, p, len), expected)
          << "offset " << offset << " len " << len;

      // Splits inside the first long stream, inside the middle stream of
      // the first short stretch after a long one, one byte into the tail,
      // and at a random point.
      const std::vector<size_t> splits = {
          std::min<size_t>(len, 5000), std::min<size_t>(len, 24576 + 300),
          len - 1, rng.Uniform(len + 1)};
      for (const size_t split : splits) {
        const uint32_t head = internal::ExtendHardware(0, p, split);
        ASSERT_EQ(internal::ExtendHardware(head, p + split, len - split),
                  expected)
            << "offset " << offset << " len " << len << " split " << split;
      }
    }
  }
}

// The merge tables are built on first use of the hardware path; threads
// racing to that first use must all see complete tables.
TEST(Crc32cTest, HardwareConcurrentFirstUse) {
  if (!internal::HardwareAvailable()) {
    GTEST_SKIP() << "CPU lacks SSE4.2 crc32; only the portable path runs";
  }
  std::string data(3 * 8192 + 3 * 256 + 11, '\0');
  Rng rng(4);
  rng.Fill(data.data(), data.size());
  const uint32_t expected =
      internal::ExtendPortable(0, data.data(), data.size());
  std::vector<uint32_t> got(4);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < got.size(); ++t) {
    threads.emplace_back([&, t] {
      got[t] = internal::ExtendHardware(0, data.data(), data.size());
    });
  }
  for (auto& thread : threads) thread.join();
  for (const uint32_t crc : got) EXPECT_EQ(crc, expected);
}

TEST(Crc32cTest, ValuesDiffer) {
  EXPECT_NE(Value("a", 1), Value("foo", 3));
  EXPECT_NE(Value("a", 1), Value("b", 1));
}

TEST(Crc32cTest, ExtendEqualsConcatenation) {
  const std::string hello = "hello ";
  const std::string world = "world";
  const std::string both = hello + world;
  EXPECT_EQ(Value(both.data(), both.size()),
            Extend(Value(hello.data(), hello.size()), world.data(), world.size()));
}

TEST(Crc32cTest, MaskRoundTrip) {
  const uint32_t crc = Value("foo", 3);
  EXPECT_NE(crc, Mask(crc));
  EXPECT_NE(crc, Mask(Mask(crc)));
  EXPECT_EQ(crc, Unmask(Mask(crc)));
  EXPECT_EQ(crc, Unmask(Unmask(Mask(Mask(crc)))));
}

TEST(Crc32cTest, UnalignedInputsConsistent) {
  // CRC of a window must not depend on the buffer alignment.
  std::string data(1024, '\0');
  for (size_t i = 0; i < data.size(); ++i) data[i] = static_cast<char>(i * 7);
  const uint32_t reference = Value(data.data() + 1, 333);
  std::string copy = data.substr(1, 333);
  EXPECT_EQ(Value(copy.data(), copy.size()), reference);
}

TEST(Crc32cTest, EmptyInput) {
  EXPECT_EQ(Value("", 0), 0u);
  EXPECT_EQ(Extend(0x12345678u, "", 0), 0x12345678u);
}

}  // namespace
}  // namespace lsmio::crc32c
