#include "common/crc32c.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>

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
