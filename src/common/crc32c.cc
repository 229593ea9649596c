#include "common/crc32c.h"

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace lsmio::crc32c {
namespace {

// CRC32C polynomial, reflected.
constexpr uint32_t kPoly = 0x82f63b78u;

struct Tables {
  // table[k][b]: CRC contribution of byte b at position k (slicing-by-8).
  uint32_t t[8][256];
};

Tables BuildTables() {
  Tables tb{};
  for (uint32_t b = 0; b < 256; ++b) {
    uint32_t crc = b;
    for (int i = 0; i < 8; ++i) {
      crc = (crc >> 1) ^ ((crc & 1) ? kPoly : 0);
    }
    tb.t[0][b] = crc;
  }
  for (uint32_t b = 0; b < 256; ++b) {
    uint32_t crc = tb.t[0][b];
    for (int k = 1; k < 8; ++k) {
      crc = tb.t[0][crc & 0xff] ^ (crc >> 8);
      tb.t[k][b] = crc;
    }
  }
  return tb;
}

const Tables& GetTables() {
  static const Tables tables = BuildTables();
  return tables;
}

}  // namespace

namespace internal {

uint32_t ExtendPortable(uint32_t init_crc, const char* data, size_t n) noexcept {
  const Tables& tb = GetTables();
  const auto* p = reinterpret_cast<const unsigned char*>(data);
  uint32_t crc = init_crc ^ 0xffffffffu;

  // Process 8 bytes at a time (slicing-by-8).
  while (n >= 8) {
    uint32_t lo;
    uint32_t hi;
    __builtin_memcpy(&lo, p, 4);
    __builtin_memcpy(&hi, p + 4, 4);
    lo ^= crc;
    crc = tb.t[7][lo & 0xff] ^ tb.t[6][(lo >> 8) & 0xff] ^
          tb.t[5][(lo >> 16) & 0xff] ^ tb.t[4][(lo >> 24) & 0xff] ^
          tb.t[3][hi & 0xff] ^ tb.t[2][(hi >> 8) & 0xff] ^
          tb.t[1][(hi >> 16) & 0xff] ^ tb.t[0][(hi >> 24) & 0xff];
    p += 8;
    n -= 8;
  }
  while (n-- > 0) {
    crc = tb.t[0][(crc ^ *p++) & 0xff] ^ (crc >> 8);
  }
  return crc ^ 0xffffffffu;
}

#if defined(__x86_64__)

bool HardwareAvailable() noexcept { return __builtin_cpu_supports("sse4.2"); }

// Compiled for SSE4.2 on its own, so the rest of the build keeps the
// baseline ISA; only called once HardwareAvailable() said yes.
__attribute__((target("sse4.2"))) uint32_t ExtendHardware(
    uint32_t init_crc, const char* data, size_t n) noexcept {
  const auto* p = reinterpret_cast<const unsigned char*>(data);
  uint64_t crc = init_crc ^ 0xffffffffu;
  while (n >= 8) {
    uint64_t word;
    __builtin_memcpy(&word, p, 8);
    crc = _mm_crc32_u64(crc, word);
    p += 8;
    n -= 8;
  }
  auto crc32 = static_cast<uint32_t>(crc);
  while (n-- > 0) crc32 = _mm_crc32_u8(crc32, *p++);
  return crc32 ^ 0xffffffffu;
}

#else

bool HardwareAvailable() noexcept { return false; }

uint32_t ExtendHardware(uint32_t init_crc, const char* data, size_t n) noexcept {
  return ExtendPortable(init_crc, data, n);
}

#endif

}  // namespace internal

uint32_t Extend(uint32_t init_crc, const char* data, size_t n) noexcept {
  static const auto impl = internal::HardwareAvailable()
                               ? &internal::ExtendHardware
                               : &internal::ExtendPortable;
  return impl(init_crc, data, n);
}

}  // namespace lsmio::crc32c
