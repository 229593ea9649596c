#include "common/crc32c.h"

#include <array>

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

}  // namespace internal

namespace {

// ExtendHardware splits each stretch of 3 * kStride bytes into three
// streams with independent crc32 dependency chains, so the instruction's
// 3-cycle latency overlaps; the stream registers are then merged with
// ShiftTables. Long inputs use the long stride, the remainder the short one.
constexpr size_t kLongStride = 8 * 1024;
constexpr size_t kShortStride = 256;

// Advancing a CRC register over n zero bytes is linear over GF(2), so it is
// a 32x32 bit matrix; column i is the image of the register value 1 << i.
using Matrix = std::array<uint32_t, 32>;

uint32_t Apply(const Matrix& m, uint32_t v) {
  uint32_t out = 0;
  for (int i = 0; v != 0; ++i, v >>= 1) {
    if (v & 1) out ^= m[i];
  }
  return out;
}

Matrix Multiply(const Matrix& a, const Matrix& b) {  // a after b
  Matrix out{};
  for (int i = 0; i < 32; ++i) out[i] = Apply(a, b[i]);
  return out;
}

// The register after n zero bytes, as a matrix: the zero-byte operator
// (the table step with a 0 data byte) raised to the n-th power.
Matrix ZeroBytesOperator(size_t n) {
  const Tables& tb = GetTables();
  Matrix zero_byte{};
  for (int i = 0; i < 32; ++i) {
    const uint32_t v = 1u << i;
    zero_byte[i] = tb.t[0][v & 0xff] ^ (v >> 8);
  }
  Matrix result{};
  for (int i = 0; i < 32; ++i) result[i] = 1u << i;
  for (; n != 0; n >>= 1) {
    if (n & 1) result = Multiply(zero_byte, result);
    zero_byte = Multiply(zero_byte, zero_byte);
  }
  return result;
}

// Shift(crc) == the register after feeding `crc` a fixed number of zero
// bytes, one table lookup per register byte.
struct ShiftTable {
  uint32_t t[4][256];

  explicit ShiftTable(size_t zero_bytes) {
    const Matrix m = ZeroBytesOperator(zero_bytes);
    for (int k = 0; k < 4; ++k) {
      for (uint32_t b = 0; b < 256; ++b) t[k][b] = Apply(m, b << (8 * k));
    }
  }

  [[nodiscard]] uint32_t Shift(uint32_t crc) const {
    return t[0][crc & 0xff] ^ t[1][(crc >> 8) & 0xff] ^
           t[2][(crc >> 16) & 0xff] ^ t[3][crc >> 24];
  }
};

struct ShiftTables {
  ShiftTable long1{kLongStride}, long2{2 * kLongStride};
  ShiftTable short1{kShortStride}, short2{2 * kShortStride};
};

const ShiftTables& GetShiftTables() {
  static const ShiftTables tables;
  return tables;
}

// Runs the three streams over as many 3 * stride stretches as [*p, *p+*n)
// holds, folding them into `crc` after each stretch.
__attribute__((target("sse4.2"))) inline uint64_t ThreeStreams(
    uint64_t crc, const unsigned char** p, size_t* n, size_t stride,
    const ShiftTable& shift1, const ShiftTable& shift2) {
  while (*n >= 3 * stride) {
    const unsigned char* a = *p;
    const unsigned char* b = a + stride;
    const unsigned char* c = b + stride;
    uint64_t crc_b = 0;
    uint64_t crc_c = 0;
    for (size_t i = 0; i < stride; i += 8) {
      uint64_t wa;
      uint64_t wb;
      uint64_t wc;
      __builtin_memcpy(&wa, a + i, 8);
      __builtin_memcpy(&wb, b + i, 8);
      __builtin_memcpy(&wc, c + i, 8);
      crc = _mm_crc32_u64(crc, wa);
      crc_b = _mm_crc32_u64(crc_b, wb);
      crc_c = _mm_crc32_u64(crc_c, wc);
    }
    // Stream a's register has two strides of data still to pass over it,
    // stream b's one; their zero-initialised registers add linearly.
    crc = shift2.Shift(static_cast<uint32_t>(crc)) ^
          shift1.Shift(static_cast<uint32_t>(crc_b)) ^ crc_c;
    *p += 3 * stride;
    *n -= 3 * stride;
  }
  return crc;
}

}  // namespace

namespace internal {

// Compiled for SSE4.2 on its own, so the rest of the build keeps the
// baseline ISA; only called once HardwareAvailable() said yes.
__attribute__((target("sse4.2"))) uint32_t ExtendHardware(
    uint32_t init_crc, const char* data, size_t n) noexcept {
  const auto* p = reinterpret_cast<const unsigned char*>(data);
  uint64_t crc = init_crc ^ 0xffffffffu;
  if (n >= 3 * kShortStride) {
    const ShiftTables& st = GetShiftTables();
    crc = ThreeStreams(crc, &p, &n, kLongStride, st.long1, st.long2);
    crc = ThreeStreams(crc, &p, &n, kShortStride, st.short1, st.short2);
  }
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
