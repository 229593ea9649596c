// CRC32C (Castagnoli) used to checksum WAL records, table blocks and the
// h5l/a2 on-disk structures; masked variant provided for values embedded in
// checksummed payloads. On x86-64 CPUs with SSE4.2, Extend() uses the
// hardware crc32 instruction (picked once, on first use); elsewhere it uses
// software slicing-by-8. Both compute the same polynomial, so every stored
// checksum is the same whichever path wrote it.
#pragma once

#include <cstddef>
#include <cstdint>

namespace lsmio::crc32c {

/// Extends a running CRC with [data, data+n).
uint32_t Extend(uint32_t init_crc, const char* data, size_t n) noexcept;

/// CRC of [data, data+n).
inline uint32_t Value(const char* data, size_t n) noexcept {
  return Extend(0, data, n);
}

namespace internal {

/// Slicing-by-8 software path; works on every CPU.
uint32_t ExtendPortable(uint32_t init_crc, const char* data, size_t n) noexcept;
/// True when ExtendHardware() may run on this CPU (x86-64 with SSE4.2).
bool HardwareAvailable() noexcept;
/// SSE4.2 crc32 path, three interleaved streams merged with precomputed
/// zero-byte shift tables; only valid when HardwareAvailable(). Exposed, like
/// ExtendPortable(), so tests can check the two paths against each other.
uint32_t ExtendHardware(uint32_t init_crc, const char* data, size_t n) noexcept;

}  // namespace internal

inline constexpr uint32_t kMaskDelta = 0xa282ead8u;

/// Returns a masked CRC, safe to store inside data that is itself CRC'd.
inline uint32_t Mask(uint32_t crc) noexcept {
  return ((crc >> 15) | (crc << 17)) + kMaskDelta;
}

/// Inverse of Mask().
inline uint32_t Unmask(uint32_t masked) noexcept {
  const uint32_t rot = masked - kMaskDelta;
  return ((rot >> 17) | (rot << 15));
}

}  // namespace lsmio::crc32c
