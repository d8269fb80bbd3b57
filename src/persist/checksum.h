/// \file checksum.h
/// \brief CRC32C (Castagnoli) over byte ranges — the integrity check of
/// every persisted artifact (WAL records, snapshot files, the manifest).
///
/// The polynomial is the iSCSI/ext4 Castagnoli polynomial (reflected
/// 0x82F63B78), and the check value for "123456789" is 0xE3069283 (the
/// standard CRC-32C known answer, pinned by persist_test).
///
/// Throughput matters: recovery checksums every snapshot body (32 MiB per
/// 4M-row int64 column), and with the slice-by-one table CRC was about
/// 0.4 s of a 0.65 s snapshot read. `Crc32c` therefore runs the SSE4.2
/// `crc32` instruction (8 bytes per step) when the CPU has it, picked at
/// runtime with `__builtin_cpu_supports` like the crack kernels' dispatch.
/// The table-driven `Crc32cPortable` is the fallback on every other host
/// and the reference the tests compare against; both return the same
/// value for every input.

#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define HOLIX_CRC32C_X86 1
#include <nmmintrin.h>
#else
#define HOLIX_CRC32C_X86 0
#endif

namespace holix::persist {

namespace detail {

inline const std::array<uint32_t, 256>& Crc32cTable() {
  static const std::array<uint32_t, 256> table = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int k = 0; k < 8; ++k) {
        crc = (crc & 1) ? (crc >> 1) ^ 0x82F63B78u : crc >> 1;
      }
      t[i] = crc;
    }
    return t;
  }();
  return table;
}

#if HOLIX_CRC32C_X86
/// Advances the (pre-inverted) CRC register over \p n bytes with the
/// SSE4.2 `crc32` instruction, which implements exactly the reflected
/// Castagnoli step the table encodes.
__attribute__((target("sse4.2"))) inline uint32_t Crc32cHardware(
    uint32_t crc, const uint8_t* p, size_t n) {
  uint64_t crc64 = crc;
  for (; n >= 8; p += 8, n -= 8) {
    uint64_t word;
    std::memcpy(&word, p, sizeof(word));  // unaligned-safe load
    crc64 = _mm_crc32_u64(crc64, word);
  }
  crc = static_cast<uint32_t>(crc64);
  for (; n > 0; ++p, --n) crc = _mm_crc32_u8(crc, *p);
  return crc;
}

inline bool HasHardwareCrc32c() {
  static const bool has = __builtin_cpu_supports("sse4.2");
  return has;
}
#endif

}  // namespace detail

/// Table-driven (slice-by-one) CRC32C; same contract as Crc32c.
inline uint32_t Crc32cPortable(const void* data, size_t n, uint32_t seed = 0) {
  const auto& table = detail::Crc32cTable();
  const auto* p = static_cast<const uint8_t*>(data);
  uint32_t crc = ~seed;
  for (size_t i = 0; i < n; ++i) {
    crc = table[(crc ^ p[i]) & 0xFFu] ^ (crc >> 8);
  }
  return ~crc;
}

/// CRC32C of \p n bytes at \p data, continuing from \p seed (pass the
/// previous return value to checksum discontiguous ranges; the default
/// starts a fresh CRC).
inline uint32_t Crc32c(const void* data, size_t n, uint32_t seed = 0) {
#if HOLIX_CRC32C_X86
  if (detail::HasHardwareCrc32c()) {
    return ~detail::Crc32cHardware(~seed, static_cast<const uint8_t*>(data),
                                   n);
  }
#endif
  return Crc32cPortable(data, n, seed);
}

}  // namespace holix::persist
