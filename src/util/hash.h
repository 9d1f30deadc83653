// Content hashing for campaign integrity checks.
//
// Two small, portable hashes with stable outputs across platforms and
// library versions (a campaign journal written by one build must be
// readable by another):
//   * CRC32 (IEEE 802.3, reflected polynomial 0xEDB88320) frames every
//     journal record so a resumed campaign can detect torn or corrupted
//     tail writes after a crash.
//   * FNV-1a 64-bit fingerprints the scenario and fault matrix so a
//     resume against a *different* campaign configuration is refused
//     instead of silently merging incompatible results.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace alfi {

/// CRC32 of `size` bytes, optionally continuing from a previous value
/// (pass the prior return value as `seed` to hash in chunks).
std::uint32_t crc32(const void* data, std::size_t size, std::uint32_t seed = 0);

inline std::uint32_t crc32(std::string_view bytes, std::uint32_t seed = 0) {
  return crc32(bytes.data(), bytes.size(), seed);
}

/// FNV-1a 64-bit, chainable through `seed` like crc32().
std::uint64_t fnv1a64(const void* data, std::size_t size,
                      std::uint64_t seed = 0xcbf2'9ce4'8422'2325ULL);

inline std::uint64_t fnv1a64(std::string_view bytes,
                             std::uint64_t seed = 0xcbf2'9ce4'8422'2325ULL) {
  return fnv1a64(bytes.data(), bytes.size(), seed);
}

}  // namespace alfi
