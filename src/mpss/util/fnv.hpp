#pragma once
// FNV-1a accumulation helpers shared by the value-identity fingerprints
// (PowerSpec::fingerprint, solve_fingerprint). Not a cryptographic hash:
// fingerprints gate a result cache, where a collision is astronomically
// unlikely 64-bit bad luck, not an attack surface.

#include <bit>
#include <cstdint>

namespace mpss {

inline constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ull;

/// Folds the eight bytes of `value` (little-endian order) into `state`.
[[nodiscard]] inline std::uint64_t fnv_mix(std::uint64_t state,
                                           std::uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    state ^= (value >> (8 * byte)) & 0xffu;
    state *= kFnvPrime;
  }
  return state;
}

/// Doubles are folded by bit pattern: fingerprint equality must imply value
/// equality, and bit-identical parameters are the only cheap guarantee.
[[nodiscard]] inline std::uint64_t fnv_mix(std::uint64_t state, double value) {
  return fnv_mix(state, std::bit_cast<std::uint64_t>(value));
}

}  // namespace mpss
