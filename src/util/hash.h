#ifndef TERIDS_UTIL_HASH_H_
#define TERIDS_UTIL_HASH_H_

#include <cstdint>

namespace terids {

/// 64-bit FNV-1a, the one non-cryptographic hash used across the library
/// (domain value interning, snapshot checksums). Callers fold values with
/// Fnv1aMix starting from kFnv1aOffsetBasis so every site stays
/// bit-compatible.
inline constexpr uint64_t kFnv1aOffsetBasis = 1469598103934665603ULL;
inline constexpr uint64_t kFnv1aPrime = 1099511628211ULL;

inline uint64_t Fnv1aMix(uint64_t h, uint64_t value) {
  h ^= value;
  h *= kFnv1aPrime;
  return h;
}

}  // namespace terids

#endif  // TERIDS_UTIL_HASH_H_
