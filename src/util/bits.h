#ifndef TERIDS_UTIL_BITS_H_
#define TERIDS_UTIL_BITS_H_

#include <cstdint>

namespace terids {

// Population counts for C++17 (std::popcount is C++20). With the `popcnt`
// instruction enabled (`__POPCNT__`, e.g. -mpopcnt or -march=native) the
// builtins compile to it. Otherwise the builtins become libgcc calls
// (`__popcountdi2`), so the counts use an inline branch-free SWAR sum
// instead: a default build keeps the hot path free of calls.

/// 64-bit population count; the token-signature bound of the similarity
/// kernels (text/similarity_kernels.h) is one popcount per side plus one on
/// the AND.
inline int PopCount64(uint64_t x) {
#if defined(__POPCNT__) && (defined(__GNUC__) || defined(__clang__))
  return __builtin_popcountll(x);
#else
  x = x - ((x >> 1) & UINT64_C(0x5555555555555555));
  x = (x & UINT64_C(0x3333333333333333)) +
      ((x >> 2) & UINT64_C(0x3333333333333333));
  x = (x + (x >> 4)) & UINT64_C(0x0F0F0F0F0F0F0F0F);
  return static_cast<int>((x * UINT64_C(0x0101010101010101)) >> 56);
#endif
}

/// Read by terbench (its `simd` stamp): the branch PopCount64 compiles to
/// in this build, "popcnt" or "swar".
inline const char* SimdDispatchName() {
#if defined(__POPCNT__) && (defined(__GNUC__) || defined(__clang__))
  return "popcnt";
#else
  return "swar";
#endif
}

/// 32-bit population count.
inline int PopCount(uint32_t x) { return PopCount64(x); }

}  // namespace terids

#endif  // TERIDS_UTIL_BITS_H_
