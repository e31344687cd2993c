#include "text/similarity_kernels.h"

#include <cstdlib>
#include <cstring>
#include <vector>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define TERIDS_SIMD_AVX2 1
#include <immintrin.h>
#endif
#if defined(__aarch64__)
#define TERIDS_SIMD_NEON 1
#include <arm_neon.h>
#endif

namespace terids {

size_t IntersectLinear(const Token* a, size_t na, const Token* b, size_t nb) {
  size_t i = 0;
  size_t j = 0;
  size_t count = 0;
  while (i < na && j < nb) {
    if (a[i] < b[j]) {
      ++i;
    } else if (a[i] > b[j]) {
      ++j;
    } else {
      ++count;
      ++i;
      ++j;
    }
  }
  return count;
}

namespace {

/// Index of the first element >= t in the sorted span b[from, nb), found by
/// exponential probing from `from` followed by a binary search of the
/// bracketed range. O(log distance) instead of O(distance).
size_t GallopLowerBound(const Token* b, size_t nb, size_t from, Token t) {
  size_t step = 1;
  size_t lo = from;
  size_t hi = from;
  while (hi < nb && b[hi] < t) {
    lo = hi + 1;
    hi += step;
    step <<= 1;
  }
  const Token* first = b + lo;
  const Token* last = b + std::min(hi, nb);
  return static_cast<size_t>(std::lower_bound(first, last, t) - b);
}

}  // namespace

size_t IntersectGallop(const Token* a, size_t na, const Token* b, size_t nb) {
  // Gallop the smaller span into the larger one; the cursor into the large
  // span only moves forward, so the whole intersection is O(n log m).
  if (na > nb) {
    std::swap(a, b);
    std::swap(na, nb);
  }
  size_t count = 0;
  size_t pos = 0;
  for (size_t i = 0; i < na && pos < nb; ++i) {
    pos = GallopLowerBound(b, nb, pos, a[i]);
    if (pos < nb && b[pos] == a[i]) {
      ++count;
      ++pos;
    }
  }
  return count;
}

// --- Batched popcount sweep: scalar core + SIMD specializations -------------

namespace {

/// Portable scalar core, the bit-identity reference for every SIMD path.
void PopsScalar(const uint64_t* a, const uint64_t* b, size_t n, uint32_t* pa,
                uint32_t* pb, uint32_t* pc) {
  for (size_t i = 0; i < n; ++i) {
    pa[i] = static_cast<uint32_t>(PopCount64(a[i]));
    pb[i] = static_cast<uint32_t>(PopCount64(b[i]));
    pc[i] = static_cast<uint32_t>(PopCount64(a[i] & b[i]));
  }
}

#if defined(TERIDS_SIMD_AVX2)

/// Per-64-bit-lane popcounts of one 256-bit vector via the nibble-LUT
/// (Mula) algorithm — AVX2 has no vpopcntq. Compiled with a function-level
/// target attribute so the default build needs no -mavx2; only ever called
/// after __builtin_cpu_supports("avx2") passed.
__attribute__((target("avx2"))) inline void LanePopcounts(__m256i v,
                                                          uint64_t out[4]) {
  const __m256i lut =
      _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, 0, 1,
                       1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low_mask = _mm256_set1_epi8(0x0f);
  const __m256i lo = _mm256_and_si256(v, low_mask);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low_mask);
  const __m256i cnt = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                                      _mm256_shuffle_epi8(lut, hi));
  const __m256i sums = _mm256_sad_epu8(cnt, _mm256_setzero_si256());
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(out), sums);
}

/// The signature streams are contiguous uint64 arrays, so one 256-bit load
/// covers four entries; each 64-bit lane's popcount is one entry's count.
__attribute__((target("avx2"))) void PopsAvx2(const uint64_t* a,
                                              const uint64_t* b, size_t n,
                                              uint32_t* pa, uint32_t* pb,
                                              uint32_t* pc) {
  size_t e = 0;
  uint64_t la[4];
  uint64_t lb[4];
  uint64_t lc[4];
  for (; e + 4 <= n; e += 4) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + e));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + e));
    LanePopcounts(va, la);
    LanePopcounts(vb, lb);
    LanePopcounts(_mm256_and_si256(va, vb), lc);
    for (size_t k = 0; k < 4; ++k) {
      pa[e + k] = static_cast<uint32_t>(la[k]);
      pb[e + k] = static_cast<uint32_t>(lb[k]);
      pc[e + k] = static_cast<uint32_t>(lc[k]);
    }
  }
  // The rest of the program is SSE code: leaving the upper ymm halves dirty
  // makes every later SSE instruction pay a transition or merge penalty,
  // and gcc inserts no vzeroupper before the tail call below.
  _mm256_zeroupper();
  PopsScalar(a + e, b + e, n - e, pa + e, pb + e, pc + e);
}

#endif  // TERIDS_SIMD_AVX2

#if defined(TERIDS_SIMD_NEON)

/// Per-64-bit-lane popcounts of one 128-bit vector (vcnt over bytes, then
/// pairwise widening adds up to u64 lanes).
inline uint64x2_t LanePopcounts128(uint64x2_t v) {
  return vpaddlq_u32(vpaddlq_u16(vpaddlq_u8(vcntq_u8(vreinterpretq_u8_u64(v)))));
}

void PopsNeon(const uint64_t* a, const uint64_t* b, size_t n, uint32_t* pa,
              uint32_t* pb, uint32_t* pc) {
  size_t e = 0;
  for (; e + 2 <= n; e += 2) {
    const uint64x2_t va = vld1q_u64(a + e);
    const uint64x2_t vb = vld1q_u64(b + e);
    const uint64x2_t ca = LanePopcounts128(va);
    const uint64x2_t cb = LanePopcounts128(vb);
    const uint64x2_t cc = LanePopcounts128(vandq_u64(va, vb));
    pa[e] = static_cast<uint32_t>(vgetq_lane_u64(ca, 0));
    pb[e] = static_cast<uint32_t>(vgetq_lane_u64(cb, 0));
    pc[e] = static_cast<uint32_t>(vgetq_lane_u64(cc, 0));
    pa[e + 1] = static_cast<uint32_t>(vgetq_lane_u64(ca, 1));
    pb[e + 1] = static_cast<uint32_t>(vgetq_lane_u64(cb, 1));
    pc[e + 1] = static_cast<uint32_t>(vgetq_lane_u64(cc, 1));
  }
  PopsScalar(a + e, b + e, n - e, pa + e, pb + e, pc + e);
}

#endif  // TERIDS_SIMD_NEON

using PopsFn = void (*)(const uint64_t*, const uint64_t*, size_t, uint32_t*,
                        uint32_t*, uint32_t*);

struct SimdDispatch {
  PopsFn fn = &PopsScalar;
  const char* name = "scalar";
};

/// Feature detection + the TERIDS_SIMD environment override, resolved once
/// at first use. TERIDS_SIMD=off (also "scalar" or "0") forces the
/// portable core — the CI fallback leg and the bit-identity reference.
SimdDispatch ResolveDispatch() {
  const char* env = std::getenv("TERIDS_SIMD");
  if (env != nullptr &&
      (std::strcmp(env, "off") == 0 || std::strcmp(env, "scalar") == 0 ||
       std::strcmp(env, "0") == 0)) {
    return SimdDispatch{};
  }
#if defined(TERIDS_SIMD_AVX2)
  if (__builtin_cpu_supports("avx2")) {
    return SimdDispatch{&PopsAvx2, "avx2"};
  }
#endif
#if defined(TERIDS_SIMD_NEON)
  return SimdDispatch{&PopsNeon, "neon"};
#endif
  return SimdDispatch{};
}

const SimdDispatch& ActiveDispatch() {
  static const SimdDispatch dispatch = ResolveDispatch();
  return dispatch;
}

}  // namespace

const char* SimdDispatchName() { return ActiveDispatch().name; }

void SigPopCountBatch(const uint64_t* sig_a, const uint64_t* sig_b,
                      size_t entries, uint32_t* pa, uint32_t* pb, uint32_t* pc,
                      bool force_scalar) {
  if (entries == 0) {
    return;
  }
  if (force_scalar) {
    PopsScalar(sig_a, sig_b, entries, pa, pb, pc);
    return;
  }
  ActiveDispatch().fn(sig_a, sig_b, entries, pa, pb, pc);
}

size_t SigFilterCandidates(const SigFilterBatch& batch, double gamma,
                           uint64_t* survivors) {
  const size_t n = batch.num_pairs;
  const size_t sv_words = (n + 63) / 64;
  for (size_t w = 0; w < sv_words; ++w) {
    survivors[w] = 0;
  }
  if (n == 0) {
    return 0;
  }
  const int d = batch.d;
  const size_t entries = n * static_cast<size_t>(d);
  // Thread-local scratch keeps the steady-state filter allocation-free.
  thread_local std::vector<uint32_t> pops_a;
  thread_local std::vector<uint32_t> pops_b;
  thread_local std::vector<uint32_t> pops_c;
  pops_a.resize(entries);
  pops_b.resize(entries);
  pops_c.resize(entries);
  SigPopCountBatch(batch.sig_a, batch.sig_b, entries, pops_a.data(),
                   pops_b.data(), pops_c.data());
  size_t count = 0;
  for (size_t i = 0; i < n; ++i) {
    const size_t base = i * static_cast<size_t>(d);
    // Exactly InstanceSimilarityExceeds' pass 1: the per-attribute bounds
    // summed in attribute order, with identical double rounding.
    double total_ub = 0.0;
    for (int k = 0; k < d; ++k) {
      const size_t e = base + static_cast<size_t>(k);
      SigPopCounts p;
      p.common = static_cast<int>(pops_c[e]);
      p.a = static_cast<int>(pops_a[e]);
      p.b = static_cast<int>(pops_b[e]);
      total_ub += SigJaccardUpperBoundFromPops(batch.len_a[e], batch.len_b[e],
                                               p);
    }
    if (total_ub > gamma) {
      survivors[i >> 6] |= uint64_t{1} << (i & 63);
      ++count;
    }
  }
  return count;
}

}  // namespace terids
