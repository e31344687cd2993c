#ifndef TERIDS_TEXT_SIMILARITY_KERNELS_H_
#define TERIDS_TEXT_SIMILARITY_KERNELS_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "text/token_dict.h"
#include "util/bits.h"

namespace terids {

/// Flat, allocation-free primitives behind every Jaccard evaluation: sorted
/// token spans (raw pointer + length, as stored by TokenArena), set
/// intersection (linear merge for balanced sizes, galloping for skewed
/// ones), and the 64-bit hashed-bitmap signature whose popcount yields an
/// O(1) upper bound on intersection size (DESIGN.md §11). All kernels are
/// exact or sound: the two intersection algorithms return identical
/// counts, and the signature bound is always >= the exact intersection
/// size — it can only skip merges whose verdict is already decided, never
/// change one.

/// Spans whose larger side is at least this many times the smaller one are
/// intersected by galloping instead of the linear merge: the merge is
/// O(n + m) while galloping is O(n log m), which wins once m >> n.
inline constexpr size_t kGallopSkewRatio = 8;

/// The one multiplicative-hash constant behind every signature bit, hoisted
/// so the kernel, the arena build, and the tests can never drift apart
/// (2^64 / phi — the Fibonacci hashing multiplier).
inline constexpr uint64_t kSigHashMul = UINT64_C(0x9E3779B97F4A7C15);

/// Bit index of one token in the 64-bit signature: the top 6 bits of the
/// multiplicative hash. Tokens are dense dictionary ids, so taking low bits
/// directly would alias consecutive ids into runs; the multiply spreads
/// them uniformly.
inline int SignatureBit(Token t) {
  return static_cast<int>((static_cast<uint64_t>(t) * kSigHashMul) >> 58);
}

/// The 64-bit hashed-bitmap signature of a sorted, deduplicated span.
inline uint64_t TokenSignature(const Token* tokens, size_t n) {
  uint64_t sig = 0;
  for (size_t i = 0; i < n; ++i) {
    sig |= uint64_t{1} << SignatureBit(tokens[i]);
  }
  return sig;
}

/// |A ∩ B| by linear merge over two sorted spans (the seed algorithm).
[[nodiscard]] size_t IntersectLinear(const Token* a, size_t na, const Token* b,
                                     size_t nb);

/// |A ∩ B| by galloping (exponential + binary search) of the smaller span
/// into the larger one. Identical result to IntersectLinear; preferable
/// when the sizes are heavily skewed.
[[nodiscard]] size_t IntersectGallop(const Token* a, size_t na, const Token* b,
                                     size_t nb);

/// |A ∩ B| with automatic algorithm choice (kGallopSkewRatio).
[[nodiscard]] inline size_t IntersectSize(const Token* a, size_t na,
                                          const Token* b, size_t nb) {
  const size_t small = std::min(na, nb);
  const size_t large = std::max(na, nb);
  if (small * kGallopSkewRatio < large) {
    return IntersectGallop(a, na, b, nb);
  }
  return IntersectLinear(a, na, b, nb);
}

/// Widest schema the per-instance signature pass runs on (the kernel keeps
/// one bound per attribute on the stack); wider schemas decide every
/// instance pair by plain exact merges.
inline constexpr int kSigPassMaxAttrs = 64;

/// A signature with more set bits than this (75% of the 64) is counted
/// saturated (SigFilterCounters): the regime where its bound loosens.
inline constexpr int kSigSaturatedBits = 48;

/// The three popcounts one signature pair reduces to; every bound below is
/// pure arithmetic over them.
struct SigPopCounts {
  int common = 0;  // popcount(sa & sb)
  int a = 0;       // popcount(sa)
  int b = 0;       // popcount(sb)
};

[[nodiscard]] inline SigPopCounts SigPopCount(uint64_t sa, uint64_t sb) {
  return SigPopCounts{PopCount64(sa & sb), PopCount64(sa), PopCount64(sb)};
}

/// Signature-based upper bound on |A ∩ B| from the popcounts and exact set
/// sizes. Any common token sets the same bit in both signatures, so
/// disjoint signatures prove an empty intersection outright. Otherwise,
/// let c = popcount(sa & sb) and d_A = popcount(sa): every bit set in sa
/// but not in sb is occupied by at least one token of A that cannot be in
/// B (B has no token hashing there), so at least d_A - c tokens of A are
/// outside the intersection and |A ∩ B| <= |A| - (d_A - c); symmetrically
/// for B. Both are also <= the trivial min(|A|, |B|) bound because
/// c <= d_A and c <= d_B.
[[nodiscard]] inline size_t SigIntersectionUpperBoundFromPops(
    size_t na, size_t nb, const SigPopCounts& p) {
  const size_t common = static_cast<size_t>(p.common);
  const size_t ub_a = na - static_cast<size_t>(p.a) + common;
  const size_t ub_b = nb - static_cast<size_t>(p.b) + common;
  return p.common == 0 ? 0 : std::min(ub_a, ub_b);
}

/// Upper bound on the Jaccard similarity of two sets from sizes +
/// popcounts alone. Jaccard = i / (|A| + |B| - i) is increasing in i, so
/// substituting the intersection upper bound is sound. Two empty sets have
/// similarity 1 by convention (mirrors JaccardSimilarity).
/// Selects rather than branches, as the signature pass runs it per
/// (pair, attribute): the quotient (NaN for two empty sets) is dropped
/// when unused.
[[nodiscard]] inline double SigJaccardUpperBoundFromPops(
    size_t na, size_t nb, const SigPopCounts& p) {
  // Counts fit in 32 bits, so the signed conversions are exact (and one
  // instruction each, unlike size_t's).
  const size_t ub = SigIntersectionUpperBoundFromPops(na, nb, p);
  const double ratio = static_cast<double>(static_cast<int64_t>(ub)) /
                       static_cast<double>(static_cast<int64_t>(na + nb - ub));
  return na == 0 && nb == 0 ? 1.0 : ratio;
}

/// The bounds straight from two signatures.
[[nodiscard]] inline size_t SigIntersectionUpperBound(size_t na, uint64_t sa,
                                                      size_t nb, uint64_t sb) {
  return SigIntersectionUpperBoundFromPops(na, nb, SigPopCount(sa, sb));
}
[[nodiscard]] inline double SigJaccardUpperBound(size_t na, uint64_t sa,
                                                 size_t nb, uint64_t sb) {
  return SigJaccardUpperBoundFromPops(na, nb, SigPopCount(sa, sb));
}

/// Exact Jaccard similarity of two sorted spans; bit-identical to
/// JaccardSimilarity over the equivalent TokenSets (same integer
/// intersection, same division).
[[nodiscard]] inline double JaccardFromSpans(const Token* a, size_t na,
                                             const Token* b, size_t nb) {
  if (na == 0 && nb == 0) {
    return 1.0;
  }
  const size_t inter = IntersectSize(a, na, b, nb);
  const size_t uni = na + nb - inter;
  return static_cast<double>(inter) / static_cast<double>(uni);
}

}  // namespace terids

#endif  // TERIDS_TEXT_SIMILARITY_KERNELS_H_
