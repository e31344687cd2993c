#ifndef TERIDS_TUPLE_PAIR_ROW_H_
#define TERIDS_TUPLE_PAIR_ROW_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

namespace terids {

/// Layout of the fixed-stride pair row: everything the batched pair cascade
/// (EvaluateCandidates, er/pruning.h) reads of one tuple, so a candidate
/// list is decided by walking rows instead of chasing tuple pointers
/// (DESIGN.md §6). The row is the only store of the Lemma 4.1-4.3
/// aggregates: ImputedTuple computes its own row once at construction, and
/// its SlidingWindow copies it into a slab indexed by the ring slot.
///
/// A row is `stride()` 8-byte words, doubles except where noted:
///   header:  [topical, instances, total_prob, sum E, sum lb, sum ub,
///             saturated, 0]
///   attr k:  at attr_offset(k): [|T^-|, |T^+|, lb_0, ub_0, ...,
///             lb_{n_k-1}, ub_{n_k-1}], n_k = pivot_count(k)
///   sigs:    at sig_offset(): d uint64 token signatures, bit for bit
///   lens:    at len_offset(): d uint32 token-set lengths, packed
/// `topical` is the tuple's Theorem 4.1 bit (TupleTopic::any), which
/// depends on the query: a tuple's own row leaves it 0 and the window sets
/// it in its copy. The sums are Lemma 4.3's main-pivot terms, each accumulated
/// in k = 0..d-1 order. Pivot intervals are finite, and an empty one is
/// stored as Interval::Empty()'s [+inf, -inf], so the larger of the two
/// signed gaps between intervals is +inf exactly when
/// Interval::MinAbsDiff is. `saturated` counts the attributes whose
/// signature has more than kSigSaturatedBits bits set. Signatures, lengths
/// and `saturated` are written for single-instance tuples only (zero
/// otherwise): the signature reject applies to those alone. The pivot
/// counts are the repository's, so the repository owns the one layout
/// every tuple over it shares (Repository::row_layout).
class PairRowLayout {
 public:
  static constexpr size_t kTopical = 0;
  static constexpr size_t kInstances = 1;
  static constexpr size_t kTotalProb = 2;
  static constexpr size_t kSumExpected = 3;
  static constexpr size_t kSumLo = 4;
  static constexpr size_t kSumHi = 5;
  static constexpr size_t kSaturated = 6;
  static constexpr size_t kHeader = 8;
  // Word offsets inside one attribute block.
  static constexpr size_t kSizeLo = 0;
  static constexpr size_t kSizeHi = 1;
  static constexpr size_t kPivots = 2;

  PairRowLayout() = default;
  /// `pivot_counts[k]` = number of pivots of attribute k (>= 1 each).
  explicit PairRowLayout(std::vector<int> pivot_counts);

  int dims() const { return static_cast<int>(pivot_counts_.size()); }
  int pivot_count(int attr) const { return pivot_counts_[attr]; }
  /// Words per row; 0 for the default (unset) layout.
  size_t stride() const { return stride_; }
  size_t attr_offset(int attr) const { return attr_offsets_[attr]; }
  size_t sig_offset() const { return attr_offsets_.back(); }
  size_t len_offset() const {
    return sig_offset() + pivot_counts_.size();
  }

  /// The signature of attribute `attr` in `row`.
  uint64_t signature(const double* row, int attr) const {
    uint64_t sig;
    std::memcpy(&sig, row + sig_offset() + attr, sizeof(sig));
    return sig;
  }
  /// The token-set length of attribute `attr` in `row`.
  uint32_t token_len(const double* row, int attr) const {
    uint32_t len;
    std::memcpy(&len,
                reinterpret_cast<const unsigned char*>(row + len_offset()) +
                    sizeof(uint32_t) * static_cast<size_t>(attr),
                sizeof(len));
    return len;
  }
  /// Stores attribute `attr`'s signature and token-set length in `row`.
  void SetToken(double* row, int attr, uint64_t sig, uint32_t len) const {
    std::memcpy(row + sig_offset() + attr, &sig, sizeof(sig));
    std::memcpy(reinterpret_cast<unsigned char*>(row + len_offset()) +
                    sizeof(uint32_t) * static_cast<size_t>(attr),
                &len, sizeof(len));
  }

 private:
  std::vector<int> pivot_counts_;
  /// attr_offsets_[k] for k < d, then the signature offset.
  std::vector<size_t> attr_offsets_;
  size_t stride_ = 0;
};

}  // namespace terids

#endif  // TERIDS_TUPLE_PAIR_ROW_H_
