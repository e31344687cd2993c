#ifndef TERIDS_TUPLE_PAIR_ROW_H_
#define TERIDS_TUPLE_PAIR_ROW_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "tuple/imputed_tuple.h"

namespace terids {

/// Layout of the fixed-stride pair row: everything the batched pair cascade
/// (EvaluateCandidates, er/pruning.h) reads of one tuple, copied once from
/// the tuple so a candidate list is decided by walking rows instead of
/// chasing tuple pointers (DESIGN.md §6). The ER-grid keeps one row per
/// live tuple in a slab indexed by its entry slot.
///
/// A row is `stride()` 8-byte words, doubles except where noted:
///   header:  [topical, instances, total_prob, sum E, sum lb, sum ub,
///             saturated, 0]
///   attr k:  at attr_offset(k): [|T^-|, |T^+|, lb_0, ub_0, ...,
///             lb_{n_k-1}, ub_{n_k-1}], n_k = pivot_count(k)
///   sigs:    at sig_offset(): d uint64 token signatures, bit for bit
///   lens:    at len_offset(): d uint32 token-set lengths, packed
/// `topical` is the tuple's Theorem 4.1 bit (TupleTopic::any); the sums
/// are Lemma 4.3's main-pivot terms. Pivot intervals are finite, and an
/// empty one is stored as Interval::Empty()'s [+inf, -inf], so the larger
/// of the two signed gaps between intervals is +inf exactly when
/// Interval::MinAbsDiff is. `saturated` counts the attributes whose
/// signature has more than kSigSaturatedBits bits set. Signatures, lengths
/// and `saturated` are written for single-instance tuples only (zero
/// otherwise): the signature reject applies to those alone. The pivot
/// counts are the repository's, so they belong to the layout, and every
/// tuple over one repository has the same layout. Every value is a copy of
/// the tuple's bound block or token arena, so cascade arithmetic over rows
/// equals the per-pair arithmetic over tuples bit for bit.
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
  /// The layout for `tuple`'s schema and its repository's pivot counts.
  static PairRowLayout For(const ImputedTuple& tuple);

  int dims() const { return static_cast<int>(pivot_counts_.size()); }
  int pivot_count(int attr) const { return pivot_counts_[attr]; }
  /// Words per row; 0 for the default (unset) layout.
  size_t stride() const { return stride_; }
  size_t attr_offset(int attr) const { return attr_offsets_[attr]; }
  size_t sig_offset() const { return attr_offsets_.back(); }
  size_t len_offset() const {
    return sig_offset() + pivot_counts_.size();
  }

  /// Writes `tuple`'s row into `row` (stride() words). `tuple` must have
  /// this layout.
  void Write(const ImputedTuple& tuple, bool topical, double* row) const;

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

 private:
  std::vector<int> pivot_counts_;
  /// attr_offsets_[k] for k < d, then the signature offset.
  std::vector<size_t> attr_offsets_;
  size_t stride_ = 0;
};

}  // namespace terids

#endif  // TERIDS_TUPLE_PAIR_ROW_H_
