#include "tuple/pair_row.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "text/similarity_kernels.h"
#include "util/status.h"

namespace terids {

PairRowLayout::PairRowLayout(std::vector<int> pivot_counts)
    : pivot_counts_(std::move(pivot_counts)) {
  TERIDS_CHECK(!pivot_counts_.empty());
  size_t offset = kHeader;
  for (int np : pivot_counts_) {
    TERIDS_CHECK(np >= 1);
    attr_offsets_.push_back(offset);
    offset += kPivots + 2 * static_cast<size_t>(np);
  }
  attr_offsets_.push_back(offset);
  // d packed uint32 lengths round up to whole words.
  stride_ = len_offset() + (pivot_counts_.size() + 1) / 2;
}

PairRowLayout PairRowLayout::For(const ImputedTuple& tuple) {
  std::vector<int> pivot_counts(tuple.num_attributes());
  for (int k = 0; k < tuple.num_attributes(); ++k) {
    pivot_counts[k] = tuple.num_pivot_intervals(k);
  }
  return PairRowLayout(std::move(pivot_counts));
}

void PairRowLayout::Write(const ImputedTuple& tuple, bool topical,
                          double* row) const {
  const int d = dims();
  TERIDS_CHECK(tuple.num_attributes() == d);
  std::fill(row, row + stride_, 0.0);
  row[kTopical] = topical ? 1.0 : 0.0;
  row[kInstances] = static_cast<double>(tuple.num_instances());
  row[kTotalProb] = tuple.total_prob();
  row[kSumExpected] = tuple.main_pivot_expected_sum();
  row[kSumLo] = tuple.main_pivot_lo_sum();
  row[kSumHi] = tuple.main_pivot_hi_sum();
  for (int k = 0; k < d; ++k) {
    double* attr = row + attr_offset(k);
    const Interval size = tuple.token_size_interval(k);
    attr[kSizeLo] = size.lo;
    attr[kSizeHi] = size.hi;
    TERIDS_CHECK(tuple.num_pivot_intervals(k) == pivot_counts_[k]);
    for (int p = 0; p < pivot_counts_[k]; ++p) {
      Interval dist = tuple.pivot_dist_interval(k, p);
      if (dist.empty()) {
        dist = Interval::Empty();
      } else {
        TERIDS_CHECK(std::isfinite(dist.lo) && std::isfinite(dist.hi));
      }
      attr[kPivots + 2 * p] = dist.lo;
      attr[kPivots + 2 * p + 1] = dist.hi;
    }
  }
  if (tuple.num_instances() != 1) {
    return;
  }
  int saturated = 0;
  unsigned char* lens = reinterpret_cast<unsigned char*>(row + len_offset());
  for (int k = 0; k < d; ++k) {
    const TokenView view = tuple.instance_token_view(0, k);
    std::memcpy(row + sig_offset() + k, &view.sig, sizeof(view.sig));
    std::memcpy(lens + sizeof(uint32_t) * static_cast<size_t>(k), &view.len,
                sizeof(view.len));
    saturated += PopCount64(view.sig) > kSigSaturatedBits ? 1 : 0;
  }
  row[kSaturated] = static_cast<double>(saturated);
}

}  // namespace terids
