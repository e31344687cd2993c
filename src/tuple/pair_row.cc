#include "tuple/pair_row.h"

#include <utility>

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

}  // namespace terids
