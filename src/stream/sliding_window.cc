#include "stream/sliding_window.h"

#include <cstring>
#include <type_traits>
#include <utility>

#include "util/status.h"

namespace terids {

// Growing the slot vector must move tuples, not copy them.
static_assert(std::is_nothrow_move_constructible_v<WindowTuple>);

SlidingWindow::SlidingWindow(int capacity) : capacity_(capacity) {
  TERIDS_CHECK(capacity > 0);
}

std::optional<WindowTuple> SlidingWindow::Push(WindowTuple wt) {
  const PairRowLayout& layout = wt.tuple.row_layout();
  if (row_layout_ == nullptr) {
    row_layout_ = &layout;
  }
  TERIDS_CHECK(&layout == row_layout_);
  const size_t stride = layout.stride();
  std::optional<WindowTuple> evicted;
  size_t slot;
  if (slots_.size() < static_cast<size_t>(capacity_)) {
    slot = slots_.size();
    slots_.push_back(std::move(wt));
    rows_.resize(rows_.size() + stride);
  } else {
    slot = oldest_;
    oldest_ = (oldest_ + 1) % slots_.size();
    evicted.emplace(std::move(slots_[slot]));
    slots_[slot] = std::move(wt);
  }
  const WindowTuple& live = slots_[slot];
  double* row = rows_.data() + slot * stride;
  std::memcpy(row, live.tuple.row(), stride * sizeof(double));
  row[PairRowLayout::kTopical] = live.topic.any ? 1.0 : 0.0;
  return evicted;
}

uint64_t SlidingWindow::CandidateSlots(bool probe_topical,
                                       std::vector<uint32_t>* slots) const {
  uint64_t pruned = 0;
  for (size_t s = 0; s < slots_.size(); ++s) {
    if (probe_topical || slots_[s].topic.any) {
      slots->push_back(static_cast<uint32_t>(s));
    } else {
      ++pruned;
    }
  }
  return pruned;
}

}  // namespace terids
