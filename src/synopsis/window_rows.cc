#include "synopsis/window_rows.h"

#include <algorithm>
#include <cstring>

#include "util/status.h"

namespace terids {

void WindowRows::Insert(const WindowTuple* wt) {
  TERIDS_CHECK(wt != nullptr);
  const int64_t rid = wt->rid();
  // (rid, 0) sorts first among the pairs of `rid`.
  const auto pos = std::lower_bound(registry_.begin(), registry_.end(),
                                    std::make_pair(rid, uint32_t{0}));
  TERIDS_CHECK(pos == registry_.end() || pos->first != rid);
  const int stream = wt->stream_id();
  TERIDS_CHECK(stream >= 0);

  const ImputedTuple& tuple = *wt->tuple;
  if (row_layout_ == nullptr) {
    row_layout_ = &tuple.row_layout();
  }
  TERIDS_CHECK(&tuple.row_layout() == row_layout_);
  const size_t stride = row_layout_->stride();
  uint32_t index;
  if (!free_entries_.empty()) {
    index = free_entries_.back();
    free_entries_.pop_back();
  } else {
    index = static_cast<uint32_t>(entries_.size());
    entries_.emplace_back();
    rows_.resize(rows_.size() + stride);
  }
  double* row = rows_.data() + index * stride;
  std::memcpy(row, tuple.row(), stride * sizeof(double));
  row[PairRowLayout::kTopical] = wt->topic.any ? 1.0 : 0.0;
  registry_.insert(pos, {rid, index});
  entries_[index] = {wt, stream, wt->topic.any};
}

bool WindowRows::Remove(const WindowTuple* wt) {
  TERIDS_CHECK(wt != nullptr);
  const auto pos = std::lower_bound(registry_.begin(), registry_.end(),
                                    std::make_pair(wt->rid(), uint32_t{0}));
  if (pos == registry_.end() || pos->first != wt->rid()) {
    return false;
  }
  TERIDS_CHECK(entries_[pos->second].wt == wt);
  free_entries_.push_back(pos->second);
  registry_.erase(pos);
  return true;
}

const double* WindowRows::row_of(int64_t rid) const {
  const auto pos = std::lower_bound(registry_.begin(), registry_.end(),
                                    std::make_pair(rid, uint32_t{0}));
  if (pos == registry_.end() || pos->first != rid) {
    return nullptr;
  }
  return rows_.data() + pos->second * row_layout_->stride();
}

WindowRows::CandidateResult WindowRows::Candidates(
    const WindowTuple& probe, bool topic_constrained) const {
  CandidateResult result;
  // Theorem 4.1 at tuple level: if the probe can never be topical, a pair
  // survives only with a member that can be.
  const bool probe_topic_pass = !topic_constrained || probe.topic.any;
  for (const auto& [rid, index] : registry_) {
    const Entry& entry = entries_[index];
    if (entry.stream == probe.stream_id() || rid == probe.rid()) {
      continue;
    }
    if (!probe_topic_pass && !entry.topical) {
      ++result.topic_pruned;
      continue;
    }
    result.candidates.push_back(entry.wt);
    result.slots.push_back(index);
  }
  return result;
}

}  // namespace terids
