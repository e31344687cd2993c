#include "synopsis/er_grid.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "util/hash.h"
#include "util/status.h"

namespace terids {

ErGrid::ErGrid(int dims, double cell_width)
    : dims_(dims), cell_width_(cell_width), coords_(dims) {
  TERIDS_CHECK(dims >= 1);
  TERIDS_CHECK(cell_width > 0.0);
}

GridCellKey ErGrid::KeyOf(const std::vector<int32_t>& coords) const {
  // Coordinates are small non-negative cell indices (coord/width in [0,
  // ~1/width]).
  uint64_t h = kFnv1aOffsetBasis;
  for (int32_t c : coords) {
    h = Fnv1aMix(h, static_cast<uint64_t>(static_cast<uint32_t>(c)));
  }
  return h;
}

void ErGrid::CellsOf(const ImputedTuple& tuple) {
  keys_.clear();
  for (int m = 0; m < tuple.num_instances(); ++m) {
    for (int k = 0; k < dims_; ++k) {
      coords_[k] = static_cast<int32_t>(
          std::floor(tuple.instance_coord(m, k) / cell_width_));
    }
    keys_.push_back(KeyOf(coords_));
  }
  std::sort(keys_.begin(), keys_.end());
  keys_.erase(std::unique(keys_.begin(), keys_.end()), keys_.end());
}

uint32_t ErGrid::SlotFor(GridCellKey key) {
  auto [it, inserted] =
      slot_of_.emplace(key, static_cast<uint32_t>(cells_.size()));
  if (!inserted) {
    return it->second;
  }
  if (!free_cells_.empty()) {
    it->second = free_cells_.back();
    free_cells_.pop_back();
  } else {
    cells_.emplace_back();
    cells_.back().bounds.resize(dims_);
  }
  cells_[it->second].key = key;
  return it->second;
}

void ErGrid::RefreshBounds(Cell* cell) const {
  for (int k = 0; k < dims_; ++k) {
    Interval& b = cell->bounds[k];
    b = Interval::Empty();
    for (const Lane& lane : cell->lanes) {
      if (!lane.lo_min[k].empty()) {
        b.lo = std::min(b.lo, lane.lo_min[k].front().value);
      }
      if (!lane.hi_max[k].empty()) {
        b.hi = std::max(b.hi, lane.hi_max[k].front().value);
      }
    }
  }
}

void ErGrid::Insert(const WindowTuple* wt) {
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
  Entry& entry = entries_[index];
  entry.wt = wt;
  entry.stream = stream;
  entry.topical = wt->topic.any;
  entry.seq = next_seq_++;
  entry.slots.clear();

  CellsOf(tuple);
  for (GridCellKey key : keys_) {
    const uint32_t slot = SlotFor(key);
    entry.slots.push_back(slot);
    Cell& cell = cells_[slot];
    if (cell.lanes.size() <= static_cast<size_t>(stream)) {
      cell.lanes.resize(stream + 1);
      for (Lane& lane : cell.lanes) {
        lane.lo_min.resize(dims_);
        lane.hi_max.resize(dims_);
      }
    }
    Lane& lane = cell.lanes[stream];
    lane.seqs.push_back(entry.seq);
    for (int k = 0; k < dims_; ++k) {
      const Interval iv = tuple.pivot_dist_interval(k, 0);
      if (iv.empty()) {
        continue;
      }
      // A newer member at least as extreme outlives the older ones, which
      // can never be the extreme again.
      Ring<Extreme>& lo = lane.lo_min[k];
      while (!lo.empty() && lo.back().value >= iv.lo) {
        lo.pop_back();
      }
      lo.push_back({entry.seq, iv.lo});
      Ring<Extreme>& hi = lane.hi_max[k];
      while (!hi.empty() && hi.back().value <= iv.hi) {
        hi.pop_back();
      }
      hi.push_back({entry.seq, iv.hi});
    }
    ++cell.members;
    cell.topical += entry.topical ? 1 : 0;
    RefreshBounds(&cell);
  }
}

bool ErGrid::Remove(const WindowTuple* wt) {
  TERIDS_CHECK(wt != nullptr);
  const auto pos = std::lower_bound(registry_.begin(), registry_.end(),
                                    std::make_pair(wt->rid(), uint32_t{0}));
  if (pos == registry_.end() || pos->first != wt->rid()) {
    return false;
  }
  const uint32_t index = pos->second;
  const Entry& entry = entries_[index];
  TERIDS_CHECK(entry.wt == wt);
  for (uint32_t slot : entry.slots) {
    Cell& cell = cells_[slot];
    Lane& lane = cell.lanes[entry.stream];
    // FIFO contract: the tuple is its stream's oldest member in this cell.
    TERIDS_CHECK(!lane.seqs.empty() && lane.seqs.front() == entry.seq);
    lane.seqs.pop_front();
    for (int k = 0; k < dims_; ++k) {
      if (!lane.lo_min[k].empty() && lane.lo_min[k].front().seq == entry.seq) {
        lane.lo_min[k].pop_front();
      }
      if (!lane.hi_max[k].empty() && lane.hi_max[k].front().seq == entry.seq) {
        lane.hi_max[k].pop_front();
      }
    }
    --cell.members;
    cell.topical -= entry.topical ? 1 : 0;
    if (cell.members == 0) {
      slot_of_.erase(cell.key);
      free_cells_.push_back(slot);
    } else {
      RefreshBounds(&cell);
    }
  }
  registry_.erase(pos);
  free_entries_.push_back(index);
  return true;
}

const double* ErGrid::row_of(int64_t rid) const {
  const auto pos = std::lower_bound(registry_.begin(), registry_.end(),
                                    std::make_pair(rid, uint32_t{0}));
  if (pos == registry_.end() || pos->first != rid) {
    return nullptr;
  }
  return rows_.data() + pos->second * row_layout_->stride();
}

ErGrid::CandidateResult ErGrid::Candidates(const WindowTuple& probe,
                                           double gamma,
                                           bool topic_constrained) const {
  CandidateResult result;
  const ImputedTuple& q = *probe.tuple;
  const double dist_budget = static_cast<double>(dims_) - gamma;

  // Probe per-dimension coordinate intervals (main pivot).
  std::vector<Interval> q_bounds(dims_);
  for (int k = 0; k < dims_; ++k) {
    q_bounds[k] = q.pivot_dist_interval(k, 0);
  }

  // Cell-level topic pruning (Theorem 4.1): if the probe can never be
  // topical, a pair survives only with a member that can be.
  const bool probe_topic_pass = !topic_constrained || probe.topic.any;
  std::vector<uint8_t> sim_pass(cells_.size(), 0);
  for (size_t slot = 0; slot < cells_.size(); ++slot) {
    const Cell& cell = cells_[slot];
    if (cell.members == 0) {
      continue;
    }
    ++result.cells_visited;
    // Cell-level distance lower bound (Lemma 4.2 with the cell's bounds).
    double lb_dist = 0.0;
    for (int k = 0; k < dims_ && lb_dist < dist_budget; ++k) {
      lb_dist += q_bounds[k].MinAbsDiff(cell.bounds[k]);
    }
    sim_pass[slot] = lb_dist < dist_budget;
    if ((probe_topic_pass || cell.topical > 0) && !sim_pass[slot]) {
      ++result.cells_pruned;
    }
  }

  // A tuple is topic-pruned regardless of geometry, and otherwise survives
  // if any cell it occupies passes the distance bound.
  for (const auto& [rid, index] : registry_) {
    const Entry& entry = entries_[index];
    if (entry.stream == probe.stream_id() || rid == probe.rid()) {
      continue;
    }
    if (!probe_topic_pass && !entry.topical) {
      ++result.topic_pruned;
      continue;
    }
    const bool pass =
        std::any_of(entry.slots.begin(), entry.slots.end(),
                    [&sim_pass](uint32_t slot) { return sim_pass[slot]; });
    if (pass) {
      result.candidates.push_back(entry.wt);
      result.slots.push_back(index);
    } else {
      ++result.sim_pruned;
    }
  }
  return result;
}

}  // namespace terids
