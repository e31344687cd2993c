#include "synopsis/er_grid.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/hash.h"
#include "util/status.h"

namespace terids {

ErGrid::ErGrid(int dims, double cell_width)
    : dims_(dims), cell_width_(cell_width) {
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

std::vector<GridCellKey> ErGrid::CellsOf(const ImputedTuple& tuple) const {
  std::vector<GridCellKey> keys;
  std::vector<int32_t> coords(dims_);
  for (int m = 0; m < tuple.num_instances(); ++m) {
    for (int k = 0; k < dims_; ++k) {
      coords[k] = static_cast<int32_t>(
          std::floor(tuple.instance_coord(m, k) / cell_width_));
    }
    keys.push_back(KeyOf(coords));
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  return keys;
}

void ErGrid::AddMember(Cell* cell, const WindowTuple* wt) const {
  cell->members.push_back(wt);
  cell->topic_mask |= wt->topic.possible_mask;
  cell->any_topic = cell->any_topic || wt->topic.any;
  if (cell->bounds.empty()) {
    cell->bounds.assign(dims_, Interval::Empty());
  }
  for (int k = 0; k < dims_; ++k) {
    cell->bounds[k].Union(wt->tuple->pivot_dist_interval(k, 0));
  }
}

void ErGrid::RebuildCell(Cell* cell) const {
  std::vector<const WindowTuple*> members = std::move(cell->members);
  *cell = Cell();
  for (const WindowTuple* wt : members) {
    AddMember(cell, wt);
  }
}

void ErGrid::Insert(const WindowTuple* wt) {
  TERIDS_CHECK(wt != nullptr);
  const int64_t rid = wt->rid();
  TERIDS_CHECK(tuple_cells_.count(rid) == 0);
  std::vector<GridCellKey> keys = CellsOf(*wt->tuple);
  for (GridCellKey key : keys) {
    AddMember(&cells_[key], wt);
  }
  tuple_cells_.emplace(rid, std::move(keys));
}

bool ErGrid::Remove(const WindowTuple* wt) {
  TERIDS_CHECK(wt != nullptr);
  auto it = tuple_cells_.find(wt->rid());
  if (it == tuple_cells_.end()) {
    return false;
  }
  for (GridCellKey key : it->second) {
    auto cit = cells_.find(key);
    TERIDS_CHECK(cit != cells_.end());
    Cell& cell = cit->second;
    cell.members.erase(
        std::remove(cell.members.begin(), cell.members.end(), wt),
        cell.members.end());
    if (cell.members.empty()) {
      cells_.erase(cit);
    } else {
      RebuildCell(&cell);
    }
  }
  tuple_cells_.erase(it);
  return true;
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

  // Per-member verdict: 0 = topic-pruned, 1 = sim-pruned, 2 = candidate. A
  // tuple spanning several cells takes the max verdict over its cells.
  std::unordered_map<int64_t, std::pair<const WindowTuple*, int>> verdicts;
  for (const auto& [key, cell] : cells_) {
    (void)key;
    ++result.cells_visited;

    // Cell-level topic pruning (Theorem 4.1): if the probe can never be
    // topical and no member of this cell can be topical, every pair with
    // this cell is out.
    const bool cell_topic_pass =
        !topic_constrained || probe.topic.any || cell.any_topic;

    // Cell-level distance lower bound (Lemma 4.2 with the cell's bounds).
    double lb_dist = 0.0;
    for (int k = 0; k < dims_ && lb_dist < dist_budget; ++k) {
      lb_dist += q_bounds[k].MinAbsDiff(cell.bounds[k]);
    }
    const bool cell_sim_pass = lb_dist < dist_budget;

    if (cell_topic_pass && !cell_sim_pass) {
      ++result.cells_pruned;
    }

    for (const WindowTuple* member : cell.members) {
      if (member->stream_id() == probe.stream_id() ||
          member->rid() == probe.rid()) {
        continue;
      }
      int verdict;
      if (topic_constrained && !probe.topic.any && !member->topic.any) {
        verdict = 0;  // Topic-pruned regardless of geometry.
      } else if (!cell_sim_pass) {
        verdict = 1;
      } else {
        verdict = 2;
      }
      auto [it, inserted] =
          verdicts.emplace(member->rid(), std::make_pair(member, verdict));
      if (!inserted && verdict > it->second.second) {
        it->second.second = verdict;
      }
    }
  }

  for (const auto& [rid, pv] : verdicts) {
    (void)rid;
    if (pv.second == 2) {
      result.candidates.push_back(pv.first);
    } else if (pv.second == 1) {
      ++result.sim_pruned;
    } else {
      ++result.topic_pruned;
    }
  }
  std::sort(result.candidates.begin(), result.candidates.end(),
            [](const WindowTuple* a, const WindowTuple* b) {
              return a->rid() < b->rid();
            });
  return result;
}

}  // namespace terids
