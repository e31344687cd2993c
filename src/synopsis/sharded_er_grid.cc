#include "synopsis/sharded_er_grid.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/hash.h"
#include "util/status.h"

namespace terids {

ShardedErGrid::ShardedErGrid(int dims, double cell_width, int num_shards,
                             Scheduler* scheduler)
    : dims_(dims), cell_width_(cell_width), scheduler_(scheduler) {
  TERIDS_CHECK(dims >= 1);
  TERIDS_CHECK(cell_width > 0.0);
  TERIDS_CHECK(num_shards >= 1);
  shards_.reserve(num_shards);
  for (int i = 0; i < num_shards; ++i) {
    shards_.push_back(std::make_unique<ErGridShard>(dims));
  }
}

size_t ShardedErGrid::num_cells() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->num_cells();
  }
  return total;
}

GridCellKey ShardedErGrid::KeyOf(const std::vector<int32_t>& coords) const {
  // Coordinates are small non-negative cell indices (coord/width in [0,
  // ~1/width]).
  uint64_t h = kFnv1aOffsetBasis;
  for (int32_t c : coords) {
    h = Fnv1aMix(h, static_cast<uint64_t>(static_cast<uint32_t>(c)));
  }
  return h;
}

std::vector<GridCellKey> ShardedErGrid::CellsOf(
    const ImputedTuple& tuple) const {
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

void ShardedErGrid::Insert(const WindowTuple* wt) {
  TERIDS_CHECK(wt != nullptr);
  Maintain(wt, /*expired=*/nullptr);
}

bool ShardedErGrid::Remove(const WindowTuple* wt) {
  TERIDS_CHECK(wt != nullptr);
  return Maintain(/*insert=*/nullptr, wt);
}

bool ShardedErGrid::Maintain(const WindowTuple* insert,
                             const WindowTuple* expired) {
  // Coordinator prologue (serial): route the insert's cell keys, resolve
  // which shards hold the expired tuple, and settle the rid maps — the
  // fan-out below then touches nothing but disjoint shards.
  std::vector<std::vector<GridCellKey>> routed(shards_.size());
  std::vector<int> holding;
  if (insert != nullptr) {
    TERIDS_CHECK(tuple_shards_.count(insert->rid()) == 0);
    for (GridCellKey key : CellsOf(*insert->tuple)) {
      routed[ShardOf(key)].push_back(key);
    }
    for (size_t s = 0; s < shards_.size(); ++s) {
      if (!routed[s].empty()) {
        holding.push_back(static_cast<int>(s));
      }
    }
  }
  std::vector<uint8_t> removes(shards_.size(), 0);
  bool found = true;
  if (expired != nullptr) {
    auto it = tuple_shards_.find(expired->rid());
    if (it == tuple_shards_.end()) {
      found = false;
    } else {
      for (int s : it->second) {
        removes[s] = 1;
      }
      if (it->second.size() > 1) {
        --multi_shard_tuples_;
      }
      tuple_shards_.erase(it);
    }
  }
  if (insert != nullptr) {
    if (holding.size() > 1) {
      ++multi_shard_tuples_;
    }
    tuple_shards_.emplace(insert->rid(), std::move(holding));
  }

  std::vector<int> involved;
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (!routed[s].empty() || removes[s] != 0) {
      involved.push_back(static_cast<int>(s));
    }
  }

  // Per-shard work, insert before remove (the serial sequence's order
  // within each shard; shards are mutually independent, so fan-out
  // scheduling cannot change the grid contents).
  const auto maintain_shard = [&](int64_t i) {
    const int s = involved[static_cast<size_t>(i)];
    if (!routed[s].empty()) {
      shards_[s]->Insert(insert, std::move(routed[s]));
    }
    if (removes[s] != 0) {
      TERIDS_CHECK(shards_[s]->Remove(expired));
    }
  };
  if (scheduler_ != nullptr && involved.size() > 1) {
    scheduler_->ParallelFor(ExecPhase::kMaintain,
                            static_cast<int64_t>(involved.size()),
                            maintain_shard);
  } else {
    for (size_t i = 0; i < involved.size(); ++i) {
      maintain_shard(static_cast<int64_t>(i));
    }
  }
  return found;
}

ShardedErGrid::CandidateResult ShardedErGrid::Candidates(
    const WindowTuple& probe, double gamma, bool topic_constrained) const {
  CandidateResult result;
  const ImputedTuple& q = *probe.tuple;
  const double dist_budget = static_cast<double>(dims_) - gamma;

  // Probe per-dimension coordinate intervals (main pivot), computed once
  // and shared by every shard of the fan-out.
  std::vector<Interval> q_bounds(dims_);
  for (int k = 0; k < dims_; ++k) {
    q_bounds[k] = q.pivot_dist_interval(k, 0);
  }

  // Fan out: each shard scans its own cells and writes only its own output
  // slot, so the probe is data-race free and scheduling-independent.
  std::vector<ErGridShard::ProbeOutput> outputs(shards_.size());
  const auto probe_shard = [&](int64_t i) {
    shards_[i]->Probe(probe, q_bounds, dist_budget, topic_constrained,
                      &outputs[i]);
  };
  if (scheduler_ != nullptr && shards_.size() > 1) {
    scheduler_->ParallelFor(ExecPhase::kCandidate,
                            static_cast<int64_t>(shards_.size()), probe_shard);
  } else {
    for (size_t i = 0; i < shards_.size(); ++i) {
      probe_shard(static_cast<int64_t>(i));
    }
  }

  // Deterministic merge: counters sum (each cell lives in exactly one
  // shard), per-member verdicts max-merge (commutative, so shard order is
  // immaterial), candidates sort by rid.
  const auto finalize = [&result](std::pair<const WindowTuple*, int> pv) {
    if (pv.second == 2) {
      result.candidates.push_back(pv.first);
    } else if (pv.second == 1) {
      ++result.sim_pruned;
    } else {
      ++result.topic_pruned;
    }
  };
  for (const auto& output : outputs) {
    result.cells_visited += output.cells_visited;
    result.cells_pruned += output.cells_pruned;
  }
  if (shards_.size() == 1 || multi_shard_tuples_ == 0) {
    // Every live tuple's cells sit in one shard, so each member appears in
    // exactly one verdict map, already max-merged there: finalize directly
    // without building the cross-shard map.
    for (const auto& output : outputs) {
      for (const auto& [rid, pv] : output.verdicts) {
        (void)rid;
        finalize(pv);
      }
    }
  } else {
    std::unordered_map<int64_t, std::pair<const WindowTuple*, int>> merged;
    for (const auto& output : outputs) {
      for (const auto& [rid, pv] : output.verdicts) {
        auto [it, inserted] = merged.emplace(rid, pv);
        if (!inserted && pv.second > it->second.second) {
          it->second.second = pv.second;
        }
      }
    }
    for (const auto& [rid, pv] : merged) {
      (void)rid;
      finalize(pv);
    }
  }
  std::sort(result.candidates.begin(), result.candidates.end(),
            [](const WindowTuple* a, const WindowTuple* b) {
              return a->rid() < b->rid();
            });
  return result;
}

}  // namespace terids
