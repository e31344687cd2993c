#ifndef TERIDS_SYNOPSIS_ER_GRID_SHARD_H_
#define TERIDS_SYNOPSIS_ER_GRID_SHARD_H_

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "stream/sliding_window.h"
#include "util/interval.h"

namespace terids {

/// Key of one lazily materialized ER-grid cell (a 64-bit polynomial hash of
/// the cell's integer coordinates). Cell-key computation and shard routing
/// live in ShardedErGrid; shards only store and probe the cells routed to
/// them.
using GridCellKey = uint64_t;

/// One partition of the ER-grid synopsis G_ER (Section 5.2, DESIGN.md §7):
/// the hash-map-of-cells logic of the original single-threaded grid, owning
/// the subset of cells whose keys hash to this shard. Cells aggregate the
/// keyword Boolean vector and per-dimension coordinate bounds of their
/// members, exactly as before the split.
///
/// A shard is single-writer: ShardedErGrid routes every Insert/Remove on
/// the maintaining thread and fans Probe out over disjoint shards, so the
/// shard itself needs no synchronization.
///
/// Locking model (DESIGN.md §12): deliberately mutex-free. Mutual exclusion
/// is structural — during a parallel Maintain fan-out each shard is touched
/// by exactly one task, and Probe is const writing only into the caller's
/// per-shard ProbeOutput slot — so there is no capability to annotate; the
/// fan-out barrier (Scheduler::ParallelFor, a ranked mutex) supplies the
/// happens-before edges.
class ErGridShard {
 public:
  /// `dims` = number of attributes d (needed for the per-cell bound
  /// aggregates).
  explicit ErGridShard(int dims);

  /// Adds `wt` to every cell in `keys` (the coordinator pre-routes only
  /// this shard's keys, sorted and deduplicated).
  void Insert(const WindowTuple* wt, std::vector<GridCellKey> keys);
  /// Removes an expired tuple from every cell it occupies here. Returns
  /// false if the tuple was never routed to this shard.
  bool Remove(const WindowTuple* wt);

  size_t num_tuples() const { return tuple_cells_.size(); }
  size_t num_cells() const { return cells_.size(); }

  /// Per-member probe verdict: 0 = topic-pruned, 1 = sim-pruned,
  /// 2 = candidate. A tuple spanning several cells takes the max verdict
  /// over its cells; the coordinator continues that max-merge across
  /// shards, so the merged verdict is independent of the shard count.
  struct ProbeOutput {
    std::unordered_map<int64_t, std::pair<const WindowTuple*, int>> verdicts;
    uint64_t cells_visited = 0;
    uint64_t cells_pruned = 0;
  };

  /// Scans this shard's cells with cell-level topic and distance-bound
  /// pruning. `q_bounds` are the probe's per-dimension coordinate intervals
  /// (main pivot), `dist_budget` = d - gamma; both are computed once by the
  /// coordinator and shared across the fan-out. Writes only into `out`, so
  /// concurrent Probe calls on distinct shards never touch shared state.
  void Probe(const WindowTuple& probe, const std::vector<Interval>& q_bounds,
             double dist_budget, bool topic_constrained,
             ProbeOutput* out) const;

 private:
  struct Cell {
    std::vector<const WindowTuple*> members;
    uint64_t topic_mask = 0;
    bool any_topic = false;
    std::vector<Interval> bounds;  // per-dim cover of member intervals
  };

  void AddMember(Cell* cell, const WindowTuple* wt) const;
  void RebuildCell(Cell* cell) const;

  int dims_;
  std::unordered_map<GridCellKey, Cell> cells_;
  // rid -> the cell keys the tuple occupies in this shard (for removal).
  std::unordered_map<int64_t, std::vector<GridCellKey>> tuple_cells_;
};

}  // namespace terids

#endif  // TERIDS_SYNOPSIS_ER_GRID_SHARD_H_
