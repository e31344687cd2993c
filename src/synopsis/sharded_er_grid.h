#ifndef TERIDS_SYNOPSIS_SHARDED_ER_GRID_H_
#define TERIDS_SYNOPSIS_SHARDED_ER_GRID_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "exec/scheduler.h"
#include "stream/sliding_window.h"
#include "synopsis/er_grid_shard.h"
#include "util/interval.h"

namespace terids {

/// The ER-grid synopsis G_ER (Section 5.2), partitioned by cell-key hash
/// across `num_shards` ErGridShards (DESIGN.md §7).
///
/// The coordinator owns cell geometry: it converts a tuple's imputed
/// instances to cell keys once, routes each key to shard `key mod
/// num_shards`, and tracks which shards hold which tuple so removals are
/// targeted. `Candidates` probes every shard — as kCandidate work items on
/// the shared Scheduler when one was passed and `num_shards > 1`, inline on
/// the caller otherwise — and merges the per-shard verdicts
/// deterministically: per-member verdicts are max-merged (the same
/// rule a single grid applies across a tuple's cells), prune counters are
/// summed, and the surviving candidates are emitted in ascending-rid order.
/// The merged result is therefore bit-identical for every shard count and
/// independent of fan-out scheduling.
///
/// With `num_shards == 1` there is no fan-out and no extra merge pass — the
/// single-shard configuration is the original ErGrid.
///
/// Locking model (DESIGN.md §12): the coordinator state (`tuple_shards_`,
/// `multi_shard_tuples_`, the shard array) is owned by the single
/// maintaining thread — the ingest stage in the async pipeline — and is
/// never touched from inside a fan-out task; fan-out tasks partition work
/// per shard and write only into per-task slots. The only mutex on this
/// path is inside the Scheduler (lock_rank::kScheduler), whose ParallelFor
/// barrier publishes every shard mutation before the next phase reads it.
class ShardedErGrid {
 public:
  /// `dims` = number of attributes d; `cell_width` = side length of a cell
  /// in the converted space; `num_shards` >= 1 partitions. With a
  /// `scheduler`, probe and maintain fan-outs dispatch as kCandidate /
  /// kMaintain work items on its workers (not owned, must outlive the grid;
  /// DESIGN.md §10); without one, every shard is visited inline.
  ShardedErGrid(int dims, double cell_width, int num_shards,
                Scheduler* scheduler = nullptr);

  void Insert(const WindowTuple* wt);
  /// Removes an expired tuple. Returns false if it was never inserted.
  bool Remove(const WindowTuple* wt);

  /// One arrival's window maintenance in a single call: inserts `insert`
  /// and removes `expired` (either may be null). With a scheduler and at
  /// least two involved shards, the per-shard work — this shard's insert
  /// keys plus its removal of the expired tuple — fans out as kMaintain
  /// items (DESIGN.md §9-§10); shards share no state and each task touches
  /// exactly one shard, so the grid contents are identical to the serial
  /// Insert-then-Remove sequence either way. Returns false iff `expired`
  /// was non-null but never inserted.
  bool Maintain(const WindowTuple* insert, const WindowTuple* expired);

  size_t num_tuples() const { return tuple_shards_.size(); }
  size_t num_cells() const;
  int num_shards() const { return static_cast<int>(shards_.size()); }
  const ErGridShard& shard(int i) const { return *shards_[i]; }

  /// Candidate retrieval for a probe tuple, with cell-level topic and
  /// distance-bound pruning.
  struct CandidateResult {
    /// Surviving candidates in ascending-rid order (the canonical merge
    /// order; invariant under the shard count).
    std::vector<const WindowTuple*> candidates;
    /// Tuples (from other streams) pruned because neither they nor the
    /// probe can contain a query keyword (Theorem 4.1 at grid level).
    uint64_t topic_pruned = 0;
    /// Tuples pruned by the cell-level pivot distance bound (Lemma 4.2 at
    /// grid level).
    uint64_t sim_pruned = 0;
    uint64_t cells_visited = 0;
    uint64_t cells_pruned = 0;
  };

  /// `topic_constrained` is false for an unconstrained query (K = all), in
  /// which case topic pruning is skipped. Tuples from the probe's own
  /// stream are ignored entirely (TER-iDS pairs span two streams).
  CandidateResult Candidates(const WindowTuple& probe, double gamma,
                             bool topic_constrained) const;

 private:
  GridCellKey KeyOf(const std::vector<int32_t>& coords) const;
  std::vector<GridCellKey> CellsOf(const ImputedTuple& tuple) const;
  int ShardOf(GridCellKey key) const {
    return static_cast<int>(key % shards_.size());
  }

  int dims_;
  double cell_width_;
  std::vector<std::unique_ptr<ErGridShard>> shards_;
  // rid -> the shard ids holding the tuple (for targeted removal and a
  // distinct-tuple count).
  std::unordered_map<int64_t, std::vector<int>> tuple_shards_;
  // Live tuples currently held by more than one shard. While zero (the
  // common case: one imputed instance -> one cell -> one shard), the merge
  // skips the cross-shard verdict map entirely — every member's max-merge
  // already happened inside its single shard.
  size_t multi_shard_tuples_ = 0;
  // Fan-out executor; null = every shard is visited inline.
  Scheduler* scheduler_ = nullptr;
};

}  // namespace terids

#endif  // TERIDS_SYNOPSIS_SHARDED_ER_GRID_H_
