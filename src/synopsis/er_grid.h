#ifndef TERIDS_SYNOPSIS_ER_GRID_H_
#define TERIDS_SYNOPSIS_ER_GRID_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "stream/sliding_window.h"
#include "util/interval.h"

namespace terids {

/// Key of one lazily materialized ER-grid cell (a 64-bit polynomial hash of
/// the cell's integer coordinates).
using GridCellKey = uint64_t;

/// The ER-grid synopsis G_ER (Section 5.2, DESIGN.md §7): a hash map of
/// lazily materialized cells over the converted (pivot-distance) space.
/// Each imputed instance of a tuple lands in the cell holding its
/// coordinates, so a tuple occupies one cell per distinct instance cell.
/// Cells aggregate the keyword Boolean vector and per-dimension coordinate
/// bounds of their members, which drive cell-level topic and distance-bound
/// pruning in `Candidates`.
///
/// Locking model (DESIGN.md §12): deliberately mutex-free. The grid is
/// single-writer — the pipeline's maintaining thread (the ingest stage in
/// the async pipeline) owns every Insert/Remove/Candidates call — so there
/// is no capability to annotate.
class ErGrid {
 public:
  /// `dims` = number of attributes d; `cell_width` = side length of a cell
  /// in the converted space.
  ErGrid(int dims, double cell_width);

  void Insert(const WindowTuple* wt);
  /// Removes an expired tuple from every cell it occupies. Returns false if
  /// it was never inserted.
  bool Remove(const WindowTuple* wt);

  size_t num_tuples() const { return tuple_cells_.size(); }
  size_t num_cells() const { return cells_.size(); }

  /// Candidate retrieval for a probe tuple, with cell-level topic and
  /// distance-bound pruning.
  struct CandidateResult {
    /// Surviving candidates in ascending-rid order.
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
  struct Cell {
    std::vector<const WindowTuple*> members;
    uint64_t topic_mask = 0;
    bool any_topic = false;
    std::vector<Interval> bounds;  // per-dim cover of member intervals
  };

  GridCellKey KeyOf(const std::vector<int32_t>& coords) const;
  /// The sorted, deduplicated keys of the cells `tuple`'s instances occupy.
  std::vector<GridCellKey> CellsOf(const ImputedTuple& tuple) const;
  void AddMember(Cell* cell, const WindowTuple* wt) const;
  void RebuildCell(Cell* cell) const;

  int dims_;
  double cell_width_;
  std::unordered_map<GridCellKey, Cell> cells_;
  // rid -> the cell keys the tuple occupies (for removal).
  std::unordered_map<int64_t, std::vector<GridCellKey>> tuple_cells_;
};

}  // namespace terids

#endif  // TERIDS_SYNOPSIS_ER_GRID_H_
