#ifndef TERIDS_SYNOPSIS_ER_GRID_H_
#define TERIDS_SYNOPSIS_ER_GRID_H_

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "stream/sliding_window.h"
#include "tuple/pair_row.h"
#include "util/interval.h"

namespace terids {

/// Key of one lazily materialized ER-grid cell (a 64-bit polynomial hash of
/// the cell's integer coordinates).
using GridCellKey = uint64_t;

/// The ER-grid synopsis G_ER (Section 5.2, DESIGN.md §7): lazily
/// materialized cells over the converted (pivot-distance) space. Each
/// imputed instance of a tuple lands in the cell holding its coordinates,
/// so a tuple occupies one cell per distinct instance cell. Cells aggregate
/// how many members can be topical and the per-dimension coordinate bounds
/// of their members, which drive cell-level topic and distance-bound
/// pruning in `Candidates`.
///
/// Windows are FIFO per stream, so removals follow insertion order per
/// stream: `Remove` must be handed each stream's oldest live tuple, which
/// is then the oldest member of that stream in every cell it occupies (a
/// `TERIDS_CHECK` failure otherwise). That makes every update amortised
/// O(d) per occupied cell: each (cell, stream) lane keeps its members'
/// sequence numbers in a ring and sliding-window minima/maxima of the
/// member bounds in monotone rings, and the cell bounds are the extremes
/// over the lane fronts — exactly what a rebuild from the live members
/// would compute.
///
/// Each live tuple also owns one fixed-stride PairRow (tuple/pair_row.h) in
/// a slab indexed by its entry slot: Insert copies the tuple's own row and
/// sets its topic word, Remove frees the slot, and `Candidates` reports
/// each candidate's slot so the batched pair cascade (EvaluateCandidates,
/// er/pruning.h) decides the whole list over rows. The slab keeps every
/// live row in one allocation, so the kernel walks memory instead of
/// chasing tuple pointers.
class ErGrid {
 public:
  /// `dims` = number of attributes d; `cell_width` = side length of a cell
  /// in the converted space.
  ErGrid(int dims, double cell_width);

  void Insert(const WindowTuple* wt);
  /// Removes an expired tuple from every cell it occupies. Returns false if
  /// it was never inserted. The tuple must be the oldest live tuple of its
  /// stream.
  bool Remove(const WindowTuple* wt);

  size_t num_tuples() const { return registry_.size(); }
  size_t num_cells() const { return slot_of_.size(); }

  /// The row slab: the row of entry slot `s` starts at rows() + s * the
  /// stride of the inserted tuples' row layout (the repository's; every
  /// inserted tuple must share it). Valid until the next Insert.
  const double* rows() const { return rows_.data(); }
  /// The row of the live tuple `rid`, or null (inspection / tests).
  const double* row_of(int64_t rid) const;

  /// Candidate retrieval for a probe tuple, with cell-level topic and
  /// distance-bound pruning.
  struct CandidateResult {
    /// Surviving candidates in ascending-rid order.
    std::vector<const WindowTuple*> candidates;
    /// The entry slot of each candidate (its PairRow), in the same order.
    std::vector<uint32_t> slots;
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
  /// A FIFO ring over a power-of-two vector that keeps its capacity, so a
  /// steady window allocates nothing.
  template <typename T>
  class Ring {
   public:
    bool empty() const { return size_ == 0; }
    const T& front() const { return buf_[head_]; }
    const T& back() const { return buf_[(head_ + size_ - 1) & mask()]; }
    void push_back(const T& v) {
      if (size_ == buf_.size()) {
        Grow();
      }
      buf_[(head_ + size_) & mask()] = v;
      ++size_;
    }
    void pop_front() {
      head_ = (head_ + 1) & mask();
      --size_;
    }
    void pop_back() { --size_; }

   private:
    size_t mask() const { return buf_.size() - 1; }
    void Grow() {
      std::vector<T> grown(buf_.empty() ? 4 : 2 * buf_.size());
      for (size_t i = 0; i < size_; ++i) {
        grown[i] = buf_[(head_ + i) & mask()];
      }
      buf_ = std::move(grown);
      head_ = 0;
    }

    std::vector<T> buf_;
    size_t head_ = 0;
    size_t size_ = 0;
  };

  /// One member bound in a monotone ring: the member's sequence number and
  /// its `lo` (minimum rings) or `hi` (maximum rings) on one dimension.
  struct Extreme {
    uint64_t seq = 0;
    double value = 0.0;
  };

  /// The members of one stream in one cell, oldest first.
  struct Lane {
    Ring<uint64_t> seqs;
    /// Per dimension, the members' `lo` ascending and `hi` descending from
    /// the front: each front is the lane's extreme. Members whose interval
    /// on the dimension is empty are left out, as `Interval::Union` skips
    /// them.
    std::vector<Ring<Extreme>> lo_min;
    std::vector<Ring<Extreme>> hi_max;
  };

  struct Cell {
    GridCellKey key = 0;
    uint32_t members = 0;  // 0 marks a free slot
    uint32_t topical = 0;  // members whose topic.any is set
    std::vector<Lane> lanes;       // by stream id
    std::vector<Interval> bounds;  // per-dim cover of member intervals
  };

  /// One live tuple.
  struct Entry {
    const WindowTuple* wt = nullptr;
    int stream = 0;
    bool topical = false;
    uint64_t seq = 0;
    std::vector<uint32_t> slots;  // the cells it occupies
  };

  GridCellKey KeyOf(const std::vector<int32_t>& coords) const;
  /// Fills keys_ with the sorted, deduplicated keys of the cells `tuple`'s
  /// instances occupy.
  void CellsOf(const ImputedTuple& tuple);
  /// The slot of the cell with `key`, materialized if absent.
  uint32_t SlotFor(GridCellKey key);
  /// Recomputes `cell->bounds` from its lane fronts.
  void RefreshBounds(Cell* cell) const;

  int dims_;
  double cell_width_;
  std::vector<Cell> cells_;
  std::vector<uint32_t> free_cells_;
  /// Touched only when a cell is materialized or emptied.
  std::unordered_map<GridCellKey, uint32_t> slot_of_;
  std::vector<Entry> entries_;
  std::vector<uint32_t> free_entries_;
  /// The layout of every row, fixed by the first Insert. It belongs to the
  /// tuples' repository, which outlives the grid as it outlives the tuples.
  const PairRowLayout* row_layout_ = nullptr;
  /// One PairRow per entry slot, live or free.
  std::vector<double> rows_;
  /// (rid, entry index) of every live tuple, in ascending rid order.
  std::vector<std::pair<int64_t, uint32_t>> registry_;
  uint64_t next_seq_ = 0;
  // Insert scratch.
  std::vector<int32_t> coords_;
  std::vector<GridCellKey> keys_;
};

}  // namespace terids

#endif  // TERIDS_SYNOPSIS_ER_GRID_H_
