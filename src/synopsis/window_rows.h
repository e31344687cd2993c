#ifndef TERIDS_SYNOPSIS_WINDOW_ROWS_H_
#define TERIDS_SYNOPSIS_WINDOW_ROWS_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "stream/sliding_window.h"
#include "tuple/pair_row.h"

namespace terids {

/// The rows of the live window tuples (DESIGN.md §7): the engine's stand-in
/// for the paper's ER-grid G_ER (Section 5.2). Each live tuple owns one
/// fixed-stride PairRow (tuple/pair_row.h) in a slab indexed by its entry
/// slot: Insert copies the tuple's own row and sets its topic word, Remove
/// frees the slot, and `Candidates` lists every live tuple of the other
/// streams with its slot, so the batched pair cascade (EvaluateCandidates,
/// er/pruning.h) decides Theorems 4.1-4.3 for the whole list over rows. The
/// slab keeps every live row in one allocation, so the kernel walks memory
/// instead of chasing tuple pointers.
///
/// There are no cells: the pair cascade's Lemma 4.2 sum over each
/// candidate's own pivot intervals is at least any cell's bound over the
/// same main pivot, so every tuple a cell would prune the cascade prunes
/// too (pair_cascade_test asserts it).
class WindowRows {
 public:
  void Insert(const WindowTuple* wt);
  /// Removes an expired tuple. Returns false if it was never inserted.
  bool Remove(const WindowTuple* wt);

  size_t num_tuples() const { return registry_.size(); }

  /// The row slab: the row of entry slot `s` starts at rows() + s * the
  /// stride of the inserted tuples' row layout (the repository's; every
  /// inserted tuple must share it). Valid until the next Insert.
  const double* rows() const { return rows_.data(); }
  /// The row of the live tuple `rid`, or null (inspection / tests).
  const double* row_of(int64_t rid) const;

  struct CandidateResult {
    /// Candidates in ascending-rid order.
    std::vector<const WindowTuple*> candidates;
    /// The entry slot of each candidate (its PairRow), in the same order.
    std::vector<uint32_t> slots;
    /// Tuples (from other streams) pruned because neither they nor the
    /// probe can contain a query keyword (Theorem 4.1 at tuple level).
    uint64_t topic_pruned = 0;
  };

  /// Every live tuple of the other streams (TER-iDS pairs span two
  /// streams) that Theorem 4.1 does not prune. `topic_constrained` is false
  /// for an unconstrained query (K = all), in which case topic pruning is
  /// skipped.
  CandidateResult Candidates(const WindowTuple& probe,
                             bool topic_constrained) const;

 private:
  /// One live tuple.
  struct Entry {
    const WindowTuple* wt = nullptr;
    int stream = 0;
    bool topical = false;
  };

  std::vector<Entry> entries_;
  std::vector<uint32_t> free_entries_;
  /// The layout of every row, fixed by the first Insert. It belongs to the
  /// tuples' repository, which outlives the store as it outlives the tuples.
  const PairRowLayout* row_layout_ = nullptr;
  /// One PairRow per entry slot, live or free.
  std::vector<double> rows_;
  /// (rid, entry index) of every live tuple, in ascending rid order.
  std::vector<std::pair<int64_t, uint32_t>> registry_;
};

}  // namespace terids

#endif  // TERIDS_SYNOPSIS_WINDOW_ROWS_H_
