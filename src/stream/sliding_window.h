#ifndef TERIDS_STREAM_SLIDING_WINDOW_H_
#define TERIDS_STREAM_SLIDING_WINDOW_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "er/topic.h"
#include "tuple/imputed_tuple.h"
#include "tuple/pair_row.h"

namespace terids {

/// A window-resident tuple: the imputed probabilistic tuple plus its
/// (query-dependent) topic classification, computed once at arrival and
/// reused by the candidate scan and every pruning check.
struct WindowTuple {
  ImputedTuple tuple;
  TopicQuery::TupleTopic topic;

  int64_t rid() const { return tuple.rid(); }
  int stream_id() const { return tuple.stream_id(); }
};

/// Count-based sliding window W_t (Definition 2): the w most recent tuples
/// of one stream, and the only store of them (DESIGN.md §7). The window is
/// a ring of at most w slots. A slot owns its WindowTuple by value, and the
/// window keeps each slot's PairRow (tuple/pair_row.h) in a slab indexed by
/// the slot: the tuple's own row with the topic word set, so the batched
/// pair cascade (EvaluateCandidates, er/pruning.h) walks one allocation
/// instead of chasing tuple pointers. Once the window is full, each Push
/// overwrites the oldest slot in place. Slots are in no particular order:
/// neither arrival nor rid order is kept.
class SlidingWindow {
 public:
  explicit SlidingWindow(int capacity);

  /// Stores `wt` in a free slot or, once the window is full, in the oldest
  /// one, whose tuple is moved out and returned so the caller can cascade
  /// the eviction (result set, imputer). Every pushed tuple must share the
  /// first one's row layout (its repository's).
  std::optional<WindowTuple> Push(WindowTuple wt);

  /// Live tuples; slots 0..size()-1 are live.
  size_t size() const { return slots_.size(); }
  int capacity() const { return capacity_; }
  const WindowTuple& at(size_t slot) const { return slots_[slot]; }

  /// The row slab: slot `s`'s row starts at rows() + s * the stride of the
  /// tuples' row layout. Valid until the next Push.
  const double* rows() const { return rows_.data(); }

  /// Theorem 4.1 at tuple level against a probe whose topic bit is
  /// `probe_topical`: appends to `slots` every slot whose pair with the
  /// probe can be topical (all of them for a topical probe, else the
  /// topical ones) and returns how many it left out.
  uint64_t CandidateSlots(bool probe_topical,
                          std::vector<uint32_t>* slots) const;

 private:
  int capacity_;
  std::vector<WindowTuple> slots_;
  /// The slot the next Push overwrites once the window is full.
  size_t oldest_ = 0;
  /// The layout of every row, fixed by the first Push. It belongs to the
  /// tuples' repository, which outlives the window as it outlives them.
  const PairRowLayout* row_layout_ = nullptr;
  /// One PairRow per slot.
  std::vector<double> rows_;
};

}  // namespace terids

#endif  // TERIDS_STREAM_SLIDING_WINDOW_H_
