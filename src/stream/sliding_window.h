#ifndef TERIDS_STREAM_SLIDING_WINDOW_H_
#define TERIDS_STREAM_SLIDING_WINDOW_H_

#include <deque>
#include <memory>

#include "er/topic.h"
#include "tuple/imputed_tuple.h"

namespace terids {

/// A window-resident tuple: the imputed probabilistic tuple plus its
/// (query-dependent) topic classification, computed once at arrival and
/// reused by the row store and every pruning check.
struct WindowTuple {
  std::shared_ptr<const ImputedTuple> tuple;
  TopicQuery::TupleTopic topic;

  int64_t rid() const { return tuple->rid(); }
  int stream_id() const { return tuple->stream_id(); }
};

/// Count-based sliding window W_t (Definition 2): the w most recent tuples
/// of one stream. Pushing into a full window evicts and returns the oldest
/// tuple so the caller can cascade the eviction (row store, result set).
class SlidingWindow {
 public:
  explicit SlidingWindow(int capacity);

  /// Appends `t`; if the window overflows, the evicted oldest tuple is
  /// returned (nullptr otherwise).
  std::shared_ptr<WindowTuple> Push(std::shared_ptr<WindowTuple> t);

  const std::deque<std::shared_ptr<WindowTuple>>& tuples() const {
    return tuples_;
  }
  size_t size() const { return tuples_.size(); }
  int capacity() const { return capacity_; }

 private:
  int capacity_;
  std::deque<std::shared_ptr<WindowTuple>> tuples_;
};

}  // namespace terids

#endif  // TERIDS_STREAM_SLIDING_WINDOW_H_
