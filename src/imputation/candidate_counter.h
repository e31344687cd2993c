#ifndef TERIDS_IMPUTATION_CANDIDATE_COUNTER_H_
#define TERIDS_IMPUTATION_CANDIDATE_COUNTER_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "repo/attribute_domain.h"

namespace terids {

/// The Equation-4 frequency vote over one attribute domain dom(A_j).
///
/// The count of a value is a shared base, which AddAll raises for the whole
/// fitted domain at once, plus a signed per-ValueId adjustment. A vote that
/// covers most of the domain (a dependent interval reaching distance 1) is
/// then one AddAll and a few Removes instead of one Add per domain value.
///
/// Adjusting is one array update (no hashing), and the counter is reusable:
/// Clear walks the list of adjusted values and zeroes only those slots, so
/// a long-lived counter never pays for the whole domain per use. Votes are
/// integers, which keeps every normalised probability exactly what a
/// floating-point tally would give.
class CandidateCounter {
 public:
  /// Sets the counted domain to the ValueIds below `domain_size`. Call on a
  /// cleared counter before voting over a domain.
  void Fit(size_t domain_size) {
    domain_size_ = domain_size;
    if (adj_.size() < domain_size) {
      adj_.resize(domain_size, 0);
      touched_flag_.resize(domain_size, 0);
    }
  }

  /// One vote for `vid`, which must be below the Fit size.
  void Add(ValueId vid) { Adjust(vid, 1); }
  /// Takes back one vote from `vid`, which must have one to give.
  void Remove(ValueId vid) { Adjust(vid, -1); }
  /// One vote for every value of the fitted domain.
  void AddAll() { ++base_; }

  uint32_t count(ValueId vid) const {
    return vid < domain_size_ ? static_cast<uint32_t>(base_ + adj_[vid]) : 0;
  }
  /// Whether no vote was cast since the last Clear.
  bool empty() const { return base_ == 0 && touched_.empty(); }
  /// Sum of all counts over the fitted domain.
  uint64_t total() const {
    int64_t sum = static_cast<int64_t>(base_) *
                  static_cast<int64_t>(domain_size_);
    for (ValueId vid : touched_) {
      sum += adj_[vid];
    }
    return static_cast<uint64_t>(sum);
  }

  /// Calls emit(vid, count) for the up to `cap` values with the highest
  /// non-zero counts, in (count desc, ValueId asc) order. The order of
  /// touched values is changed.
  template <typename Emit>
  void ForEachTop(size_t cap, Emit emit) {
    // Three runs in order: adjusted above the base, every value at the base
    // (ascending ValueId, adjusted back to zero or never adjusted), and
    // adjusted below the base.
    auto by_count = [this](ValueId a, ValueId b) {
      return adj_[a] != adj_[b] ? adj_[a] > adj_[b] : a < b;
    };
    auto above = std::partition(touched_.begin(), touched_.end(),
                                [this](ValueId v) { return adj_[v] > 0; });
    auto below = std::partition(above, touched_.end(),
                                [this](ValueId v) { return adj_[v] == 0; });
    size_t emitted = 0;
    auto emit_run = [&](std::vector<ValueId>::iterator first,
                        std::vector<ValueId>::iterator last) {
      const size_t k =
          std::min(cap - emitted, static_cast<size_t>(last - first));
      std::partial_sort(first, first + k, last, by_count);
      for (auto it = first; it != first + k && count(*it) > 0; ++it) {
        emit(*it, count(*it));
        ++emitted;
      }
    };
    emit_run(touched_.begin(), above);
    if (base_ > 0) {
      for (ValueId vid = 0; vid < domain_size_ && emitted < cap; ++vid) {
        if (adj_[vid] == 0) {
          emit(vid, base_);
          ++emitted;
        }
      }
    }
    emit_run(below, touched_.end());
  }

  /// Forgets every vote.
  void Clear() {
    for (ValueId vid : touched_) {
      adj_[vid] = 0;
      touched_flag_[vid] = 0;
    }
    touched_.clear();
    base_ = 0;
  }

 private:
  void Adjust(ValueId vid, int32_t delta) {
    adj_[vid] += delta;
    if (!touched_flag_[vid]) {
      touched_flag_[vid] = 1;
      touched_.push_back(vid);
    }
  }

  size_t domain_size_ = 0;
  uint32_t base_ = 0;
  std::vector<int32_t> adj_;
  std::vector<uint8_t> touched_flag_;
  /// Values whose adjustment was changed since the last Clear.
  std::vector<ValueId> touched_;
};

}  // namespace terids

#endif  // TERIDS_IMPUTATION_CANDIDATE_COUNTER_H_
