#ifndef TERIDS_IMPUTATION_CANDIDATE_COUNTER_H_
#define TERIDS_IMPUTATION_CANDIDATE_COUNTER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "repo/attribute_domain.h"

namespace terids {

/// The Equation-4 frequency vote over one attribute domain dom(A_j): a dense
/// per-ValueId count plus the list of values touched since the last drain.
///
/// Counting is one array increment per candidate (no hashing), and the
/// counter is reusable: FinalizeCandidates drains it by walking the touched
/// list and zeroing only those slots, so a long-lived counter never pays for
/// the whole domain per use. Votes are integers, which keeps every
/// normalised probability exactly what a floating-point tally would give.
class CandidateCounter {
 public:
  /// Makes every ValueId below `domain_size` countable (domains only grow;
  /// existing counts are kept). Call before adding votes for the domain.
  void Fit(size_t domain_size) {
    if (counts_.size() < domain_size) {
      counts_.resize(domain_size, 0);
    }
  }

  /// One vote for `vid`, which must be below the last Fit size.
  void Add(ValueId vid) {
    if (counts_[vid]++ == 0) {
      touched_.push_back(vid);
    }
  }

  uint32_t count(ValueId vid) const {
    return vid < counts_.size() ? counts_[vid] : 0;
  }
  bool empty() const { return touched_.empty(); }
  /// Values with a non-zero count, in first-vote order.
  const std::vector<ValueId>& touched() const { return touched_; }

  /// Zeroes the touched slots and forgets them.
  void Clear() {
    for (ValueId vid : touched_) {
      counts_[vid] = 0;
    }
    touched_.clear();
  }

 private:
  std::vector<uint32_t> counts_;
  std::vector<ValueId> touched_;
};

}  // namespace terids

#endif  // TERIDS_IMPUTATION_CANDIDATE_COUNTER_H_
