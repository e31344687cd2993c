#include "eval/metrics.h"

#include <algorithm>
#include <unordered_set>

namespace terids {

namespace {
uint64_t PairKey(int64_t a, int64_t b) {
  if (a > b) std::swap(a, b);
  return (static_cast<uint64_t>(static_cast<uint32_t>(a)) << 32) |
         static_cast<uint64_t>(static_cast<uint32_t>(b));
}
}  // namespace

PrecisionRecall ComputeFScore(const std::vector<MatchPair>& returned,
                              const std::vector<GroundTruthPair>& truth) {
  PrecisionRecall pr;
  std::unordered_set<uint64_t> truth_keys;
  truth_keys.reserve(truth.size());
  for (const GroundTruthPair& t : truth) {
    truth_keys.insert(PairKey(t.rid_a, t.rid_b));
  }
  std::unordered_set<uint64_t> returned_keys;
  returned_keys.reserve(returned.size());
  for (const MatchPair& p : returned) {
    returned_keys.insert(PairKey(p.rid_a, p.rid_b));
  }
  pr.returned = returned_keys.size();
  pr.truth_size = truth_keys.size();
  for (uint64_t key : returned_keys) {
    if (truth_keys.count(key) > 0) {
      ++pr.true_positives;
    }
  }
  if (pr.returned > 0) {
    pr.precision = static_cast<double>(pr.true_positives) /
                   static_cast<double>(pr.returned);
  }
  if (pr.truth_size > 0) {
    pr.recall = static_cast<double>(pr.true_positives) /
                static_cast<double>(pr.truth_size);
  }
  if (pr.precision + pr.recall > 0.0) {
    pr.f_score =
        2.0 * pr.precision * pr.recall / (pr.precision + pr.recall);
  }
  return pr;
}

}  // namespace terids
