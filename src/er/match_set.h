#ifndef TERIDS_ER_MATCH_SET_H_
#define TERIDS_ER_MATCH_SET_H_

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

namespace terids {

/// One TER-iDS result pair (r_i, r_j) with its ER probability.
struct MatchPair {
  int64_t rid_a = -1;  // always the smaller rid
  int64_t rid_b = -1;
  double probability = 0.0;
};

/// The entity result set ES maintained by Algorithm 1/2: current matching
/// pairs over the live sliding windows. Each rid keeps a flat vector of
/// its partners and their probabilities, so expiring a tuple walks its own
/// vector once and swap-erases it from each partner's vector: no per-pair
/// hash node is touched.
class MatchSet {
 public:
  /// Inserts or updates a pair; order of the two rids is irrelevant.
  void Add(int64_t rid_a, int64_t rid_b, double probability);

  /// Removes one pair. Returns true if it was present.
  bool Remove(int64_t rid_a, int64_t rid_b);

  /// Removes every pair involving `rid` (tuple expiration). Returns the
  /// number of pairs removed.
  int RemoveAllWith(int64_t rid);

  bool Contains(int64_t rid_a, int64_t rid_b) const;

  /// Probability of a pair, or -1 if absent.
  double ProbabilityOf(int64_t rid_a, int64_t rid_b) const;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Snapshot of the current result set, sorted by (rid_a, rid_b).
  std::vector<MatchPair> ToVector() const;

 private:
  struct Partner {
    int64_t rid = -1;
    double probability = 0.0;
  };

  /// `other` in `rid`'s partner vector, or null.
  const Partner* Find(int64_t rid, int64_t other) const;
  /// Swap-erases `other` from `rid`'s partner vector, dropping the vector
  /// once it is empty. Returns false if `other` was not there.
  bool ErasePartner(int64_t rid, int64_t other);

  std::unordered_map<int64_t, std::vector<Partner>> partners_;
  size_t size_ = 0;
};

}  // namespace terids

#endif  // TERIDS_ER_MATCH_SET_H_
