#include "imputation/value_neighborhoods.h"

#include <algorithm>

namespace terids {

ValueNeighborhoods::ValueNeighborhoods(const Repository* repo) : repo_(repo) {
  TERIDS_CHECK(repo != nullptr);
  attrs_.resize(repo->num_attributes());
}

ValueNeighborhoods::AttrLists& ValueNeighborhoods::Fresh(int attr) {
  AttrLists& a = attrs_[attr];
  const size_t n = repo_->domain_size(attr);
  if (a.built_size == n) {
    return a;
  }
  // Domains only grow and existing values never change, but a new value may
  // belong in any list of its attribute, so all of them are rebuilt lazily.
  a.built_size = n;
  a.postings.clear();
  a.tokenless.clear();
  for (ValueId vid = 0; vid < n; ++vid) {
    const TokenSet& tokens = repo_->value_tokens(attr, vid);
    if (tokens.empty()) {
      a.tokenless.push_back(vid);
    }
    for (Token t : tokens) {
      a.postings.emplace_back(t, vid);
    }
  }
  std::sort(a.postings.begin(), a.postings.end());
  a.lists.assign(n, {});
  if (seen_.size() < n) {
    seen_.resize(n, 0);
  }
  return a;
}

const std::vector<std::pair<double, ValueId>>& ValueNeighborhoods::Neighborhood(
    int attr, ValueId vid) {
  AttrLists& a = Fresh(attr);
  std::vector<std::pair<double, ValueId>>& neighbors = a.lists[vid];
  if (!neighbors.empty()) {
    return neighbors;
  }
  const TokenSet& center = repo_->value_tokens(attr, vid);
  TokenSharing(attr, center, &sharing_);
  for (ValueId other : sharing_) {
    neighbors.emplace_back(
        JaccardDistance(center, repo_->value_tokens(attr, other)), other);
  }
  std::sort(neighbors.begin(), neighbors.end());
  return neighbors;
}

void ValueNeighborhoods::TokenSharing(int attr, const TokenSet& probe,
                                      std::vector<ValueId>* out) {
  const AttrLists& a = Fresh(attr);
  if (probe.empty()) {
    // Two empty sets are at distance 0; every other value is at 1.
    *out = a.tokenless;
    return;
  }
  out->clear();
  if (++seen_epoch_ == 0) {
    std::fill(seen_.begin(), seen_.end(), 0);
    seen_epoch_ = 1;
  }
  // Exactly the values sharing a token with the probe are below distance 1.
  for (Token t : probe) {
    auto it = std::lower_bound(a.postings.begin(), a.postings.end(),
                               std::make_pair(t, static_cast<ValueId>(0)));
    for (; it != a.postings.end() && it->first == t; ++it) {
      if (seen_[it->second] != seen_epoch_) {
        seen_[it->second] = seen_epoch_;
        out->push_back(it->second);
      }
    }
  }
}

void ValueNeighborhoods::AccumulateRange(int attr, ValueId svid,
                                         const Interval& dep,
                                         CandidateCounter* counts) {
  const auto& neighbors = Neighborhood(attr, svid);
  if (dep.Contains(1.0)) {
    // Every value outside the list sits at distance 1 and gets a vote; so
    // does every listed value at distance >= dep.lo. One vote for the whole
    // domain, minus the listed prefix below dep.lo.
    counts->AddAll();
    for (auto it = neighbors.begin();
         it != neighbors.end() && it->first < dep.lo; ++it) {
      counts->Remove(it->second);
    }
    return;
  }
  auto lo = std::lower_bound(neighbors.begin(), neighbors.end(),
                             std::make_pair(dep.lo, static_cast<ValueId>(0)));
  for (auto it = lo; it != neighbors.end() && it->first <= dep.hi; ++it) {
    counts->Add(it->second);
  }
}

}  // namespace terids
