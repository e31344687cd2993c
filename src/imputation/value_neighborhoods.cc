#include "imputation/value_neighborhoods.h"

#include <algorithm>

namespace terids {

ValueNeighborhoods::ValueNeighborhoods(const Repository* repo,
                                       std::vector<double> radius)
    : repo_(repo), radius_(std::move(radius)) {
  TERIDS_CHECK(repo != nullptr);
  TERIDS_CHECK(static_cast<int>(radius_.size()) == repo->num_attributes());
  cache_.resize(radius_.size());
}

std::vector<double> ValueNeighborhoods::MaxRadiusPerAttr(
    const std::vector<CddRule>& rules, int num_attributes) {
  std::vector<double> radius(num_attributes, 0.0);
  for (const CddRule& rule : rules) {
    radius[rule.dependent] =
        std::max(radius[rule.dependent], rule.dep_interval.hi);
  }
  return radius;
}

const std::vector<std::pair<double, ValueId>>& ValueNeighborhoods::Neighborhood(
    int attr, ValueId vid) {
  auto& per_attr = cache_[attr];
  if (vid >= per_attr.size()) {
    per_attr.resize(repo_->domain_size(attr));
  }
  std::vector<std::pair<double, ValueId>>& neighbors = per_attr[vid];
  if (!neighbors.empty()) {
    return neighbors;
  }
  const double radius = radius_[attr];
  const TokenSet& center = repo_->value_tokens(attr, vid);
  const double coord = repo_->coord(attr, vid);
  // |coord(v) - coord(center)| <= dist(v, center): the coordinate band is a
  // sound prefilter for the radius ball.
  for (ValueId other : repo_->ValuesInCoordRange(
           attr, Interval::Of(coord - radius, coord + radius))) {
    const double dist =
        JaccardDistance(center, repo_->value_tokens(attr, other));
    if (dist <= radius) {
      neighbors.emplace_back(dist, other);
    }
  }
  std::sort(neighbors.begin(), neighbors.end());
  return neighbors;
}

void ValueNeighborhoods::AccumulateRange(int attr, ValueId svid,
                                         const Interval& dep,
                                         CandidateCounter* counts) {
  const auto& neighbors = Neighborhood(attr, svid);
  auto lo = std::lower_bound(neighbors.begin(), neighbors.end(),
                             std::make_pair(dep.lo, static_cast<ValueId>(0)));
  for (auto it = lo; it != neighbors.end() && it->first <= dep.hi; ++it) {
    counts->Add(it->second);
  }
}

void ValueNeighborhoods::SetRadius(const std::vector<double>& radius) {
  TERIDS_CHECK(radius.size() == radius_.size());
  for (size_t x = 0; x < radius.size(); ++x) {
    if (radius[x] != radius_[x]) {
      radius_[x] = radius[x];
      Invalidate(static_cast<int>(x));
    }
  }
}

void ValueNeighborhoods::Invalidate(int attr) { cache_[attr].clear(); }

}  // namespace terids
