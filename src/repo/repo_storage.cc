#include "repo/repo_storage.h"

#include <algorithm>
#include <utility>

namespace terids {

void RepoStorage::AppendValuesInCoordRange(int attr, const Interval& interval,
                                           std::vector<ValueId>* out) const {
  std::vector<std::pair<double, ValueId>> hits;
  const size_t dom = domain_size(attr);
  for (ValueId v = 0; v < dom; ++v) {
    const double coord = pivot_distance(attr, 0, v);
    if (interval.Contains(coord)) {
      hits.emplace_back(coord, v);
    }
  }
  std::sort(hits.begin(), hits.end());
  for (const auto& hit : hits) {
    out->push_back(hit.second);
  }
}

}  // namespace terids
