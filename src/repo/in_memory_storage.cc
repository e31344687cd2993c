#include "repo/in_memory_storage.h"

#include <utility>

namespace terids {

InMemoryStorage::InMemoryStorage(int num_attributes)
    : num_attributes_(num_attributes) {
  TERIDS_CHECK(num_attributes >= 1);
  domains_.resize(static_cast<size_t>(num_attributes));
}

size_t InMemoryStorage::domain_size(int attr) const {
  TERIDS_CHECK(attr >= 0 && attr < num_attributes_);
  return domains_[attr].size();
}

const TokenSet& InMemoryStorage::value_tokens(int attr, ValueId id) const {
  TERIDS_CHECK(attr >= 0 && attr < num_attributes_);
  return domains_[attr].tokens(id);
}

std::string_view InMemoryStorage::value_text(int attr, ValueId id) const {
  TERIDS_CHECK(attr >= 0 && attr < num_attributes_);
  return domains_[attr].text(id);
}

int InMemoryStorage::value_frequency(int attr, ValueId id) const {
  TERIDS_CHECK(attr >= 0 && attr < num_attributes_);
  return domains_[attr].frequency(id);
}

ValueId InMemoryStorage::FindValue(int attr, const TokenSet& tokens) const {
  TERIDS_CHECK(attr >= 0 && attr < num_attributes_);
  return domains_[attr].Find(tokens);
}

const Record& InMemoryStorage::sample(size_t i) const {
  TERIDS_CHECK(i < samples_.size());
  return samples_[i];
}

ValueId InMemoryStorage::sample_value_id(size_t i, int attr) const {
  TERIDS_CHECK(i < sample_vids_.size());
  TERIDS_CHECK(attr >= 0 && attr < num_attributes_);
  return sample_vids_[i][attr];
}

int InMemoryStorage::num_pivots(int attr) const {
  TERIDS_CHECK(has_pivots());
  TERIDS_CHECK(attr >= 0 && attr < num_attributes_);
  return pivots_[attr].count();
}

const TokenSet& InMemoryStorage::pivot_tokens(int attr, int pivot_idx) const {
  TERIDS_CHECK(has_pivots());
  TERIDS_CHECK(attr >= 0 && attr < num_attributes_);
  TERIDS_CHECK(pivot_idx >= 0 && pivot_idx < pivots_[attr].count());
  return pivots_[attr].pivots[pivot_idx];
}

double InMemoryStorage::pivot_distance(int attr, int pivot_idx,
                                       ValueId vid) const {
  TERIDS_CHECK(has_pivots());
  TERIDS_CHECK(attr >= 0 && attr < num_attributes_);
  TERIDS_CHECK(pivot_idx >= 0 && pivot_idx < pivots_[attr].count());
  TERIDS_CHECK(vid < pivot_dists_[attr][pivot_idx].size());
  return pivot_dists_[attr][pivot_idx][vid];
}

ValueId InMemoryStorage::RegisterValue(int attr, const TokenSet& tokens,
                                       const std::string& text) {
  TERIDS_CHECK(attr >= 0 && attr < num_attributes_);
  const size_t before = domains_[attr].size();
  const ValueId vid = domains_[attr].FindOrAdd(tokens, text);
  if (domains_[attr].size() != before && has_pivots()) {
    // New value after pivots were attached: extend the distance tables
    // incrementally.
    const int np = pivots_[attr].count();
    for (int a = 0; a < np; ++a) {
      pivot_dists_[attr][a].push_back(
          JaccardDistance(tokens, pivots_[attr].pivots[a]));
    }
  }
  return vid;
}

void InMemoryStorage::BumpFrequency(int attr, ValueId id) {
  TERIDS_CHECK(attr >= 0 && attr < num_attributes_);
  domains_[attr].BumpFrequency(id);
}

void InMemoryStorage::AppendSample(const Record& record,
                                   std::vector<ValueId> vids) {
  TERIDS_CHECK(static_cast<int>(vids.size()) == num_attributes_);
  samples_.push_back(record);
  sample_vids_.push_back(std::move(vids));
}

void InMemoryStorage::AttachPivots(std::vector<AttributePivots> pivots) {
  TERIDS_CHECK(static_cast<int>(pivots.size()) == num_attributes_);
  pivots_ = std::move(pivots);

  const int d = num_attributes_;
  pivot_dists_.assign(d, {});
  for (int x = 0; x < d; ++x) {
    const AttributeDomain& dom = domains_[x];
    const int np = pivots_[x].count();
    pivot_dists_[x].assign(np, std::vector<double>(dom.size(), 0.0));
    for (int a = 0; a < np; ++a) {
      for (ValueId v = 0; v < dom.size(); ++v) {
        pivot_dists_[x][a][v] =
            JaccardDistance(dom.tokens(v), pivots_[x].pivots[a]);
      }
    }
  }
}

const AttributeDomain& InMemoryStorage::domain(int attr) const {
  TERIDS_CHECK(attr >= 0 && attr < num_attributes_);
  return domains_[attr];
}

}  // namespace terids
