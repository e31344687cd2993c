#include "er/match_set.h"

#include <algorithm>

#include "util/status.h"

namespace terids {

const MatchSet::Partner* MatchSet::Find(int64_t rid, int64_t other) const {
  const auto it = partners_.find(rid);
  if (it == partners_.end()) {
    return nullptr;
  }
  for (const Partner& p : it->second) {
    if (p.rid == other) {
      return &p;
    }
  }
  return nullptr;
}

bool MatchSet::ErasePartner(int64_t rid, int64_t other) {
  const auto it = partners_.find(rid);
  if (it == partners_.end()) {
    return false;
  }
  std::vector<Partner>& list = it->second;
  for (Partner& p : list) {
    if (p.rid == other) {
      p = list.back();
      list.pop_back();
      if (list.empty()) {
        partners_.erase(it);
      }
      return true;
    }
  }
  return false;
}

void MatchSet::Add(int64_t rid_a, int64_t rid_b, double probability) {
  TERIDS_CHECK(rid_a != rid_b);
  // Node-based map: references stay valid across the second insertion.
  std::vector<Partner>& list_a = partners_[rid_a];
  std::vector<Partner>& list_b = partners_[rid_b];
  // An existing pair is in both vectors; look it up in the shorter one.
  const bool a_shorter = list_a.size() <= list_b.size();
  const std::vector<Partner>& shorter = a_shorter ? list_a : list_b;
  const int64_t wanted = a_shorter ? rid_b : rid_a;
  const bool present =
      std::any_of(shorter.begin(), shorter.end(),
                  [wanted](const Partner& p) { return p.rid == wanted; });
  if (!present) {
    list_a.push_back({rid_b, probability});
    list_b.push_back({rid_a, probability});
    ++size_;
    return;
  }
  for (Partner& p : list_a) {
    if (p.rid == rid_b) {
      p.probability = probability;
    }
  }
  for (Partner& p : list_b) {
    if (p.rid == rid_a) {
      p.probability = probability;
    }
  }
}

bool MatchSet::Remove(int64_t rid_a, int64_t rid_b) {
  if (!ErasePartner(rid_a, rid_b)) {
    return false;
  }
  TERIDS_CHECK(ErasePartner(rid_b, rid_a));
  --size_;
  return true;
}

int MatchSet::RemoveAllWith(int64_t rid) {
  const auto it = partners_.find(rid);
  if (it == partners_.end()) {
    return 0;
  }
  // Erasing from the partners' vectors leaves `it` valid: only other keys'
  // entries can be dropped.
  for (const Partner& p : it->second) {
    TERIDS_CHECK(ErasePartner(p.rid, rid));
  }
  const int removed = static_cast<int>(it->second.size());
  size_ -= it->second.size();
  partners_.erase(it);
  return removed;
}

bool MatchSet::Contains(int64_t rid_a, int64_t rid_b) const {
  return Find(rid_a, rid_b) != nullptr;
}

double MatchSet::ProbabilityOf(int64_t rid_a, int64_t rid_b) const {
  const Partner* p = Find(rid_a, rid_b);
  return p == nullptr ? -1.0 : p->probability;
}

std::vector<MatchPair> MatchSet::ToVector() const {
  std::vector<MatchPair> out;
  out.reserve(size_);
  for (const auto& [rid, list] : partners_) {
    for (const Partner& p : list) {
      if (rid < p.rid) {
        out.push_back({rid, p.rid, p.probability});
      }
    }
  }
  std::sort(out.begin(), out.end(), [](const MatchPair& a, const MatchPair& b) {
    return a.rid_a != b.rid_a ? a.rid_a < b.rid_a : a.rid_b < b.rid_b;
  });
  return out;
}

}  // namespace terids
