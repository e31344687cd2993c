#include "tuple/imputed_tuple.h"

#include <algorithm>
#include <unordered_map>

#include "text/similarity_kernels.h"

namespace terids {

ImputedTuple ImputedTuple::FromComplete(Record record,
                                        const Repository* repo) {
  return FromImputation(std::move(record), repo, {}, 1);
}

ImputedTuple ImputedTuple::FromImputation(Record record, const Repository* repo,
                                          std::vector<ImputedAttr> imputed,
                                          int max_instances) {
  TERIDS_CHECK(repo != nullptr);
  TERIDS_CHECK(max_instances >= 1);
  ImputedTuple tuple;
  tuple.base_ = std::move(record);
  tuple.repo_ = repo;
  tuple.imputed_ = std::move(imputed);
  tuple.attr_to_imputed_.assign(tuple.base_.num_attributes(), -1);
  for (size_t k = 0; k < tuple.imputed_.size(); ++k) {
    const ImputedAttr& ia = tuple.imputed_[k];
    TERIDS_CHECK(ia.attr >= 0 && ia.attr < tuple.base_.num_attributes());
    TERIDS_CHECK(tuple.base_.values[ia.attr].missing);
    TERIDS_CHECK(!ia.candidates.empty());
    tuple.attr_to_imputed_[ia.attr] = static_cast<int>(k);
  }
  tuple.MaterializeInstances(max_instances);
  tuple.BuildTokenArena();
  tuple.ComputeRow();
  return tuple;
}

void ImputedTuple::MaterializeInstances(int max_instances) {
  // Sort each attribute's candidates by descending probability so the
  // truncated cross product keeps the most likely combinations.
  for (ImputedAttr& ia : imputed_) {
    std::sort(ia.candidates.begin(), ia.candidates.end(),
              [](const Candidate& a, const Candidate& b) {
                return a.prob > b.prob;
              });
  }

  instances_.clear();
  Instance seed;
  seed.choices.assign(imputed_.size(), kInvalidValueId);
  seed.prob = 1.0;
  instances_.push_back(std::move(seed));

  // Expand the cross product one imputed attribute at a time, truncating to
  // the top `max_instances` partial combinations after each expansion. This
  // keeps the expansion cost bounded by O(#attrs * max_instances * #cands).
  for (size_t k = 0; k < imputed_.size(); ++k) {
    std::vector<Instance> next;
    next.reserve(instances_.size() * imputed_[k].candidates.size());
    for (const Instance& partial : instances_) {
      for (const Candidate& cand : imputed_[k].candidates) {
        Instance inst = partial;
        inst.choices[k] = cand.vid;
        inst.prob = partial.prob * cand.prob;
        next.push_back(std::move(inst));
      }
    }
    if (static_cast<int>(next.size()) > max_instances) {
      std::partial_sort(next.begin(), next.begin() + max_instances, next.end(),
                        [](const Instance& a, const Instance& b) {
                          return a.prob > b.prob;
                        });
      next.resize(max_instances);
    }
    instances_ = std::move(next);
  }

  total_prob_ = 0.0;
  for (const Instance& inst : instances_) {
    total_prob_ += inst.prob;
  }
  // Complete tuples carry one instance with probability exactly 1.
  if (imputed_.empty()) {
    TERIDS_CHECK(instances_.size() == 1);
    instances_[0].prob = 1.0;
    total_prob_ = 1.0;
  }
}

const TokenSet& ImputedTuple::instance_tokens(int inst, int attr) const {
  TERIDS_CHECK(inst >= 0 && inst < num_instances());
  TERIDS_CHECK(attr >= 0 && attr < num_attributes());
  const int k = attr_to_imputed_[attr];
  if (k < 0) {
    const AttrValue& v = base_.values[attr];
    return v.missing ? kEmptyTokenSet : v.tokens;
  }
  const ValueId vid = instances_[inst].choices[k];
  return repo_->value_tokens(attr, vid);
}

void ImputedTuple::BuildTokenArena() {
  const int d = num_attributes();
  const int m = num_instances();
  // Exact-or-over hints: fixed ranges hold the base tokens once, the union
  // holds at most the base tokens again, and each imputed attribute
  // materializes at most one range per candidate (instances may choose
  // fewer distinct values).
  size_t token_hint = 2 * base_.TotalTokenCount();
  size_t range_hint = 2 + static_cast<size_t>(d);
  for (const ImputedAttr& ia : imputed_) {
    range_hint += ia.candidates.size();
    for (const Candidate& cand : ia.candidates) {
      token_hint += repo_->value_tokens(ia.attr, cand.vid).size();
    }
  }
  arena_.Reserve(token_hint, range_hint,
                 /*slots=*/static_cast<size_t>(m) * static_cast<size_t>(d));

  // One range per fixed (non-imputed) attribute, shared by every instance;
  // missing-unfilled attributes alias the empty range.
  const uint32_t empty_range = arena_.AddRange({});
  std::vector<uint32_t> fixed_range(d, TokenArena::kInvalidRange);
  for (int x = 0; x < d; ++x) {
    if (attr_to_imputed_[x] >= 0) {
      continue;
    }
    const AttrValue& v = base_.values[x];
    fixed_range[x] =
        v.missing ? empty_range
                  : arena_.AddRange(v.tokens.data(), v.tokens.size());
  }

  // Imputed attributes: one range per distinct chosen ValueId, aliased by
  // every instance that picked it.
  std::vector<std::unordered_map<ValueId, uint32_t>> vid_ranges(
      imputed_.size());
  for (int inst = 0; inst < m; ++inst) {
    for (int x = 0; x < d; ++x) {
      const int k = attr_to_imputed_[x];
      if (k < 0) {
        arena_.PushSlot(fixed_range[x]);
        continue;
      }
      const ValueId vid = instances_[inst].choices[k];
      auto [it, inserted] = vid_ranges[k].emplace(vid, 0);
      if (inserted) {
        const TokenSet& ts = repo_->value_tokens(x, vid);
        it->second = arena_.AddRange(ts.data(), ts.size());
      }
      arena_.PushSlot(it->second);
    }
  }

  // Cached record union T(r): computed once per tuple so the heterogeneous
  // similarity never re-allocates a union per pair (same semantics as the
  // Record overload: one shared definition).
  std::vector<Token> all;
  UnionRecordTokensInto(base_, &all);
  union_range_ = arena_.AddRange(all);
}

void ImputedTuple::ComputeRow() {
  using L = PairRowLayout;
  const PairRowLayout& layout = row_layout();
  const int d = num_attributes();
  // An unset layout (no pivots attached) has no dimensions.
  TERIDS_CHECK(layout.dims() == d);
  row_.assign(layout.stride(), 0.0);
  row_[L::kInstances] = static_cast<double>(num_instances());
  row_[L::kTotalProb] = total_prob_;
  const double norm = total_prob_ > 0 ? total_prob_ : 1.0;

  // Interval::Cover on a [lo, hi] word pair of the row.
  const auto cover = [](double* words, double v) {
    words[0] = std::min(words[0], v);
    words[1] = std::max(words[1], v);
  };

  for (int x = 0; x < d; ++x) {
    double* b = row_.data() + layout.attr_offset(x);
    const int np = layout.pivot_count(x);
    // Start every interval empty (lo = +inf, hi = -inf), as Interval does.
    for (size_t word = L::kSizeLo; word < L::kPivots + 2 * np; word += 2) {
      b[word] = Interval::Empty().lo;
      b[word + 1] = Interval::Empty().hi;
    }

    // E(X_x) w.r.t. the main pivot, over the *normalized* instance
    // distribution (required for the Paley-Zygmund bound to stay an upper
    // bound when the instance set is truncated).
    double expected = 0.0;
    const int k = attr_to_imputed_[x];
    if (k < 0) {
      // Single fixed value across all instances. An unfilled missing
      // attribute has the empty token set: its distance to any non-empty
      // pivot is 1 (and 0 to an empty pivot).
      const AttrValue& v = base_.values[x];
      const TokenSet& tokens = v.missing ? kEmptyTokenSet : v.tokens;
      cover(b + L::kSizeLo, static_cast<double>(tokens.size()));
      for (int a = 0; a < np; ++a) {
        cover(b + L::kPivots + 2 * a,
              JaccardDistance(tokens, repo_->pivot_tokens(x, a)));
      }
      expected = b[L::kPivots];
    } else {
      for (const Instance& inst : instances_) {
        const ValueId vid = inst.choices[k];
        cover(b + L::kSizeLo,
              static_cast<double>(repo_->value_tokens(x, vid).size()));
        const double weight = inst.prob / norm;
        const double coord = repo_->pivot_distance(x, 0, vid);
        cover(b + L::kPivots, coord);
        expected += weight * coord;
        for (int a = 1; a < np; ++a) {
          cover(b + L::kPivots + 2 * a, repo_->pivot_distance(x, a, vid));
        }
      }
    }
    row_[L::kSumExpected] += expected;
    row_[L::kSumLo] += b[L::kPivots];
    row_[L::kSumHi] += b[L::kPivots + 1];
  }

  if (num_instances() != 1) {
    return;
  }
  int saturated = 0;
  for (int x = 0; x < d; ++x) {
    const TokenView view = instance_token_view(0, x);
    layout.SetToken(row_.data(), x, view.sig, view.len);
    saturated += PopCount64(view.sig) > kSigSaturatedBits ? 1 : 0;
  }
  row_[L::kSaturated] = static_cast<double>(saturated);
}

}  // namespace terids
