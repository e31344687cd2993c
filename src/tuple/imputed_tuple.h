#ifndef TERIDS_TUPLE_IMPUTED_TUPLE_H_
#define TERIDS_TUPLE_IMPUTED_TUPLE_H_

#include <cstdint>
#include <vector>

#include "repo/repository.h"
#include "text/token_arena.h"
#include "text/token_set.h"
#include "tuple/pair_row.h"
#include "tuple/record.h"
#include "util/interval.h"

namespace terids {

/// The imputed (probabilistic) tuple r^p of an incomplete tuple r
/// (Definition 4): a set of mutually exclusive instances r_{i,m}, each with
/// an existence probability, such that sum of probabilities <= 1.
///
/// Instances are the cross product of the per-missing-attribute candidate
/// distributions produced by an imputer (Section 3). The cross product is
/// capped at `max_instances` highest-probability combinations; the retained
/// probabilities are kept unnormalized, which Definition 4 explicitly
/// permits (sum p <= 1).
///
/// After construction the tuple carries its PairRow (tuple/pair_row.h), the
/// one store of the aggregates the pruning lemmas need:
/// token-set size intervals (Lemma 4.1), pivot-distance intervals (Lemma
/// 4.2) and the per-tuple main-pivot sums of Lemma 4.3.
class ImputedTuple {
 public:
  /// One candidate value for a missing attribute with its confidence
  /// (Equations 3 and 4).
  struct Candidate {
    ValueId vid = kInvalidValueId;
    double prob = 0.0;
  };

  /// Candidate distribution for one missing attribute.
  struct ImputedAttr {
    int attr = -1;
    std::vector<Candidate> candidates;
  };

  /// One materialized instance: `choices[k]` is the ValueId picked for the
  /// k-th imputed attribute (ordered as in imputed_attrs()).
  struct Instance {
    std::vector<ValueId> choices;
    double prob = 1.0;
  };

  /// Wraps a complete record as a single-instance tuple with probability 1.
  static ImputedTuple FromComplete(Record record, const Repository* repo);

  /// Builds from an incomplete record plus one candidate distribution per
  /// missing attribute. Attributes of `record` that are missing but have no
  /// distribution in `imputed` stay empty in every instance (imputation
  /// found no candidates), contributing an empty token set.
  static ImputedTuple FromImputation(Record record, const Repository* repo,
                                     std::vector<ImputedAttr> imputed,
                                     int max_instances);

  const Record& base() const { return base_; }
  int64_t rid() const { return base_.rid; }
  int stream_id() const { return base_.stream_id; }
  int64_t timestamp() const { return base_.timestamp; }
  int num_attributes() const { return base_.num_attributes(); }

  bool IsAttrImputed(int attr) const { return attr_to_imputed_[attr] >= 0; }
  const std::vector<ImputedAttr>& imputed_attrs() const { return imputed_; }

  int num_instances() const { return static_cast<int>(instances_.size()); }
  const Instance& instance(int i) const { return instances_[i]; }
  double instance_prob(int i) const { return instances_[i].prob; }
  /// Sum of instance probabilities (<= 1).
  double total_prob() const { return total_prob_; }

  /// Token set of instance `inst` on `attr`, resolving imputed choices
  /// against the repository domain. Never-imputed missing attributes
  /// resolve to the empty token set.
  const TokenSet& instance_tokens(int inst, int attr) const;

  /// Flat arena view of the same token set: contiguous span + precomputed
  /// 64-bit hashed-bitmap signature (DESIGN.md §9, §11), the representation
  /// the refinement kernels read. Bounds-unchecked beyond the slot math —
  /// callers are the hot path.
  TokenView instance_token_view(int inst, int attr) const {
    return arena_.slot(static_cast<size_t>(inst) *
                           static_cast<size_t>(num_attributes()) +
                       static_cast<size_t>(attr));
  }

  /// Cached union token set T(r) of the base record (all non-missing
  /// attributes), used by the heterogeneous-schema similarity so no union
  /// is re-allocated per pair.
  TokenView union_token_view() const { return arena_.range(union_range_); }

  // ---- Aggregates (read from the tuple's PairRow) ----------------------

  /// The repository's row layout, which this tuple's row has.
  const PairRowLayout& row_layout() const { return repo_->row_layout(); }
  /// The tuple's row, computed once at construction; its topic word is 0.
  const double* row() const { return row_.data(); }

  /// [min,max] token-set size across instances on `attr` (|T^-|, |T^+|).
  Interval token_size_interval(int attr) const {
    const double* b = attr_row(attr);
    return Interval::Of(b[PairRowLayout::kSizeLo], b[PairRowLayout::kSizeHi]);
  }

  /// [lb,ub] of dist(instance[attr], piv_a[attr]) across instances.
  Interval pivot_dist_interval(int attr, int pivot_idx) const {
    const double* b = attr_row(attr);
    TERIDS_CHECK(pivot_idx >= 0 &&
                 pivot_idx < row_layout().pivot_count(attr));
    b += PairRowLayout::kPivots + 2 * static_cast<size_t>(pivot_idx);
    return Interval::Of(b[0], b[1]);
  }

 private:
  ImputedTuple() = default;
  void MaterializeInstances(int max_instances);
  void BuildTokenArena();
  /// Computes row_ (after BuildTokenArena, whose signatures it reads).
  void ComputeRow();
  const double* attr_row(int attr) const {
    TERIDS_CHECK(attr >= 0 && attr < num_attributes());
    return row_.data() + row_layout().attr_offset(attr);
  }

  Record base_;
  const Repository* repo_ = nullptr;
  std::vector<ImputedAttr> imputed_;
  std::vector<int> attr_to_imputed_;  // attr -> index into imputed_, or -1.
  std::vector<Instance> instances_;
  double total_prob_ = 0.0;

  /// This tuple's PairRow, row_layout().stride() words.
  std::vector<double> row_;

  /// Flat copy of every (instance, attribute) token set plus the record
  /// union, built once at construction. Slot layout: inst * d + attr;
  /// aliased ranges dedupe fixed attributes and repeated imputed values.
  TokenArena arena_;
  uint32_t union_range_ = TokenArena::kInvalidRange;
};

}  // namespace terids

#endif  // TERIDS_TUPLE_IMPUTED_TUPLE_H_
