#ifndef TERIDS_REPO_IN_MEMORY_STORAGE_H_
#define TERIDS_REPO_IN_MEMORY_STORAGE_H_

#include <string>
#include <vector>

#include "repo/repo_storage.h"

namespace terids {

/// The default Repository backend: everything lives in process memory as
/// plain vectors plus the AttributeDomain interning multimaps. This is the
/// reference implementation every other backend must match bit-for-bit —
/// the snapshot writer serializes from the read interface, and the
/// equivalence sweep compares engine output against it.
class InMemoryStorage final : public RepoStorage {
 public:
  explicit InMemoryStorage(int num_attributes);

  const char* name() const override { return "memory"; }

  // ---- Read path -------------------------------------------------------

  size_t domain_size(int attr) const override;
  const TokenSet& value_tokens(int attr, ValueId id) const override;
  std::string_view value_text(int attr, ValueId id) const override;
  int value_frequency(int attr, ValueId id) const override;
  ValueId FindValue(int attr, const TokenSet& tokens) const override;

  size_t num_samples() const override { return samples_.size(); }
  const Record& sample(size_t i) const override;
  ValueId sample_value_id(size_t i, int attr) const override;

  bool has_pivots() const override { return !pivots_.empty(); }
  int num_pivots(int attr) const override;
  const TokenSet& pivot_tokens(int attr, int pivot_idx) const override;
  double pivot_distance(int attr, int pivot_idx, ValueId vid) const override;

  // ---- Write path ------------------------------------------------------

  ValueId RegisterValue(int attr, const TokenSet& tokens,
                        const std::string& text) override;
  void BumpFrequency(int attr, ValueId id) override;
  void AppendSample(const Record& record, std::vector<ValueId> vids) override;
  bool SupportsAttachPivots() const override { return true; }
  /// Precomputes, for every attribute x, pivot a, and domain value v:
  /// dist(v, piv_a[A_x]).
  void AttachPivots(std::vector<AttributePivots> pivots) override;

  /// Direct domain access for tests and diagnostics (the facade's
  /// Repository::domain pass-through). Engine code uses the interface.
  const AttributeDomain& domain(int attr) const;

 private:
  int num_attributes_;
  std::vector<Record> samples_;
  // sample_vids_[i][x] = ValueId of sample i's attribute x.
  std::vector<std::vector<ValueId>> sample_vids_;
  std::vector<AttributeDomain> domains_;

  std::vector<AttributePivots> pivots_;
  // pivot_dists_[x][a][vid] = dist(dom value vid, pivot a of attr x).
  std::vector<std::vector<std::vector<double>>> pivot_dists_;
};

}  // namespace terids

#endif  // TERIDS_REPO_IN_MEMORY_STORAGE_H_
