#ifndef TERIDS_REPO_REPO_STORAGE_H_
#define TERIDS_REPO_REPO_STORAGE_H_

#include <string>
#include <string_view>
#include <vector>

#include "repo/attribute_domain.h"
#include "repo/repo_backend.h"
#include "text/token_set.h"
#include "tuple/record.h"
#include "util/interval.h"

namespace terids {

/// Pivot attribute values selected for one attribute: pivots[0] is the main
/// pivot (defines the metric-embedding coordinate), pivots[1..] are the
/// auxiliary pivots used only for aggregate pruning intervals (Section 5.1).
struct AttributePivots {
  std::vector<TokenSet> pivots;
  int count() const { return static_cast<int>(pivots.size()); }
};

/// Physical storage behind a Repository (DESIGN.md §8): per-attribute value
/// domains, the complete sample tuples with their ValueIds, and — once
/// pivots are attached — the pivot-distance tables that give every tuple
/// its PairRow bounds (Section 5.1).
///
/// The read path is the hot interface every engine layer goes through (via
/// the Repository facade). The write path exists for repository maintenance:
/// AddSample / the constraint imputer's RegisterValue (Section 5.5 dynamic
/// repository). Implementations must keep reads bit-identical across
/// backends: same ValueIds, same pivot distances — the equivalence sweep
/// holds them to that.
class RepoStorage {
 public:
  virtual ~RepoStorage() = default;

  /// Stable backend identifier ("memory", "mmap").
  virtual const char* name() const = 0;

  // ---- Domains ---------------------------------------------------------

  [[nodiscard]] virtual size_t domain_size(int attr) const = 0;
  [[nodiscard]] virtual const TokenSet& value_tokens(int attr,
                                                     ValueId id) const = 0;
  /// Display text of a domain value. Returned as a view so snapshot
  /// backends can serve it straight from the mapped text blob; it stays
  /// valid for the storage's lifetime.
  [[nodiscard]] virtual std::string_view value_text(int attr,
                                                    ValueId id) const = 0;
  [[nodiscard]] virtual int value_frequency(int attr, ValueId id) const = 0;
  /// Id of an existing value of dom(attr) with this exact token set, or
  /// kInvalidValueId.
  [[nodiscard]] virtual ValueId FindValue(int attr,
                                          const TokenSet& tokens) const = 0;

  // ---- Samples ---------------------------------------------------------

  [[nodiscard]] virtual size_t num_samples() const = 0;
  [[nodiscard]] virtual const Record& sample(size_t i) const = 0;
  [[nodiscard]] virtual ValueId sample_value_id(size_t i, int attr) const = 0;

  // ---- Pivot geometry --------------------------------------------------

  [[nodiscard]] virtual bool has_pivots() const = 0;
  [[nodiscard]] virtual int num_pivots(int attr) const = 0;
  [[nodiscard]] virtual const TokenSet& pivot_tokens(int attr,
                                                     int pivot_idx) const = 0;
  [[nodiscard]] virtual double pivot_distance(int attr, int pivot_idx,
                                              ValueId vid) const = 0;
  /// Appends, in ascending (coordinate, ValueId) order, every domain value
  /// of `attr` whose main-pivot coordinate pivot_distance(attr, 0, v) lies
  /// in [interval.lo, interval.hi]; both endpoints are inclusive hits.
  /// Empty intervals yield nothing. One domain scan, shared by every
  /// backend. Kept only because terbench's storage wrapper overrides it;
  /// no engine code calls it (ROADMAP item 1 removes it).
  virtual void AppendValuesInCoordRange(int attr, const Interval& interval,
                                        std::vector<ValueId>* out) const;

  // ---- Write path (repository maintenance, Section 5.5) ---------------

  /// Adds (or finds) a domain value; when pivots are attached, extends the
  /// pivot-distance tables incrementally.
  virtual ValueId RegisterValue(int attr, const TokenSet& tokens,
                                const std::string& text) = 0;
  virtual void BumpFrequency(int attr, ValueId id) = 0;
  /// Appends one complete sample whose per-attribute ValueIds were already
  /// registered. `vids` has one entry per attribute.
  virtual void AppendSample(const Record& record,
                            std::vector<ValueId> vids) = 0;
  /// Whether AttachPivots may be called (false for snapshot backends, whose
  /// pivot geometry is baked into the file at write time).
  [[nodiscard]] virtual bool SupportsAttachPivots() const = 0;
  virtual void AttachPivots(std::vector<AttributePivots> pivots) = 0;
};

}  // namespace terids

#endif  // TERIDS_REPO_REPO_STORAGE_H_
