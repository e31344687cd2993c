#ifndef TERIDS_REPO_REPOSITORY_H_
#define TERIDS_REPO_REPOSITORY_H_

#include <memory>
#include <string>
#include <vector>

#include "repo/repo_storage.h"
#include "text/token_dict.h"
#include "text/token_set.h"
#include "tuple/pair_row.h"
#include "tuple/record.h"
#include "tuple/schema.h"
#include "util/status.h"

namespace terids {

class AttributeDomain;
class InMemoryStorage;

/// The static complete data repository R (Section 2.2): a facade binding a
/// schema and token dictionary to a pluggable physical storage backend
/// (DESIGN.md §8).
///
/// All engine layers — the indexes, imputers, rule miner, pivot selector,
/// and pipelines — read R exclusively through this class's backend-neutral
/// accessors, so the same engine runs unchanged over the in-memory vectors
/// (the default) or a read-only mmap snapshot whose numeric geometry
/// tables, token columns, and display texts are served zero-copy from the
/// page cache instead of rebuilt on the heap, every section validated at
/// open (see DESIGN.md §8). Backends are required to
/// be bit-identical on the read path; the equivalence sweep enforces it
/// end to end.
class Repository {
 public:
  /// In-memory backend (the default).
  Repository(const Schema* schema, const TokenDict* dict);

  /// Explicit backend. `storage` must already agree with the schema's
  /// attribute count (backend factories validate this).
  Repository(const Schema* schema, const TokenDict* dict,
             std::unique_ptr<RepoStorage> storage);

  /// Opens a Repository over the snapshot file at `path` with the
  /// MmapSnapshotStorage backend. Fails with a precise Status if the file
  /// is missing, corrupt, or disagrees with `schema`/`dict`; every
  /// section is decoded and validated before it returns.
  static Result<std::unique_ptr<Repository>> OpenSnapshot(
      const Schema* schema, const TokenDict* dict, const std::string& path);

  Repository(const Repository&) = delete;
  Repository& operator=(const Repository&) = delete;
  Repository(Repository&&) = default;
  Repository& operator=(Repository&&) = default;

  /// Adds a complete sample tuple. Returns InvalidArgument if the record has
  /// missing attributes or the wrong arity. May be called after
  /// AttachPivots() (dynamic repository, Section 5.5): pivot-distance
  /// tables are extended incrementally for any new domain values.
  Status AddSample(const Record& record);

  /// Registers a value in dom(`attr`) without adding a sample (used by the
  /// constraint-based imputer, whose candidates come from the stream rather
  /// than from R). Extends pivot tables if pivots are attached.
  ValueId RegisterValue(int attr, const TokenSet& tokens,
                        const std::string& text);

  const Schema& schema() const { return *schema_; }
  const TokenDict& dict() const { return *dict_; }
  int num_attributes() const { return schema_->num_attributes(); }
  size_t num_samples() const { return storage_->num_samples(); }

  const Record& sample(size_t i) const { return storage_->sample(i); }
  /// ValueId of sample i's attribute x within dom(A_x).
  ValueId sample_value_id(size_t i, int attr) const {
    return storage_->sample_value_id(i, attr);
  }

  // ---- Domain reads (backend-neutral) ---------------------------------

  size_t domain_size(int attr) const { return storage_->domain_size(attr); }
  const TokenSet& value_tokens(int attr, ValueId id) const {
    return storage_->value_tokens(attr, id);
  }
  std::string_view value_text(int attr, ValueId id) const {
    return storage_->value_text(attr, id);
  }
  int value_frequency(int attr, ValueId id) const {
    return storage_->value_frequency(attr, id);
  }
  /// Id of an existing value with this exact token set, or kInvalidValueId.
  ValueId FindValue(int attr, const TokenSet& tokens) const {
    return storage_->FindValue(attr, tokens);
  }

  /// Direct AttributeDomain access for tests and diagnostics. Only the
  /// in-memory backend materializes AttributeDomain objects; this CHECKs
  /// on any other backend — engine code must use the accessors above.
  const AttributeDomain& domain(int attr) const;

  // ---- Pivot machinery -----------------------------------------------

  /// Installs pivots and precomputes, for every attribute x, pivot a, and
  /// domain value v: dist(v, piv_a[A_x]), the tables every tuple's PairRow
  /// bounds are read from. Snapshot backends carry their geometry in the
  /// file and CHECK here. Tuples built before a re-attach keep rows of the
  /// old pivots and must not be used after it.
  void AttachPivots(std::vector<AttributePivots> pivots);

  bool has_pivots() const { return storage_->has_pivots(); }
  /// The PairRow layout of every ImputedTuple over this repository (its
  /// pivot counts); unset (stride 0) until pivots are attached.
  const PairRowLayout& row_layout() const { return row_layout_; }
  int num_pivots(int attr) const { return storage_->num_pivots(attr); }
  const TokenSet& pivot_tokens(int attr, int pivot_idx) const {
    return storage_->pivot_tokens(attr, pivot_idx);
  }

  /// dist(domain value `vid` of `attr`, pivot `pivot_idx` of `attr`).
  double pivot_distance(int attr, int pivot_idx, ValueId vid) const {
    return storage_->pivot_distance(attr, pivot_idx, vid);
  }

  /// The active backend ("memory", "mmap").
  const char* backend_name() const { return storage_->name(); }

 private:
  /// Rebuilds row_layout_ from the storage's pivot counts.
  void SetRowLayout();

  const Schema* schema_;
  const TokenDict* dict_;
  std::unique_ptr<RepoStorage> storage_;
  PairRowLayout row_layout_;
};

}  // namespace terids

#endif  // TERIDS_REPO_REPOSITORY_H_
