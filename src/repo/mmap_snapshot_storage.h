#ifndef TERIDS_REPO_MMAP_SNAPSHOT_STORAGE_H_
#define TERIDS_REPO_MMAP_SNAPSHOT_STORAGE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "repo/repo_storage.h"
#include "repo/snapshot_format.h"
#include "text/token_dict.h"

namespace terids {

/// Read-mostly Repository backend over a build-once columnar snapshot file
/// (DESIGN.md §8), opened read-only via mmap.
///
/// The base image is immutable and served zero-copy from the mapping: the
/// numeric geometry tables (per-pivot distance columns, sorted main-pivot
/// coordinate lists, sample ValueIds, value frequencies), the domain token
/// columns (TokenSet views straight over the mapped arrays), and the
/// display texts (string_views over the mapped blob). The kernel pages the
/// data in on demand and can evict it under pressure — the path to
/// repositories larger than RAM.
///
/// Snapshots decode *lazily*: Open validates the header
/// and the checksummed section TOC (O(header + TOC) bytes), and each
/// section — a domain, the pivot token sets, an attribute's geometry, the
/// sample table — is verified against its own checksum and materialized
/// under a std::once_flag on first touch. Concurrent readers may race the
/// first touch safely; a checksum or structure failure detected at that
/// point is fatal (the snapshot was validated as openable, so a bad
/// section is data corruption mid-run). SnapshotDecode::kEager forces
/// every section through the same decode at open, so corruption fails the
/// open instead. Version 1 files are refused at open.
///
/// Dynamic-repository writes (Section 5.5: the constraint imputer's
/// RegisterValue, AbsorbRepositoryBatch's AddSample) land in an in-memory
/// delta overlay: new values get ValueIds after the base domain, frequency
/// bumps on base values go to a side map, and coordinate-range scans merge
/// the base column with the overlay's sorted list in (coord, ValueId)
/// order — read results stay bit-identical to the in-memory oracle.
/// AttachPivots is not supported: the pivot geometry is baked into the
/// snapshot at write time. The write path is not thread-safe (unchanged);
/// only the lazy first-touch decode of the immutable base is.
class MmapSnapshotStorage final : public RepoStorage {
 public:
  /// Maps and validates `path` (magic, version, attribute count, TOC
  /// checksum, token ids against `dict`). Returns InvalidArgument /
  /// FailedPrecondition with a precise reason on any mismatch, including a
  /// version-1 file. Under kLazy, per-section validation is deferred to
  /// first touch.
  static Result<std::unique_ptr<MmapSnapshotStorage>> Open(
      int num_attributes, const TokenDict* dict, const std::string& path,
      SnapshotDecode decode = SnapshotDecode::kLazy);

  ~MmapSnapshotStorage() override;

  MmapSnapshotStorage(const MmapSnapshotStorage&) = delete;
  MmapSnapshotStorage& operator=(const MmapSnapshotStorage&) = delete;

  const char* name() const override { return "mmap"; }

  // ---- Read path -------------------------------------------------------

  size_t domain_size(int attr) const override;
  const TokenSet& value_tokens(int attr, ValueId id) const override;
  std::string_view value_text(int attr, ValueId id) const override;
  int value_frequency(int attr, ValueId id) const override;
  ValueId FindValue(int attr, const TokenSet& tokens) const override;

  size_t num_samples() const override;
  const Record& sample(size_t i) const override;
  ValueId sample_value_id(size_t i, int attr) const override;

  /// Open refuses a snapshot without pivot geometry.
  bool has_pivots() const override { return true; }
  int num_pivots(int attr) const override;
  const TokenSet& pivot_tokens(int attr, int pivot_idx) const override;
  double pivot_distance(int attr, int pivot_idx, ValueId vid) const override;
  void AppendValuesInCoordRange(int attr, const Interval& interval,
                                std::vector<ValueId>* out) const override;

  // ---- Write path (delta overlay) --------------------------------------

  ValueId RegisterValue(int attr, const TokenSet& tokens,
                        const std::string& text) override;
  void BumpFrequency(int attr, ValueId id) override;
  void AppendSample(const Record& record, std::vector<ValueId> vids) override;
  bool SupportsAttachPivots() const override { return false; }
  void AttachPivots(std::vector<AttributePivots> pivots) override;

 private:
  MmapSnapshotStorage() = default;

  Status MapFile(const std::string& path);
  Status Parse(int num_attributes, const TokenDict* dict,
               SnapshotDecode decode);
  Status ParseToc(const snapshot::Header& header);
  void Unmap();

  /// One attribute's immutable base image. Everything except `size` is
  /// filled by the section decoders; `size` comes from the TOC so
  /// domain_size never forces a decode.
  struct BaseDomain {
    size_t size = 0;
    std::vector<TokenSet> tokens;  // views over the mapped token column
    const char* text_blob = nullptr;
    const uint64_t* text_offsets = nullptr;
    const int32_t* freqs = nullptr;
    std::unordered_multimap<uint64_t, ValueId> by_hash;  // built on demand
    // Pivot geometry (zero-copy columns).
    std::vector<const double*> dists;  // dists[a][vid]
    const double* coord_keys = nullptr;
    const uint32_t* coord_vids = nullptr;
  };

  /// One attribute's dynamic delta.
  struct DomainOverlay {
    AttributeDomain extra;  // local ids; global id = base.size + local
    std::unordered_map<ValueId, int> base_freq_delta;
    std::vector<std::vector<double>> dists;  // dists[a][local id]
    std::vector<std::pair<double, ValueId>> sorted_coords;  // global ids
  };

  // ---- Section decode (see DESIGN.md §8) -------------------------------
  // Decode* verify the section checksum and materialize into the mutable
  // base structures; they are called either eagerly at open (errors become
  // the Open Status) or from the Ensure* wrappers under a once_flag
  // (errors abort: first-touch corruption). Ensure* are no-ops once
  // decoded_all_ is set (eager opens).

  Status DecodeDomain(int attr) const;
  Status DecodePivotTokens() const;
  Status DecodeGeometry(int attr) const;
  Status DecodeSamples() const;
  void BuildFindIndex(int attr) const;

  void EnsureDomain(int attr) const;
  void EnsureFindIndex(int attr) const;
  void EnsurePivotTokens() const;
  void EnsureGeometry(int attr) const;
  void EnsureSamples() const;

  /// Section body parsers. ParseDomainBlock reports
  /// the parsed domain size through `dom_size_out` instead of writing
  /// BaseDomain::size — under lazy decode that field is read concurrently
  /// by domain_size() and must only ever be written at open.
  Status ParseDomainBlock(snapshot::Cursor* cur, int attr,
                          uint64_t* dom_size_out) const;
  Status ParseSamplesBlock(snapshot::Cursor* cur) const;

  // Mapping ownership: exactly one of map_base_ (mmap) or heap_ (portable
  // read fallback) backs data_.
  void* map_base_ = nullptr;
  size_t map_len_ = 0;
  std::vector<char> heap_;
  const char* data_ = nullptr;
  size_t size_ = 0;
  const char* payload_ = nullptr;
  size_t payload_len_ = 0;

  int d_ = 0;
  uint64_t dict_tokens_ = 0;
  std::vector<int> num_pivots_;  // per attribute; known without decode

  // The section TOC, validated at open; entries indexed by role.
  std::vector<snapshot::SectionEntry> toc_domain_;    // [d_]
  snapshot::SectionEntry toc_pivot_tokens_ = {};
  std::vector<snapshot::SectionEntry> toc_geometry_;  // [d_]
  snapshot::SectionEntry toc_samples_ = {};

  // Lazily-filled base image. `mutable` + once_flags: the base is
  // logically immutable, its materialization is just deferred.
  //
  // Locking model (DESIGN.md §12): the lazy decode state is guarded by the
  // once_flags below, not by a Mutex — std::call_once is the one primitive
  // here the capability analysis cannot model, so the discipline is
  // structural and narrow: Decode*/BuildFindIndex write these members
  // exclusively from inside their call_once; every reader calls the
  // matching Ensure* first; and after the call_once returns the base is
  // read-only forever. call_once never runs user code while holding a
  // ranked lock (Ensure* are called from read accessors only), so it
  // cannot participate in a rank cycle. The write path (overlay_ etc.)
  // stays single-threaded by contract, unchanged.
  mutable std::vector<BaseDomain> base_;
  mutable std::vector<AttributePivots> pivots_;
  mutable std::vector<Record> base_records_;
  mutable const uint32_t* base_sample_vids_ = nullptr;  // row-major [i*d_+x]
  size_t base_samples_ = 0;

  bool decoded_all_ = false;  // eager open: Ensure* are no-ops
  // std::once_flag is immovable, so the per-attribute flags live in
  // fixed arrays allocated once at open rather than inside BaseDomain.
  std::unique_ptr<std::once_flag[]> domain_once_;
  std::unique_ptr<std::once_flag[]> find_once_;
  std::unique_ptr<std::once_flag[]> geometry_once_;
  mutable std::once_flag pivot_tokens_once_;
  mutable std::once_flag samples_once_;

  std::vector<DomainOverlay> overlay_;
  std::vector<Record> extra_records_;
  std::vector<std::vector<ValueId>> extra_sample_vids_;
};

}  // namespace terids

#endif  // TERIDS_REPO_MMAP_SNAPSHOT_STORAGE_H_
