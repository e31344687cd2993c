#ifndef TERIDS_REPO_MMAP_SNAPSHOT_STORAGE_H_
#define TERIDS_REPO_MMAP_SNAPSHOT_STORAGE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "repo/repo_storage.h"
#include "repo/snapshot_format.h"
#include "text/token_dict.h"

namespace terids {

/// Read-mostly Repository backend over a build-once columnar snapshot file
/// (DESIGN.md §8), opened read-only via mmap.
///
/// The base image is immutable and served zero-copy from the mapping: the
/// numeric geometry tables (per-pivot distance columns, sample ValueIds,
/// value frequencies), the domain token columns (TokenSet views straight
/// over the mapped arrays), and the display texts (string_views over the
/// mapped blob). The kernel pages the data in on demand and can evict it
/// under pressure — the path to repositories larger than RAM.
///
/// Open validates everything before it returns: the header, the
/// checksummed section TOC, and every section — a domain, the pivot token
/// sets, an attribute's geometry, the sample table — against its own
/// checksum and its structural invariants (token ids inside the
/// dictionary, offsets inside their blobs, ValueIds inside their domain,
/// distances inside [0, 1]). Corrupt bytes therefore fail the open with a
/// Status, and no read accessor can fail afterwards. Files of any version
/// but snapshot::kVersion are refused at open.
///
/// Dynamic-repository writes (Section 5.5: the constraint imputer's
/// RegisterValue, AbsorbRepositoryBatch's AddSample) land in an in-memory
/// delta overlay: new values get ValueIds after the base domain with their
/// pivot distances in overlay columns, and frequency bumps on base values
/// go to a side map — read results stay bit-identical to the in-memory
/// oracle. AttachPivots is not supported: the pivot geometry is baked into
/// the snapshot at write time. The base image is read-only after Open; the
/// write path is not thread-safe.
class MmapSnapshotStorage final : public RepoStorage {
 public:
  /// Maps `path` and decodes and validates all of it (magic, version,
  /// attribute count, TOC and section checksums, every section's structure,
  /// token ids against `dict`). Returns InvalidArgument /
  /// FailedPrecondition with a precise reason on any mismatch, including a
  /// file of an older version. The trailing SnapshotDecode is read by terbench;
  /// every open is eager, so it is ignored.
  static Result<std::unique_ptr<MmapSnapshotStorage>> Open(
      int num_attributes, const TokenDict* dict, const std::string& path,
      SnapshotDecode /*ignored*/ = SnapshotDecode::kEager);

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
  Status Parse(int num_attributes, const TokenDict* dict);
  /// Validates the TOC and returns its entries through `entries`; fills
  /// BaseDomain::size and num_pivots_ from the entries' `aux`.
  Status ParseToc(const snapshot::Header& header,
                  const snapshot::SectionEntry** entries);
  void Unmap();

  /// One attribute's immutable base image, views over the mapping except
  /// the find index.
  struct BaseDomain {
    size_t size = 0;
    std::vector<TokenSet> tokens;  // views over the mapped token column
    const char* text_blob = nullptr;
    const uint64_t* text_offsets = nullptr;
    const int32_t* freqs = nullptr;
    std::unordered_multimap<uint64_t, ValueId> by_hash;
    // Pivot geometry (zero-copy columns).
    std::vector<const double*> dists;  // dists[a][vid]
  };

  /// One attribute's dynamic delta.
  struct DomainOverlay {
    AttributeDomain extra;  // local ids; global id = base.size + local
    std::unordered_map<ValueId, int> base_freq_delta;
    std::vector<std::vector<double>> dists;  // dists[a][local id]
  };

  // ---- Section decode at open (see DESIGN.md §8) -----------------------
  // Each verifies its section's checksum, checks its structure and fills
  // the base image; the first error becomes the Open Status. Samples hold
  // token-set views into the domains, so domains decode first.

  Status DecodeDomain(int attr, const snapshot::SectionEntry& e);
  Status DecodePivotTokens(const snapshot::SectionEntry& e);
  Status DecodeGeometry(int attr, const snapshot::SectionEntry& e);
  Status DecodeSamples(const snapshot::SectionEntry& e);

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
  std::vector<int> num_pivots_;  // per attribute, from the TOC

  // The base image, filled by Parse and read-only afterwards.
  std::vector<BaseDomain> base_;
  std::vector<AttributePivots> pivots_;
  std::vector<Record> base_records_;
  const uint32_t* base_sample_vids_ = nullptr;  // row-major [i*d_+x]
  size_t base_samples_ = 0;

  std::vector<DomainOverlay> overlay_;
  std::vector<Record> extra_records_;
  std::vector<std::vector<ValueId>> extra_sample_vids_;
};

}  // namespace terids

#endif  // TERIDS_REPO_MMAP_SNAPSHOT_STORAGE_H_
