#include "repo/mmap_snapshot_storage.h"

#include <cstring>
#include <fstream>
#include <limits>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#define TERIDS_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace terids {

namespace {

Status Truncated() {
  return Status::InvalidArgument("snapshot payload ran short while parsing");
}

/// Token runs are stored sorted + deduplicated (TokenSet invariant); the
/// reader serves them as zero-copy views, so a malformed run must be
/// rejected here rather than healed — every merge/intersection kernel
/// downstream assumes strict ascending order.
Status ValidateTokenRun(const Token* run, size_t n, uint64_t dict_tokens,
                        const char* what) {
  for (size_t i = 0; i < n; ++i) {
    if (run[i] >= dict_tokens) {
      return Status::FailedPrecondition(
          "snapshot token id outside the dictionary it was built with");
    }
    if (i > 0 && run[i] <= run[i - 1]) {
      return Status::InvalidArgument(std::string("snapshot ") + what +
                                     " token run not sorted/deduplicated");
    }
  }
  return Status::Ok();
}

/// Checks a section's FNV-1a checksum against its TOC entry. `what` and,
/// for a per-attribute section, `attr` (else -1) name it in the error.
Status VerifySection(const char* payload, const snapshot::SectionEntry& e,
                     const char* what, int attr = -1) {
  if (snapshot::Checksum(payload + e.offset, e.bytes) == e.checksum) {
    return Status::Ok();
  }
  std::string message =
      std::string("snapshot ") + what + " section checksum mismatch";
  if (attr >= 0) message += " (attribute " + std::to_string(attr) + ")";
  return Status::InvalidArgument(message);
}

}  // namespace

// ---------------------------------------------------------------------------
// Mapping
// ---------------------------------------------------------------------------

Status MmapSnapshotStorage::MapFile(const std::string& path) {
#if TERIDS_HAVE_MMAP
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::NotFound("cannot open snapshot: " + path);
  }
  struct stat st;
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    return Status::Internal("cannot stat snapshot: " + path);
  }
  const size_t len = static_cast<size_t>(st.st_size);
  if (len == 0) {
    ::close(fd);
    return Status::InvalidArgument("snapshot is empty: " + path);
  }
  void* base = ::mmap(nullptr, len, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // The mapping keeps the file alive; the fd is not needed.
  if (base == MAP_FAILED) {
    return Status::Internal("mmap failed for snapshot: " + path);
  }
  map_base_ = base;
  map_len_ = len;
  data_ = static_cast<const char*>(base);
  size_ = len;
  return Status::Ok();
#else
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) {
    return Status::NotFound("cannot open snapshot: " + path);
  }
  const std::streamsize len = in.tellg();
  if (len <= 0) {
    return Status::InvalidArgument("snapshot is empty: " + path);
  }
  heap_.resize(static_cast<size_t>(len));
  in.seekg(0);
  in.read(heap_.data(), len);
  if (!in) {
    return Status::Internal("short read from snapshot: " + path);
  }
  data_ = heap_.data();
  size_ = heap_.size();
  return Status::Ok();
#endif
}

void MmapSnapshotStorage::Unmap() {
#if TERIDS_HAVE_MMAP
  if (map_base_ != nullptr) {
    ::munmap(map_base_, map_len_);
    map_base_ = nullptr;
    map_len_ = 0;
  }
#endif
  data_ = nullptr;
  size_ = 0;
  payload_ = nullptr;
  payload_len_ = 0;
}

MmapSnapshotStorage::~MmapSnapshotStorage() { Unmap(); }

// ---------------------------------------------------------------------------
// Open: header, TOC, then every section
// ---------------------------------------------------------------------------

Status MmapSnapshotStorage::ParseToc(const snapshot::Header& header,
                                     const snapshot::SectionEntry** entries) {
  snapshot::Cursor cur(payload_, payload_len_);
  uint64_t count = 0;
  if (!cur.ReadU64(&count)) {
    return Status::InvalidArgument("snapshot TOC truncated");
  }
  const uint64_t expected_count = 2 * static_cast<uint64_t>(d_) + 2;
  if (count != expected_count) {
    return Status::InvalidArgument(
        "snapshot TOC section count mismatch: file has " +
        std::to_string(count) + ", schema implies " +
        std::to_string(expected_count));
  }
  const auto* toc = cur.Array<snapshot::SectionEntry>(count);
  if (!cur.ok()) {
    return Status::InvalidArgument("snapshot TOC truncated");
  }
  const size_t toc_bytes =
      sizeof(uint64_t) + count * sizeof(snapshot::SectionEntry);
  if (snapshot::Checksum(payload_, toc_bytes) != header.payload_checksum) {
    return Status::InvalidArgument("snapshot TOC checksum mismatch");
  }

  auto check_entry = [&](const snapshot::SectionEntry& e,
                         snapshot::SectionKind kind, uint64_t attr) -> Status {
    if (e.kind != static_cast<uint64_t>(kind) || e.attr != attr) {
      return Status::InvalidArgument("snapshot TOC section order malformed");
    }
    if (e.offset % 8 != 0 || e.offset > payload_len_ ||
        e.bytes > payload_len_ - e.offset) {
      return Status::InvalidArgument("snapshot TOC section out of bounds");
    }
    return Status::Ok();
  };

  // Fixed section order: domains, pivot tokens, geometry, samples.
  for (int x = 0; x < d_; ++x) {
    const snapshot::SectionEntry& e = toc[x];
    TERIDS_RETURN_IF_ERROR(check_entry(e, snapshot::SectionKind::kDomain,
                                       static_cast<uint64_t>(x)));
    if (e.aux > std::numeric_limits<uint32_t>::max()) {
      return Status::InvalidArgument("snapshot domain size exceeds ValueId");
    }
    base_[x].size = e.aux;
  }
  TERIDS_RETURN_IF_ERROR(
      check_entry(toc[d_], snapshot::SectionKind::kPivotTokens, 0));
  for (int x = 0; x < d_; ++x) {
    const snapshot::SectionEntry& e = toc[d_ + 1 + x];
    TERIDS_RETURN_IF_ERROR(check_entry(e, snapshot::SectionKind::kGeometry,
                                       static_cast<uint64_t>(x)));
    if (e.aux == 0 || e.aux > std::numeric_limits<int>::max()) {
      return Status::InvalidArgument(
          "snapshot TOC pivot count out of range for attribute " +
          std::to_string(x));
    }
    num_pivots_[x] = static_cast<int>(e.aux);
  }
  TERIDS_RETURN_IF_ERROR(
      check_entry(toc[2 * d_ + 1], snapshot::SectionKind::kSamples, 0));
  if (toc[2 * d_ + 1].aux != header.num_samples) {
    return Status::InvalidArgument(
        "snapshot TOC sample count disagrees with header");
  }
  *entries = toc;
  return Status::Ok();
}

Status MmapSnapshotStorage::DecodeDomain(int attr,
                                         const snapshot::SectionEntry& e) {
  TERIDS_RETURN_IF_ERROR(VerifySection(payload_, e, "domain", attr));
  snapshot::Cursor cur(payload_ + e.offset, e.bytes);
  BaseDomain& dom = base_[attr];
  uint64_t dom_size = 0;
  uint64_t total_tokens = 0;
  if (!cur.ReadU64(&dom_size) || !cur.ReadU64(&total_tokens)) {
    return Truncated();
  }
  if (dom_size != dom.size) {
    return Status::InvalidArgument(
        "snapshot domain section size disagrees with TOC");
  }
  const Token* token_ids = cur.Array<Token>(total_tokens);
  const uint64_t* token_offsets = cur.Array<uint64_t>(dom_size + 1);
  uint64_t text_bytes = 0;
  if (!cur.ok() || !cur.ReadU64(&text_bytes)) return Truncated();
  const char* text_blob = cur.Array<char>(text_bytes);
  const uint64_t* text_offsets = cur.Array<uint64_t>(dom_size + 1);
  const int32_t* freqs = cur.Array<int32_t>(dom_size);
  if (!cur.ok()) return Truncated();

  dom.tokens.reserve(dom_size);
  dom.by_hash.reserve(dom_size);
  for (uint64_t v = 0; v < dom_size; ++v) {
    if (token_offsets[v] > token_offsets[v + 1] ||
        token_offsets[v + 1] > total_tokens ||
        text_offsets[v] > text_offsets[v + 1] ||
        text_offsets[v + 1] > text_bytes) {
      return Status::InvalidArgument("snapshot domain offsets corrupt");
    }
    const Token* run = token_ids + token_offsets[v];
    const size_t run_len = token_offsets[v + 1] - token_offsets[v];
    TERIDS_RETURN_IF_ERROR(
        ValidateTokenRun(run, run_len, dict_tokens_, "domain"));
    dom.tokens.push_back(TokenSet::View(run, run_len));
    dom.by_hash.emplace(AttributeDomain::HashTokens(dom.tokens.back()),
                        static_cast<ValueId>(v));
  }
  dom.text_blob = text_blob;
  dom.text_offsets = text_offsets;
  dom.freqs = freqs;
  return Status::Ok();
}

Status MmapSnapshotStorage::DecodePivotTokens(
    const snapshot::SectionEntry& e) {
  TERIDS_RETURN_IF_ERROR(VerifySection(payload_, e, "pivot-token"));
  snapshot::Cursor cur(payload_ + e.offset, e.bytes);
  pivots_.resize(static_cast<size_t>(d_));
  for (int x = 0; x < d_; ++x) {
    uint64_t np = 0;
    if (!cur.ReadU64(&np)) return Truncated();
    if (np != static_cast<uint64_t>(num_pivots_[x])) {
      return Status::InvalidArgument(
          "snapshot pivot-token section disagrees with TOC pivot count");
    }
    for (uint64_t a = 0; a < np; ++a) {
      uint64_t ntokens = 0;
      if (!cur.ReadU64(&ntokens)) return Truncated();
      const Token* ptokens = cur.Array<Token>(ntokens);
      if (!cur.ok()) return Truncated();
      TERIDS_RETURN_IF_ERROR(
          ValidateTokenRun(ptokens, ntokens, dict_tokens_, "pivot"));
      pivots_[x].pivots.push_back(TokenSet::View(ptokens, ntokens));
    }
  }
  return Status::Ok();
}

Status MmapSnapshotStorage::DecodeGeometry(int attr,
                                           const snapshot::SectionEntry& e) {
  TERIDS_RETURN_IF_ERROR(VerifySection(payload_, e, "geometry", attr));
  snapshot::Cursor cur(payload_ + e.offset, e.bytes);
  uint64_t dom_size = 0;
  uint64_t np = 0;
  if (!cur.ReadU64(&dom_size) || !cur.ReadU64(&np)) return Truncated();
  BaseDomain& dom = base_[attr];
  if (dom_size != dom.size || np != static_cast<uint64_t>(num_pivots_[attr])) {
    return Status::InvalidArgument(
        "snapshot geometry section header disagrees with TOC");
  }
  std::vector<const double*> dists(np);
  for (uint64_t a = 0; a < np; ++a) {
    dists[a] = cur.Array<double>(dom_size);
  }
  if (!cur.ok()) return Truncated();
  // Jaccard distances lie in [0, 1]; the negated test also rejects NaN.
  for (const double* column : dists) {
    for (uint64_t v = 0; v < dom_size; ++v) {
      if (!(column[v] >= 0.0 && column[v] <= 1.0)) {
        return Status::InvalidArgument(
            "snapshot pivot distance outside [0, 1]");
      }
    }
  }
  dom.dists = std::move(dists);
  return Status::Ok();
}

Status MmapSnapshotStorage::DecodeSamples(const snapshot::SectionEntry& e) {
  TERIDS_RETURN_IF_ERROR(VerifySection(payload_, e, "samples"));
  snapshot::Cursor cur(payload_ + e.offset, e.bytes);
  const size_t n = base_samples_;
  const int64_t* rids = cur.Array<int64_t>(n);
  const int32_t* streams = cur.Array<int32_t>(n);
  const int64_t* timestamps = cur.Array<int64_t>(n);
  const uint32_t* vids = cur.Array<uint32_t>(n * static_cast<size_t>(d_));
  uint64_t text_bytes = 0;
  if (!cur.ok() || !cur.ReadU64(&text_bytes)) return Truncated();
  const char* texts = cur.Array<char>(text_bytes);
  const uint64_t* text_offsets =
      cur.Array<uint64_t>(n * static_cast<size_t>(d_) + 1);
  if (!cur.ok()) return Truncated();

  base_records_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Record r;
    r.rid = rids[i];
    r.stream_id = streams[i];
    r.timestamp = timestamps[i];
    r.values.resize(static_cast<size_t>(d_));
    for (int x = 0; x < d_; ++x) {
      const size_t cell = i * static_cast<size_t>(d_) + x;
      const ValueId vid = vids[cell];
      if (vid >= base_[x].size || text_offsets[cell] > text_offsets[cell + 1] ||
          text_offsets[cell + 1] > text_bytes) {
        return Status::InvalidArgument("snapshot sample table corrupt");
      }
      AttrValue& v = r.values[x];
      v.missing = false;
      v.tokens = base_[x].tokens[vid];
      v.text.assign(texts + text_offsets[cell], texts + text_offsets[cell + 1]);
    }
    base_records_.push_back(std::move(r));
  }
  base_sample_vids_ = vids;
  return Status::Ok();
}

Status MmapSnapshotStorage::Parse(int num_attributes, const TokenDict* dict) {
  if (size_ < sizeof(snapshot::Header)) {
    return Status::InvalidArgument("snapshot smaller than its header");
  }
  snapshot::Header header;
  std::memcpy(&header, data_, sizeof(header));
  if (std::memcmp(header.magic, snapshot::kMagic, sizeof(header.magic)) != 0) {
    return Status::InvalidArgument("snapshot magic mismatch (not a snapshot)");
  }
  if (header.version != snapshot::kVersion) {
    return Status::InvalidArgument(
        "snapshot version " + std::to_string(header.version) +
        " unsupported (expected " + std::to_string(snapshot::kVersion) + ")");
  }
  if (header.num_attributes != static_cast<uint32_t>(num_attributes)) {
    return Status::FailedPrecondition(
        "snapshot has " + std::to_string(header.num_attributes) +
        " attributes; schema has " + std::to_string(num_attributes));
  }
  if (header.dict_tokens > dict->size()) {
    return Status::FailedPrecondition(
        "snapshot references " + std::to_string(header.dict_tokens) +
        " interned tokens; dictionary holds " + std::to_string(dict->size()));
  }
  payload_ = data_ + sizeof(header);
  payload_len_ = size_ - sizeof(header);
  if (header.payload_bytes != payload_len_) {
    return Status::InvalidArgument("snapshot payload truncated");
  }
  if (header.has_pivots == 0) {
    return Status::InvalidArgument(
        "snapshot without pivot geometry unsupported");
  }

  d_ = num_attributes;
  base_samples_ = header.num_samples;
  dict_tokens_ = header.dict_tokens;
  base_.resize(static_cast<size_t>(d_));
  num_pivots_.assign(static_cast<size_t>(d_), 0);

  const snapshot::SectionEntry* toc = nullptr;
  TERIDS_RETURN_IF_ERROR(ParseToc(header, &toc));
  for (int x = 0; x < d_; ++x) {
    TERIDS_RETURN_IF_ERROR(DecodeDomain(x, toc[x]));
  }
  TERIDS_RETURN_IF_ERROR(DecodePivotTokens(toc[d_]));
  for (int x = 0; x < d_; ++x) {
    TERIDS_RETURN_IF_ERROR(DecodeGeometry(x, toc[d_ + 1 + x]));
  }
  TERIDS_RETURN_IF_ERROR(DecodeSamples(toc[2 * d_ + 1]));

  overlay_.resize(static_cast<size_t>(d_));
  for (int x = 0; x < d_; ++x) {
    overlay_[x].dists.resize(num_pivots_[x]);
  }
  return Status::Ok();
}

Result<std::unique_ptr<MmapSnapshotStorage>> MmapSnapshotStorage::Open(
    int num_attributes, const TokenDict* dict, const std::string& path,
    SnapshotDecode /*ignored*/) {
  TERIDS_CHECK(dict != nullptr);
  TERIDS_CHECK(num_attributes >= 1);
  std::unique_ptr<MmapSnapshotStorage> storage(new MmapSnapshotStorage());
  Status status = storage->MapFile(path);
  if (!status.ok()) {
    return status;
  }
  status = storage->Parse(num_attributes, dict);
  if (!status.ok()) {
    return status;
  }
  return storage;
}

// ---------------------------------------------------------------------------
// Read path
// ---------------------------------------------------------------------------

size_t MmapSnapshotStorage::domain_size(int attr) const {
  TERIDS_CHECK(attr >= 0 && attr < d_);
  return base_[attr].size + overlay_[attr].extra.size();
}

const TokenSet& MmapSnapshotStorage::value_tokens(int attr, ValueId id) const {
  TERIDS_CHECK(attr >= 0 && attr < d_);
  const BaseDomain& dom = base_[attr];
  if (id < dom.size) {
    return dom.tokens[id];
  }
  return overlay_[attr].extra.tokens(id - static_cast<ValueId>(dom.size));
}

std::string_view MmapSnapshotStorage::value_text(int attr, ValueId id) const {
  TERIDS_CHECK(attr >= 0 && attr < d_);
  const BaseDomain& dom = base_[attr];
  if (id < dom.size) {
    return std::string_view(dom.text_blob + dom.text_offsets[id],
                            dom.text_offsets[id + 1] - dom.text_offsets[id]);
  }
  return overlay_[attr].extra.text(id - static_cast<ValueId>(dom.size));
}

int MmapSnapshotStorage::value_frequency(int attr, ValueId id) const {
  TERIDS_CHECK(attr >= 0 && attr < d_);
  const BaseDomain& dom = base_[attr];
  const DomainOverlay& over = overlay_[attr];
  if (id < dom.size) {
    const auto it = over.base_freq_delta.find(id);
    return dom.freqs[id] + (it == over.base_freq_delta.end() ? 0 : it->second);
  }
  return over.extra.frequency(id - static_cast<ValueId>(dom.size));
}

ValueId MmapSnapshotStorage::FindValue(int attr, const TokenSet& tokens) const {
  TERIDS_CHECK(attr >= 0 && attr < d_);
  const BaseDomain& dom = base_[attr];
  const uint64_t h = AttributeDomain::HashTokens(tokens);
  auto [begin, end] = dom.by_hash.equal_range(h);
  for (auto it = begin; it != end; ++it) {
    if (dom.tokens[it->second] == tokens) {
      return it->second;
    }
  }
  const ValueId local = overlay_[attr].extra.Find(tokens);
  if (local == kInvalidValueId) {
    return kInvalidValueId;
  }
  return static_cast<ValueId>(dom.size) + local;
}

size_t MmapSnapshotStorage::num_samples() const {
  return base_samples_ + extra_records_.size();
}

const Record& MmapSnapshotStorage::sample(size_t i) const {
  TERIDS_CHECK(i < num_samples());
  if (i < base_samples_) {
    return base_records_[i];
  }
  return extra_records_[i - base_samples_];
}

ValueId MmapSnapshotStorage::sample_value_id(size_t i, int attr) const {
  TERIDS_CHECK(i < num_samples());
  TERIDS_CHECK(attr >= 0 && attr < d_);
  if (i < base_samples_) {
    return base_sample_vids_[i * static_cast<size_t>(d_) + attr];
  }
  return extra_sample_vids_[i - base_samples_][attr];
}

int MmapSnapshotStorage::num_pivots(int attr) const {
  TERIDS_CHECK(attr >= 0 && attr < d_);
  return num_pivots_[attr];
}

const TokenSet& MmapSnapshotStorage::pivot_tokens(int attr,
                                                  int pivot_idx) const {
  TERIDS_CHECK(attr >= 0 && attr < d_);
  TERIDS_CHECK(pivot_idx >= 0 && pivot_idx < num_pivots(attr));
  return pivots_[attr].pivots[pivot_idx];
}

double MmapSnapshotStorage::pivot_distance(int attr, int pivot_idx,
                                           ValueId vid) const {
  TERIDS_CHECK(attr >= 0 && attr < d_);
  TERIDS_CHECK(pivot_idx >= 0 && pivot_idx < num_pivots(attr));
  const BaseDomain& dom = base_[attr];
  if (vid < dom.size) {
    return dom.dists[pivot_idx][vid];
  }
  const ValueId local = vid - static_cast<ValueId>(dom.size);
  const auto& dists = overlay_[attr].dists[pivot_idx];
  TERIDS_CHECK(local < dists.size());
  return dists[local];
}

// ---------------------------------------------------------------------------
// Write path: the delta overlay
// ---------------------------------------------------------------------------

ValueId MmapSnapshotStorage::RegisterValue(int attr, const TokenSet& tokens,
                                           const std::string& text) {
  TERIDS_CHECK(attr >= 0 && attr < d_);
  const BaseDomain& dom = base_[attr];
  // Base values are immutable and deduplicated; only a genuinely new token
  // set lands in the overlay.
  {
    auto [begin, end] =
        dom.by_hash.equal_range(AttributeDomain::HashTokens(tokens));
    for (auto it = begin; it != end; ++it) {
      if (dom.tokens[it->second] == tokens) {
        return it->second;
      }
    }
  }
  DomainOverlay& over = overlay_[attr];
  const size_t before = over.extra.size();
  const ValueId local = over.extra.FindOrAdd(tokens, text);
  const ValueId global = static_cast<ValueId>(dom.size) + local;
  if (over.extra.size() != before) {
    const size_t np = pivots_[attr].pivots.size();
    for (size_t a = 0; a < np; ++a) {
      over.dists[a].push_back(
          JaccardDistance(tokens, pivots_[attr].pivots[a]));
    }
  }
  return global;
}

void MmapSnapshotStorage::BumpFrequency(int attr, ValueId id) {
  TERIDS_CHECK(attr >= 0 && attr < d_);
  const BaseDomain& dom = base_[attr];
  DomainOverlay& over = overlay_[attr];
  if (id < dom.size) {
    ++over.base_freq_delta[id];
    return;
  }
  over.extra.BumpFrequency(id - static_cast<ValueId>(dom.size));
}

void MmapSnapshotStorage::AppendSample(const Record& record,
                                       std::vector<ValueId> vids) {
  TERIDS_CHECK(static_cast<int>(vids.size()) == d_);
  extra_records_.push_back(record);
  extra_sample_vids_.push_back(std::move(vids));
}

void MmapSnapshotStorage::AttachPivots(std::vector<AttributePivots> pivots) {
  (void)pivots;
  TERIDS_CHECK(false &&
               "MmapSnapshotStorage is read-only geometry: pivots are baked "
               "into the snapshot at write time");
}

}  // namespace terids
