#ifndef TERIDS_REPO_SNAPSHOT_FORMAT_H_
#define TERIDS_REPO_SNAPSHOT_FORMAT_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>

#include "util/hash.h"

namespace terids {
namespace snapshot {

/// On-disk layout of a repository snapshot (DESIGN.md §8).
///
/// A snapshot is a build-once columnar serialization of a Repository's
/// storage: per-attribute value domains (interned token sets, display
/// texts, frequencies), the pivot set, the pivot-distance tables, and the
/// complete sample tuples. MmapSnapshotStorage opens it read-only via mmap
/// and serves the numeric geometry tables (distances, ValueIds,
/// frequencies) zero-copy from the mapping.
///
/// Layout: a fixed header, then the payload. Every array in the payload is
/// preceded by padding to 8-byte alignment so doubles and 64-bit offsets
/// can be read in place. Integers are host-endian: the snapshot is a local
/// cache artifact regenerated from the source data, not an interchange
/// format. The header carries a version (bumped on any layout change);
/// Open refuses every version but kVersion.
///
/// **v3** (kVersion, the only layout): the payload begins with a
/// section TOC — a u64 section count followed by SectionEntry records —
/// and `payload_checksum` covers only those TOC bytes. Each section
/// carries its own FNV-1a checksum in its TOC entry, verified when Open
/// decodes that section; Open decodes and validates every section before
/// it returns (DESIGN.md §8). Sections are 8-aligned and self-describing;
/// `aux` caches the one size a reader checks each section against
/// (domain size, pivot count, sample count). v2 had the same sections but
/// also stored sorted main-pivot coordinate lists in each geometry
/// section; v1 had no TOC. Both are refused.
inline constexpr char kMagic[8] = {'T', 'E', 'R', 'I', 'D', 'S', 'N', 'P'};
inline constexpr uint32_t kVersion = 3;  // section TOC, distance-only geometry

struct Header {
  char magic[8];
  uint32_t version;
  uint32_t num_attributes;
  uint64_t num_samples;
  uint64_t dict_tokens;  // TokenDict size at write; every token id is < this.
  uint64_t payload_bytes;
  uint64_t payload_checksum;  // FNV-1a over the TOC.
  uint8_t has_pivots;
  uint8_t reserved[7];
};
static_assert(sizeof(Header) == 56, "snapshot header layout drifted");

/// Section kinds, in their required TOC order: one kDomain per
/// attribute, one kPivotTokens, one kGeometry per attribute, one kSamples.
enum class SectionKind : uint64_t {
  kDomain = 1,       // token ids+offsets, text blob+offsets, frequencies
  kPivotTokens = 2,  // every attribute's pivot token sets
  kGeometry = 3,     // one distance column per pivot
  kSamples = 4,      // rids, streams, timestamps, ValueIds, cell texts
};

/// One TOC record. `offset` is relative to the payload start (the byte
/// after the header) and 8-aligned; `checksum` is the FNV-1a over the
/// section's `bytes`, verified when Open decodes that section. `aux` is
/// kind-specific metadata the section body must agree with: the domain
/// size (kDomain), the attribute's pivot count (kGeometry), the sample
/// count (kSamples), 0 (kPivotTokens).
struct SectionEntry {
  uint64_t kind;
  uint64_t attr;  // attribute index for kDomain/kGeometry, 0 otherwise
  uint64_t offset;
  uint64_t bytes;
  uint64_t aux;
  uint64_t checksum;
};
static_assert(sizeof(SectionEntry) == 48, "snapshot TOC layout drifted");

inline uint64_t Checksum(const char* data, size_t n) {
  uint64_t h = kFnv1aOffsetBasis;
  for (size_t i = 0; i < n; ++i) {
    h = Fnv1aMix(h, static_cast<uint8_t>(data[i]));
  }
  return h;
}

/// Bounds-checked forward reader over the payload. All getters return
/// false / nullptr once any read has run past the end, so callers can
/// finish parsing and report one "truncated snapshot" error. Alignment is
/// tracked as an offset from the payload start; the payload itself must be
/// 8-aligned in memory (the header is 56 bytes, a multiple of 8, and both
/// the mmap base and the heap fallback buffer are at least 8-aligned).
class Cursor {
 public:
  Cursor(const char* data, size_t n) : base_(data), n_(n) {}

  bool ok() const { return ok_; }
  size_t remaining() const { return n_ - off_; }

  bool ReadU64(uint64_t* v) {
    Align8();
    const size_t at = off_;
    if (!Take(sizeof(*v))) return false;
    std::memcpy(v, base_ + at, sizeof(*v));
    return true;
  }

  /// Aligned array view into the payload; nullptr on overflow. A zero-length
  /// array yields a valid one-past pointer so callers need no special case.
  template <typename T>
  const T* Array(size_t count) {
    Align8();
    const size_t at = off_;
    if (count > remaining() / sizeof(T) || !Take(count * sizeof(T))) {
      ok_ = false;
      return nullptr;
    }
    return reinterpret_cast<const T*>(base_ + at);
  }

 private:
  void Align8() {
    const size_t mis = off_ % 8;
    if (mis != 0) Take(8 - mis);
  }

  bool Take(size_t n) {
    if (!ok_ || n > remaining()) {
      ok_ = false;
      return false;
    }
    off_ += n;
    return true;
  }

  const char* base_;
  size_t off_ = 0;
  size_t n_;
  bool ok_ = true;
};

/// Payload serializer mirroring Cursor: byte-buffer appends with the same
/// align-to-8 rule before every array.
class Builder {
 public:
  void AppendU64(uint64_t v) {
    Align8();
    AppendBytes(&v, sizeof(v));
  }

  template <typename T>
  void AppendArray(const T* data, size_t count) {
    Align8();
    AppendBytes(data, count * sizeof(T));
  }

  const std::string& bytes() const { return buf_; }

 private:
  void Align8() { buf_.resize((buf_.size() + 7) / 8 * 8, '\0'); }

  void AppendBytes(const void* data, size_t n) {
    buf_.append(static_cast<const char*>(data), n);
  }

  std::string buf_;
};

}  // namespace snapshot
}  // namespace terids

#endif  // TERIDS_REPO_SNAPSHOT_FORMAT_H_
