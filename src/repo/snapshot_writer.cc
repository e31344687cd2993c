#include "repo/snapshot_writer.h"

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "repo/repository.h"
#include "repo/snapshot_format.h"

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#endif

namespace terids {

namespace {

void AppendDomain(const Repository& repo, int attr, snapshot::Builder* out) {
  const size_t dom = repo.domain_size(attr);
  out->AppendU64(dom);

  // Concatenated token ids + prefix offsets.
  std::vector<Token> token_ids;
  std::vector<uint64_t> token_offsets;
  token_offsets.reserve(dom + 1);
  token_offsets.push_back(0);
  for (ValueId v = 0; v < dom; ++v) {
    const TokenSet& ts = repo.value_tokens(attr, v);
    token_ids.insert(token_ids.end(), ts.begin(), ts.end());
    token_offsets.push_back(token_ids.size());
  }
  out->AppendU64(token_ids.size());
  out->AppendArray(token_ids.data(), token_ids.size());
  out->AppendArray(token_offsets.data(), token_offsets.size());

  // Display-text blob + prefix offsets.
  std::string text_blob;
  std::vector<uint64_t> text_offsets;
  text_offsets.reserve(dom + 1);
  text_offsets.push_back(0);
  for (ValueId v = 0; v < dom; ++v) {
    text_blob += repo.value_text(attr, v);
    text_offsets.push_back(text_blob.size());
  }
  out->AppendU64(text_blob.size());
  out->AppendArray(text_blob.data(), text_blob.size());
  out->AppendArray(text_offsets.data(), text_offsets.size());

  std::vector<int32_t> freqs(dom);
  for (ValueId v = 0; v < dom; ++v) {
    freqs[v] = repo.value_frequency(attr, v);
  }
  out->AppendArray(freqs.data(), freqs.size());
}

void AppendPivotTokens(const Repository& repo, snapshot::Builder* out) {
  const int d = repo.num_attributes();
  for (int x = 0; x < d; ++x) {
    const int np = repo.num_pivots(x);
    out->AppendU64(static_cast<uint64_t>(np));
    for (int a = 0; a < np; ++a) {
      const TokenSet& ts = repo.pivot_tokens(x, a);
      out->AppendU64(ts.size());
      out->AppendArray(ts.data(), ts.size());
    }
  }
}

void AppendDistColumns(const Repository& repo, int attr,
                       snapshot::Builder* out) {
  const size_t dom = repo.domain_size(attr);
  std::vector<double> dists(dom);
  for (int a = 0; a < repo.num_pivots(attr); ++a) {
    for (ValueId v = 0; v < dom; ++v) {
      dists[v] = repo.pivot_distance(attr, a, v);
    }
    out->AppendArray(dists.data(), dists.size());
  }
}

/// Per-attribute geometry section: a self-describing (dom, np) prefix,
/// then this attribute's pivot-distance columns, checksummed and validated
/// as one unit at open.
void AppendGeometrySection(const Repository& repo, int attr,
                           snapshot::Builder* out) {
  out->AppendU64(repo.domain_size(attr));
  out->AppendU64(static_cast<uint64_t>(repo.num_pivots(attr)));
  AppendDistColumns(repo, attr, out);
}

void AppendSamples(const Repository& repo, snapshot::Builder* out) {
  const int d = repo.num_attributes();
  const size_t n = repo.num_samples();
  std::vector<int64_t> rids(n);
  std::vector<int32_t> streams(n);
  std::vector<int64_t> timestamps(n);
  std::vector<uint32_t> vids(n * static_cast<size_t>(d));
  std::string text_blob;
  std::vector<uint64_t> text_offsets;
  text_offsets.reserve(n * static_cast<size_t>(d) + 1);
  text_offsets.push_back(0);
  for (size_t i = 0; i < n; ++i) {
    const Record& r = repo.sample(i);
    rids[i] = r.rid;
    streams[i] = r.stream_id;
    timestamps[i] = r.timestamp;
    for (int x = 0; x < d; ++x) {
      vids[i * static_cast<size_t>(d) + x] = repo.sample_value_id(i, x);
      // Sample texts are stored verbatim: a later sample may carry a
      // different spelling than the domain's first-seen display text, and
      // reconstruction must not canonicalize it. Token sets are not stored
      // per sample — they are definitionally identical to the domain
      // value's (FindOrAdd deduplicates by token-set equality).
      text_blob += r.values[x].text;
      text_offsets.push_back(text_blob.size());
    }
  }
  out->AppendArray(rids.data(), rids.size());
  out->AppendArray(streams.data(), streams.size());
  out->AppendArray(timestamps.data(), timestamps.size());
  out->AppendArray(vids.data(), vids.size());
  out->AppendU64(text_blob.size());
  out->AppendArray(text_blob.data(), text_blob.size());
  out->AppendArray(text_offsets.data(), text_offsets.size());
}

struct SectionBlob {
  snapshot::SectionKind kind;
  uint64_t attr;
  uint64_t aux;
  std::string bytes;
};

uint64_t Align8(uint64_t n) { return (n + 7) / 8 * 8; }

/// The payload: TOC (count + entries), then each section at its 8-aligned
/// offset.
std::string BuildPayload(const Repository& repo, uint64_t* toc_checksum) {
  const int d = repo.num_attributes();
  std::vector<SectionBlob> sections;
  sections.reserve(2 * static_cast<size_t>(d) + 2);
  for (int x = 0; x < d; ++x) {
    snapshot::Builder b;
    AppendDomain(repo, x, &b);
    sections.push_back({snapshot::SectionKind::kDomain,
                        static_cast<uint64_t>(x), repo.domain_size(x),
                        b.bytes()});
  }
  {
    snapshot::Builder b;
    AppendPivotTokens(repo, &b);
    sections.push_back({snapshot::SectionKind::kPivotTokens, 0, 0, b.bytes()});
  }
  for (int x = 0; x < d; ++x) {
    snapshot::Builder b;
    AppendGeometrySection(repo, x, &b);
    sections.push_back({snapshot::SectionKind::kGeometry,
                        static_cast<uint64_t>(x),
                        static_cast<uint64_t>(repo.num_pivots(x)), b.bytes()});
  }
  {
    snapshot::Builder b;
    AppendSamples(repo, &b);
    sections.push_back(
        {snapshot::SectionKind::kSamples, 0, repo.num_samples(), b.bytes()});
  }

  const uint64_t count = sections.size();
  std::vector<snapshot::SectionEntry> entries;
  entries.reserve(count);
  uint64_t off =
      Align8(sizeof(uint64_t) + count * sizeof(snapshot::SectionEntry));
  for (const SectionBlob& s : sections) {
    snapshot::SectionEntry e;
    e.kind = static_cast<uint64_t>(s.kind);
    e.attr = s.attr;
    e.offset = off;
    e.bytes = s.bytes.size();
    e.aux = s.aux;
    e.checksum = snapshot::Checksum(s.bytes.data(), s.bytes.size());
    entries.push_back(e);
    off = Align8(off + e.bytes);
  }

  std::string toc;
  toc.append(reinterpret_cast<const char*>(&count), sizeof(count));
  toc.append(reinterpret_cast<const char*>(entries.data()),
             entries.size() * sizeof(snapshot::SectionEntry));
  *toc_checksum = snapshot::Checksum(toc.data(), toc.size());

  std::string payload = std::move(toc);
  for (size_t i = 0; i < sections.size(); ++i) {
    payload.resize(entries[i].offset, '\0');
    payload += sections[i].bytes;
  }
  return payload;
}

/// Writes header + payload to a same-directory temp file, fsyncs it, and
/// renames it over `path`. Every failure path unlinks the temp file.
Status WriteFileAtomic(const std::string& path, const snapshot::Header& header,
                       const std::string& payload) {
  static uint64_t tmp_counter = 0;
#if defined(__unix__) || defined(__APPLE__)
  const long pid = static_cast<long>(::getpid());
#else
  const long pid = 0;
#endif
  const std::string tmp = path + ".tmp-" + std::to_string(pid) + "-" +
                          std::to_string(tmp_counter++);
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      return Status::Internal("cannot open snapshot temp file for writing: " +
                              tmp);
    }
    out.write(reinterpret_cast<const char*>(&header), sizeof(header));
    out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
    out.flush();
    if (!out) {
      std::remove(tmp.c_str());
      return Status::Internal("short write to snapshot temp file: " + tmp);
    }
  }
#if defined(__unix__) || defined(__APPLE__)
  // Durability: the rename must not be reordered before the data blocks.
  const int fd = ::open(tmp.c_str(), O_RDONLY);
  if (fd < 0) {
    std::remove(tmp.c_str());
    return Status::Internal("cannot reopen snapshot temp file for fsync: " +
                            tmp);
  }
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) {
    std::remove(tmp.c_str());
    return Status::Internal("fsync failed on snapshot temp file: " + tmp);
  }
#endif
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::Internal("cannot rename snapshot temp file over: " + path);
  }
  return Status::Ok();
}

}  // namespace

std::string UniqueSnapshotPath(const std::string& prefix) {
  static uint64_t counter = 0;
  static const uint64_t tag = std::random_device{}();
  const char* tmpdir = std::getenv("TMPDIR");
  const std::string dir =
      (tmpdir != nullptr && tmpdir[0] != '\0') ? tmpdir : "/tmp";
#if defined(__unix__) || defined(__APPLE__)
  const long pid = static_cast<long>(::getpid());
#else
  const long pid = 0;
#endif
  return dir + "/" + prefix + "-" + std::to_string(pid) + "-" +
         std::to_string(tag) + "-" + std::to_string(counter++) +
         ".snap";
}

Status WriteRepositorySnapshot(const Repository& repo,
                               const std::string& path) {
  if (!repo.has_pivots()) {
    // Nothing in the snapshot's geometry sections would be meaningful, and
    // the read-only backend cannot run AttachPivots later.
    return Status::FailedPrecondition(
        "snapshot requires a repository with pivots attached");
  }

  uint64_t checksum = 0;
  const std::string payload = BuildPayload(repo, &checksum);

  snapshot::Header header;
  std::memset(&header, 0, sizeof(header));
  std::memcpy(header.magic, snapshot::kMagic, sizeof(header.magic));
  header.version = snapshot::kVersion;
  header.num_attributes = static_cast<uint32_t>(repo.num_attributes());
  header.num_samples = repo.num_samples();
  header.dict_tokens = repo.dict().size();
  header.payload_bytes = payload.size();
  header.payload_checksum = checksum;
  header.has_pivots = 1;

  return WriteFileAtomic(path, header, payload);
}

}  // namespace terids
