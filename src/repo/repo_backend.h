#ifndef TERIDS_REPO_REPO_BACKEND_H_
#define TERIDS_REPO_REPO_BACKEND_H_

#include <string>

namespace terids {

/// Selects the physical storage backend behind a Repository (DESIGN.md §8).
/// Split into its own header so configuration layers can name the selector
/// without pulling in the full storage interface.
enum class RepoBackend {
  kInMemory,      // Vectors + interning multimaps; the default.
  kMmapSnapshot,  // Build-once columnar snapshot file, opened via mmap.
};

const char* RepoBackendName(RepoBackend backend);

/// Parses "memory" / "mmap" (the TERIDS_BENCH_REPO_BACKEND spellings).
/// Returns false, leaving *backend untouched, on any other input.
bool ParseRepoBackend(const std::string& name, RepoBackend* backend);

/// How MmapSnapshotStorage materializes a snapshot's sections.
/// Irrelevant to the in-memory backend.
enum class SnapshotDecode {
  kEager,  // Decode every section at open: corruption fails the open.
  kLazy,   // O(header + TOC) open; sections decode on first touch.
};

const char* SnapshotDecodeName(SnapshotDecode decode);

/// Parses "eager" / "lazy" (the TERIDS_BENCH_SNAPDECODE spellings).
/// Returns false, leaving *decode untouched, on any other input.
bool ParseSnapshotDecode(const std::string& name, SnapshotDecode* decode);

}  // namespace terids

#endif  // TERIDS_REPO_REPO_BACKEND_H_
