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

/// Read by terbench; every open is eager (MmapSnapshotStorage decodes and
/// validates every section at open).
enum class SnapshotDecode { kEager };

}  // namespace terids

#endif  // TERIDS_REPO_REPO_BACKEND_H_
