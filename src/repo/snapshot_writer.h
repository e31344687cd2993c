#ifndef TERIDS_REPO_SNAPSHOT_WRITER_H_
#define TERIDS_REPO_SNAPSHOT_WRITER_H_

#include <string>

#include "util/status.h"

namespace terids {

class Repository;

/// Serializes `repo`'s storage into the columnar snapshot format of
/// DESIGN.md §8 at `path`, ready to be opened by MmapSnapshotStorage: the
/// layout of snapshot::kVersion, a section TOC with per-section
/// checksums.
///
/// The write is atomic: bytes land in a same-directory temp file which is
/// flushed, fsync'd, and renamed over `path`. A crash or error mid-write
/// leaves any existing snapshot at `path` untouched, and every error path
/// unlinks the temp file.
///
/// The writer reads exclusively through the backend-neutral Repository
/// interface, so it works on any backend — including an mmap-backed
/// repository that has accumulated dynamic-overlay values, which makes
/// re-snapshotting a compaction.
Status WriteRepositorySnapshot(const Repository& repo, const std::string& path);

/// Collision-resistant path for a throwaway snapshot file under TMPDIR
/// (or /tmp): `<dir>/<prefix>-<pid>-<random tag>-<counter>.snap`. The
/// random per-process tag keeps paths distinct even where getpid is
/// unavailable and the counter keeps repeated calls distinct. Like the
/// rest of the library, which starts no threads, it is not thread-safe.
std::string UniqueSnapshotPath(const std::string& prefix);

}  // namespace terids

#endif  // TERIDS_REPO_SNAPSHOT_WRITER_H_
