#include "repo/repo_backend.h"

namespace terids {

const char* RepoBackendName(RepoBackend backend) {
  switch (backend) {
    case RepoBackend::kInMemory:
      return "memory";
    case RepoBackend::kMmapSnapshot:
      return "mmap";
  }
  return "unknown";
}

bool ParseRepoBackend(const std::string& name, RepoBackend* backend) {
  if (name == "memory") {
    *backend = RepoBackend::kInMemory;
    return true;
  }
  if (name == "mmap") {
    *backend = RepoBackend::kMmapSnapshot;
    return true;
  }
  return false;
}

}  // namespace terids
