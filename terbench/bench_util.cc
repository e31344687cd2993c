#include "bench_util.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "util/hash.h"

#ifndef TERBENCH_BUILD_TYPE
#define TERBENCH_BUILD_TYPE "unknown"
#endif

#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define TERBENCH_SANITIZED 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define TERBENCH_SANITIZED 1
#endif

namespace terbench {

long long ParseVmHwmKb(const std::string& status_text) {
  std::istringstream in(status_text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) != 0) {
      continue;
    }
    const char* p = line.c_str() + std::strlen("VmHWM:");
    char* end = nullptr;
    const long long kb = std::strtoll(p, &end, 10);
    if (end == p || kb < 0) {
      return -1;
    }
    while (*end == ' ' || *end == '\t') {
      ++end;
    }
    return std::strncmp(end, "kB", 2) == 0 ? kb : -1;
  }
  return -1;
}

double PeakRssMb() {
  const long long kb = ParseVmHwmKb(ReadFile("/proc/self/status"));
  return kb < 0 ? -1.0 : static_cast<double>(kb) / 1024.0;
}

void MatchDigest::AddArrival(int64_t timestamp,
                             const std::vector<terids::MatchPair>& matches) {
  h_ = terids::Fnv1aMix(h_, static_cast<uint64_t>(timestamp));
  h_ = terids::Fnv1aMix(h_, static_cast<uint64_t>(matches.size()));
  for (const terids::MatchPair& m : matches) {
    uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(m.probability));
    std::memcpy(&bits, &m.probability, sizeof(bits));
    h_ = terids::Fnv1aMix(h_, static_cast<uint64_t>(m.rid_a));
    h_ = terids::Fnv1aMix(h_, static_cast<uint64_t>(m.rid_b));
    h_ = terids::Fnv1aMix(h_, bits);
  }
  ++arrivals_;
}

BuildInfo CurrentBuild() {
  BuildInfo info;
  info.build_type = TERBENCH_BUILD_TYPE;
#if defined(__clang__)
  info.compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  info.compiler = std::string("gcc ") + __VERSION__;
#else
  info.compiler = "unknown";
#endif
#ifndef NDEBUG
  info.debug_asserts = true;
#endif
#ifdef TERBENCH_SANITIZED
  info.sanitized = true;
#endif
  return info;
}

std::string ParseCpuModel(const std::string& cpuinfo_text) {
  std::istringstream in(cpuinfo_text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) {
      continue;
    }
    const size_t colon = line.find(':');
    if (colon == std::string::npos) {
      continue;
    }
    size_t start = line.find_first_not_of(" \t", colon + 1);
    return start == std::string::npos ? "unknown" : line.substr(start);
  }
  return "unknown";
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return "";
  }
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

HostReference::HostReference() {
  uint64_t x = 88172645463325252ULL;  // xorshift64
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  for (uint32_t i = 0; i < 16384; ++i) {
    const uint64_t key = next();
    table_[key] = i;
    probes_.push_back(key);
  }
  for (int i = 0; i < 4096; ++i) {
    unsorted_.push_back(static_cast<uint32_t>(next()));
  }
  scratch_.resize(unsorted_.size());
  for (int i = 0; i < 3000; ++i) {
    list_a_.push_back(static_cast<uint32_t>(next() % 20000));
    list_b_.push_back(static_cast<uint32_t>(next() % 20000));
  }
  std::sort(list_a_.begin(), list_a_.end());
  std::sort(list_b_.begin(), list_b_.end());
  walk_.resize(size_t{1} << 16);
  for (uint32_t& v : walk_) {
    v = static_cast<uint32_t>(next());
  }
}

double HostReference::RunOnce() {
  const auto t0 = std::chrono::steady_clock::now();
  uint64_t acc = 0;
  for (size_t i = 0; i < 40000; ++i) {
    acc += table_.find(probes_[(i * 7919) % probes_.size()])->second;
  }
  for (int r = 0; r < 4; ++r) {
    std::copy(unsorted_.begin(), unsorted_.end(), scratch_.begin());
    std::sort(scratch_.begin(), scratch_.end());
    acc += scratch_[scratch_.size() / 2];
  }
  for (int r = 0; r < 40; ++r) {
    size_t i = 0, j = 0;
    while (i < list_a_.size() && j < list_b_.size()) {
      if (list_a_[i] < list_b_[j]) {
        ++i;
      } else if (list_b_[j] < list_a_[i]) {
        ++j;
      } else {
        ++acc;
        ++i;
        ++j;
      }
    }
  }
  uint32_t at = 0;
  for (uint32_t i = 0; i < 40000; ++i) {
    at = walk_[(at ^ i) & (walk_.size() - 1)];
    acc += at;
  }
  uint64_t h = acc;
  for (int i = 0; i < 300000; ++i) {
    h = h * 6364136223846793005ULL + 1442695040888963407ULL;
    h ^= h >> 29;
  }
  checksum_ = terids::Fnv1aMix(checksum_, h);
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace terbench
