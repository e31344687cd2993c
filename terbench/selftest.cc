// Unit checks of the benchmark's own helpers: median, VmHWM parsing, the
// match digest, host-stamp parsing and the host reference kernel (run.py
// --self-test checks the latency percentiles). Exits
// non-zero on the first failed expectation (checks stay in every build).

#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_util.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "selftest line %d: FAILED %s\n", line, what);
    ++failures;
  }
}
#define EXPECT(cond) Expect((cond), #cond, __LINE__)

void TestMedian() {
  EXPECT(terbench::Median({3.0, 1.0, 2.0}) == 2.0);
  EXPECT(terbench::Median({4.0, 1.0, 2.0, 3.0}) == 2.5);
  EXPECT(terbench::Median({}) == 0.0);
}

void TestVmHwm() {
  using terbench::ParseVmHwmKb;
  EXPECT(ParseVmHwmKb("Name:\tx\nVmPeak:\t  9 kB\nVmHWM:\t   123456 kB\n"
                      "VmRSS:\t 5 kB\n") == 123456);
  EXPECT(ParseVmHwmKb("VmHWM: 7 kB") == 7);
  EXPECT(ParseVmHwmKb("VmRSS:\t 5 kB\n") == -1);
  EXPECT(ParseVmHwmKb("VmHWM:\t kB\n") == -1);
  EXPECT(ParseVmHwmKb("VmHWM:\t 12 MB\n") == -1);
  EXPECT(ParseVmHwmKb("") == -1);
  // The live process has a peak resident set.
  EXPECT(terbench::PeakRssMb() > 0.0);
}

void TestDigest() {
  using terids::MatchPair;
  const std::vector<MatchPair> m1 = {{1, 5, 0.75}, {2, 5, 0.9}};
  const std::vector<MatchPair> m2 = {{2, 5, 0.9}, {1, 5, 0.75}};
  terbench::MatchDigest a, b, c, d, e;
  a.AddArrival(5, m1);
  b.AddArrival(5, m1);
  EXPECT(a.value() == b.value() && a.arrivals() == 1);
  c.AddArrival(5, m2);  // same matches, other order
  EXPECT(c.value() != a.value());
  std::vector<MatchPair> m3 = m1;
  m3[0].probability = std::nextafter(0.75, 1.0);  // one ulp
  d.AddArrival(5, m3);
  EXPECT(d.value() != a.value());
  // An empty arrival still moves the digest: dropping one is detected.
  terbench::MatchDigest x, y;
  x.AddArrival(4, {});
  x.AddArrival(5, m1);
  y.AddArrival(5, m1);
  EXPECT(x.value() != y.value() && x.arrivals() == 2);
  e.AddArrival(6, m1);  // other timestamp
  EXPECT(e.value() != a.value());
}

void TestStamp() {
  EXPECT(terbench::ParseCpuModel("processor\t: 0\nmodel name\t: Some CPU @ 2GHz\n") ==
         "Some CPU @ 2GHz");
  EXPECT(terbench::ParseCpuModel("processor\t: 0\n") == "unknown");
  const terbench::BuildInfo info = terbench::CurrentBuild();
  EXPECT(!info.compiler.empty() && !info.build_type.empty());
}

void TestHostReference() {
  terbench::HostReference a, b;
  EXPECT(a.RunOnce() > 0.0);
  b.RunOnce();
  EXPECT(a.checksum() == b.checksum() && a.checksum() != 0);
  a.RunOnce();
  EXPECT(a.checksum() != b.checksum());
}

}  // namespace

int main() {
  TestMedian();
  TestVmHwm();
  TestDigest();
  TestStamp();
  TestHostReference();
  if (failures == 0) {
    std::printf("terbench selftest: all checks passed\n");
  }
  return failures == 0 ? 0 : 1;
}
