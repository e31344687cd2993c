#include <gtest/gtest.h>

#include <limits>

#include <cmath>
#include <vector>

#include "util/bits.h"
#include "util/interval.h"
#include "util/rng.h"
#include "util/status.h"

namespace terids {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("w must be positive");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.ToString(), "INVALID_ARGUMENT: w must be positive");
}

TEST(StatusTest, AllCodesRender) {
  EXPECT_EQ(Status::NotFound("x").ToString(), "NOT_FOUND: x");
  EXPECT_EQ(Status::OutOfRange("x").ToString(), "OUT_OF_RANGE: x");
  EXPECT_EQ(Status::FailedPrecondition("x").ToString(),
            "FAILED_PRECONDITION: x");
  EXPECT_EQ(Status::Internal("x").ToString(), "INTERNAL: x");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("missing");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, OkStatusBecomesInternalError) {
  Result<int> r = Status::Ok();
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
}

TEST(IntervalTest, DefaultIsEmpty) {
  Interval i;
  EXPECT_TRUE(i.empty());
  EXPECT_EQ(i.width(), 0.0);
}

TEST(IntervalTest, CoverGrows) {
  Interval i;
  i.Cover(0.5);
  EXPECT_FALSE(i.empty());
  EXPECT_TRUE(i.Contains(0.5));
  i.Cover(0.2);
  EXPECT_EQ(i.lo, 0.2);
  EXPECT_EQ(i.hi, 0.5);
}

TEST(IntervalTest, OverlapsSemantics) {
  EXPECT_TRUE(Interval::Of(0, 1).Overlaps(Interval::Of(1, 2)));
  EXPECT_FALSE(Interval::Of(0, 1).Overlaps(Interval::Of(1.01, 2)));
  EXPECT_FALSE(Interval::Empty().Overlaps(Interval::Of(0, 1)));
}

TEST(IntervalTest, MinAbsDiffDisjoint) {
  EXPECT_DOUBLE_EQ(Interval::Of(0.7, 0.9).MinAbsDiff(Interval::Of(0.1, 0.3)),
                   0.4);
  EXPECT_DOUBLE_EQ(Interval::Of(0.1, 0.3).MinAbsDiff(Interval::Of(0.7, 0.9)),
                   0.4);
  EXPECT_DOUBLE_EQ(Interval::Of(0.1, 0.5).MinAbsDiff(Interval::Of(0.4, 0.9)),
                   0.0);
}

// Empty-interval semantics are contractual (see interval.h): CDD pruning
// consumes intervals that may never have been grown, and every predicate
// must degrade vacuously instead of leaking the sentinel bounds.
TEST(IntervalTest, EmptyIntervalSemanticsArePinnedDown) {
  const Interval empty = Interval::Empty();
  const double inf = std::numeric_limits<double>::infinity();

  EXPECT_FALSE(empty.Contains(0.0));
  EXPECT_FALSE(empty.Contains(-inf));
  EXPECT_FALSE(empty.Contains(inf));
  EXPECT_DOUBLE_EQ(empty.width(), 0.0);

  EXPECT_FALSE(empty.Overlaps(Interval::Of(0.0, 1.0)));
  EXPECT_FALSE(Interval::Of(0.0, 1.0).Overlaps(empty));
  EXPECT_FALSE(empty.Overlaps(empty));
}

TEST(IntervalTest, MinAbsDiffOfEmptyIsInfinity) {
  const Interval empty = Interval::Empty();
  const Interval unit = Interval::Of(0.25, 0.75);
  const double inf = std::numeric_limits<double>::infinity();

  EXPECT_EQ(empty.MinAbsDiff(unit), inf);
  EXPECT_EQ(unit.MinAbsDiff(empty), inf);
  EXPECT_EQ(empty.MinAbsDiff(empty), inf);
  // Regression: the old sentinel comparisons fell through to the overlap
  // branch for empty vs an interval unbounded on both ends, reporting
  // distance 0 ("touching") for a set with no points at all.
  const Interval everything = Interval::Of(-inf, inf);
  EXPECT_EQ(empty.MinAbsDiff(everything), inf);
  EXPECT_EQ(everything.MinAbsDiff(empty), inf);
  const Interval unbounded = Interval::Of(0.0, inf);
  EXPECT_EQ(empty.MinAbsDiff(unbounded), inf);
  EXPECT_EQ(unbounded.MinAbsDiff(empty), inf);
}

/// Property: MinAbsDiff is a true lower bound of |x - y| over the two
/// intervals, and it is attained.
TEST(IntervalTest, MinAbsDiffIsTightLowerBound) {
  Rng rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    double a1 = rng.NextDouble(), a2 = rng.NextDouble();
    double b1 = rng.NextDouble(), b2 = rng.NextDouble();
    Interval a = Interval::Of(std::min(a1, a2), std::max(a1, a2));
    Interval b = Interval::Of(std::min(b1, b2), std::max(b1, b2));
    const double bound = a.MinAbsDiff(b);
    for (int i = 0; i <= 10; ++i) {
      const double x = a.lo + (a.hi - a.lo) * i / 10.0;
      for (int j = 0; j <= 10; ++j) {
        const double y = b.lo + (b.hi - b.lo) * j / 10.0;
        EXPECT_LE(bound, std::abs(x - y) + 1e-12);
      }
    }
    if (a.Overlaps(b)) {
      // Overlapping intervals attain |x - y| = 0 at any shared point.
      EXPECT_DOUBLE_EQ(bound, 0.0);
    } else {
      // Disjoint intervals attain the minimum at the facing endpoints.
      const double attained =
          a.lo > b.hi ? a.lo - b.hi : b.lo - a.hi;
      EXPECT_NEAR(bound, attained, 1e-12);
    }
  }
}

// Bit-by-bit reference for PopCount64.
int PopCountLoop(uint64_t x) {
  int count = 0;
  for (int bit = 0; bit < 64; ++bit) {
    count += static_cast<int>((x >> bit) & 1);
  }
  return count;
}

TEST(BitsTest, PopCount64MatchesBitLoop) {
  // Whichever branch the build compiles (`__builtin_popcountll` with
  // `__POPCNT__`, else the SWAR sum), the count must be exact.
  std::vector<uint64_t> words = {0, ~uint64_t{0}, UINT64_C(0x5555555555555555),
                                 UINT64_C(0xAAAAAAAAAAAAAAAA),
                                 UINT64_C(0x3333333333333333),
                                 UINT64_C(0x0F0F0F0F0F0F0F0F)};
  for (int bit = 0; bit < 64; ++bit) {
    words.push_back(uint64_t{1} << bit);
    words.push_back(~(uint64_t{1} << bit));
  }
  Rng rng(20260);
  for (int i = 0; i < 10000; ++i) {
    words.push_back(rng.NextU64());
  }
  for (const uint64_t w : words) {
    ASSERT_EQ(PopCount64(w), PopCountLoop(w)) << std::hex << w;
  }
  EXPECT_EQ(PopCount64(0), 0);
  EXPECT_EQ(PopCount64(~uint64_t{0}), 64);
}

TEST(RngTest, DeterministicFromSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) ++equal;
  }
  EXPECT_LT(equal, 4);
}

TEST(RngTest, BoundedStaysInBound) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(RngTest, NextIntInclusiveRange) {
  Rng rng(5);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.NextInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, ZipfSkewsTowardLowRanks) {
  Rng rng(11);
  int low = 0;
  const int n = 5000;
  for (int i = 0; i < n; ++i) {
    if (rng.NextZipf(1000, 1.2) < 10) ++low;
  }
  // A uniform draw would put ~1% in the first 10 ranks; Zipf(1.2) puts far
  // more.
  EXPECT_GT(low, n / 10);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(13);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  std::vector<int> orig = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

}  // namespace
}  // namespace terids
