#include <gtest/gtest.h>

#include "eval/cost_breakdown.h"

namespace terids {
namespace {

CostBreakdown Make(double cdd, double impute, double er) {
  CostBreakdown c;
  c.cdd_select_seconds = cdd;
  c.impute_seconds = impute;
  c.er_seconds = er;
  return c;
}

TEST(CostBreakdownTest, DefaultIsZero) {
  CostBreakdown c;
  EXPECT_DOUBLE_EQ(c.total_seconds(), 0.0);
  EXPECT_DOUBLE_EQ(c.cdd_select_seconds, 0.0);
  EXPECT_DOUBLE_EQ(c.impute_seconds, 0.0);
  EXPECT_DOUBLE_EQ(c.er_seconds, 0.0);
}

TEST(CostBreakdownTest, AddAccumulatesEveryPhase) {
  CostBreakdown total = Make(0.1, 0.2, 0.3);
  total.Add(Make(1.0, 2.0, 3.0));
  EXPECT_DOUBLE_EQ(total.cdd_select_seconds, 1.1);
  EXPECT_DOUBLE_EQ(total.impute_seconds, 2.2);
  EXPECT_DOUBLE_EQ(total.er_seconds, 3.3);
  EXPECT_DOUBLE_EQ(total.total_seconds(), 6.6);
}

TEST(CostBreakdownTest, OperatorsMatchAdd) {
  CostBreakdown a = Make(0.5, 1.0, 1.5);
  CostBreakdown b = Make(0.5, 0.25, 0.125);
  CostBreakdown sum = a + b;
  a += b;
  EXPECT_DOUBLE_EQ(sum.total_seconds(), a.total_seconds());
  EXPECT_DOUBLE_EQ(sum.cdd_select_seconds, 1.0);
  EXPECT_DOUBLE_EQ(sum.impute_seconds, 1.25);
  EXPECT_DOUBLE_EQ(sum.er_seconds, 1.625);
}

TEST(CostBreakdownTest, ResetClears) {
  CostBreakdown c = Make(1.0, 2.0, 3.0);
  c.Reset();
  EXPECT_DOUBLE_EQ(c.total_seconds(), 0.0);
}

TEST(CostBreakdownTest, PerArrivalAverages) {
  CostBreakdown c = Make(1.0, 2.0, 3.0);
  CostBreakdown avg = c.PerArrival(4);
  EXPECT_DOUBLE_EQ(avg.cdd_select_seconds, 0.25);
  EXPECT_DOUBLE_EQ(avg.impute_seconds, 0.5);
  EXPECT_DOUBLE_EQ(avg.er_seconds, 0.75);
  EXPECT_DOUBLE_EQ(avg.total_seconds(), 1.5);
}

TEST(CostBreakdownTest, PerArrivalOfZeroArrivalsIsZero) {
  CostBreakdown c = Make(1.0, 2.0, 3.0);
  EXPECT_DOUBLE_EQ(c.PerArrival(0).total_seconds(), 0.0);
  EXPECT_DOUBLE_EQ(c.PerArrival(-5).total_seconds(), 0.0);
}

TEST(CostBreakdownTest, PhaseSharesSumToOne) {
  CostBreakdown c = Make(1.0, 1.0, 2.0);
  CostBreakdown::Shares shares = c.PhaseShares();
  EXPECT_DOUBLE_EQ(shares.cdd_select, 0.25);
  EXPECT_DOUBLE_EQ(shares.impute, 0.25);
  EXPECT_DOUBLE_EQ(shares.er, 0.5);
  EXPECT_DOUBLE_EQ(shares.cdd_select + shares.impute + shares.er, 1.0);
}

TEST(CostBreakdownTest, PhaseSharesOfZeroTotalAreZero) {
  CostBreakdown::Shares shares = CostBreakdown().PhaseShares();
  EXPECT_DOUBLE_EQ(shares.cdd_select, 0.0);
  EXPECT_DOUBLE_EQ(shares.impute, 0.0);
  EXPECT_DOUBLE_EQ(shares.er, 0.0);
}

TEST(CostBreakdownTest, ToJsonRendersAllFields) {
  CostBreakdown c = Make(0.125, 0.25, 0.5);
  c.refine_seconds = 0.375;
  c.candidate_seconds = 0.03125;
  c.queue_wait_seconds = 0.015625;
  c.maintain_seconds = 0.0078125;
  EXPECT_EQ(c.ToJson(),
            "{\"cdd_select_seconds\":0.125,\"impute_seconds\":0.25,"
            "\"er_seconds\":0.5,\"refine_seconds\":0.375,"
            "\"candidate_seconds\":0.03125,"
            "\"queue_wait_seconds\":0.015625,"
            "\"maintain_seconds\":0.0078125,\"total_seconds\":0.875}");
}

TEST(CostBreakdownTest, RefineTimingIsAnOverlay) {
  // refine_seconds is contained in er_seconds, so it does not contribute
  // to the additive total.
  CostBreakdown c = Make(0.1, 0.2, 0.4);
  c.refine_seconds = 0.3;
  EXPECT_DOUBLE_EQ(c.total_seconds(), 0.7);
  CostBreakdown sum = c + c;
  EXPECT_DOUBLE_EQ(sum.refine_seconds, 0.6);
  CostBreakdown avg = sum.PerArrival(2);
  EXPECT_DOUBLE_EQ(avg.refine_seconds, 0.3);
}

}  // namespace
}  // namespace terids
