#include <gtest/gtest.h>

#include <optional>

#include "er/match_set.h"
#include "stream/sliding_window.h"
#include "stream/stream_driver.h"
#include "test_util.h"

namespace terids {
namespace {

using testing_util::MakeHealthWorld;
using testing_util::ToyWorld;

TEST(MatchSetTest, AddContainsRemove) {
  MatchSet set;
  set.Add(1, 2, 0.8);
  EXPECT_TRUE(set.Contains(1, 2));
  EXPECT_TRUE(set.Contains(2, 1));  // Order-insensitive.
  EXPECT_DOUBLE_EQ(set.ProbabilityOf(2, 1), 0.8);
  EXPECT_TRUE(set.Remove(2, 1));
  EXPECT_FALSE(set.Contains(1, 2));
  EXPECT_FALSE(set.Remove(1, 2));
  EXPECT_DOUBLE_EQ(set.ProbabilityOf(1, 2), -1.0);
}

TEST(MatchSetTest, AddOverwritesProbability) {
  MatchSet set;
  set.Add(1, 2, 0.6);
  set.Add(2, 1, 0.9);
  EXPECT_EQ(set.size(), 1u);
  EXPECT_DOUBLE_EQ(set.ProbabilityOf(1, 2), 0.9);
}

TEST(MatchSetTest, RemoveAllWithClearsExpiredTuple) {
  MatchSet set;
  set.Add(1, 2, 0.8);
  set.Add(1, 3, 0.7);
  set.Add(2, 3, 0.6);
  EXPECT_EQ(set.RemoveAllWith(1), 2);
  EXPECT_EQ(set.size(), 1u);
  EXPECT_TRUE(set.Contains(2, 3));
  EXPECT_EQ(set.RemoveAllWith(99), 0);
}

TEST(MatchSetTest, ToVectorIsSortedAndNormalized) {
  MatchSet set;
  set.Add(5, 2, 0.5);
  set.Add(1, 9, 0.6);
  std::vector<MatchPair> v = set.ToVector();
  ASSERT_EQ(v.size(), 2u);
  EXPECT_EQ(v[0].rid_a, 1);
  EXPECT_EQ(v[0].rid_b, 9);
  EXPECT_EQ(v[1].rid_a, 2);
  EXPECT_EQ(v[1].rid_b, 5);
}

TEST(SlidingWindowTest, EvictsOldestWhenFull) {
  ToyWorld world = MakeHealthWorld();
  SlidingWindow window(2);
  auto make = [&](int64_t rid) {
    return WindowTuple{
        ImputedTuple::FromComplete(
            world.Make(rid, {"male", "fever", "flu", "rest"}),
            world.repo.get()),
        {}};
  };
  EXPECT_FALSE(window.Push(make(1)).has_value());
  EXPECT_FALSE(window.Push(make(2)).has_value());
  std::optional<WindowTuple> evicted = window.Push(make(3));
  ASSERT_TRUE(evicted.has_value());
  EXPECT_EQ(evicted->rid(), 1);
  EXPECT_EQ(window.size(), 2u);
  // The arrival took the evicted tuple's slot.
  EXPECT_EQ(window.at(0).rid(), 3);
  EXPECT_EQ(window.at(1).rid(), 2);
  evicted = window.Push(make(4));
  ASSERT_TRUE(evicted.has_value());
  EXPECT_EQ(evicted->rid(), 2);
}

TEST(StreamDriverTest, RoundRobinInterleavesAndStampsTimestamps) {
  ToyWorld world = MakeHealthWorld();
  std::vector<Record> a = {world.Make(1, {"m", "f", "g", "h"}),
                           world.Make(2, {"m", "f", "g", "h"})};
  std::vector<Record> b = {world.Make(10, {"m", "f", "g", "h"}),
                           world.Make(11, {"m", "f", "g", "h"}),
                           world.Make(12, {"m", "f", "g", "h"})};
  StreamDriver driver({a, b});
  EXPECT_EQ(driver.total(), 5u);
  std::vector<std::pair<int, int64_t>> order;
  while (driver.HasNext()) {
    Record r = driver.Next();
    order.emplace_back(r.stream_id, r.rid);
    EXPECT_EQ(r.timestamp, static_cast<int64_t>(order.size()) - 1);
  }
  ASSERT_EQ(order.size(), 5u);
  // Round robin: A0 B0 A1 B1 B2 (A exhausted).
  EXPECT_EQ(order[0], (std::pair<int, int64_t>{0, 1}));
  EXPECT_EQ(order[1], (std::pair<int, int64_t>{1, 10}));
  EXPECT_EQ(order[2], (std::pair<int, int64_t>{0, 2}));
  EXPECT_EQ(order[3], (std::pair<int, int64_t>{1, 11}));
  EXPECT_EQ(order[4], (std::pair<int, int64_t>{1, 12}));
}

TEST(StreamDriverTest, NextBatchMatchesRepeatedNext) {
  ToyWorld world = MakeHealthWorld();
  std::vector<Record> a = {world.Make(1, {"m", "f", "g", "h"}),
                           world.Make(2, {"m", "f", "g", "h"}),
                           world.Make(3, {"m", "f", "g", "h"})};
  std::vector<Record> b = {world.Make(10, {"m", "f", "g", "h"}),
                           world.Make(11, {"m", "f", "g", "h"})};
  StreamDriver sequential({a, b});
  std::vector<std::pair<int64_t, int64_t>> expect;
  while (sequential.HasNext()) {
    Record r = sequential.Next();
    expect.emplace_back(r.rid, r.timestamp);
  }

  StreamDriver batched({a, b});
  std::vector<std::pair<int64_t, int64_t>> got;
  while (batched.HasNext()) {
    std::vector<Record> batch = batched.NextBatch(2);
    EXPECT_GE(batch.size(), 1u);
    EXPECT_LE(batch.size(), 2u);
    for (const Record& r : batch) {
      got.emplace_back(r.rid, r.timestamp);
    }
  }
  EXPECT_EQ(got, expect);
  // Timestamp-ordered within and across batches.
  for (size_t i = 1; i < got.size(); ++i) {
    EXPECT_EQ(got[i].second, got[i - 1].second + 1);
  }
}

TEST(StreamDriverTest, NextBatchTruncatesAtExhaustionAndThenIsEmpty) {
  ToyWorld world = MakeHealthWorld();
  std::vector<Record> a = {world.Make(1, {"m", "f", "g", "h"})};
  std::vector<Record> b = {world.Make(2, {"m", "f", "g", "h"}),
                           world.Make(3, {"m", "f", "g", "h"})};
  StreamDriver driver({a, b});
  EXPECT_EQ(driver.NextBatch(8).size(), 3u);
  EXPECT_FALSE(driver.HasNext());
  EXPECT_TRUE(driver.NextBatch(8).empty());
  EXPECT_TRUE(driver.NextBatch(0).empty());
}

TEST(StreamDriverTest, ResetReplaysIdentically) {
  ToyWorld world = MakeHealthWorld();
  std::vector<Record> a = {world.Make(1, {"m", "f", "g", "h"})};
  std::vector<Record> b = {world.Make(2, {"m", "f", "g", "h"})};
  StreamDriver driver({a, b});
  std::vector<int64_t> first;
  while (driver.HasNext()) first.push_back(driver.Next().rid);
  driver.Reset();
  std::vector<int64_t> second;
  while (driver.HasNext()) second.push_back(driver.Next().rid);
  EXPECT_EQ(first, second);
}

}  // namespace
}  // namespace terids
