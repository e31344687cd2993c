// ShardedErGrid coordinator invariants: cell-key routing, targeted removal,
// and the deterministic fan-out/merge contract — every shard count must
// produce the byte-identical CandidateResult of the single-shard oracle.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "er/topic.h"
#include "exec/scheduler.h"
#include "synopsis/sharded_er_grid.h"
#include "test_util.h"
#include "util/rng.h"

namespace terids {
namespace {

using testing_util::MakeHealthWorld;
using testing_util::ToyWorld;

class ShardedGridTest : public ::testing::Test {
 protected:
  ShardedGridTest()
      : world_(MakeHealthWorld()), topic_(*world_.dict, {"diabetes"}) {}

  std::shared_ptr<WindowTuple> MakeTuple(
      int64_t rid, int stream, const std::vector<std::string>& texts) {
    Record r = world_.Make(rid, texts);
    r.stream_id = stream;
    auto wt = std::make_shared<WindowTuple>();
    wt->tuple = std::make_shared<const ImputedTuple>(
        ImputedTuple::FromComplete(r, world_.repo.get()));
    wt->topic = topic_.Classify(*wt->tuple);
    return wt;
  }

  /// A spread-out imputed tuple occupying several grid cells, so routing
  /// can split it across shards.
  std::shared_ptr<WindowTuple> MakeSpreadTuple(int64_t rid, int stream) {
    Record r =
        world_.Make(rid, {"male", "blurred vision", "-", "drug therapy"});
    r.stream_id = stream;
    const AttributeDomain& dom = world_.repo->domain(2);
    ImputedTuple::ImputedAttr ia;
    ia.attr = 2;
    for (ValueId v = 0; v < dom.size() && v < 5; ++v) {
      ia.candidates.push_back({v, 1.0 / 5});
    }
    auto wt = std::make_shared<WindowTuple>();
    wt->tuple = std::make_shared<const ImputedTuple>(
        ImputedTuple::FromImputation(r, world_.repo.get(), {ia}, 16));
    wt->topic = topic_.Classify(*wt->tuple);
    return wt;
  }

  std::vector<std::shared_ptr<WindowTuple>> RandomPool(int count, int stream) {
    const std::vector<std::vector<std::string>> pool = {
        {"male", "loss of weight", "diabetes", "drug therapy"},
        {"female", "fever cough", "flu", "rest"},
        {"male", "blurred vision", "diabetes", "dietary therapy"},
        {"female", "red eye shed tears", "conjunctivitis", "eye drop"},
        {"male", "fever poor appetite", "flu", "drink more"},
        {"male", "loss of weight thirst", "diabetes", "dietary therapy"},
    };
    Rng rng(7 + stream);
    std::vector<std::shared_ptr<WindowTuple>> tuples;
    for (int i = 0; i < count; ++i) {
      tuples.push_back(MakeTuple(1000 * (stream + 1) + i, stream,
                                 pool[rng.NextBounded(pool.size())]));
    }
    return tuples;
  }

  ToyWorld world_;
  TopicQuery topic_;
};

TEST_F(ShardedGridTest, RoutingSplitsCellsAcrossShardsLosslessly) {
  // With a fine cell width the spread tuple occupies several cells; the
  // shard partition must cover exactly the single-shard cell set.
  ShardedErGrid single(world_.repo->num_attributes(), 0.05, 1);
  ShardedErGrid sharded(world_.repo->num_attributes(), 0.05, 4);
  auto spread = MakeSpreadTuple(1, 1);
  single.Insert(spread.get());
  sharded.Insert(spread.get());
  ASSERT_GE(single.num_cells(), 2u);
  EXPECT_EQ(sharded.num_cells(), single.num_cells());
  EXPECT_EQ(sharded.num_tuples(), 1u);

  // A populated grid spreads its cells over the partition, and every cell
  // lives in exactly one shard: the per-shard counts add up to the
  // single-shard totals exactly.
  auto members = RandomPool(40, /*stream=*/1);
  for (const auto& wt : members) {
    single.Insert(wt.get());
    sharded.Insert(wt.get());
  }
  EXPECT_EQ(sharded.num_cells(), single.num_cells());
  EXPECT_EQ(sharded.num_tuples(), single.num_tuples());
  size_t cell_sum = 0;
  size_t occupied_shards = 0;
  for (int s = 0; s < sharded.num_shards(); ++s) {
    cell_sum += sharded.shard(s).num_cells();
    if (sharded.shard(s).num_cells() > 0) {
      ++occupied_shards;
    }
  }
  EXPECT_EQ(cell_sum, single.num_cells());
  EXPECT_GE(occupied_shards, 2u) << "populated grid should span shards";
}

TEST_F(ShardedGridTest, RemoveIsTargetedAndComplete) {
  ShardedErGrid grid(world_.repo->num_attributes(), 0.05, 4);
  auto spread = MakeSpreadTuple(1, 1);
  auto plain = MakeTuple(2, 1, {"male", "fever", "flu", "rest"});
  grid.Insert(spread.get());
  grid.Insert(plain.get());
  EXPECT_EQ(grid.num_tuples(), 2u);
  EXPECT_TRUE(grid.Remove(spread.get()));
  EXPECT_EQ(grid.num_tuples(), 1u);
  EXPECT_FALSE(grid.Remove(spread.get()));  // Already removed.
  EXPECT_TRUE(grid.Remove(plain.get()));
  EXPECT_EQ(grid.num_cells(), 0u);
  for (int s = 0; s < grid.num_shards(); ++s) {
    EXPECT_EQ(grid.shard(s).num_cells(), 0u);
    EXPECT_EQ(grid.shard(s).num_tuples(), 0u);
  }
}

/// The tentpole contract: for any shard count, Candidates returns the
/// byte-identical result of the single-shard oracle — same candidates in
/// the same (ascending-rid) order, same per-strategy prune counts, same
/// cell totals — across probes, gammas, and topic constraints, including
/// after interleaved removals.
TEST_F(ShardedGridTest, ShardCountSweepMatchesSingleShardOracle) {
  const int dims = world_.repo->num_attributes();
  auto members = RandomPool(60, /*stream=*/1);
  auto probes = RandomPool(12, /*stream=*/0);
  members.push_back(MakeSpreadTuple(5000, 1));
  members.push_back(MakeSpreadTuple(5001, 1));

  // The sharded grids fan their probe and maintain work out on scheduler
  // workers; the oracle visits its one shard inline.
  Scheduler sched(2);
  for (double cell_width : {0.05, 0.2}) {
    ShardedErGrid oracle(dims, cell_width, 1);
    for (const auto& wt : members) {
      oracle.Insert(wt.get());
    }
    for (int shards : {2, 3, 4, 8}) {
      ShardedErGrid grid(dims, cell_width, shards, &sched);
      for (const auto& wt : members) {
        grid.Insert(wt.get());
      }
      ASSERT_EQ(grid.num_cells(), oracle.num_cells());
      // Interleaved removals must leave both grids in the same state.
      for (size_t victim : {size_t(3), size_t(17), members.size() - 1}) {
        EXPECT_TRUE(oracle.Remove(members[victim].get()));
        EXPECT_TRUE(grid.Remove(members[victim].get()));
      }
      for (const auto& probe : probes) {
        for (double gamma : {0.5, 2.0, 2.5}) {
          for (bool constrained : {false, true}) {
            const auto expected =
                oracle.Candidates(*probe, gamma, constrained);
            const auto got = grid.Candidates(*probe, gamma, constrained);
            ASSERT_EQ(got.candidates.size(), expected.candidates.size());
            for (size_t i = 0; i < got.candidates.size(); ++i) {
              EXPECT_EQ(got.candidates[i], expected.candidates[i]);
            }
            EXPECT_EQ(got.topic_pruned, expected.topic_pruned);
            EXPECT_EQ(got.sim_pruned, expected.sim_pruned);
            EXPECT_EQ(got.cells_visited, expected.cells_visited);
            EXPECT_EQ(got.cells_pruned, expected.cells_pruned)
                << "shards=" << shards << " width=" << cell_width
                << " gamma=" << gamma << " constrained=" << constrained;
          }
        }
      }
      // Restore the removed members for the next shard count.
      for (size_t victim : {size_t(3), size_t(17), members.size() - 1}) {
        oracle.Insert(members[victim].get());
      }
      // (grid is discarded; oracle must be back to the full member set.)
      ASSERT_EQ(oracle.num_tuples(), members.size());
    }
  }
}

TEST_F(ShardedGridTest, CandidatesAreSortedByRid) {
  ShardedErGrid grid(world_.repo->num_attributes(), 0.2, 4);
  auto members = RandomPool(40, /*stream=*/1);
  // Insert in reverse so sortedness cannot fall out of insertion order.
  for (auto it = members.rbegin(); it != members.rend(); ++it) {
    grid.Insert(it->get());
  }
  auto probe = MakeTuple(1, 0, {"male", "fever", "flu", "rest"});
  const auto result = grid.Candidates(*probe, 2.0, /*topic_constrained=*/false);
  ASSERT_FALSE(result.candidates.empty());
  EXPECT_TRUE(std::is_sorted(
      result.candidates.begin(), result.candidates.end(),
      [](const WindowTuple* a, const WindowTuple* b) {
        return a->rid() < b->rid();
      }));
}

}  // namespace
}  // namespace terids
