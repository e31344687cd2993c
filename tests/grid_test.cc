#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <memory>
#include <vector>

#include "er/similarity.h"
#include "synopsis/er_grid.h"
#include "test_util.h"
#include "util/rng.h"

namespace terids {
namespace {

using testing_util::MakeHealthWorld;
using testing_util::ToyWorld;

class ErGridTest : public ::testing::Test {
 protected:
  ErGridTest()
      : world_(MakeHealthWorld()),
        topic_(*world_.dict, {"diabetes"}),
        grid_(world_.repo->num_attributes(), 0.2) {}

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

  /// An imputed tuple whose missing `attr` takes up to `count` domain
  /// values starting at `first`: spread-out instances that occupy several
  /// cells at a fine cell width.
  std::shared_ptr<WindowTuple> MakeSpreadTuple(int64_t rid, int stream,
                                               int attr = 2, int first = 0,
                                               int count = 5) {
    std::vector<std::string> texts = {"male", "blurred vision", "diabetes",
                                      "drug therapy"};
    texts[attr] = "-";
    Record r = world_.Make(rid, texts);
    r.stream_id = stream;
    const AttributeDomain& dom = world_.repo->domain(attr);
    ImputedTuple::ImputedAttr ia;
    ia.attr = attr;
    const int end = std::min(static_cast<int>(dom.size()), first + count);
    for (int v = first; v < end; ++v) {
      ia.candidates.push_back({static_cast<ValueId>(v), 1.0 / count});
    }
    auto wt = std::make_shared<WindowTuple>();
    wt->tuple = std::make_shared<const ImputedTuple>(
        ImputedTuple::FromImputation(r, world_.repo.get(), {ia}, 16));
    wt->topic = topic_.Classify(*wt->tuple);
    return wt;
  }

  std::vector<std::shared_ptr<WindowTuple>> RandomPool(int count, int stream) {
    Rng rng(7 + stream);
    std::vector<std::shared_ptr<WindowTuple>> tuples;
    for (int i = 0; i < count; ++i) {
      tuples.push_back(MakeTuple(1000 * (stream + 1) + i, stream,
                                 kPool[rng.NextBounded(kPool.size())]));
    }
    return tuples;
  }

  static inline const std::vector<std::vector<std::string>> kPool = {
      {"male", "loss of weight", "diabetes", "drug therapy"},
      {"female", "fever cough", "flu", "rest"},
      {"male", "blurred vision", "diabetes", "dietary therapy"},
      {"female", "red eye shed tears", "conjunctivitis", "eye drop"},
      {"male", "fever poor appetite", "flu", "drink more"},
      {"male", "loss of weight thirst", "diabetes", "dietary therapy"},
  };

  ToyWorld world_;
  TopicQuery topic_;
  ErGrid grid_;
  std::vector<std::shared_ptr<WindowTuple>> keep_alive_;
};

TEST_F(ErGridTest, InsertRemoveBookkeeping) {
  auto a = MakeTuple(1, 0, {"male", "fever", "flu", "rest"});
  auto b = MakeTuple(2, 1, {"female", "cough", "flu", "rest"});
  grid_.Insert(a.get());
  grid_.Insert(b.get());
  EXPECT_EQ(grid_.num_tuples(), 2u);
  EXPECT_GE(grid_.num_cells(), 1u);
  EXPECT_TRUE(grid_.Remove(a.get()));
  EXPECT_EQ(grid_.num_tuples(), 1u);
  EXPECT_FALSE(grid_.Remove(a.get()));  // Already removed.
  EXPECT_TRUE(grid_.Remove(b.get()));
  EXPECT_EQ(grid_.num_cells(), 0u);
}

TEST_F(ErGridTest, CandidatesExcludeSameStream) {
  auto probe = MakeTuple(1, 0, {"male", "fever", "flu", "rest"});
  auto same = MakeTuple(2, 0, {"male", "fever", "flu", "rest"});
  auto other = MakeTuple(3, 1, {"male", "fever", "flu", "rest"});
  grid_.Insert(same.get());
  grid_.Insert(other.get());
  ErGrid::CandidateResult result =
      grid_.Candidates(*probe, /*gamma=*/2.0, /*topic_constrained=*/false);
  ASSERT_EQ(result.candidates.size(), 1u);
  EXPECT_EQ(result.candidates[0]->rid(), 3);
}

TEST_F(ErGridTest, TopicPruningRemovesNonTopicalPairs) {
  // Neither probe nor member mentions diabetes: pair is prunable, even at a
  // similarity threshold the pair easily clears.
  auto probe = MakeTuple(1, 0, {"male", "fever", "flu", "rest"});
  auto member = MakeTuple(2, 1, {"male", "fever", "flu", "rest"});
  grid_.Insert(member.get());
  ErGrid::CandidateResult result =
      grid_.Candidates(*probe, /*gamma=*/2.0, /*topic_constrained=*/true);
  EXPECT_TRUE(result.candidates.empty());
  EXPECT_EQ(result.topic_pruned, 1u);

  // A topical (diabetic) probe revives the pair — either side may carry the
  // topic (gamma low enough that geometry cannot prune).
  auto diabetic =
      MakeTuple(3, 0, {"male", "blurred vision", "diabetes", "drug therapy"});
  result = grid_.Candidates(*diabetic, /*gamma=*/0.5, true);
  EXPECT_EQ(result.candidates.size(), 1u);
}

/// Soundness: every cross-stream tuple whose exact similarity with the
/// probe exceeds gamma must be returned as a candidate (grid pruning may
/// only discard pairs that provably cannot match).
TEST_F(ErGridTest, CandidatesAreSupersetOfTrueMatches) {
  Rng rng(99);
  std::vector<std::shared_ptr<WindowTuple>> members;
  for (int i = 0; i < 40; ++i) {
    auto wt = MakeTuple(100 + i, /*stream=*/1,
                        kPool[rng.NextBounded(kPool.size())]);
    members.push_back(wt);
    grid_.Insert(wt.get());
  }
  const double gamma = 2.5;
  for (int p = 0; p < 10; ++p) {
    auto probe = MakeTuple(1000 + p, 0, kPool[rng.NextBounded(kPool.size())]);
    ErGrid::CandidateResult result =
        grid_.Candidates(*probe, gamma, /*topic_constrained=*/false);
    for (const auto& member : members) {
      const double sim =
          InstanceSimilarity(*probe->tuple, 0, *member->tuple, 0);
      if (sim > gamma) {
        EXPECT_NE(std::find(result.candidates.begin(),
                            result.candidates.end(), member.get()),
                  result.candidates.end())
            << "grid pruned a pair with sim " << sim;
      }
    }
    // Accounting: candidates + pruned = all cross-stream tuples.
    EXPECT_EQ(result.candidates.size() + result.topic_pruned +
                  result.sim_pruned,
              members.size());
  }
}

TEST_F(ErGridTest, RemovalUpdatesAggregates) {
  auto diabetic =
      MakeTuple(1, 1, {"male", "blurred vision", "diabetes", "drug therapy"});
  auto flu = MakeTuple(2, 1, {"male", "fever", "flu", "rest"});
  grid_.Insert(diabetic.get());
  grid_.Insert(flu.get());
  auto probe = MakeTuple(3, 0, {"female", "cough", "flu", "rest"});
  // Probe is non-topical; only the diabetic member is a viable partner.
  ErGrid::CandidateResult result = grid_.Candidates(*probe, 0.5, true);
  EXPECT_EQ(result.candidates.size(), 1u);

  grid_.Remove(diabetic.get());
  result = grid_.Candidates(*probe, 0.5, true);
  EXPECT_TRUE(result.candidates.empty());
  EXPECT_EQ(result.topic_pruned, 1u);
}

TEST_F(ErGridTest, RemoveIsTargetedAndComplete) {
  ErGrid grid(world_.repo->num_attributes(), 0.05);
  auto spread = MakeSpreadTuple(1, 1);
  auto plain = MakeTuple(2, 1, {"male", "fever", "flu", "rest"});
  grid.Insert(spread.get());
  ASSERT_GE(grid.num_cells(), 2u);
  grid.Insert(plain.get());
  EXPECT_EQ(grid.num_tuples(), 2u);
  EXPECT_TRUE(grid.Remove(spread.get()));
  EXPECT_EQ(grid.num_tuples(), 1u);
  EXPECT_FALSE(grid.Remove(spread.get()));  // Already removed.
  EXPECT_TRUE(grid.Remove(plain.get()));
  EXPECT_EQ(grid.num_cells(), 0u);
  EXPECT_EQ(grid.num_tuples(), 0u);
}

TEST_F(ErGridTest, CandidatesAreSortedByRid) {
  auto members = RandomPool(40, /*stream=*/1);
  // Insert in reverse so sortedness cannot fall out of insertion order.
  for (auto it = members.rbegin(); it != members.rend(); ++it) {
    grid_.Insert(it->get());
  }
  auto probe = MakeTuple(1, 0, {"male", "fever", "flu", "rest"});
  const auto result =
      grid_.Candidates(*probe, 2.0, /*topic_constrained=*/false);
  ASSERT_FALSE(result.candidates.empty());
  EXPECT_TRUE(std::is_sorted(
      result.candidates.begin(), result.candidates.end(),
      [](const WindowTuple* a, const WindowTuple* b) {
        return a->rid() < b->rid();
      }));
}

std::vector<int64_t> Rids(const ErGrid::CandidateResult& result) {
  std::vector<int64_t> rids;
  for (const WindowTuple* wt : result.candidates) {
    rids.push_back(wt->rid());
  }
  return rids;
}

/// Maintained answer equals recomputation (Berkholz et al.): after every
/// step of random insert/evict churn, the maintained grid answers every
/// probe exactly as a grid freshly built from the live members does —
/// same candidates in the same order, same four counters. Each eviction
/// takes the oldest live tuple of its stream, as a FIFO window does; pool
/// tuples go live in random order, so window order is not rid order. A
/// fine cell width makes the spread imputed tuples occupy several cells,
/// so evictions must restore shared cells' topic and bound aggregates.
TEST_F(ErGridTest, ChurnMatchesFreshRebuild) {
  const int dims = world_.repo->num_attributes();
  const double cell_width = 0.05;
  std::vector<std::shared_ptr<WindowTuple>> pool = RandomPool(30, 1);
  for (const auto& wt : RandomPool(30, 0)) {
    pool.push_back(wt);
  }
  for (int i = 0; i < 12; ++i) {
    pool.push_back(MakeSpreadTuple(5000 + i, /*stream=*/i % 2,
                                   /*attr=*/1 + i % 3, /*first=*/i % 4,
                                   /*count=*/2 + i % 4));
  }
  std::vector<std::shared_ptr<WindowTuple>> probes = RandomPool(6, 2);
  probes.push_back(MakeSpreadTuple(9000, 0));
  probes.push_back(MakeSpreadTuple(9001, 1, /*attr=*/3, /*first=*/1));

  ErGrid grid(dims, cell_width);
  std::vector<bool> live(pool.size(), false);
  std::deque<size_t> windows[2];  // live pool indices per stream, oldest first
  size_t num_live = 0;
  size_t multi_cell_inserts = 0;
  Rng rng(2021);
  for (int step = 0; step < 300; ++step) {
    const size_t i = rng.NextBounded(pool.size());
    std::deque<size_t>& window = windows[pool[i]->stream_id()];
    // Grow toward about two thirds of the pool, then churn around it.
    const bool insert = !live[i] && (num_live < 2 * pool.size() / 3 ||
                                     rng.NextBounded(2) == 0);
    if (insert) {
      const size_t cells_before = grid.num_cells();
      grid.Insert(pool[i].get());
      if (grid.num_cells() >= cells_before + 2) {
        ++multi_cell_inserts;
      }
      live[i] = true;
      window.push_back(i);
      ++num_live;
    } else if (!window.empty()) {
      const size_t oldest = window.front();
      window.pop_front();
      ASSERT_TRUE(grid.Remove(pool[oldest].get()));
      live[oldest] = false;
      --num_live;
    } else {
      continue;
    }
    ASSERT_EQ(grid.num_tuples(), num_live);

    ErGrid fresh(dims, cell_width);
    for (size_t j = 0; j < pool.size(); ++j) {
      if (live[j]) {
        fresh.Insert(pool[j].get());
      }
    }
    ASSERT_EQ(grid.num_cells(), fresh.num_cells()) << "step " << step;
    for (const auto& probe : probes) {
      for (double gamma : {0.5, 2.0, 3.0}) {
        for (bool constrained : {false, true}) {
          const auto got = grid.Candidates(*probe, gamma, constrained);
          const auto want = fresh.Candidates(*probe, gamma, constrained);
          ASSERT_EQ(got.candidates, want.candidates)
              << "step " << step << " gamma " << gamma << ": rids "
              << ::testing::PrintToString(Rids(got)) << " vs "
              << ::testing::PrintToString(Rids(want));
          ASSERT_EQ(got.topic_pruned, want.topic_pruned) << "step " << step;
          ASSERT_EQ(got.sim_pruned, want.sim_pruned) << "step " << step;
          ASSERT_EQ(got.cells_visited, want.cells_visited)
              << "step " << step;
          ASSERT_EQ(got.cells_pruned, want.cells_pruned) << "step " << step;
        }
      }
    }
  }
  EXPECT_GT(multi_cell_inserts, 0u) << "churn never spanned several cells";
}

/// The FIFO contract: removing a tuple while an older tuple of its stream
/// still shares a cell with it is a desync between window and grid.
TEST_F(ErGridTest, RemoveOutOfFifoOrderDies) {
  auto older = MakeTuple(1, 1, {"male", "fever", "flu", "rest"});
  auto newer = MakeTuple(2, 1, {"male", "fever", "flu", "rest"});
  grid_.Insert(older.get());
  grid_.Insert(newer.get());
  ASSERT_EQ(grid_.num_cells(), 1u);
  EXPECT_DEATH(grid_.Remove(newer.get()), "TERIDS_CHECK failed");
  // The oldest goes first, then the next.
  EXPECT_TRUE(grid_.Remove(older.get()));
  EXPECT_TRUE(grid_.Remove(newer.get()));
  EXPECT_EQ(grid_.num_cells(), 0u);
}

}  // namespace
}  // namespace terids
