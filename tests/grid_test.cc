#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <vector>

#include "synopsis/window_rows.h"
#include "test_util.h"
#include "util/rng.h"

namespace terids {
namespace {

using testing_util::MakeHealthWorld;
using testing_util::ToyWorld;

class WindowRowsTest : public ::testing::Test {
 protected:
  WindowRowsTest()
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

  /// An imputed tuple whose missing `attr` takes up to `count` domain
  /// values starting at `first`: several instances in one row.
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
  WindowRows rows_;
};

TEST_F(WindowRowsTest, InsertRemoveBookkeeping) {
  auto a = MakeTuple(1, 0, {"male", "fever", "flu", "rest"});
  auto b = MakeTuple(2, 1, {"female", "cough", "flu", "rest"});
  rows_.Insert(a.get());
  rows_.Insert(b.get());
  EXPECT_EQ(rows_.num_tuples(), 2u);
  EXPECT_TRUE(rows_.Remove(a.get()));
  EXPECT_EQ(rows_.num_tuples(), 1u);
  EXPECT_EQ(rows_.row_of(1), nullptr);
  EXPECT_NE(rows_.row_of(2), nullptr);
  EXPECT_FALSE(rows_.Remove(a.get()));  // Already removed.
  EXPECT_TRUE(rows_.Remove(b.get()));
  EXPECT_EQ(rows_.num_tuples(), 0u);
}

TEST_F(WindowRowsTest, CandidatesExcludeSameStream) {
  auto probe = MakeTuple(1, 0, {"male", "fever", "flu", "rest"});
  auto same = MakeTuple(2, 0, {"male", "fever", "flu", "rest"});
  auto other = MakeTuple(3, 1, {"male", "fever", "flu", "rest"});
  rows_.Insert(same.get());
  rows_.Insert(other.get());
  WindowRows::CandidateResult result =
      rows_.Candidates(*probe, /*topic_constrained=*/false);
  ASSERT_EQ(result.candidates.size(), 1u);
  EXPECT_EQ(result.candidates[0]->rid(), 3);
}

TEST_F(WindowRowsTest, TopicPruningRemovesNonTopicalPairs) {
  // Neither probe nor member mentions diabetes: the pair is prunable, even
  // though the two tuples are identical.
  auto probe = MakeTuple(1, 0, {"male", "fever", "flu", "rest"});
  auto member = MakeTuple(2, 1, {"male", "fever", "flu", "rest"});
  rows_.Insert(member.get());
  WindowRows::CandidateResult result =
      rows_.Candidates(*probe, /*topic_constrained=*/true);
  EXPECT_TRUE(result.candidates.empty());
  EXPECT_EQ(result.topic_pruned, 1u);

  // A topical (diabetic) probe revives the pair — either side may carry the
  // topic.
  auto diabetic =
      MakeTuple(3, 0, {"male", "blurred vision", "diabetes", "drug therapy"});
  result = rows_.Candidates(*diabetic, true);
  EXPECT_EQ(result.candidates.size(), 1u);
  EXPECT_EQ(result.topic_pruned, 0u);
}

/// Without a topic constraint every live tuple of the other streams is a
/// candidate, and each candidate's slot holds its own row with its topic
/// word set.
TEST_F(WindowRowsTest, CandidatesAreEveryOtherStreamTuple) {
  auto members = RandomPool(40, /*stream=*/1);
  for (const auto& wt : members) {
    rows_.Insert(wt.get());
  }
  const auto same_stream = RandomPool(10, /*stream=*/0);
  for (const auto& wt : same_stream) {
    rows_.Insert(wt.get());
  }
  auto probe = MakeTuple(1, 0, {"male", "fever", "flu", "rest"});
  const WindowRows::CandidateResult result =
      rows_.Candidates(*probe, /*topic_constrained=*/false);
  ASSERT_EQ(result.candidates.size(), members.size());
  ASSERT_EQ(result.slots.size(), members.size());
  EXPECT_EQ(result.topic_pruned, 0u);
  const size_t stride = probe->tuple->row_layout().stride();
  for (size_t i = 0; i < members.size(); ++i) {
    EXPECT_EQ(result.candidates[i], members[i].get());
    const double* row = rows_.rows() + result.slots[i] * stride;
    EXPECT_EQ(row, rows_.row_of(members[i]->rid()));
    EXPECT_EQ(row[PairRowLayout::kTopical],
              members[i]->topic.any ? 1.0 : 0.0);
  }
}

TEST_F(WindowRowsTest, RemovalUpdatesCandidates) {
  auto diabetic =
      MakeTuple(1, 1, {"male", "blurred vision", "diabetes", "drug therapy"});
  auto flu = MakeTuple(2, 1, {"male", "fever", "flu", "rest"});
  rows_.Insert(diabetic.get());
  rows_.Insert(flu.get());
  auto probe = MakeTuple(3, 0, {"female", "cough", "flu", "rest"});
  // Probe is non-topical; only the diabetic member is a viable partner.
  WindowRows::CandidateResult result = rows_.Candidates(*probe, true);
  EXPECT_EQ(result.candidates.size(), 1u);

  rows_.Remove(diabetic.get());
  result = rows_.Candidates(*probe, true);
  EXPECT_TRUE(result.candidates.empty());
  EXPECT_EQ(result.topic_pruned, 1u);
}

/// Removing a tuple frees its slot, which the next insert reuses with the
/// new tuple's row.
TEST_F(WindowRowsTest, RemoveFreesTheSlot) {
  auto spread = MakeSpreadTuple(1, 1);
  auto plain = MakeTuple(2, 1, {"male", "fever", "flu", "rest"});
  rows_.Insert(spread.get());
  rows_.Insert(plain.get());
  const double* spread_row = rows_.row_of(1);
  EXPECT_TRUE(rows_.Remove(spread.get()));
  EXPECT_EQ(rows_.num_tuples(), 1u);
  EXPECT_FALSE(rows_.Remove(spread.get()));  // Already removed.
  auto next = MakeTuple(3, 1, {"female", "fever", "flu", "rest"});
  rows_.Insert(next.get());
  ASSERT_EQ(rows_.row_of(3), spread_row);
  const size_t stride = next->tuple->row_layout().stride();
  for (size_t j = 0; j < stride; ++j) {
    if (j != PairRowLayout::kTopical) {
      EXPECT_EQ(std::memcmp(&spread_row[j], &next->tuple->row()[j],
                            sizeof(double)),
                0)
          << "word " << j;
    }
  }
  EXPECT_TRUE(rows_.Remove(plain.get()));
  EXPECT_TRUE(rows_.Remove(next.get()));
  EXPECT_EQ(rows_.num_tuples(), 0u);
}

TEST_F(WindowRowsTest, CandidatesAreSortedByRid) {
  auto members = RandomPool(40, /*stream=*/1);
  // Insert in reverse so sortedness cannot fall out of insertion order.
  for (auto it = members.rbegin(); it != members.rend(); ++it) {
    rows_.Insert(it->get());
  }
  auto probe = MakeTuple(1, 0, {"male", "fever", "flu", "rest"});
  const auto result = rows_.Candidates(*probe, /*topic_constrained=*/false);
  ASSERT_FALSE(result.candidates.empty());
  EXPECT_TRUE(std::is_sorted(
      result.candidates.begin(), result.candidates.end(),
      [](const WindowTuple* a, const WindowTuple* b) {
        return a->rid() < b->rid();
      }));
}

std::vector<int64_t> Rids(const WindowRows::CandidateResult& result) {
  std::vector<int64_t> rids;
  for (const WindowTuple* wt : result.candidates) {
    rids.push_back(wt->rid());
  }
  return rids;
}

/// Maintained answer equals recomputation (Berkholz et al.): after every
/// step of random insert/remove churn, the maintained store answers every
/// probe exactly as a store freshly built from the live members does —
/// same candidates in the same order, same topic count, same rows. Any live
/// tuple may be removed, so freed slots are reused in every order.
TEST_F(WindowRowsTest, ChurnMatchesFreshRebuild) {
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
  const size_t stride = pool[0]->tuple->row_layout().stride();

  std::vector<bool> live(pool.size(), false);
  size_t num_live = 0;
  Rng rng(2021);
  for (int step = 0; step < 300; ++step) {
    const size_t i = rng.NextBounded(pool.size());
    // Grow toward about two thirds of the pool, then churn around it.
    if (!live[i] &&
        (num_live < 2 * pool.size() / 3 || rng.NextBounded(2) == 0)) {
      rows_.Insert(pool[i].get());
      live[i] = true;
      ++num_live;
    } else if (live[i]) {
      ASSERT_TRUE(rows_.Remove(pool[i].get()));
      live[i] = false;
      --num_live;
    } else {
      continue;
    }
    ASSERT_EQ(rows_.num_tuples(), num_live);

    WindowRows fresh;
    for (size_t j = 0; j < pool.size(); ++j) {
      if (live[j]) {
        fresh.Insert(pool[j].get());
      }
    }
    for (const auto& probe : probes) {
      for (bool constrained : {false, true}) {
        const auto got = rows_.Candidates(*probe, constrained);
        const auto want = fresh.Candidates(*probe, constrained);
        ASSERT_EQ(got.candidates, want.candidates)
            << "step " << step << ": rids "
            << ::testing::PrintToString(Rids(got)) << " vs "
            << ::testing::PrintToString(Rids(want));
        ASSERT_EQ(got.topic_pruned, want.topic_pruned) << "step " << step;
        for (size_t c = 0; c < got.slots.size(); ++c) {
          ASSERT_EQ(std::memcmp(rows_.rows() + got.slots[c] * stride,
                                fresh.rows() + want.slots[c] * stride,
                                stride * sizeof(double)),
                    0)
              << "step " << step << " rid " << got.candidates[c]->rid();
        }
      }
    }
  }
}

}  // namespace
}  // namespace terids
