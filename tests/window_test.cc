#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "bound_reference.h"
#include "core/pipeline.h"
#include "rules/rule_miner.h"
#include "stream/sliding_window.h"
#include "test_util.h"
#include "util/rng.h"

namespace terids {
namespace {

using testing_util::MakeHealthWorld;
using testing_util::ToyWorld;
using testing_util::WindowRowOf;

class WindowTest : public ::testing::Test {
 protected:
  WindowTest()
      : world_(MakeHealthWorld()), topic_(*world_.dict, {"diabetes"}) {}

  WindowTuple MakeTuple(int64_t rid, int stream,
                        const std::vector<std::string>& texts) const {
    return MakeTuple(rid, stream, texts, topic_);
  }

  WindowTuple MakeTuple(int64_t rid, int stream,
                        const std::vector<std::string>& texts,
                        const TopicQuery& topic) const {
    Record r = world_.Make(rid, texts);
    r.stream_id = stream;
    WindowTuple wt{ImputedTuple::FromComplete(r, world_.repo.get()), {}};
    wt.topic = topic.Classify(wt.tuple);
    return wt;
  }

  /// An imputed tuple whose missing `attr` takes up to `count` domain
  /// values starting at `first`: several instances in one row.
  WindowTuple MakeSpreadTuple(int64_t rid, int stream, int attr = 2,
                              int first = 0, int count = 5) const {
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
    WindowTuple wt{
        ImputedTuple::FromImputation(r, world_.repo.get(), {ia}, 16), {}};
    wt.topic = topic_.Classify(wt.tuple);
    return wt;
  }

  /// Checks that slot `slot`'s row is its tuple's own row with the topic
  /// word set.
  static void ExpectRowOfSlot(const SlidingWindow& window, size_t slot) {
    const WindowTuple& wt = window.at(slot);
    const std::vector<double> want = WindowRowOf(wt.tuple, wt.topic.any);
    EXPECT_EQ(std::memcmp(window.rows() + slot * want.size(), want.data(),
                          want.size() * sizeof(double)),
              0)
        << "slot " << slot << " rid " << wt.rid();
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
};

TEST_F(WindowTest, PushFillsThenOverwritesTheOldestSlot) {
  SlidingWindow window(3);
  for (int64_t rid = 1; rid <= 8; ++rid) {
    const std::optional<WindowTuple> evicted =
        window.Push(MakeTuple(rid, 1, kPool[rid % kPool.size()]));
    if (rid <= 3) {
      EXPECT_FALSE(evicted.has_value()) << "rid " << rid;
    } else {
      ASSERT_TRUE(evicted.has_value()) << "rid " << rid;
      EXPECT_EQ(evicted->rid(), rid - 3);
    }
    EXPECT_EQ(window.size(), static_cast<size_t>(std::min<int64_t>(rid, 3)));
    // The ring writes slots 0, 1, 2, 0, 1, ...
    EXPECT_EQ(window.at(static_cast<size_t>((rid - 1) % 3)).rid(), rid);
  }
}

/// An arrival into a full window takes the evicted tuple's slot, and the
/// slot's row becomes the arrival's row.
TEST_F(WindowTest, SlotReuseRewritesTheRow) {
  SlidingWindow window(2);
  window.Push(MakeSpreadTuple(1, 1));
  window.Push(MakeTuple(2, 1, {"male", "fever", "flu", "rest"}));
  const size_t stride = window.at(0).tuple.row_layout().stride();
  const std::vector<double> spread_row(window.rows(),
                                       window.rows() + stride);
  ASSERT_GT(spread_row[PairRowLayout::kInstances], 1.0);
  const std::optional<WindowTuple> evicted =
      window.Push(MakeTuple(3, 1, {"female", "fever", "flu", "rest"}));
  ASSERT_TRUE(evicted.has_value());
  EXPECT_EQ(evicted->rid(), 1);
  // The evicted tuple left whole.
  EXPECT_GT(evicted->tuple.num_instances(), 1);
  EXPECT_EQ(window.at(0).rid(), 3);
  EXPECT_EQ(window.at(1).rid(), 2);
  EXPECT_EQ(window.rows()[PairRowLayout::kInstances], 1.0);
  ExpectRowOfSlot(window, 0);
  ExpectRowOfSlot(window, 1);
}

TEST_F(WindowTest, TopicPruningCountsNonTopicalPairs) {
  // Neither probe nor member mentions diabetes: the pair is prunable, even
  // though the two tuples are identical.
  SlidingWindow window(4);
  window.Push(MakeTuple(2, 1, {"male", "fever", "flu", "rest"}));
  std::vector<uint32_t> slots;
  EXPECT_EQ(window.CandidateSlots(/*probe_topical=*/false, &slots), 1u);
  EXPECT_TRUE(slots.empty());

  // A topical (diabetic) probe revives the pair — either side may carry the
  // topic.
  EXPECT_EQ(window.CandidateSlots(/*probe_topical=*/true, &slots), 0u);
  EXPECT_EQ(slots, std::vector<uint32_t>({0}));

  // A topical member survives a non-topical probe.
  window.Push(
      MakeTuple(3, 1, {"male", "blurred vision", "diabetes", "drug therapy"}));
  slots.clear();
  EXPECT_EQ(window.CandidateSlots(/*probe_topical=*/false, &slots), 1u);
  EXPECT_EQ(slots, std::vector<uint32_t>({1}));
}

/// Without a topic constraint every tuple is topical, so every slot is a
/// candidate, and each slot holds its own tuple's row with the topic word
/// set.
TEST_F(WindowTest, EverySlotIsACandidateWithoutATopic) {
  const TopicQuery all_topics;
  SlidingWindow window(40);
  Rng rng(8);
  for (int i = 0; i < 40; ++i) {
    window.Push(MakeTuple(100 + i, 1, kPool[rng.NextBounded(kPool.size())],
                          all_topics));
  }
  std::vector<uint32_t> slots;
  EXPECT_EQ(window.CandidateSlots(/*probe_topical=*/true, &slots), 0u);
  ASSERT_EQ(slots.size(), 40u);
  for (uint32_t s = 0; s < 40; ++s) {
    EXPECT_EQ(slots[s], s);
    EXPECT_EQ(window.at(s).rid(), 100 + s);
    ExpectRowOfSlot(window, s);
  }
}

/// Maintained answer equals recomputation (Berkholz et al.): after every
/// push of a long stream of single- and multi-instance tuples, the ring
/// holds exactly the last w pushed tuples, every slot's row equals its
/// tuple's row plus the topic word, and CandidateSlots equals a
/// brute-force list for both probe topic bits.
TEST_F(WindowTest, ChurnMatchesBruteForce) {
  const size_t w = 7;
  SlidingWindow window(static_cast<int>(w));
  std::deque<int64_t> model;  // live rids, oldest first
  Rng rng(2021);
  for (int64_t rid = 1; rid <= 120; ++rid) {
    WindowTuple wt =
        rng.NextBounded(4) == 0
            ? MakeSpreadTuple(rid, 1, /*attr=*/1 + static_cast<int>(rid % 3),
                              /*first=*/static_cast<int>(rid % 4),
                              /*count=*/2 + static_cast<int>(rid % 4))
            : MakeTuple(rid, 1, kPool[rng.NextBounded(kPool.size())]);
    const std::optional<WindowTuple> evicted = window.Push(std::move(wt));
    model.push_back(rid);
    if (model.size() > w) {
      ASSERT_TRUE(evicted.has_value()) << "rid " << rid;
      ASSERT_EQ(evicted->rid(), model.front());
      model.pop_front();
    } else {
      ASSERT_FALSE(evicted.has_value()) << "rid " << rid;
    }
    ASSERT_EQ(window.size(), model.size());
    std::vector<int64_t> live;
    for (size_t s = 0; s < window.size(); ++s) {
      live.push_back(window.at(s).rid());
      ExpectRowOfSlot(window, s);
    }
    std::sort(live.begin(), live.end());
    ASSERT_EQ(live, std::vector<int64_t>(model.begin(), model.end()));
    for (bool probe_topical : {false, true}) {
      std::vector<uint32_t> want;
      uint64_t want_pruned = 0;
      for (size_t s = 0; s < window.size(); ++s) {
        if (probe_topical || window.at(s).topic.any) {
          want.push_back(static_cast<uint32_t>(s));
        } else {
          ++want_pruned;
        }
      }
      std::vector<uint32_t> got;
      ASSERT_EQ(window.CandidateSlots(probe_topical, &got), want_pruned)
          << "rid " << rid;
      ASSERT_EQ(got, want) << "rid " << rid;
    }
    if (HasFailure()) {
      return;
    }
  }
}

/// The pipeline's scan takes the tuples of every window but the probe's
/// own, on the pruned path and the unpruned one, with two and three
/// streams: each arrival's pair count is the other windows' live count
/// (no topic constraint, so no tuple-level prune).
TEST_F(WindowTest, PipelineScansEveryOtherWindowOnly) {
  MinerOptions opts;
  opts.min_support = 2;
  opts.min_const_freq = 2;
  RuleMiner miner(world_.repo.get(), opts);
  const std::vector<CddRule> rules = miner.MineCdds();
  EngineConfig config;
  config.window_size = 3;
  for (PipelineKind kind : {PipelineKind::kTerIds, PipelineKind::kCddEr}) {
    for (int num_streams : {2, 3}) {
      std::unique_ptr<PipelineBase> pipeline = MakePipeline(
          kind, world_.repo.get(), config, num_streams, rules, rules, rules);
      Rng rng(5);
      for (int64_t rid = 1; rid <= 30; ++rid) {
        const int stream = static_cast<int>(rng.NextBounded(num_streams));
        size_t others = 0;
        for (int s = 0; s < num_streams; ++s) {
          others += s == stream ? 0 : pipeline->window(s).size();
        }
        Record r = world_.Make(rid, kPool[rng.NextBounded(kPool.size())]);
        r.stream_id = stream;
        const ArrivalOutcome out = pipeline->ProcessArrival(r);
        ASSERT_EQ(out.stats.total_pairs, others)
            << pipeline->name() << " streams " << num_streams << " rid "
            << rid;
      }
    }
  }
}

}  // namespace
}  // namespace terids
