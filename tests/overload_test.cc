// Overload-resilience layer (DESIGN.md §13): the adversarial arrival
// shaper's determinism and invariants, and the admission-control policies'
// accounting contracts under real, forced queue pressure (a consumer that
// waits for the producer on a depth-1 ingest queue). Policy *equivalence*
// when pressure never fires is covered by the equivalence sweep; this file
// covers behavior when it does fire.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "datagen/arrival_shaper.h"
#include "datagen/generator.h"
#include "datagen/profiles.h"
#include "eval/experiment.h"
#include "stream/overload.h"
#include "stream/stream_driver.h"
#include "text/tokenizer.h"

namespace terids {
namespace {

// ---- ArrivalShaper ---------------------------------------------------------

std::vector<Record> MakeSource(TokenDict* dict, int n) {
  Tokenizer tok(dict);
  std::vector<Record> records;
  records.reserve(n);
  for (int i = 0; i < n; ++i) {
    Record r;
    r.rid = i;
    r.values.resize(2);
    r.values[0].text = "title alpha " + std::to_string(i % 17);
    r.values[0].tokens = tok.Tokenize(r.values[0].text);
    if (i % 5 == 0) {
      r.values[1] = AttrValue::Missing();
    } else {
      r.values[1].text = "venue beta " + std::to_string(i % 7);
      r.values[1].tokens = tok.Tokenize(r.values[1].text);
    }
    records.push_back(std::move(r));
  }
  return records;
}

void ExpectSameStream(const std::vector<Record>& a,
                      const std::vector<Record>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].rid, b[i].rid) << "position " << i;
    ASSERT_EQ(a[i].values.size(), b[i].values.size());
    for (size_t j = 0; j < a[i].values.size(); ++j) {
      EXPECT_EQ(a[i].values[j].text, b[i].values[j].text);
      EXPECT_EQ(a[i].values[j].missing, b[i].values[j].missing);
      EXPECT_TRUE(a[i].values[j].tokens == b[i].values[j].tokens);
    }
  }
}

TEST(ArrivalShaperTest, SameSeedSameStreamByteForByte) {
  ArrivalShaper::Options opts;
  opts.seed = 77;
  opts.drift_period = 40;
  opts.duplicate_p = 0.2;
  opts.reorder_horizon = 12;
  TokenDict dict_a, dict_b;
  const std::vector<Record> shaped_a =
      ArrivalShaper::Shape(MakeSource(&dict_a, 200), &dict_a, 1000, opts);
  const std::vector<Record> shaped_b =
      ArrivalShaper::Shape(MakeSource(&dict_b, 200), &dict_b, 1000, opts);
  ExpectSameStream(shaped_a, shaped_b);

  // A different seed must actually change the stream (the knob is live).
  opts.seed = 78;
  TokenDict dict_c;
  const std::vector<Record> shaped_c =
      ArrivalShaper::Shape(MakeSource(&dict_c, 200), &dict_c, 1000, opts);
  bool differs = shaped_c.size() != shaped_a.size();
  for (size_t i = 0; !differs && i < shaped_a.size(); ++i) {
    differs = shaped_a[i].rid != shaped_c[i].rid;
  }
  EXPECT_TRUE(differs);
}

TEST(ArrivalShaperTest, ReorderHorizonBoundsDisplacement) {
  constexpr int kHorizon = 9;
  ArrivalShaper::Options opts;
  opts.reorder_horizon = kHorizon;
  opts.duplicate_p = 0.0;  // keep rid == original index
  opts.drift_period = 0;
  TokenDict dict;
  const std::vector<Record> shaped =
      ArrivalShaper::Shape(MakeSource(&dict, 400), &dict, 1000, opts);
  ASSERT_EQ(shaped.size(), 400u);
  // The delivery is a permutation, and whenever record j overtakes record i
  // (j delivered earlier despite arriving later), j was at most `horizon`
  // positions behind i.
  std::set<int64_t> seen;
  bool any_inversion = false;
  for (size_t pos = 0; pos < shaped.size(); ++pos) {
    const int64_t idx = shaped[pos].rid;
    EXPECT_TRUE(seen.insert(idx).second) << "duplicate delivery";
    for (int64_t earlier : seen) {
      if (earlier > idx) {
        any_inversion = true;
        EXPECT_LE(earlier - idx, kHorizon)
            << "record " << earlier << " overtook " << idx;
      }
    }
  }
  EXPECT_TRUE(any_inversion) << "horizon " << kHorizon
                             << " produced a fully in-order stream";
}

TEST(ArrivalShaperTest, DuplicateStormRateAndFreshRids) {
  ArrivalShaper::Options opts;
  opts.duplicate_p = 0.25;
  opts.near_duplicate_p = 0.5;
  opts.reorder_horizon = 0;
  TokenDict dict;
  const int n = 1000;
  const std::vector<Record> shaped =
      ArrivalShaper::Shape(MakeSource(&dict, n), &dict, 5000, opts);
  const size_t dups = shaped.size() - static_cast<size_t>(n);
  // Binomial(1000, 0.25): +/- 5 sigma is ~68.
  EXPECT_GT(dups, 180u);
  EXPECT_LT(dups, 320u);
  std::set<int64_t> rids;
  size_t fresh = 0, exact = 0;
  std::map<int64_t, const Record*> originals;
  for (const Record& r : shaped) {
    EXPECT_TRUE(rids.insert(r.rid).second) << "rid reused";
    if (r.rid < n) {
      originals[r.rid] = &r;
    }
  }
  for (const Record& r : shaped) {
    if (r.rid >= 5000) {
      ++fresh;
      // Every duplicate is content-traceable to some original: either an
      // exact copy or a near-duplicate differing in one attribute.
      bool traced = false;
      for (const auto& [rid, orig] : originals) {
        int same = 0;
        for (size_t j = 0; j < r.values.size(); ++j) {
          if (r.values[j].text == orig->values[j].text &&
              r.values[j].missing == orig->values[j].missing) {
            ++same;
          }
        }
        if (same == static_cast<int>(r.values.size())) {
          ++exact;
          traced = true;
          break;
        }
        if (same == static_cast<int>(r.values.size()) - 1) {
          traced = true;
          break;
        }
      }
      EXPECT_TRUE(traced) << "duplicate rid " << r.rid
                          << " matches no original";
    }
  }
  EXPECT_EQ(fresh, dups);
  // near_duplicate_p = 0.5: both exact and perturbed copies must occur.
  EXPECT_GT(exact, 0u);
  EXPECT_LT(exact, dups);
}

TEST(ArrivalShaperTest, OfferedTimelineDeterministicAndBursty) {
  ArrivalShaper::Options opts;
  opts.seed = 99;
  const std::vector<double> a = ArrivalShaper::OfferedTimeline(500, opts);
  const std::vector<double> b = ArrivalShaper::OfferedTimeline(500, opts);
  ASSERT_EQ(a.size(), 500u);
  EXPECT_EQ(a, b);
  double lo = 1e9, hi = 0.0;
  for (double gap : a) {
    EXPECT_GE(gap, 0.0);
    lo = std::min(lo, gap);
    hi = std::max(hi, gap);
  }
  // Bursty on/off shape: gap scale spread far beyond a flat schedule.
  EXPECT_LT(lo * 50, hi);
}

// ---- OverloadPolicy parsing / ShedStats ------------------------------------

TEST(OverloadPolicyTest, ParseRoundTripsEveryPolicy) {
  for (OverloadPolicy policy :
       {OverloadPolicy::kBlock, OverloadPolicy::kShedNewest,
        OverloadPolicy::kShedOldest, OverloadPolicy::kDegrade}) {
    OverloadPolicy parsed = OverloadPolicy::kBlock;
    EXPECT_TRUE(ParseOverloadPolicy(OverloadPolicyName(policy), &parsed));
    EXPECT_EQ(parsed, policy);
  }
  OverloadPolicy parsed = OverloadPolicy::kDegrade;
  EXPECT_FALSE(ParseOverloadPolicy("drop_everything", &parsed));
  EXPECT_EQ(parsed, OverloadPolicy::kDegrade);  // untouched on failure
}

TEST(OverloadPolicyTest, ShedStatsAddAndJson) {
  ShedStats a;
  a.offered_arrivals = 10;
  a.admitted_arrivals = 7;
  a.shed_arrivals = 3;
  a.shed_batches = 1;
  a.shed_by_phase[static_cast<int>(ExecPhase::kIngest)] = 3;
  ShedStats b;
  b.offered_arrivals = 10;
  b.degraded_arrivals = 4;
  b.deferred_pairs = 5;
  b.pressure_events = 2;
  EXPECT_TRUE(a.any());
  EXPECT_FALSE(ShedStats().any());
  a.Add(b);
  EXPECT_EQ(a.offered_arrivals, 20);
  EXPECT_EQ(a.admitted_arrivals, 7);
  EXPECT_EQ(a.shed_arrivals, 3);
  EXPECT_EQ(a.degraded_arrivals, 4);
  EXPECT_EQ(a.deferred_pairs, 5);
  EXPECT_EQ(a.pressure_events, 2);
  EXPECT_DOUBLE_EQ(a.ShedRate(), 3.0 / 20.0);
  const std::string json = a.ToJson();
  EXPECT_NE(json.find("\"offered_arrivals\":20"), std::string::npos) << json;
  EXPECT_NE(json.find("\"shed_by_phase\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"shed_rate\""), std::string::npos) << json;
}

// ---- Policies under forced pressure ----------------------------------------

struct PressureRun {
  size_t processed = 0;
  size_t emitted = 0;
  size_t emitted_shed = 0;
  size_t emitted_degraded = 0;
  std::vector<std::pair<int64_t, int64_t>> matches;
  PruneStats stats;
  ShedStats shed;
};

/// Counts the micro-batches the producer pulls, so the outcome sink can
/// wait for the producer to move on.
class PullCountingDriver : public StreamDriver {
 public:
  using StreamDriver::StreamDriver;

  std::vector<Record> NextBatch(size_t max_records) override {
    std::vector<Record> batch = StreamDriver::NextBatch(max_records);
    std::lock_guard<std::mutex> lock(mu_);
    ++pulled_;
    pulled_cv_.notify_all();
    return batch;
  }

  /// Blocks until the producer has pulled `more` batches beyond those
  /// pulled on entry (but no more than `last` in all), or for at most
  /// `timeout`.
  void AwaitPulls(size_t more, size_t last, std::chrono::milliseconds timeout) {
    std::unique_lock<std::mutex> lock(mu_);
    const size_t target = std::min(pulled_ + more, last);
    pulled_cv_.wait_for(lock, timeout, [&] { return pulled_ >= target; });
  }

 private:
  std::mutex mu_;
  std::condition_variable pulled_cv_;
  size_t pulled_ = 0;
};

class OverloadPressureTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ExperimentParams params;
    params.scale = 0.04;
    params.w = 50;
    params.max_arrivals = 220;
    experiment_ = new Experiment(CitationsProfile(), params);
  }
  static void TearDownTestSuite() {
    delete experiment_;
    experiment_ = nullptr;
  }

  // Replays the stream through a depth-1 ingest queue. Under `pressured`,
  // the sink stops at the first outcome of a few batches until the
  // producer has pulled three more batches: the consumer pops nothing
  // meanwhile, so the first of them fills the queue and the producer
  // checks pressure on the second against a full queue. A non-blocking
  // policy (shed_newest, degrade) then pulls the third at once. A blocking
  // one (shed_oldest, block) waits in Push for the consumer, so the gate
  // opens after kGateTimeout instead; that only needs the producer to
  // ingest one batch within it, however the threads are scheduled.
  static PressureRun Replay(OverloadPolicy policy, bool pressured) {
    constexpr size_t kBatch = 4;
    constexpr std::chrono::milliseconds kGateTimeout(1000);
    const ExperimentParams& params = experiment_->params();
    const size_t last_batch = params.max_arrivals / kBatch;
    std::unique_ptr<Repository> repo = experiment_->BuildRepository();
    EngineConfig config = experiment_->MakeConfig();
    config.batch_size = kBatch;
    config.refine_threads = 2;
    config.ingest_queue_depth = 1;
    config.overload_policy = policy;
    std::unique_ptr<ErPipeline> pipeline =
        MakePipeline(PipelineKind::kTerIds, repo.get(), config, 2,
                     experiment_->cdds(), experiment_->dds(),
                     experiment_->editing_rules());
    PullCountingDriver driver(
        {experiment_->incomplete_a(), experiment_->incomplete_b()});
    PressureRun run;
    run.processed = pipeline->ProcessStream(
        &driver, static_cast<size_t>(params.max_arrivals), kBatch,
        [&](ArrivalOutcome&& out) {
          // Gates at the 10th and 30th emitted batch, once the windows
          // hold candidates.
          if (pressured && (run.emitted == 10 * kBatch ||
                            run.emitted == 30 * kBatch)) {
            driver.AwaitPulls(3, last_batch, kGateTimeout);
          }
          ++run.emitted;
          if (out.disposition == ArrivalDisposition::kShed) {
            ++run.emitted_shed;
          }
          if (out.disposition == ArrivalDisposition::kDegraded) {
            ++run.emitted_degraded;
          }
          for (const MatchPair& p : out.new_matches) {
            run.matches.emplace_back(p.rid_a, p.rid_b);
          }
        });
    run.stats = pipeline->cumulative_stats();
    run.shed = *pipeline->shed_stats();
    return run;
  }

  static Experiment* experiment_;
};

Experiment* OverloadPressureTest::experiment_ = nullptr;

TEST_F(OverloadPressureTest, ShedNewestAccountingBalances) {
  const PressureRun run = Replay(OverloadPolicy::kShedNewest, true);
  ASSERT_GT(run.shed.pressure_events, 0) << "slow consumer never filled "
                                            "the depth-1 queue";
  EXPECT_GT(run.shed.shed_arrivals, 0);
  // Conservation: every arrival pulled from the driver was either admitted
  // or shed at the door, and exactly the admitted ones were emitted.
  EXPECT_EQ(run.shed.offered_arrivals,
            run.shed.admitted_arrivals + run.shed.shed_arrivals);
  EXPECT_EQ(static_cast<int64_t>(run.emitted), run.shed.admitted_arrivals);
  EXPECT_EQ(run.emitted_shed, 0u);      // shed batches never reach the window
  EXPECT_EQ(run.emitted_degraded, 0u);  // wrong policy for degradation
  EXPECT_EQ(run.shed.deferred_pairs, 0);
  EXPECT_EQ(run.stats.deferred, 0);
  // Shed-newest drops whole batches pre-ingest: arrivals are still consumed
  // from the driver (max_arrivals semantics), so processed counts emissions.
  EXPECT_EQ(run.processed, run.emitted);
  EXPECT_EQ(run.shed.shed_by_phase[static_cast<int>(ExecPhase::kIngest)],
            run.shed.shed_arrivals);
}

TEST_F(OverloadPressureTest, ShedOldestEmitsShedOutcomesAndKeepsWindow) {
  const PressureRun run = Replay(OverloadPolicy::kShedOldest, true);
  ASSERT_GT(run.shed.pressure_events, 0);
  EXPECT_GT(run.shed.shed_arrivals, 0);
  // Everything is admitted (ingest always runs); shedding happens in-queue,
  // and the shed arrivals still surface as outcomes flagged kShed.
  EXPECT_EQ(run.shed.offered_arrivals, run.shed.admitted_arrivals);
  EXPECT_EQ(static_cast<int64_t>(run.emitted), run.shed.offered_arrivals);
  EXPECT_EQ(static_cast<int64_t>(run.emitted_shed), run.shed.shed_arrivals);
  EXPECT_GT(run.shed.shed_pairs, 0);
  EXPECT_EQ(run.shed.shed_by_phase[static_cast<int>(ExecPhase::kRefine)],
            run.shed.shed_pairs);
  EXPECT_EQ(run.shed.deferred_pairs, 0);
}

TEST_F(OverloadPressureTest, DegradeAdmitsEverythingAndDefersVisibly) {
  const PressureRun degraded = Replay(OverloadPolicy::kDegrade, true);
  const PressureRun reference = Replay(OverloadPolicy::kBlock, false);
  ASSERT_GT(degraded.shed.pressure_events, 0);
  EXPECT_GT(degraded.shed.degraded_arrivals, 0);
  // Degrade never sheds: everything offered is admitted and emitted.
  EXPECT_EQ(degraded.shed.shed_arrivals, 0);
  EXPECT_EQ(degraded.shed.offered_arrivals,
            degraded.shed.admitted_arrivals);
  EXPECT_EQ(static_cast<int64_t>(degraded.emitted),
            degraded.shed.offered_arrivals);
  EXPECT_EQ(static_cast<int64_t>(degraded.emitted_degraded),
            degraded.shed.degraded_arrivals);
  // Undecided pairs are recorded, not silently dropped, and the cumulative
  // stats agree with the shed accounting.
  EXPECT_GT(degraded.shed.deferred_pairs, 0);
  EXPECT_EQ(degraded.stats.deferred, degraded.shed.deferred_pairs);
  // Bound-only verdicts are sound: every match a degraded run reports, the
  // full engine reports too (upper bounds only ever *prune*).
  std::vector<std::pair<int64_t, int64_t>> deg = degraded.matches;
  std::vector<std::pair<int64_t, int64_t>> ref = reference.matches;
  std::sort(deg.begin(), deg.end());
  std::sort(ref.begin(), ref.end());
  EXPECT_TRUE(std::includes(ref.begin(), ref.end(), deg.begin(), deg.end()));
  EXPECT_LT(deg.size(), ref.size() + 1);  // subset, possibly proper
}

TEST_F(OverloadPressureTest, BlockShedsNothingUnderTheSamePressure) {
  const PressureRun run = Replay(OverloadPolicy::kBlock, true);
  const PressureRun reference = Replay(OverloadPolicy::kBlock, false);
  // The oracle policy: pressure manifests as producer blocking only —
  // accounting shows zero shedding and output is the unpressured output.
  EXPECT_EQ(run.shed.shed_arrivals, 0);
  EXPECT_EQ(run.shed.degraded_arrivals, 0);
  EXPECT_EQ(run.shed.deferred_pairs, 0);
  EXPECT_EQ(run.emitted, reference.emitted);
  EXPECT_EQ(run.matches, reference.matches);
}

}  // namespace
}  // namespace terids