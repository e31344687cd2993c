// Equivalence of the batched pair cascade with the per-pair reference
// cascade (bound_reference.h): for every probe and candidate,
// EvaluateCandidates followed by RefinePair on the pairs it passes must give
// the same outcome, probability and three signature counters as the
// reference bounds followed by RefineProbability. Generated streams of all
// five profiles (complete and half-missing) are replayed through real
// windows, whose row slabs the kernel reads; every pair a
// main-pivot Lemma 4.2 bound (the paper's ER-grid cell bound) prunes must
// be pruned by the kernel at Theorem 4.1 or 4.2; constructed cases
// cover empty token sets, sub-stochastic single-instance tuples,
// non-topical pairs and a schema too wide for the signature pass.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "bound_reference.h"

#include "datagen/generator.h"
#include "datagen/profiles.h"
#include "er/pruning.h"
#include "er/topic.h"
#include "eval/experiment.h"
#include "imputation/rule_based_imputer.h"
#include "pivot/pivot_selector.h"
#include "stream/sliding_window.h"
#include "stream/stream_driver.h"
#include "test_util.h"
#include "text/similarity_kernels.h"
#include "util/bits.h"

namespace terids {
namespace {

using testing_util::ReferenceAggregates;
using testing_util::ReferenceCascade;
using testing_util::ReferenceOf;
using testing_util::WindowRowOf;

/// How the kernel decided the pairs it rejected.
struct Tally {
  uint64_t pairs = 0;
  uint64_t passed = 0;
  uint64_t topic = 0;
  uint64_t sim = 0;
  uint64_t prob = 0;
  uint64_t sig = 0;
  /// Pairs the main-pivot-only Lemma 4.2 sum prunes.
  uint64_t main_pivot = 0;
};

/// Reference aggregates of every tuple a check reads, by rid.
using RefMap = std::unordered_map<int64_t, ReferenceAggregates>;

/// Runs EvaluateCandidates for `probe` over the rows of `cands` (slot
/// `slots[i]` in `rows`), refines the pairs it passes with RefinePair, and
/// checks every pair against ReferenceCascade. Whenever the main-pivot-only
/// Lemma 4.2 sum, the bound an ER-grid cell holding the candidate gives,
/// prunes, the outcome must be kTopicPruned or kSimUbPruned: that is why
/// the engine needs no cells.
void ExpectKernelMatchesReference(const double* rows, const WindowTuple& probe,
                                  const std::vector<const WindowTuple*>& cands,
                                  const std::vector<uint32_t>& slots,
                                  const RefMap& refs, double gamma,
                                  double alpha, Tally* tally) {
  ASSERT_EQ(cands.size(), slots.size());
  std::vector<PairEvaluation> evals;
  std::vector<uint32_t> passed;
  EvaluateCandidates(probe.tuple.row_layout(), probe.tuple.row(),
                     probe.topic.any, rows, slots.data(), slots.size(), gamma,
                     alpha, &evals, &passed);
  ASSERT_EQ(evals.size(), cands.size());
  ASSERT_TRUE(std::is_sorted(passed.begin(), passed.end()));
  ASSERT_TRUE(std::adjacent_find(passed.begin(), passed.end()) ==
              passed.end());
  const ReferenceAggregates& probe_ref = refs.at(probe.rid());
  size_t next = 0;
  for (size_t i = 0; i < cands.size(); ++i) {
    const WindowTuple& cand = *cands[i];
    const PairEvaluation want =
        ReferenceCascade(probe.tuple, probe.topic, probe_ref, cand.tuple,
                         cand.topic, refs.at(cand.rid()), gamma, alpha);
    const std::string where = "probe " + std::to_string(probe.rid()) +
                              " cand " + std::to_string(cand.rid()) +
                              " gamma " + std::to_string(gamma) + " alpha " +
                              std::to_string(alpha);
    ++tally->pairs;
    PairEvaluation got = evals[i];
    if (next < passed.size() && passed[next] == i) {
      ++next;
      ++tally->passed;
      got = RefinePair(probe.tuple, probe.topic, cand.tuple, cand.topic,
                       gamma, alpha);
    } else {
      switch (got.outcome) {
        case PairOutcome::kTopicPruned:
          ++tally->topic;
          break;
        case PairOutcome::kSimUbPruned:
          ++tally->sim;
          break;
        case PairOutcome::kProbUbPruned:
          ++tally->prob;
          break;
        default:
          ++tally->sig;
          break;
      }
    }
    ASSERT_EQ(static_cast<int>(got.outcome), static_cast<int>(want.outcome))
        << where;
    ASSERT_EQ(got.probability, want.probability) << where;
    ASSERT_EQ(got.sig_probes, want.sig_probes) << where;
    ASSERT_EQ(got.sig_saturated, want.sig_saturated) << where;
    ASSERT_EQ(got.sig_rejects, want.sig_rejects) << where;
    const int d = probe.tuple.num_attributes();
    double main_pivot_sum = 0.0;
    for (int k = 0; k < d; ++k) {
      main_pivot_sum += probe.tuple.pivot_dist_interval(k, 0).MinAbsDiff(
          cand.tuple.pivot_dist_interval(k, 0));
    }
    if (static_cast<double>(d) - main_pivot_sum <= gamma) {
      ++tally->main_pivot;
      ASSERT_TRUE(got.outcome == PairOutcome::kTopicPruned ||
                  got.outcome == PairOutcome::kSimUbPruned)
          << where << " main-pivot sum " << main_pivot_sum;
    }
  }
  ASSERT_EQ(next, passed.size());
}

/// Rows for `cands` in slots 0..n-1, for cases built without a window.
void ExpectKernelMatchesReference(const WindowTuple& probe,
                                  const std::vector<const WindowTuple*>& cands,
                                  const RefMap& refs, double gamma,
                                  double alpha, Tally* tally) {
  const size_t stride = probe.tuple.row_layout().stride();
  std::vector<double> rows;
  std::vector<uint32_t> slots;
  for (size_t i = 0; i < cands.size(); ++i) {
    const std::vector<double> row =
        WindowRowOf(cands[i]->tuple, cands[i]->topic.any);
    ASSERT_EQ(row.size(), stride);
    rows.insert(rows.end(), row.begin(), row.end());
    slots.push_back(static_cast<uint32_t>(i));
  }
  ExpectKernelMatchesReference(rows.data(), probe, cands, slots, refs, gamma,
                               alpha, tally);
}

double Scale(const std::string& profile) {
  if (profile == "EBooks") return 0.012;
  if (profile == "Songs") return 0.002;
  return 0.04;
}

using StreamCase = std::tuple<std::string, double>;  // profile, xi

class PairCascadeStreamTest : public ::testing::TestWithParam<StreamCase> {};

TEST_P(PairCascadeStreamTest, KernelThenRefineEqualsReferenceCascade) {
  const auto [profile, xi] = GetParam();
  ExperimentParams params;
  params.scale = Scale(profile);
  params.w = 30;
  params.xi = xi;
  Experiment experiment(ProfileByName(profile), params);
  std::unique_ptr<Repository> repo = experiment.BuildRepository();
  const EngineConfig config = experiment.MakeConfig();
  const int dims = repo->num_attributes();
  const TopicQuery constrained(repo->dict(), config.keywords);
  const TopicQuery unconstrained;
  ASSERT_FALSE(constrained.IsUnconstrained());

  Tally tally;
  for (const TopicQuery* topic : {&constrained, &unconstrained}) {
    RefMap refs;
    RuleBasedImputer imputer(repo.get(), experiment.cdds(),
                             /*max_candidates_per_attr=*/16);
    std::vector<Record> inc_a = DataGenerator::WithMissing(
        experiment.dataset().source_a, xi, params.m, params.seed);
    std::vector<Record> inc_b = DataGenerator::WithMissing(
        experiment.dataset().source_b, xi, params.m, params.seed + 1);
    StreamDriver driver({inc_a, inc_b});
    std::vector<SlidingWindow> windows(2, SlidingWindow(params.w));
    for (int arrival = 0; arrival < 150 && driver.HasNext(); ++arrival) {
      const Record r = driver.Next();
      WindowTuple wt{
          r.IsComplete()
              ? ImputedTuple::FromComplete(r, repo.get())
              : ImputedTuple::FromImputation(r, repo.get(),
                                             imputer.ImputeRecord(r, nullptr),
                                             config.max_instances),
          {}};
      wt.topic = topic->Classify(wt.tuple);
      refs.emplace(wt.rid(), ReferenceOf(wt.tuple, *repo));
      // Every slot of the other window (the unpruned scan) and the slots
      // the tuple-level topic test keeps (the pruned one).
      const SlidingWindow& other = windows[1 - r.stream_id];
      std::vector<uint32_t> scans[2];
      other.CandidateSlots(/*probe_topical=*/true, &scans[0]);
      other.CandidateSlots(wt.topic.any, &scans[1]);
      for (const std::vector<uint32_t>& slots : scans) {
        std::vector<const WindowTuple*> cands;
        for (uint32_t slot : slots) {
          cands.push_back(&other.at(slot));
        }
        for (double rho : {0.2, 0.5, 0.8}) {
          const double gamma = rho * dims;
          for (double alpha : {0.0, 0.3, 0.6, 0.9}) {
            ExpectKernelMatchesReference(other.rows(), wt, cands, slots,
                                         refs, gamma, alpha, &tally);
            if (::testing::Test::HasFatalFailure()) {
              return;
            }
          }
        }
      }
      windows[r.stream_id].Push(std::move(wt));
    }
  }
  EXPECT_GT(tally.passed, 0u);
  EXPECT_GT(tally.topic, 0u);
  EXPECT_GT(tally.sim, 0u);
  EXPECT_GT(tally.sig, 0u);
  EXPECT_GT(tally.main_pivot, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Profiles, PairCascadeStreamTest,
    ::testing::Combine(::testing::Values("Citations", "Anime", "Bikes",
                                         "EBooks", "Songs"),
                       ::testing::Values(0.0, 0.5)),
    [](const ::testing::TestParamInfo<StreamCase>& info) {
      return std::get<0>(info.param) +
             (std::get<1>(info.param) == 0.0 ? "_complete" : "_missing");
    });

WindowTuple MakeWindowTuple(ImputedTuple tuple, const TopicQuery& topic) {
  WindowTuple wt{std::move(tuple), {}};
  wt.topic = topic.Classify(wt.tuple);
  return wt;
}

/// Every ordered pair of `tuples` at gammas across [0, d] and alphas
/// around the sub-stochastic masses used below.
Tally CheckAllPairs(const Repository& repo,
                    const std::vector<WindowTuple>& tuples) {
  Tally tally;
  const int d = tuples.front().tuple.num_attributes();
  RefMap refs;
  for (const WindowTuple& t : tuples) {
    refs.emplace(t.rid(), ReferenceOf(t.tuple, repo));
  }
  for (const WindowTuple& probe : tuples) {
    std::vector<const WindowTuple*> cands;
    for (const WindowTuple& cand : tuples) {
      if (&cand != &probe) {
        cands.push_back(&cand);
      }
    }
    for (int g = 0; g <= 4 * d; ++g) {
      for (double alpha : {0.0, 0.2, 0.35, 0.36, 0.6, 0.9}) {
        ExpectKernelMatchesReference(probe, cands, refs, 0.25 * g, alpha,
                                    &tally);
        if (::testing::Test::HasFatalFailure()) {
          return tally;
        }
      }
    }
  }
  return tally;
}

/// Text of distinct words whose token signature has exactly `bits` bits
/// set, each word adding one bit.
std::string WordsWithSignatureBits(TokenDict* dict, int bits) {
  std::string text;
  uint64_t sig = 0;
  for (int i = 0; PopCount64(sig) < bits; ++i) {
    const std::string word = "sat" + std::to_string(i);
    const uint64_t bit = uint64_t{1} << SignatureBit(dict->Intern(word));
    if ((sig & bit) == 0) {
      sig |= bit;
      text += word + " ";
    }
  }
  return text;
}

TEST(PairCascadeTest, ConstructedEdgeCases) {
  using testing_util::MakeHealthWorld;
  using testing_util::ToyWorld;
  ToyWorld world = MakeHealthWorld();
  const Repository* repo = world.repo.get();
  // An imputed attribute with one candidate keeps one instance whose
  // probability (and the tuple's total) is below 1.
  auto single_candidate = [&](Record r, int attr, double prob) {
    ImputedTuple::ImputedAttr ia;
    ia.attr = attr;
    ia.candidates.push_back({0, prob});
    return ImputedTuple::FromImputation(std::move(r), repo, {ia}, 4);
  };
  auto several_candidates = [&](Record r, int attr) {
    ImputedTuple::ImputedAttr ia;
    ia.attr = attr;
    for (ValueId vid = 0; vid < std::min<ValueId>(3, repo->domain(attr).size());
         ++vid) {
      ia.candidates.push_back({vid, 0.3});
    }
    return ImputedTuple::FromImputation(std::move(r), repo, {ia}, 4);
  };
  for (const TopicQuery& topic :
       {TopicQuery(world.repo->dict(), {"conjunctivitis"}), TopicQuery()}) {
    std::vector<WindowTuple> tuples;
    tuples.push_back(MakeWindowTuple(
        ImputedTuple::FromComplete(
            world.Make(1, {"male", "loss of weight", "diabetes",
                           "drug therapy"}),
            repo),
        topic));
    // Missing diagnoses with no candidates: empty token sets, so two of
    // them have Jaccard 1 on that attribute.
    for (int64_t rid : {2, 3}) {
      tuples.push_back(MakeWindowTuple(
          ImputedTuple::FromImputation(
              world.Make(rid, {"male", "loss of weight", "-",
                               "drug therapy"}),
              repo, {}, 4),
          topic));
    }
    tuples.push_back(MakeWindowTuple(
        ImputedTuple::FromImputation(
            world.Make(4, {"-", "-", "-", "-"}), repo, {}, 4),
        topic));
    tuples.push_back(MakeWindowTuple(
        single_candidate(world.Make(5, {"male", "loss of weight", "-",
                                        "drug therapy"}),
                         2, 0.6),
        topic));
    tuples.push_back(MakeWindowTuple(
        single_candidate(world.Make(6, {"female", "red eye itchy", "-",
                                        "eye drop"}),
                         2, 0.6),
        topic));
    tuples.push_back(MakeWindowTuple(
        several_candidates(world.Make(7, {"male", "blurred vision", "-",
                                          "drug therapy"}),
                           2),
        topic));
    tuples.push_back(MakeWindowTuple(
        ImputedTuple::FromComplete(
            world.Make(8, {"female", "red eye itchy", "conjunctivitis",
                           "eye drop"}),
            repo),
        topic));
    // Signatures at and just past the saturation threshold.
    for (int bits : {kSigSaturatedBits, kSigSaturatedBits + 1}) {
      tuples.push_back(MakeWindowTuple(
          ImputedTuple::FromComplete(
              world.Make(
                  10 + bits,
                  {"male", WordsWithSignatureBits(world.dict.get(), bits),
                   "diabetes", "drug therapy"}),
              repo),
          topic));
    }
    ASSERT_EQ(tuples[4].tuple.num_instances(), 1);
    ASSERT_LT(tuples[4].tuple.total_prob(), 1.0);
    ASSERT_GT(tuples[6].tuple.num_instances(), 1);
    const Tally tally = CheckAllPairs(*repo, tuples);
    if (HasFatalFailure()) {
      return;
    }
    EXPECT_GT(tally.sim, 0u);
    EXPECT_GT(tally.sig, 0u);
    EXPECT_GT(tally.passed, 0u);
    if (!topic.IsUnconstrained()) {
      EXPECT_GT(tally.topic, 0u) << "no non-topical pair";
    }
  }
}

TEST(PairCascadeTest, WideSchemaHasNoSignatureReject) {
  // d > kSigPassMaxAttrs: InstanceSimilarityExceeds skips pass 1, so the
  // kernel must not reject by signature either.
  const int d = kSigPassMaxAttrs + 2;
  std::vector<std::string> names;
  for (int k = 0; k < d; ++k) {
    names.push_back("a" + std::to_string(k));
  }
  Schema schema(names);
  TokenDict dict;
  Repository repo(&schema, &dict);
  const std::vector<std::string> words = {"red", "green", "blue", "cyan",
                                          "magenta", "yellow", "black"};
  auto texts = [&](int seed) {
    std::vector<std::string> t;
    for (int k = 0; k < d; ++k) {
      t.push_back(words[(seed * 3 + k) % words.size()] + " " +
                  words[(seed + 2 * k) % words.size()]);
    }
    return t;
  };
  for (int s = 0; s < 6; ++s) {
    ASSERT_TRUE(
        repo.AddSample(testing_util::MakeRecord(schema, &dict, 100 + s,
                                                texts(s)))
            .ok());
  }
  PivotOptions popts;
  popts.cnt_max = 2;
  PivotSelector selector(&repo, popts);
  repo.AttachPivots(selector.SelectAll());
  const TopicQuery topic;
  std::vector<WindowTuple> tuples;
  for (int s = 0; s < 6; ++s) {
    tuples.push_back(MakeWindowTuple(
        ImputedTuple::FromComplete(
            testing_util::MakeRecord(schema, &dict, s, texts(s % 4)), &repo),
        topic));
  }
  const Tally tally = CheckAllPairs(repo, tuples);
  if (HasFatalFailure()) {
    return;
  }
  EXPECT_EQ(tally.sig, 0u);
  EXPECT_GT(tally.passed, 0u);
}

}  // namespace
}  // namespace terids
