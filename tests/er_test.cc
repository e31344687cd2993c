#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "bound_reference.h"
#include "er/probability.h"
#include "er/pruning.h"
#include "er/similarity.h"
#include "er/topic.h"
#include "test_util.h"
#include "text/token_set.h"
#include "util/rng.h"

namespace terids {
namespace {

using testing_util::KernelThenRefine;
using testing_util::MakeHealthWorld;
using testing_util::ReferenceAggregates;
using testing_util::ReferenceBoundsVerdict;
using testing_util::ReferenceOf;
using testing_util::ReferencePaleyZygmund;
using testing_util::ReferencePivotUb;
using testing_util::ReferenceRow;
using testing_util::ReferenceSizeUb;
using testing_util::ToyWorld;
using testing_util::WindowRowOf;

TEST(SimilarityTest, RecordSimilaritySumsPerAttributeJaccard) {
  ToyWorld world = MakeHealthWorld();
  Record a = world.Make(1, {"male", "fever cough", "flu", "rest"});
  Record b = world.Make(2, {"male", "fever", "flu", "rest"});
  // gender 1 + symptom 0.5 + diagnosis 1 + treatment 1.
  EXPECT_DOUBLE_EQ(RecordSimilarity(a, b), 3.5);
}

TEST(SimilarityTest, MissingAttributesActAsEmptySets) {
  ToyWorld world = MakeHealthWorld();
  Record a = world.Make(1, {"male", "fever", "-", "rest"});
  Record b = world.Make(2, {"male", "fever", "flu", "rest"});
  EXPECT_DOUBLE_EQ(RecordSimilarity(a, b), 3.0);
}

TEST(TopicQueryTest, UnconstrainedMatchesEverything) {
  TopicQuery topic;
  EXPECT_TRUE(topic.IsUnconstrained());
  EXPECT_TRUE(topic.Matches(TokenSet()));
}

TEST(TopicQueryTest, MatchesKeywordTokens) {
  ToyWorld world = MakeHealthWorld();
  TopicQuery topic(*world.dict, {"diabetes"});
  Tokenizer tok(world.dict.get());
  EXPECT_TRUE(topic.Matches(tok.TokenizeFrozen("diagnosed with diabetes")));
  EXPECT_FALSE(topic.Matches(tok.TokenizeFrozen("flu and cough")));
}

TEST(TopicQueryTest, UnknownKeywordsNeverMatch) {
  ToyWorld world = MakeHealthWorld();
  TopicQuery topic(*world.dict, {"nonexistentword"});
  EXPECT_FALSE(topic.IsUnconstrained());
  Tokenizer tok(world.dict.get());
  EXPECT_FALSE(topic.Matches(tok.TokenizeFrozen("male fever diabetes")));
}

TEST(TopicQueryTest, ClassifyFlagsInstancesIndividually) {
  ToyWorld world = MakeHealthWorld();
  TopicQuery topic(*world.dict, {"diabetes"});
  Record r = world.Make(1, {"male", "blurred vision", "-", "drug therapy"});
  const AttributeDomain& dom = world.repo->domain(2);
  ValueId diabetes = kInvalidValueId;
  ValueId flu = kInvalidValueId;
  for (ValueId v = 0; v < dom.size(); ++v) {
    if (dom.text(v) == "diabetes") diabetes = v;
    if (dom.text(v) == "flu") flu = v;
  }
  ImputedTuple::ImputedAttr ia;
  ia.attr = 2;
  ia.candidates = {{diabetes, 0.6}, {flu, 0.4}};
  ImputedTuple t =
      ImputedTuple::FromImputation(r, world.repo.get(), {ia}, 8);
  TopicQuery::TupleTopic tt = topic.Classify(t);
  EXPECT_TRUE(tt.any);
  EXPECT_TRUE(tt.instance_matches[0]);   // diabetes instance
  EXPECT_FALSE(tt.instance_matches[1]);  // flu instance
}

// ---------------------------------------------------------------------
// Property tests: every bound must dominate the exact quantity it bounds.
// ---------------------------------------------------------------------

class BoundsPropertyTest : public ::testing::TestWithParam<int> {
 protected:
  BoundsPropertyTest() : world_(MakeHealthWorld()) {}

  const std::vector<std::vector<std::string>> pool_ = {
      {"male", "loss of weight", "diabetes", "drug therapy"},
      {"female", "fever cough", "flu", "rest"},
      {"male", "blurred vision", "diabetes", "dietary therapy"},
      {"female", "red eye shed tears", "conjunctivitis", "eye drop"},
      {"male", "fever poor appetite", "flu", "drink more"},
  };

  /// Random (possibly imputed) tuple over the toy repository.
  ImputedTuple RandomTuple(Rng* rng, int64_t rid) {
    std::vector<std::string> texts = pool_[rng->NextBounded(pool_.size())];
    std::vector<ImputedTuple::ImputedAttr> imputed;
    // Randomly knock out one attribute and impute it with 1-4 candidates.
    if (rng->NextBool(0.7)) {
      const int attr = static_cast<int>(rng->NextBounded(4));
      texts[attr] = "-";
      const AttributeDomain& dom = world_.repo->domain(attr);
      ImputedTuple::ImputedAttr ia;
      ia.attr = attr;
      const int n = 1 + static_cast<int>(rng->NextBounded(4));
      double remaining = 1.0;
      for (int c = 0; c < n; ++c) {
        const double p = (c == n - 1) ? remaining : remaining * 0.5;
        ia.candidates.push_back(
            {static_cast<ValueId>(rng->NextBounded(dom.size())), p});
        remaining -= p;
      }
      // Dedup candidate vids (cross product requires distinct choices not
      // to collapse probabilities, but duplicates are legal; keep as-is).
      imputed.push_back(std::move(ia));
    }
    Record r = world_.Make(rid, texts);
    if (imputed.empty()) {
      return ImputedTuple::FromComplete(r, world_.repo.get());
    }
    return ImputedTuple::FromImputation(r, world_.repo.get(),
                                        std::move(imputed), 8);
  }

  /// Tuple with up to two missing attributes, each imputed with 1-4
  /// candidates or left unfilled, under a random instance cap: covers
  /// complete, multi-instance and truncated (total mass < 1) tuples.
  ImputedTuple MixedTuple(Rng* rng, int64_t rid) {
    std::vector<std::string> texts = pool_[rng->NextBounded(pool_.size())];
    std::vector<ImputedTuple::ImputedAttr> imputed;
    const int num_missing = static_cast<int>(rng->NextBounded(3));
    for (int i = 0; i < num_missing; ++i) {
      const int attr = static_cast<int>(rng->NextBounded(4));
      if (texts[attr] == "-") {
        continue;
      }
      texts[attr] = "-";
      if (rng->NextBool(0.25)) {
        continue;  // unfilled: empty in every instance
      }
      const AttributeDomain& dom = world_.repo->domain(attr);
      ImputedTuple::ImputedAttr ia;
      ia.attr = attr;
      const int n = 1 + static_cast<int>(rng->NextBounded(4));
      double mass = 0.0;
      for (int c = 0; c < n; ++c) {
        ia.candidates.push_back(
            {static_cast<ValueId>(rng->NextBounded(dom.size())),
             0.1 + rng->NextDouble()});
        mass += ia.candidates.back().prob;
      }
      for (ImputedTuple::Candidate& cand : ia.candidates) {
        cand.prob /= mass;  // each distribution sums to 1 before the cap
      }
      imputed.push_back(std::move(ia));
    }
    const int caps[] = {1, 2, 3, 16};
    return ImputedTuple::FromImputation(world_.Make(rid, texts),
                                        world_.repo.get(), std::move(imputed),
                                        caps[rng->NextBounded(4)]);
  }

  ToyWorld world_;
};

TEST_P(BoundsPropertyTest, RowIsBitIdenticalToPerPairReference) {
  Rng rng(GetParam() * 131 + 17);
  const TopicQuery constrained(*world_.dict, {"diabetes", "flu"});
  const TopicQuery unconstrained;
  // Second pass: attribute k gets k + 1 pivots, so pivot counts differ.
  for (int pass = 0; pass < 2; ++pass) {
    if (pass == 1) {
      std::vector<AttributePivots> pivots(4);
      for (int k = 0; k < 4; ++k) {
        const AttributeDomain& dom = world_.repo->domain(k);
        for (int p = 0; p <= k; ++p) {
          pivots[k].pivots.push_back(dom.tokens(p % dom.size()));
        }
      }
      world_.repo->AttachPivots(std::move(pivots));
    }
    const Repository& repo = *world_.repo;
    int complete = 0;
    int multi = 0;
    int truncated = 0;
    int unfilled = 0;
    int kernel_pruned = 0;
    int kernel_passed = 0;
    for (int trial = 0; trial < 60; ++trial) {
      ImputedTuple a = MixedTuple(&rng, 2 * trial);
      ImputedTuple b = MixedTuple(&rng, 2 * trial + 1);
      complete += a.base().IsComplete() ? 1 : 0;
      multi += a.num_instances() > 1 ? 1 : 0;
      truncated += a.total_prob() < 1.0 - 1e-9 ? 1 : 0;
      for (int k = 0; k < a.num_attributes(); ++k) {
        unfilled += a.base().values[k].missing && !a.IsAttrImputed(k) ? 1 : 0;
      }
      for (const ImputedTuple* t : {&a, &b}) {
        const std::vector<double> want = ReferenceRow(*t, repo);
        ASSERT_EQ(t->row_layout().stride(), want.size());
        for (size_t w = 0; w < want.size(); ++w) {
          EXPECT_EQ(std::memcmp(t->row() + w, &want[w], sizeof(double)), 0)
              << "pass " << pass << " rid " << t->rid() << " word " << w
              << ": " << t->row()[w] << " vs " << want[w];
        }
      }
      const ReferenceAggregates ra = ReferenceOf(a, repo);
      const ReferenceAggregates rb = ReferenceOf(b, repo);
      for (const TopicQuery* topic : {&constrained, &unconstrained}) {
        const TopicQuery::TupleTopic ta = topic->Classify(a);
        const TopicQuery::TupleTopic tb = topic->Classify(b);
        const std::vector<double> b_row = WindowRowOf(b, tb.any);
        const uint32_t slot = 0;
        for (double gamma : {1.0, 2.0, 2.5, 3.0, 3.5}) {
          for (double alpha : {0.0, 0.1, 0.3, 0.5, 0.8}) {
            std::vector<PairEvaluation> evals;
            std::vector<uint32_t> passed;
            EvaluateCandidates(a.row_layout(), a.row(), ta.any, b_row.data(),
                               &slot, 1, gamma, alpha, &evals, &passed);
            const std::optional<PairOutcome> want =
                ReferenceBoundsVerdict(ta, ra, tb, rb, gamma, alpha);
            if (want.has_value()) {
              ++kernel_pruned;
              EXPECT_TRUE(passed.empty());
              EXPECT_EQ(static_cast<int>(evals[0].outcome),
                        static_cast<int>(*want))
                  << "gamma=" << gamma << " alpha=" << alpha;
            } else if (!passed.empty()) {
              ++kernel_passed;
            } else {
              // Only the signature reject may stop a pair the bounds pass.
              EXPECT_EQ(static_cast<int>(evals[0].outcome),
                        static_cast<int>(PairOutcome::kInstancePruned))
                  << "gamma=" << gamma << " alpha=" << alpha;
              EXPECT_EQ(evals[0].sig_rejects, 1u);
            }
          }
        }
      }
    }
    EXPECT_GT(complete, 0);
    EXPECT_GT(multi, 0);
    EXPECT_GT(truncated, 0);
    EXPECT_GT(unfilled, 0);
    EXPECT_GT(kernel_pruned, 0);
    EXPECT_GT(kernel_passed, 0);
  }
}

TEST_P(BoundsPropertyTest, SimilarityUpperBoundsDominateAllInstancePairs) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 60; ++trial) {
    ImputedTuple a = RandomTuple(&rng, 2 * trial);
    ImputedTuple b = RandomTuple(&rng, 2 * trial + 1);
    const ReferenceAggregates ra = ReferenceOf(a, *world_.repo);
    const ReferenceAggregates rb = ReferenceOf(b, *world_.repo);
    const double ub_size = ReferenceSizeUb(ra, rb);
    const double ub_pivot = ReferencePivotUb(ra, rb);
    for (int m = 0; m < a.num_instances(); ++m) {
      for (int mp = 0; mp < b.num_instances(); ++mp) {
        const double sim = InstanceSimilarity(a, m, b, mp);
        EXPECT_LE(sim, ub_size + 1e-9) << "Lemma 4.1 violated";
        EXPECT_LE(sim, ub_pivot + 1e-9) << "Lemma 4.2 violated";
      }
    }
  }
}

TEST_P(BoundsPropertyTest, PaleyZygmundBoundDominatesExactProbability) {
  Rng rng(GetParam() * 97 + 11);
  TopicQuery topic;  // Unconstrained: bound must hold even for 𝜛 == true.
  for (int trial = 0; trial < 60; ++trial) {
    ImputedTuple a = RandomTuple(&rng, 2 * trial);
    ImputedTuple b = RandomTuple(&rng, 2 * trial + 1);
    TopicQuery::TupleTopic ta = topic.Classify(a);
    TopicQuery::TupleTopic tb = topic.Classify(b);
    const ReferenceAggregates ra = ReferenceOf(a, *world_.repo);
    const ReferenceAggregates rb = ReferenceOf(b, *world_.repo);
    for (double gamma : {1.0, 2.0, 2.5, 3.0, 3.5}) {
      const double ub = ReferencePaleyZygmund(ra, rb, gamma);
      const double exact = ExactProbability(a, ta, b, tb, gamma);
      EXPECT_GE(ub, exact - 1e-9)
          << "Lemma 4.3 violated at gamma=" << gamma;
    }
  }
}

TEST_P(BoundsPropertyTest, RefineAgreesWithExactWhenNotTerminatedEarly) {
  Rng rng(GetParam() * 31 + 7);
  TopicQuery topic;
  for (int trial = 0; trial < 60; ++trial) {
    ImputedTuple a = RandomTuple(&rng, 2 * trial);
    ImputedTuple b = RandomTuple(&rng, 2 * trial + 1);
    TopicQuery::TupleTopic ta = topic.Classify(a);
    TopicQuery::TupleTopic tb = topic.Classify(b);
    const double gamma = 2.0;
    const double alpha = 0.5;
    const double exact = ExactProbability(a, ta, b, tb, gamma);
    RefineResult refine = RefineProbability(a, ta, b, tb, gamma, alpha);
    // Theorem 4.4: early termination must never flip the alpha decision.
    EXPECT_EQ(refine.early_accepted || (!refine.early_pruned &&
                                        refine.probability > alpha),
              exact > alpha);
    if (!refine.early_accepted && !refine.early_pruned) {
      EXPECT_NEAR(refine.probability, exact, 1e-12);
    }
  }
}

TEST_P(BoundsPropertyTest, CascadeNeverPrunesARealMatch) {
  Rng rng(GetParam() * 53 + 29);
  ToyWorld& world = world_;
  TopicQuery topic(*world.dict, {"diabetes", "flu"});
  PruneStats stats;
  for (int trial = 0; trial < 80; ++trial) {
    ImputedTuple a = RandomTuple(&rng, 2 * trial);
    ImputedTuple b = RandomTuple(&rng, 2 * trial + 1);
    TopicQuery::TupleTopic ta = topic.Classify(a);
    TopicQuery::TupleTopic tb = topic.Classify(b);
    const double gamma = 2.0;
    const double alpha = 0.4;
    const double exact = ExactProbability(a, ta, b, tb, gamma);
    const PairEvaluation eval = KernelThenRefine(a, ta, b, tb, gamma, alpha);
    stats.Record(eval.outcome);
    EXPECT_EQ(eval.matched(), exact > alpha)
        << "pruning changed the decision (exact=" << exact << ")";
    if (eval.matched()) {
      EXPECT_GT(eval.probability, alpha);
    }
  }
  EXPECT_EQ(stats.total_pairs, 80u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BoundsPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(RefineTest, TopicGatesProbability) {
  ToyWorld world = MakeHealthWorld();
  TopicQuery topic(*world.dict, {"conjunctivitis"});
  Record a = world.Make(1, {"male", "fever", "flu", "rest"});
  Record b = world.Make(2, {"male", "fever", "flu", "rest"});
  ImputedTuple ta = ImputedTuple::FromComplete(a, world.repo.get());
  ImputedTuple tb = ImputedTuple::FromComplete(b, world.repo.get());
  // Identical tuples (sim = 4) but no topical keyword: probability 0.
  EXPECT_DOUBLE_EQ(ExactProbability(ta, topic.Classify(ta), tb,
                                    topic.Classify(tb), 2.0),
                   0.0);
}

}  // namespace
}  // namespace terids
