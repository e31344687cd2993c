#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "er/bounds.h"
#include "er/probability.h"
#include "er/pruning.h"
#include "er/similarity.h"
#include "er/topic.h"
#include "test_util.h"
#include "text/token_set.h"
#include "util/rng.h"

namespace terids {
namespace {

using testing_util::MakeHealthWorld;
using testing_util::ToyWorld;

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
  EXPECT_FALSE(tt.all);
  EXPECT_TRUE(tt.instance_matches[0]);   // diabetes instance
  EXPECT_FALSE(tt.instance_matches[1]);  // flu instance
  EXPECT_NE(tt.possible_mask, 0u);
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

/// Test-local reference for the Lemma 4.1-4.3 aggregates, rebuilt from
/// per-instance token sets and repository pivots.
struct ReferenceAggregates {
  std::vector<Interval> sizes;               // [attr]
  std::vector<std::vector<Interval>> dists;  // [attr][pivot]
  std::vector<double> expected;              // [attr], main pivot
  double total_prob = 0.0;
};

ReferenceAggregates ReferenceOf(const ImputedTuple& t, const Repository& repo) {
  const int d = t.num_attributes();
  const double norm = t.total_prob() > 0 ? t.total_prob() : 1.0;
  ReferenceAggregates ref;
  ref.sizes.assign(d, Interval::Empty());
  ref.dists.assign(d, {});
  ref.expected.assign(d, 0.0);
  ref.total_prob = t.total_prob();
  for (int k = 0; k < d; ++k) {
    ref.dists[k].assign(repo.num_pivots(k), Interval::Empty());
    for (int m = 0; m < t.num_instances(); ++m) {
      const TokenSet& tokens = t.instance_tokens(m, k);
      ref.sizes[k].Cover(static_cast<double>(tokens.size()));
      for (int p = 0; p < repo.num_pivots(k); ++p) {
        ref.dists[k][p].Cover(JaccardDistance(tokens, repo.pivot_tokens(k, p)));
      }
      if (t.IsAttrImputed(k)) {
        const double weight = t.instance_prob(m) / norm;
        ref.expected[k] +=
            weight * JaccardDistance(tokens, repo.pivot_tokens(k, 0));
      }
    }
    if (!t.IsAttrImputed(k)) {
      ref.expected[k] = ref.dists[k][0].lo;
    }
  }
  return ref;
}

double ReferenceSizeUb(const ReferenceAggregates& a,
                       const ReferenceAggregates& b) {
  double ub = 0.0;
  for (size_t k = 0; k < a.sizes.size(); ++k) {
    const Interval& sa = a.sizes[k];
    const Interval& sb = b.sizes[k];
    double attr_ub = 1.0;
    if (sa.lo > sb.hi) {
      attr_ub = sa.lo > 0 ? sb.hi / sa.lo : 1.0;
    } else if (sa.hi < sb.lo) {
      attr_ub = sb.lo > 0 ? sa.hi / sb.lo : 1.0;
    }
    ub += attr_ub;
  }
  return ub;
}

double ReferencePivotUb(const ReferenceAggregates& a,
                        const ReferenceAggregates& b) {
  double sum_min_dist = 0.0;
  for (size_t k = 0; k < a.dists.size(); ++k) {
    double best = 0.0;
    const size_t np = std::min(a.dists[k].size(), b.dists[k].size());
    for (size_t p = 0; p < np; ++p) {
      best = std::max(best, a.dists[k][p].MinAbsDiff(b.dists[k][p]));
    }
    sum_min_dist += best;
  }
  return static_cast<double>(a.dists.size()) - sum_min_dist;
}

/// Lemma 4.3 with the six main-pivot sums accumulated per pair.
double ReferencePaleyZygmund(const ReferenceAggregates& a,
                             const ReferenceAggregates& b, double gamma) {
  const int d = static_cast<int>(a.expected.size());
  double e_x = 0.0;
  double e_y = 0.0;
  double lb_x = 0.0;
  double ub_x = 0.0;
  double lb_y = 0.0;
  double ub_y = 0.0;
  for (int k = 0; k < d; ++k) {
    e_x += a.expected[k];
    e_y += b.expected[k];
    lb_x += a.dists[k][0].lo;
    ub_x += a.dists[k][0].hi;
    lb_y += b.dists[k][0].lo;
    ub_y += b.dists[k][0].hi;
  }
  const double dg = static_cast<double>(d) - gamma;
  double bound = 1.0;
  double ez = 0.0;
  double ubz = 0.0;
  if (lb_x >= ub_y) {
    ez = e_x - e_y;
    ubz = ub_x - lb_y;
  } else if (lb_y >= ub_x) {
    ez = e_y - e_x;
    ubz = ub_y - lb_x;
  }
  if (ez > 0 && dg >= 0 && dg <= ez && ubz > 0) {
    const double theta = dg / ez;
    bound = 1.0 - (1.0 - theta) * (1.0 - theta) * (ez / ubz);
  }
  return std::clamp(bound, 0.0, 1.0) * (a.total_prob * b.total_prob);
}

TEST_P(BoundsPropertyTest, BoundBlockIsBitIdenticalToPerPairReference) {
  Rng rng(GetParam() * 131 + 17);
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
    for (int trial = 0; trial < 60; ++trial) {
      ImputedTuple a = MixedTuple(&rng, 2 * trial);
      ImputedTuple b = MixedTuple(&rng, 2 * trial + 1);
      complete += a.base().IsComplete() ? 1 : 0;
      multi += a.num_instances() > 1 ? 1 : 0;
      truncated += a.total_prob() < 1.0 - 1e-9 ? 1 : 0;
      for (int k = 0; k < a.num_attributes(); ++k) {
        unfilled += a.base().values[k].missing && !a.IsAttrImputed(k) ? 1 : 0;
      }
      const ReferenceAggregates ra = ReferenceOf(a, repo);
      const ReferenceAggregates rb = ReferenceOf(b, repo);
      for (int k = 0; k < a.num_attributes(); ++k) {
        ASSERT_EQ(a.num_pivot_intervals(k), repo.num_pivots(k));
        EXPECT_EQ(a.token_size_interval(k), ra.sizes[k]);
        EXPECT_EQ(a.expected_pivot_dist(k), ra.expected[k]);
        for (int p = 0; p < repo.num_pivots(k); ++p) {
          EXPECT_EQ(a.pivot_dist_interval(k, p), ra.dists[k][p]);
        }
      }
      EXPECT_EQ(UbSimTokenSize(a, b), ReferenceSizeUb(ra, rb));
      EXPECT_EQ(UbSimPivot(a, b), ReferencePivotUb(ra, rb));
      EXPECT_EQ(UbSim(a, b), std::min(ReferenceSizeUb(ra, rb),
                                      ReferencePivotUb(ra, rb)));
      for (double gamma : {1.0, 2.0, 2.5, 3.0, 3.5}) {
        EXPECT_EQ(UbProbPaleyZygmund(a, b, gamma),
                  ReferencePaleyZygmund(ra, rb, gamma))
            << "gamma=" << gamma;
      }
    }
    EXPECT_GT(complete, 0);
    EXPECT_GT(multi, 0);
    EXPECT_GT(truncated, 0);
    EXPECT_GT(unfilled, 0);
  }
}

TEST_P(BoundsPropertyTest, SimilarityUpperBoundsDominateAllInstancePairs) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 60; ++trial) {
    ImputedTuple a = RandomTuple(&rng, 2 * trial);
    ImputedTuple b = RandomTuple(&rng, 2 * trial + 1);
    const double ub_size = UbSimTokenSize(a, b);
    const double ub_pivot = UbSimPivot(a, b);
    const double ub = UbSim(a, b);
    EXPECT_LE(ub, ub_size + 1e-12);
    EXPECT_LE(ub, ub_pivot + 1e-12);
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
    for (double gamma : {1.0, 2.0, 2.5, 3.0, 3.5}) {
      const double ub = UbProbPaleyZygmund(a, b, gamma);
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

TEST_P(BoundsPropertyTest, EvaluatePairNeverPrunesARealMatch) {
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
    const PairEvaluation eval = EvaluatePair(a, ta, b, tb, gamma, alpha);
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
