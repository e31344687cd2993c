// Property tests of the flat similarity kernels (DESIGN.md §9, §11):
//
// 1. The three intersection algorithms — the seed linear merge (reproduced
//    here verbatim as the oracle), IntersectLinear, and IntersectGallop —
//    agree exactly on randomized token sets covering empty, duplicated, and
//    heavily skewed inputs.
// 2. The 64-bit signature bound is sound: SigIntersectionUpperBound is
//    always >= the exact intersection size and SigJaccardUpperBound >= the
//    exact Jaccard similarity, so the signature filter can only skip
//    merges, never flip a verdict.
// 3. SignatureBit spreads dense dictionary ids uniformly over the 64 bits
//    (chi-square pinned), for both random and sequential ids.
// 4. TokenArena views are faithful: every (instance, attribute) slot of an
//    ImputedTuple holds exactly instance_tokens() with its signature, and
//    InstanceSimilarityExceeds equals InstanceSimilarity > gamma, on toy
//    tuples and on the generated EBooks profile's long token sets.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "datagen/profiles.h"
#include "er/similarity.h"
#include "eval/experiment.h"
#include "text/similarity_kernels.h"
#include "text/token_arena.h"
#include "text/token_set.h"
#include "tuple/imputed_tuple.h"
#include "test_util.h"

namespace terids {
namespace {

using testing_util::MakeHealthWorld;
using testing_util::ToyWorld;

/// The seed implementation of TokenSet::IntersectionSize (PR-1 .. PR-4),
/// kept verbatim as the ground-truth oracle.
size_t SeedIntersectionSize(const std::vector<Token>& a,
                            const std::vector<Token>& b) {
  size_t i = 0;
  size_t j = 0;
  size_t count = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (a[i] > b[j]) {
      ++j;
    } else {
      ++count;
      ++i;
      ++j;
    }
  }
  return count;
}

/// Random (possibly empty / duplicated) token list; FromTokens handles the
/// sort + dedup exactly as production token sets do.
std::vector<Token> RandomTokens(std::mt19937_64* rng, size_t max_len,
                                Token universe) {
  std::uniform_int_distribution<size_t> len_dist(0, max_len);
  std::uniform_int_distribution<Token> tok_dist(0, universe);
  std::uniform_int_distribution<int> dup_dist(0, 3);
  const size_t len = len_dist(*rng);
  std::vector<Token> tokens;
  tokens.reserve(len * 2);
  for (size_t i = 0; i < len; ++i) {
    const Token t = tok_dist(*rng);
    tokens.push_back(t);
    if (dup_dist(*rng) == 0) {
      tokens.push_back(t);  // force duplicates pre-dedup
    }
  }
  return tokens;
}

TEST(SimilarityKernelTest, IntersectionAlgorithmsAgreeWithSeedOracle) {
  std::mt19937_64 rng(20210620);
  // Size pairs stressing both regimes: balanced (linear merge) and heavily
  // skewed (gallop), including empty sides.
  const std::vector<std::pair<size_t, size_t>> shapes = {
      {0, 0},  {0, 40},  {1, 1},    {8, 8},     {5, 400},
      {3, 50}, {64, 64}, {2, 1000}, {300, 300}, {1, 2000}};
  for (const auto& [la, lb] : shapes) {
    for (int rep = 0; rep < 50; ++rep) {
      // Small universe => dense overlap; large => sparse.
      const Token universe = rep % 2 == 0 ? 64 : 100000;
      const TokenSet a = TokenSet::FromTokens(RandomTokens(&rng, la, universe));
      const TokenSet b = TokenSet::FromTokens(RandomTokens(&rng, lb, universe));
      const size_t seed =
          SeedIntersectionSize(std::vector<Token>(a.begin(), a.end()),
                               std::vector<Token>(b.begin(), b.end()));
      EXPECT_EQ(IntersectLinear(a.data(), a.size(),
                                b.data(), b.size()),
                seed);
      EXPECT_EQ(IntersectGallop(a.data(), a.size(),
                                b.data(), b.size()),
                seed);
      EXPECT_EQ(a.IntersectionSize(b), seed);  // the adaptive dispatch
    }
  }
}

TEST(SimilarityKernelTest, SignatureBoundDominatesExactIntersection) {
  std::mt19937_64 rng(42);
  for (int rep = 0; rep < 2000; ++rep) {
    const Token universe = rep % 3 == 0 ? 32 : 5000;
    const TokenSet a = TokenSet::FromTokens(RandomTokens(&rng, 120, universe));
    const TokenSet b = TokenSet::FromTokens(RandomTokens(&rng, 120, universe));
    const uint64_t sa = TokenSignature(a.data(), a.size());
    const uint64_t sb = TokenSignature(b.data(), b.size());
    const size_t exact = a.IntersectionSize(b);
    const size_t bound = SigIntersectionUpperBound(a.size(), sa, b.size(), sb);
    ASSERT_GE(bound, exact);
    ASSERT_LE(bound, std::min(a.size(), b.size()));
    ASSERT_GE(SigJaccardUpperBound(a.size(), sa, b.size(), sb),
              JaccardSimilarity(a, b));
  }
  // The both-empty convention matches JaccardSimilarity.
  EXPECT_DOUBLE_EQ(SigJaccardUpperBound(0, 0, 0, 0), 1.0);
}

TEST(SimilarityKernelTest, SignatureBitUniform) {
  // Chi-square uniformity of SignatureBit over both random and sequential
  // (dense dictionary id) tokens. Threshold is dof + 4 * sqrt(2 * dof) —
  // about 4 standard deviations above the mean of the chi-square
  // distribution, and deterministic here since both the hash and the PRNG
  // seed are fixed.
  std::mt19937_64 rng(7);
  const int kSamples = 100000;
  std::vector<Token> random_tokens(kSamples);
  std::vector<Token> sequential_tokens(kSamples);
  std::uniform_int_distribution<Token> tok_dist(0, 1u << 30);
  for (int i = 0; i < kSamples; ++i) {
    random_tokens[i] = tok_dist(rng);
    sequential_tokens[i] = static_cast<Token>(i);
  }
  for (const auto* tokens : {&random_tokens, &sequential_tokens}) {
    std::vector<int> counts(64, 0);
    for (const Token t : *tokens) {
      const int bit = SignatureBit(t);
      ASSERT_GE(bit, 0);
      ASSERT_LT(bit, 64);
      ++counts[bit];
    }
    const double expected = static_cast<double>(kSamples) / 64;
    double chi2 = 0.0;
    for (const int c : counts) {
      const double d = c - expected;
      chi2 += d * d / expected;
    }
    const double dof = 63;
    const double threshold = dof + 4.0 * std::sqrt(2.0 * dof);
    EXPECT_LT(chi2, threshold)
        << (tokens == &random_tokens ? "random" : "sequential");
  }
}

TEST(SimilarityKernelTest, SignatureDetectsDisjointBitsets) {
  // Two sets whose signatures share no bits must be provably disjoint.
  std::vector<Token> a_toks;
  std::vector<Token> b_toks;
  for (Token t = 0; t < 2000; ++t) {
    (SignatureBit(t) < 32 ? a_toks : b_toks).push_back(t);
  }
  const TokenSet a = TokenSet::FromTokens(a_toks);
  const TokenSet b = TokenSet::FromTokens(b_toks);
  const uint64_t sa = TokenSignature(a.data(), a.size());
  const uint64_t sb = TokenSignature(b.data(), b.size());
  EXPECT_EQ(sa & sb, 0u);
  EXPECT_EQ(SigIntersectionUpperBound(a.size(), sa, b.size(), sb), 0u);
  EXPECT_EQ(a.IntersectionSize(b), 0u);
}

TEST(SimilarityKernelTest, ArenaViewsMatchInstanceTokens) {
  ToyWorld world = MakeHealthWorld();
  // An incomplete record with an imputed diagnosis: several instances.
  Record r = world.Make(7, {"male", "blurred vision", "-", "drug therapy"});
  ImputedTuple::ImputedAttr ia;
  ia.attr = 2;
  const AttributeDomain& domain = world.repo->domain(2);
  for (ValueId vid = 0; vid < std::min<ValueId>(3, domain.size()); ++vid) {
    ia.candidates.push_back({vid, 0.3});
  }
  const ImputedTuple tuple = ImputedTuple::FromImputation(
      r, world.repo.get(), {ia}, /*max_instances=*/4);
  ASSERT_GT(tuple.num_instances(), 1);
  for (int m = 0; m < tuple.num_instances(); ++m) {
    for (int k = 0; k < tuple.num_attributes(); ++k) {
      const TokenSet& expect = tuple.instance_tokens(m, k);
      const TokenView view = tuple.instance_token_view(m, k);
      ASSERT_EQ(view.len, expect.size());
      EXPECT_TRUE(std::equal(expect.begin(), expect.end(), view.data));
      EXPECT_EQ(view.sig, TokenSignature(expect.data(), expect.size()))
          << "instance " << m << " attribute " << k;
    }
  }
  // The cached record union is the sorted, deduplicated union of the
  // base record's non-missing attributes.
  std::vector<Token> expect_union;
  for (const AttrValue& v : r.values) {
    if (!v.missing) {
      expect_union.insert(expect_union.end(), v.tokens.begin(),
                          v.tokens.end());
    }
  }
  const TokenSet union_set = TokenSet::FromTokens(expect_union);
  const TokenView union_view = tuple.union_token_view();
  ASSERT_EQ(union_view.len, union_set.size());
  EXPECT_TRUE(std::equal(union_set.begin(), union_set.end(),
                         union_view.data));
}

/// Checks InstanceSimilarityExceeds against the plain-merge verdict for
/// every instance pair of `tuples`: at random gammas in [0, d], and at the
/// two gammas straddling the exact similarity, where a bound that rounds
/// the wrong way would flip the verdict.
void ExpectExceedsMatchesExact(const std::vector<ImputedTuple>& tuples,
                               std::mt19937_64* rng) {
  std::uniform_real_distribution<double> gamma_dist(
      0.0, tuples.front().num_attributes());
  for (const ImputedTuple& a : tuples) {
    for (const ImputedTuple& b : tuples) {
      for (int ma = 0; ma < a.num_instances(); ++ma) {
        for (int mb = 0; mb < b.num_instances(); ++mb) {
          const double exact = InstanceSimilarity(a, ma, b, mb);
          std::vector<double> gammas = {exact, std::nextafter(exact, -1.0)};
          for (int rep = 0; rep < 6; ++rep) {
            gammas.push_back(gamma_dist(*rng));
          }
          for (const double gamma : gammas) {
            ASSERT_EQ(InstanceSimilarityExceeds(a, ma, b, mb, gamma),
                      exact > gamma)
                << "rids " << a.rid() << "/" << b.rid() << " gamma " << gamma;
          }
        }
      }
    }
  }
}

TEST(SimilarityKernelTest, ExceedsVerdictMatchesExactSimilarity) {
  ToyWorld world = MakeHealthWorld();
  std::mt19937_64 rng(7);
  const std::vector<std::vector<std::string>> texts = {
      {"male", "loss of weight", "diabetes", "drug therapy"},
      {"male", "blurred vision", "-", "drug therapy"},
      {"female", "fever cough", "-", "-"},
      {"-", "red eye itchy", "conjunctivitis", "eye drop"},
      {"male", "fever cough headache", "flu", "drink more"},
  };
  std::vector<ImputedTuple> tuples;
  for (size_t i = 0; i < texts.size(); ++i) {
    Record r = world.Make(static_cast<int64_t>(i), texts[i]);
    std::vector<ImputedTuple::ImputedAttr> imputed;
    for (int j : r.MissingAttributes()) {
      ImputedTuple::ImputedAttr ia;
      ia.attr = j;
      const AttributeDomain& domain = world.repo->domain(j);
      for (ValueId vid = 0; vid < std::min<ValueId>(3, domain.size());
           ++vid) {
        ia.candidates.push_back({vid, 0.25});
      }
      imputed.push_back(std::move(ia));
    }
    tuples.push_back(ImputedTuple::FromImputation(
        r, world.repo.get(), std::move(imputed), 4));
  }
  for (const ImputedTuple& a : tuples) {
    for (const ImputedTuple& b : tuples) {
      // The cached-union overload must agree exactly with the Record
      // overload (both read the same one UnionRecordTokensInto semantics).
      EXPECT_DOUBLE_EQ(HeterogeneousRecordSimilarity(a, b),
                       HeterogeneousRecordSimilarity(a.base(), b.base()));
    }
  }
  ExpectExceedsMatchesExact(tuples, &rng);

  // One more input: complete tuples of the generated EBooks profile, which
  // carries the longest token sets of the five profiles — the regime where
  // 64-bit signatures come closest to saturating and the popcount bound is
  // loosest.
  ExperimentParams params;
  params.scale = 0.012;
  params.w = 50;
  params.max_arrivals = 100;
  Experiment experiment(EBooksProfile(), params);
  std::unique_ptr<Repository> repo = experiment.BuildRepository();
  std::vector<ImputedTuple> ebooks;
  for (const std::vector<Record>* source :
       {&experiment.dataset().source_a, &experiment.dataset().source_b}) {
    for (size_t i = 0; i < std::min<size_t>(30, source->size()); ++i) {
      ebooks.push_back(ImputedTuple::FromComplete((*source)[i], repo.get()));
    }
  }
  ASSERT_FALSE(ebooks.empty());
  ExpectExceedsMatchesExact(ebooks, &rng);
}

}  // namespace
}  // namespace terids
