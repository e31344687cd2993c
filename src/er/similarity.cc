#include "er/similarity.h"

#include <algorithm>

#include "text/similarity_kernels.h"
#include "text/token_set.h"
#include "util/status.h"

namespace terids {

double RecordSimilarity(const Record& a, const Record& b) {
  TERIDS_CHECK(a.num_attributes() == b.num_attributes());
  double sim = 0.0;
  for (int k = 0; k < a.num_attributes(); ++k) {
    const TokenSet& ta =
        a.values[k].missing ? kEmptyTokenSet : a.values[k].tokens;
    const TokenSet& tb =
        b.values[k].missing ? kEmptyTokenSet : b.values[k].tokens;
    sim += JaccardSimilarity(ta, tb);
  }
  return sim;
}

double InstanceSimilarity(const ImputedTuple& a, int inst_a,
                          const ImputedTuple& b, int inst_b) {
  TERIDS_CHECK(a.num_attributes() == b.num_attributes());
  double sim = 0.0;
  for (int k = 0; k < a.num_attributes(); ++k) {
    const TokenView va = a.instance_token_view(inst_a, k);
    const TokenView vb = b.instance_token_view(inst_b, k);
    sim += JaccardFromSpans(va.data, va.len, vb.data, vb.len);
  }
  return sim;
}

bool InstanceSimilarityExceeds(const ImputedTuple& a, int inst_a,
                               const ImputedTuple& b, int inst_b, double gamma,
                               SigFilterCounters* counters) {
  const int d = a.num_attributes();
  TERIDS_CHECK(b.num_attributes() == d);
  if (d > kSigPassMaxAttrs) {
    return InstanceSimilarity(a, inst_a, b, inst_b) > gamma;
  }

  // Pass 1: O(d) popcount bounds, no token reads. ub[k] >= the exact
  // per-attribute Jaccard and both sums accumulate in the same order, so
  // rounding is monotone step-by-step and the floating-point exact sum can
  // never exceed the floating-point bound sum: bound <= gamma certifies
  // the exact verdict is false. EvaluateCandidates decides this same pass
  // for single-instance pairs from their PairRows, with the same bound and
  // the same accumulation.
  double ub[kSigPassMaxAttrs];
  double total_ub = 0.0;
  for (int k = 0; k < d; ++k) {
    const TokenView va = a.instance_token_view(inst_a, k);
    const TokenView vb = b.instance_token_view(inst_b, k);
    const SigPopCounts pops = SigPopCount(va.sig, vb.sig);
    ub[k] = SigJaccardUpperBoundFromPops(va.len, vb.len, pops);
    total_ub += ub[k];
    if (counters != nullptr) {
      counters->probes += 2;
      counters->saturated += (pops.a > kSigSaturatedBits ? 1u : 0u) +
                             (pops.b > kSigSaturatedBits ? 1u : 0u);
    }
  }
  if (total_ub <= gamma) {
    if (counters != nullptr) {
      ++counters->rejects;
    }
    return false;
  }

  // Pass 2: exact merges in attribute order — the same accumulation
  // InstanceSimilarity performs, so the final verdict is bit-identical —
  // with two sound early exits. Accept: the partial exact sum already
  // exceeds gamma (adding the non-negative remaining terms is monotone
  // under rounding, so the final sum is >= the partial). Reject: continue
  // the partial sum with the remaining *bounds* in the same forward order;
  // term-by-term domination + monotone rounding again guarantee the final
  // exact sum cannot exceed that hybrid sum (a subtractively-maintained
  // remainder would not carry this ulp-level guarantee). O(d) per check,
  // negligible next to one merge.
  double sim = 0.0;
  for (int k = 0; k < d; ++k) {
    const TokenView va = a.instance_token_view(inst_a, k);
    const TokenView vb = b.instance_token_view(inst_b, k);
    sim += JaccardFromSpans(va.data, va.len, vb.data, vb.len);
    if (sim > gamma) {
      return true;
    }
    double hybrid = sim;
    for (int j = k + 1; j < d; ++j) {
      hybrid += ub[j];
    }
    if (hybrid <= gamma) {
      return false;
    }
  }
  return sim > gamma;
}

double HeterogeneousRecordSimilarity(const Record& a, const Record& b) {
  thread_local std::vector<Token> scratch_a;
  thread_local std::vector<Token> scratch_b;
  UnionRecordTokensInto(a, &scratch_a);
  UnionRecordTokensInto(b, &scratch_b);
  return JaccardFromSpans(scratch_a.data(), scratch_a.size(),
                          scratch_b.data(), scratch_b.size());
}

double HeterogeneousRecordSimilarity(const ImputedTuple& a,
                                     const ImputedTuple& b) {
  const TokenView va = a.union_token_view();
  const TokenView vb = b.union_token_view();
  return JaccardFromSpans(va.data, va.len, vb.data, vb.len);
}

}  // namespace terids
