#ifndef TERIDS_ER_SIMILARITY_H_
#define TERIDS_ER_SIMILARITY_H_

#include "tuple/imputed_tuple.h"
#include "tuple/record.h"

namespace terids {

/// The ER similarity function of Definition 5: the sum over all d
/// attributes of the per-attribute Jaccard similarities. Range [0, d].
double RecordSimilarity(const Record& a, const Record& b);

/// Definition 5 between two materialized instances of imputed tuples,
/// computed over the tuples' flat token-arena views.
double InstanceSimilarity(const ImputedTuple& a, int inst_a,
                          const ImputedTuple& b, int inst_b);

/// Observability counters for the signature filter pass (PruneStats'
/// sig_* fields; DESIGN.md §11). `probes` counts signatures inspected by
/// pass 1 (two per attribute per filtered instance pair) — invariant
/// across execution modes, because the filter never changes which
/// instance pairs are visited. `saturated` counts probed signatures with
/// more than 48 of their 64 bits set (the regime where the popcount bound
/// goes loose); `rejects` counts instance pairs pass 1 certified
/// merge-free.
struct SigFilterCounters {
  uint64_t probes = 0;
  uint64_t saturated = 0;
  uint64_t rejects = 0;
};

/// The refinement hot-path kernel: decides InstanceSimilarity(a, b) > gamma
/// without necessarily running any merge. The per-attribute signature
/// Jaccard upper bounds are summed first — if even the bound cannot exceed
/// gamma the pair is rejected in O(d) popcounts — and the exact
/// per-attribute merges that do run terminate early once the accumulated
/// exact sum either exceeds gamma or provably cannot. The returned verdict
/// is always exactly `InstanceSimilarity(...) > gamma`: bounds only skip
/// work whose outcome is decided, never change it. `counters`, when
/// non-null and the signature pass runs, accumulates the observability
/// counters above.
bool InstanceSimilarityExceeds(const ImputedTuple& a, int inst_a,
                               const ImputedTuple& b, int inst_b, double gamma,
                               SigFilterCounters* counters = nullptr);

/// Similarity for heterogeneous schemas (Section 2.3's discussion): the
/// Jaccard similarity of the union token sets T(r) and T(r') over all
/// attributes. Range [0, 1]; missing attributes contribute nothing. The
/// Record overload unions into thread-local scratch (no per-call
/// allocation); the ImputedTuple overload reads the unions cached in the
/// tuples' token arenas.
double HeterogeneousRecordSimilarity(const Record& a, const Record& b);
double HeterogeneousRecordSimilarity(const ImputedTuple& a,
                                     const ImputedTuple& b);

}  // namespace terids

#endif  // TERIDS_ER_SIMILARITY_H_
