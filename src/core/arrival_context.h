#ifndef TERIDS_CORE_ARRIVAL_CONTEXT_H_
#define TERIDS_CORE_ARRIVAL_CONTEXT_H_

#include <memory>
#include <vector>

#include "er/match_set.h"
#include "er/pruning.h"
#include "eval/cost_breakdown.h"
#include "stream/sliding_window.h"
#include "tuple/record.h"

namespace terids {

/// Read by terbench; always kProcessed since async ingest was removed.
enum class ArrivalDisposition {
  kProcessed = 0,
};

/// What one arrival produced.
struct ArrivalOutcome {
  /// Pairs newly added to the result set ES by this arrival.
  std::vector<MatchPair> new_matches;
  /// Break-up cost of this arrival (Figure 6).
  CostBreakdown cost;
  /// Pair pruning statistics of this arrival (Figure 4).
  PruneStats stats;
  /// The arrival's global timestamp (StreamDriver stamp). -1 until
  /// ImputePhase stamps it.
  int64_t timestamp = -1;
  /// Read by terbench; always kProcessed since async ingest was removed.
  ArrivalDisposition disposition = ArrivalDisposition::kProcessed;
};

/// Typed state flowing through the arrival pipeline's phases
/// (ImputePhase -> CandidatePhase -> RefinePhase -> MaintainPhase). Each
/// phase reads the fields earlier phases filled and writes its own.
struct ArrivalContext {
  explicit ArrivalContext(const Record& r) : record(r) {}

  /// The arriving record (stream id and timestamp stamped).
  Record record;

  // --- ImputePhase outputs ------------------------------------------------
  /// The imputed probabilistic tuple.
  std::shared_ptr<const ImputedTuple> tuple;
  /// Window-resident wrapper (tuple + topic classification).
  std::shared_ptr<WindowTuple> wt;

  // --- CandidatePhase outputs ---------------------------------------------
  /// Candidates left for per-pair refinement: after row-store / linear
  /// generation and, on the row-store path, the batched cascade (whose rejects
  /// are already folded into `out.stats`). Raw pointers into window
  /// tuples, valid until MaintainPhase expires one.
  std::vector<const WindowTuple*> candidates;

  /// Accumulated result of this arrival.
  ArrivalOutcome out;
};

}  // namespace terids

#endif  // TERIDS_CORE_ARRIVAL_CONTEXT_H_
