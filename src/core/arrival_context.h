#ifndef TERIDS_CORE_ARRIVAL_CONTEXT_H_
#define TERIDS_CORE_ARRIVAL_CONTEXT_H_

#include <optional>
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
  /// Pairs newly added to the result set ES by this arrival, sorted by
  /// (rid_a, rid_b): every pair holds the arrival's rid, so this is
  /// ascending partner-rid order. ProcessArrival sorts them, because the
  /// candidate scan walks window slots, which keep no rid order.
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
  /// The imputed probabilistic tuple with its topic classification;
  /// MaintainPhase moves it into its stream's window.
  std::optional<WindowTuple> wt;

  // --- CandidatePhase outputs ---------------------------------------------
  /// Candidates left for per-pair refinement: every other-stream window
  /// tuple or, on the pruned path, those that pass the tuple-level topic
  /// test and the batched cascade (whose rejects are already folded into
  /// `out.stats`). Raw pointers into window slots, valid until
  /// MaintainPhase pushes the arrival.
  std::vector<const WindowTuple*> candidates;

  /// Accumulated result of this arrival.
  ArrivalOutcome out;
};

}  // namespace terids

#endif  // TERIDS_CORE_ARRIVAL_CONTEXT_H_
