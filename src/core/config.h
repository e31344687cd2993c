#ifndef TERIDS_CORE_CONFIG_H_
#define TERIDS_CORE_CONFIG_H_

#include <string>
#include <vector>

#include "repo/repo_backend.h"
#include "stream/overload.h"

namespace terids {

/// Identifies one of the evaluated processing pipelines (Section 6.1).
enum class PipelineKind {
  kTerIds,        // Full approach: CDD-index + DR-index + ER-grid join.
  kIjGer,         // Indexes without join: CDD-index + linear samples + grid.
  kCddEr,         // CDD imputation without indexes + linear ER.
  kDdEr,          // DD imputation + linear ER.
  kEditingEr,     // Editing-rule imputation + linear ER ("er+ER").
  kConstraintEr,  // Constraint-based stream imputation + linear ER.
};

const char* PipelineKindName(PipelineKind kind);

/// Runtime configuration of a TER-iDS query (the problem statement's
/// parameters plus implementation knobs).
struct EngineConfig {
  /// Query topic keywords K; empty = unconstrained (all topics).
  std::vector<std::string> keywords;
  /// Similarity threshold gamma in (0, d). The evaluation uses the ratio
  /// rho = gamma / d; callers set gamma = rho * d.
  double gamma = 2.0;
  /// Probabilistic threshold alpha in [0, 1).
  double alpha = 0.5;
  /// Sliding-window size w per stream (count-based).
  int window_size = 1000;
  /// Cap on materialized instances per imputed tuple (Definition 4 allows
  /// the retained mass to be < 1).
  int max_instances = 16;
  /// Cap on imputation candidates per missing attribute.
  int max_candidates_per_attr = 8;
  /// ER-grid cell side length in the converted space [0,1].
  double cell_width = 0.2;
  /// Micro-batch size callers should feed ProcessBatch (StreamDriver::
  /// NextBatch). 1 = the classic one-arrival-at-a-time operator.
  int batch_size = 1;
  /// Worker count for the post-pruning refinement cascade. 1 = inline
  /// sequential refinement. The defaults (1/1) keep pipeline output and
  /// execution bit-for-bit identical to the unbatched operator.
  int refine_threads = 1;
  /// Number of ER-grid shards (cells partitioned by cell-key hash;
  /// Candidates fans out over shards and merges deterministically). 1 = the
  /// original single grid with no fan-out pool. Every setting produces
  /// identical matches, MatchSet, and PruneStats.
  int grid_shards = 1;
  /// Bound on ingested micro-batches buffered ahead of refinement by the
  /// async ingest path of ProcessStream: 0 = fully synchronous (ingest and
  /// refinement alternate on the calling thread, bit-identical to the
  /// pre-async operator); >= 1 runs ingest on its own thread so
  /// imputation/candidate generation of batch k+1 overlaps refinement of
  /// batch k, at most this many batches ahead.
  int ingest_queue_depth = 0;
  /// Enables the signature-bounded Jaccard kernel inside refinement: the
  /// per-(instance, attribute) token signatures precomputed in each
  /// tuple's TokenArena give an O(words) popcount upper bound that rejects
  /// instance pairs before any token merge runs (DESIGN.md §9, §11). The
  /// bound only skips merges whose sim > gamma verdict is already decided,
  /// so emitted matches, MatchSet, and PruneStats are bit-identical with
  /// the filter on or off (the equivalence sweep enforces it).
  bool signature_filter = true;
  /// Width in bits of the per-(instance, attribute) token signatures: 64,
  /// 128, or 256 (DESIGN.md §11). Wider signatures halve/quarter the hash
  /// collision rate, tightening the popcount upper bound on long token
  /// sets (fewer saturated probes, more merge-free rejects) at the price
  /// of 2x/4x signature memory and popcount work per probe — the batch
  /// sweep vectorizes the extra words (AVX2/NEON when available). Any
  /// width changes merge counts only: matches, MatchSet, and PruneStats'
  /// outcome counters are bit-identical across widths (equivalence sweep
  /// enforced); only the sig_* observability counters may differ.
  int sig_width = 64;
  /// MaintainPhase fan-out: 1 = grid insert/remove runs serially on the
  /// maintaining thread (seed behavior); > 1 = the per-shard insert/remove
  /// work of one arrival is fanned out across the ER-grid's shards on its
  /// ThreadPool (effective width is the number of shards the arrival
  /// touches, at most grid_shards). Shards share no state, so every
  /// setting produces identical grid contents and results.
  int maintain_shards = 1;
  /// Worker count of the unified phase-tagged Scheduler (DESIGN.md §10).
  /// 0 = legacy per-subsystem execution: the refinement ThreadPool, the
  /// ER-grid's probe/maintain pool, and the dedicated SPSC ingest thread,
  /// exactly as configured by the knobs above (seed behavior, the
  /// equivalence oracle). >= 1 = all four phases (ingest, candidate,
  /// refine, maintain) dispatch onto one shared pool of this many workers;
  /// the phase knobs above still gate *whether* each phase fans out, this
  /// knob sets the shared worker budget. Every setting produces identical
  /// matches, MatchSet, and PruneStats (the equivalence sweep enforces it).
  int sched_threads = 0;
  /// Physical storage backend behind the repository R the engines read
  /// (DESIGN.md §8). Engines never construct repositories themselves —
  /// Experiment::BuildRepository consults this (building and mmapping a
  /// snapshot for kMmapSnapshot) — but the selector rides in the config so
  /// runs record which backend produced them and bench artifacts stay
  /// distinguishable. Every backend yields bit-identical results.
  RepoBackend repo_backend = RepoBackend::kInMemory;
  /// How the mmap backend materializes a v2 snapshot (DESIGN.md §8).
  /// kLazy (default): Open validates only the header + section TOC, and
  /// each section decodes under a once_flag on first touch — near-instant
  /// cold open, zero-copy token/text views. kEager: every section decodes
  /// at open, the v1-equivalent oracle. Ignored by the in-memory backend
  /// and for v1 snapshot files (always eager). Both modes yield
  /// bit-identical results (the equivalence sweep enforces it).
  SnapshotDecode snapshot_decode = SnapshotDecode::kLazy;
  /// What the async ingest path does when refinement falls behind the
  /// arrival stream (DESIGN.md §13). kBlock (default, seed behavior, the
  /// equivalence oracle): backpressure — the producer blocks until a queue
  /// slot frees; every arrival is fully processed. kShedNewest: drop the
  /// newest batch before ingestion when the pressure signal fires.
  /// kShedOldest: always ingest, but strip refinement from the
  /// longest-waiting queued batch when the queue is full. kDegrade: admit
  /// everything (the queue bound is waived under pressure) and refine
  /// pressured batches with signature-bound-only verdicts, recording
  /// undecided pairs as deferred. Only meaningful with
  /// ingest_queue_depth >= 1; the synchronous operator never sheds. block
  /// is bit-identical to the oracle; the other policies are bit-identical
  /// too whenever the pressure signal never fires (the equivalence sweep
  /// enforces both).
  OverloadPolicy overload_policy = OverloadPolicy::kBlock;
};

}  // namespace terids

#endif  // TERIDS_CORE_CONFIG_H_
