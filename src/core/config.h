#ifndef TERIDS_CORE_CONFIG_H_
#define TERIDS_CORE_CONFIG_H_

#include <string>
#include <vector>

#include "repo/repo_backend.h"

namespace terids {

/// Identifies one of the evaluated processing pipelines (Section 6.1).
enum class PipelineKind {
  kTerIds,        // Full approach: CDD-index + postings join + ER-grid.
  kIjGer,         // Indexes without join: CDD-index + linear samples + grid.
  kCddEr,         // CDD imputation without indexes + linear ER.
  kDdEr,          // DD imputation + linear ER.
  kEditingEr,     // Editing-rule imputation + linear ER ("er+ER").
  kConstraintEr,  // Constraint-based stream imputation + linear ER.
};

const char* PipelineKindName(PipelineKind kind);

/// Ceiling on EngineConfig::sched_threads: each worker is an OS thread, so
/// a mistyped worker count must fail the config check rather than spawn.
inline constexpr int kMaxSchedThreads = 256;

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
  /// Refinement fan-out: 1 = inline sequential refinement; > 1 = the
  /// post-pruning cascade of each batch fans out on the scheduler (width =
  /// its concurrency). The defaults (1/1) keep pipeline output and
  /// execution bit-for-bit identical to the unbatched operator.
  int refine_threads = 1;
  /// Read by terbench; always 0 since async ingest was removed.
  static constexpr int ingest_queue_depth = 0;
  /// Worker count of the phase-tagged Scheduler (DESIGN.md §10), the one
  /// parallel executor. 0 = no workers, so every fan-out runs inline on
  /// the caller. >= 1 = the refinement fan-out (the only phase that leaves
  /// the caller) dispatches onto a pool of this many workers.
  /// refine_threads > 1 decides *whether* refinement fans out; the
  /// scheduler decides who runs it. At most kMaxSchedThreads. Every setting
  /// produces identical matches, MatchSet, and PruneStats (the equivalence
  /// sweep enforces it).
  int sched_threads = 0;
  /// Physical storage backend behind the repository R the engines read
  /// (DESIGN.md §8). Engines never construct repositories themselves —
  /// Experiment::BuildRepository consults this (building and mmapping a
  /// snapshot for kMmapSnapshot) — but the selector rides in the config so
  /// runs record which backend produced them and bench artifacts stay
  /// distinguishable. Every backend yields bit-identical results.
  RepoBackend repo_backend = RepoBackend::kInMemory;
  /// Read by terbench; every open is eager.
  static constexpr SnapshotDecode snapshot_decode = SnapshotDecode::kEager;
};

}  // namespace terids

#endif  // TERIDS_CORE_CONFIG_H_
