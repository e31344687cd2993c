#ifndef TERIDS_CORE_CONFIG_H_
#define TERIDS_CORE_CONFIG_H_

#include <string>
#include <vector>

#include "repo/repo_backend.h"

namespace terids {

/// Identifies one of the evaluated processing pipelines (Section 6.1).
enum class PipelineKind {
  kTerIds,        // Full approach: CDD-index + postings join + pruned ER.
  kIjGer,         // CDD-index without join: linear samples + pruned ER.
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
  /// Micro-batch size callers should feed ProcessStream: each
  /// StreamDriver::NextBatch chunk of this many arrivals is processed one
  /// record at a time, and its outcomes are then emitted together.
  /// 1 = every arrival is emitted as soon as it is processed.
  int batch_size = 1;
  /// Read by terbench; ignored since the scheduler was removed (ROADMAP
  /// item 1).
  int refine_threads = 1;
  /// Read by terbench; always 0 since async ingest was removed.
  static constexpr int ingest_queue_depth = 0;
  /// Read by terbench; ignored since the scheduler was removed (ROADMAP
  /// item 1).
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
