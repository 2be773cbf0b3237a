// Public entry points. BirchClusterer is the single engine: stream
// points in with AddBatch() — the primary, SoA-friendly ingest surface
// that Add()/AddDataset()/AddSource() are reimplemented on — and call
// Finish(), or hand it a whole PointSource via Cluster() (which picks
// the serial or sharded Phase-1 pipeline from
// options.exec.num_threads). The one-call ClusterDataset /
// ClusterSource wrappers are thin delegations to it. This is the API
// the examples and benchmarks build on.
#ifndef BIRCH_BIRCH_BIRCH_H_
#define BIRCH_BIRCH_BIRCH_H_

#include <atomic>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "birch/dataset.h"
#include "birch/global_cluster.h"
#include "birch/ingest_cadence.h"
#include "birch/options.h"
#include "birch/phase1.h"
#include "birch/phase2.h"
#include "birch/point_source.h"
#include "birch/refine.h"
#include "obs/metrics.h"
#include "obs/sampler.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "util/timer.h"

namespace birch {

namespace exec {
class ThreadPool;
}  // namespace exec
namespace serving {
class BirchServer;
}  // namespace serving

/// Wall-clock seconds per phase.
struct PhaseTimings {
  double phase1 = 0.0;
  double phase2 = 0.0;
  double phase3 = 0.0;
  double phase4 = 0.0;
  double Total() const { return phase1 + phase2 + phase3 + phase4; }
  double Phases123() const { return phase1 + phase2 + phase3; }
};

/// Everything a caller (or benchmark) wants to know about one run.
struct BirchResult {
  /// Per-point cluster label (index into `clusters`), -1 = outlier.
  /// Empty when no dataset was supplied for labelling.
  std::vector<int> labels;
  /// Final cluster CFs.
  std::vector<CfVector> clusters;
  /// Centroids of `clusters`.
  std::vector<std::vector<double>> centroids;

  PhaseTimings timings;
  Phase1Stats phase1;
  Phase2Stats phase2;
  /// Fault-tolerance accounting: retries, checksum catches, records
  /// lost, and degradation events on the outlier disk.
  RobustnessStats robustness;
  CfTreeStats tree_stats;
  size_t leaf_entries_after_phase1 = 0;
  size_t leaf_entries_after_phase2 = 0;
  size_t peak_memory_bytes = 0;
  /// Nodes of the final tree; the budget charges each one page, so its
  /// charged bytes are tree_nodes * resources.page_size.
  size_t tree_nodes = 0;
  /// Heap bytes those nodes hold (CfTree::heap_bytes(): node structs,
  /// column blocks, children arrays), with obs on or off. 0 for a
  /// mid-stream Snapshot() answered from a serving epoch.
  size_t tree_heap_bytes = 0;
  uint64_t disk_pages_written = 0;
  uint64_t disk_pages_read = 0;
  double final_threshold = 0.0;
  uint64_t outlier_points = 0;  // points in never-absorbed outlier entries

  /// Instrumentation snapshot for this run only (counters, gauges,
  /// histograms, span aggregates, deltas against the registry state at
  /// clusterer construction). Empty when obs is disabled.
  obs::MetricsSnapshot metrics;

  /// Sampled trajectories (threshold T, tree occupancy, memory, I/O
  /// volume over the run). Populated only when
  /// options.obs.sample_every_ms > 0 and obs is enabled.
  std::vector<obs::TimeSeriesSnapshot> timeseries;
};

struct ShardedPhase1Result;
struct Phase1Outcome;

/// Incremental clustering: feed points as they arrive; Finish() runs
/// Phases 2-4 and returns the result. Snapshot() clusters the current
/// tree contents without disturbing the stream — the paper's
/// "incremental" claim as a first-class API. For whole-input runs,
/// Cluster() drives the full pipeline (sharded Phase 1 when
/// options.exec.num_threads > 0) in one call.
class BirchClusterer {
 public:
  /// Fails on invalid options.
  static StatusOr<std::unique_ptr<BirchClusterer>> Create(
      const BirchOptions& options);
  ~BirchClusterer();

  /// Primary ingest surface: inserts `n` points packed row-major in
  /// `xs` (exactly n * dim doubles), with optional per-point `weights`
  /// (empty = every point weighs 1.0). Bitwise-identical to calling
  /// Add() on each row in order; the batch is validated whole before
  /// any point is ingested (InvalidArgument ingests, checkpoints and
  /// publishes nothing), and auto-checkpoint / auto-publish
  /// cadences still fire at the exact absolute point counts (the batch
  /// is split internally at cadence boundaries). Fails after
  /// Finish()/Cluster().
  Status AddBatch(std::span<const double> xs, size_t n,
                  std::span<const double> weights = {});

  /// Inserts one point (Phase 1) — AddBatch() of one row. Fails after
  /// Finish()/Cluster().
  Status Add(std::span<const double> x, double weight = 1.0);

  /// One zero-copy AddBatch() over `data`'s row-major storage. Fails
  /// after Finish()/Cluster().
  Status AddDataset(const Dataset& data);

  /// Drains `source` into the tree (single scan; the stream is never
  /// materialized), returning the error it stops on (its status()).
  /// Fails after Finish()/Cluster().
  Status AddSource(PointSource* source);

  /// Runs Phases 2-4. If `for_refinement` is non-null, Phase 4
  /// labels/refines against it (it should be the full data seen so
  /// far); without it there is no Phase 4, since the clusterer holds no
  /// raw data. Consumes the builder: Add() afterwards fails, but tree()
  /// and phase1_stats() remain valid for inspection.
  StatusOr<BirchResult> Finish(const Dataset* for_refinement = nullptr);

  /// Whole-pipeline convenience: drains `source` through Phase 1
  /// (sharded across options.exec.num_threads trees when > 0, the
  /// streaming serial path otherwise), then runs Phases 2-4 like
  /// Finish(). Phase 4 refines against `for_refinement` when given;
  /// otherwise, when options.refine.passes > 0 and the source rewinds,
  /// it re-scans the source pass by pass in O(k) memory, leaving
  /// labels empty. A restored clusterer refines the same way.
  /// Consumes the builder the same way as Finish(). Returns the error a
  /// source stops on in any scan, and a Rewind() error other than
  /// FailedPrecondition (a source that cannot rewind skips Phase 4).
  StatusOr<BirchResult> Cluster(PointSource* source,
                                const Dataset* for_refinement = nullptr);

  /// Clusters the current leaf entries into `k` clusters without
  /// modifying the tree. Cheap relative to the stream. It is Phase 3
  /// without Phase 2, under the one setup Finish() and every publish
  /// use: the run's global_phase algorithm, metric and distance_limit
  /// and its seed, except that k > 0 over more than
  /// GlobalClusterOptions::max_hierarchical_inputs entries runs
  /// k-means; k == 0 merges hierarchically up to distance_limit (and
  /// fails without one). The result has no labels (no raw data is
  /// revisited); clusters, centroids, Phase-1/tree stats and the
  /// metrics delta are filled in.
  /// With options.exec.num_threads > 0 the per-shard trees merge only
  /// at Cluster()'s end, so until then a snapshot re-clusters the last
  /// published serving epoch (phase1.points_added is that epoch's
  /// stream position) and returns FailedPrecondition while no epoch
  /// exists; afterwards it snapshots the merged tree.
  StatusOr<BirchResult> Snapshot(int k) const;

  /// Writes a durable checkpoint of the live Phase-1 state to `path`
  /// (atomic replace; format in birch/checkpoint.h) without disturbing
  /// the stream — Add() more points and checkpoint again at will.
  /// FailedPrecondition after Finish()/Cluster(), and on a clusterer
  /// restored from a *sharded* checkpoint before its Cluster() call
  /// (sharded images are written by the checkpoint cadence inside
  /// Cluster(), where the shards exist).
  Status SaveCheckpoint(const std::string& path);

  /// Reopens a checkpoint. `options` must fingerprint-match the
  /// checkpointed run (dim, page_size, metric, threshold kind →
  /// InvalidArgument otherwise), and num_threads must be 0 for a
  /// serial image / equal to the shard count for a sharded one.
  /// Resume by feeding only the unseen points via Add()/AddSource() +
  /// Finish(), or by handing the SAME full stream to Cluster(), which
  /// skips the first points_ingested points automatically. A fault-
  /// free serial resume is bitwise identical to the uninterrupted run.
  static StatusOr<std::unique_ptr<BirchClusterer>> Restore(
      const std::string& path, const BirchOptions& options);

  /// Phase-1 state inspection. Valid before and after
  /// Finish()/Cluster(); with a sharded Cluster() run these report
  /// the merged tree.
  const CfTree& tree() const;
  const Phase1Stats& phase1_stats() const;

  // --- Serving tier (src/serving) ---

  /// The query server this clusterer publishes snapshot epochs to.
  /// Non-null iff options.serving.publish_every_n > 0; safe to query
  /// from any number of threads concurrently with ingest. Epochs
  /// survive Finish()/Cluster() — the server keeps answering from the
  /// last published state for the clusterer's lifetime.
  serving::BirchServer* server() const { return server_.get(); }

  /// Builds a ServingSnapshot of the current Phase-1 state and
  /// publishes it as a new epoch (the manual form of the
  /// publish_every_n cadence — e.g. one final epoch after the stream
  /// ends). FailedPrecondition when serving is disabled or nothing has
  /// been ingested. On the sharded path the live per-shard trees are
  /// only visible inside Cluster(), so mid-stream manual publishes see
  /// an empty tree; the automatic cadence covers that path.
  Status PublishSnapshot();

 private:
  explicit BirchClusterer(const BirchOptions& options);

  /// Runs the boundaries in `due` over the live Phase-1 state at
  /// stream `position`, checkpoint before publish: the image goes to
  /// `checkpoint_path`, the epoch to server_. `shards` are a sharded
  /// run's quiesced builders; empty means the serial builder (and, for
  /// the epoch, tree()). Backs both cadences, SaveCheckpoint() and
  /// PublishSnapshot().
  Status RunBoundary(
      CadenceDue due, uint64_t position, const std::string& checkpoint_path,
      std::span<const std::unique_ptr<Phase1Builder>> shards = {});

  /// Finish(), with `rescan` for Phase 4 (see FinishRun()).
  StatusOr<BirchResult> FinishSerial(const Dataset* for_refinement,
                                     PointSource* rescan);

  /// The tail every entry point shares: closes Phase 1, publishes the
  /// final epoch, runs Phases 2-4 on `pool` (null = serial) and stops
  /// the sampler. Phase 4 refines against `for_refinement`, or, when
  /// that is null, re-scans `rescan` if it rewinds.
  StatusOr<BirchResult> FinishRun(Phase1Outcome p1,
                                  const Dataset* for_refinement,
                                  PointSource* rescan,
                                  exec::ThreadPool* pool);

  BirchOptions options_;
  std::unique_ptr<Phase1Builder> phase1_;
  /// Set by a sharded Cluster() run; keeps the merged tree alive so
  /// tree()/phase1_stats() stay valid after the run.
  std::unique_ptr<ShardedPhase1Result> sharded_;
  bool finished_ = false;
  /// True once a sharded Cluster() has installed `sharded_` (the
  /// merged tree). Release/acquire because Snapshot() may race a
  /// sharded Cluster() from another thread — that is the supported
  /// mid-stream snapshot pattern: until this flips, a concurrent
  /// Snapshot() answers from the last published serving epoch.
  std::atomic<bool> merged_ready_{false};

  // --- Serving tier state ---
  /// Non-null iff options.serving.publish_every_n > 0. Declared before
  /// sampler_ so the sampler (whose probes read the server) joins its
  /// thread first on destruction.
  std::unique_ptr<serving::BirchServer> server_;

  // --- Checkpoint / resume state ---
  /// Points the checkpoint's run had consumed; Cluster() skips this
  /// many source points before ingesting.
  uint64_t resume_skip_points_ = 0;
  /// Pending per-shard freezes from a sharded-checkpoint Restore();
  /// consumed by Cluster(). Non-empty blocks Add()/AddDataset()/
  /// AddSource()/SaveCheckpoint().
  std::vector<Phase1Freeze> resume_freezes_;
  /// Auto-checkpoint / auto-publish cadence of the serial ingest path,
  /// positioned at the absolute stream position (a restored clusterer
  /// starts at the checkpoint's). Cluster()'s sharded dealer runs its
  /// own copy from the resume offset.
  IngestCadence cadence_;

  /// Registry state at construction; Finish() reports the delta so
  /// BirchResult::metrics covers exactly this run.
  obs::MetricsSnapshot metrics_baseline_;
  /// Continuous telemetry (options_.obs.sample_every_ms > 0): started
  /// at construction, stopped when Finish()/Cluster() completes; its
  /// series become BirchResult::timeseries. Null when sampling is off.
  std::unique_ptr<obs::StatsSampler> sampler_;
  /// Phase 1 runs from construction (the Add() stream) through the
  /// Finish() tail — one timer and one span cover the whole stretch.
  Timer phase1_timer_;
  obs::SpanScope phase1_span_{"birch/phase1"};
};

/// One-call API: cluster `data` with `options`. Labels are always
/// produced (Phase 4 when refinement_passes > 0, otherwise one
/// labelling pass).
StatusOr<BirchResult> ClusterDataset(const Dataset& data,
                                     const BirchOptions& options);

/// One-call out-of-core API: Create() + Cluster(source), clustering a
/// stream without materializing it. Phase 4 runs only when the source
/// is rewindable AND options.refine.passes > 0, re-scanning it pass by
/// pass in O(k) extra memory, so BirchResult.labels stays empty either
/// way (a labels vector for N points would defeat the purpose — use
/// result.centroids to label downstream, or LabelPoints on manageable
/// slices). Fails as Cluster() does.
StatusOr<BirchResult> ClusterSource(PointSource* source,
                                    const BirchOptions& options);

}  // namespace birch

#endif  // BIRCH_BIRCH_BIRCH_H_
