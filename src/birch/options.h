// End-to-end BIRCH configuration. Defaults mirror the paper's Table 2:
// M = 80 KB memory, R = 20% of M disk, P = 1 KB pages, T0 = 0, metric
// D2, diameter threshold, outlier handling on, one Phase-4 refinement
// pass.
//
// Fields are grouped into nested sub-structs by subsystem (resources,
// tree, outliers, global_phase, refine, exec, obs, serving); set them
// by name. Validate() checks a configuration, and BirchClusterer::Create
// runs it. (The pre-grouping flat reference aliases and the fluent
// Builder were removed; see README "API notes" for the one-line
// migrations.)
#ifndef BIRCH_BIRCH_OPTIONS_H_
#define BIRCH_BIRCH_OPTIONS_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "birch/cf_tree.h"
#include "birch/global_cluster.h"
#include "birch/kernel/kernel.h"
#include "pagestore/fault_injector.h"
#include "pagestore/page_codec.h"
#include "util/status.h"

namespace birch {

struct BirchOptions {
  // --- Problem ---
  size_t dim = 2;
  /// Number of clusters to produce. The paper allows the clustering
  /// goal to be stated either as K or as a distance bound: set k > 0,
  /// OR set k = 0 and global_phase.distance_limit > 0 (hierarchical
  /// Phase 3 then merges until the next merge would exceed the limit).
  int k = 0;
  /// If the total point count is known up front, the threshold
  /// heuristic uses it; 0 = unknown.
  uint64_t expected_points = 0;
  uint64_t seed = 42;

  // --- Resources (Phase 1) ---
  struct Resources {
    size_t memory_bytes = 80 * 1024;
    /// Outlier-disk budget R (paper default: 20% of M). Two special
    /// regimes interact with `outliers.handling`:
    ///   - disk_bytes == 0: there is no outlier disk at all. Outlier
    ///     handling and delay-split degrade to the in-tree fallback —
    ///     low-density entries are re-absorbed at the current
    ///     threshold when they fit and otherwise dropped straight to
    ///     the final outlier list (with accounting in
    ///     RobustnessStats); the run never fails for lack of a disk.
    ///   - 0 < disk_bytes < page_size: rejected by Validate() — a
    ///     budget that cannot hold one page is a configuration error,
    ///     not a degraded device.
    /// The same in-tree fallback engages mid-run if the disk fails
    /// unrecoverably (see `fault` below).
    size_t disk_bytes = 16 * 1024;  // paper: R = 20% of M
    size_t page_size = 1024;
    /// Compression for checkpoint files' freeze sections
    /// (pagestore/page_codec.h); it compresses nothing else, so a run
    /// clusters identically with or without it. kNone (the default)
    /// writes raw sections.
    PageCodecKind page_codec = PageCodecKind::kNone;
    /// Has no effect: the outlier disk stores raw pages.
    size_t hot_tier_bytes = 0;
    /// Deterministic fault injection for the outlier disk (chaos
    /// testing): transient IOErrors, silent page loss, bit rot. The
    /// default injects nothing.
    FaultOptions fault;
    /// Bounded retry-with-backoff applied to transient outlier-disk
    /// errors before they are treated as unrecoverable.
    RetryPolicy io_retry;
    /// Auto-checkpoint: every `checkpoint_every_n` ingested points,
    /// write a durable checkpoint of the live Phase-1 state to
    /// `checkpoint_path` (atomically replacing the previous one). 0
    /// disables. Works on both the serial streaming path and the
    /// sharded Cluster() path (every shard goes idle first, so the file
    /// is one coherent image). See birch/checkpoint.h for the format
    /// and BirchClusterer::Restore for the resume side.
    uint64_t checkpoint_every_n = 0;
    std::string checkpoint_path;
  };

  // --- CF tree ---
  struct Tree {
    double initial_threshold = 0.0;
    DistanceMetric metric = DistanceMetric::kD2;
    ThresholdKind threshold_kind = ThresholdKind::kDiameter;
    bool merging_refinement = true;
    /// CF algebra for the whole pipeline (see cf_vector.h): the
    /// paper's (N, LS, SS) triple, or the numerically stable BETULA
    /// (N, mean, S) variant.
    CfRepresentation cf = CfRepresentation::kClassic;
    /// Has no effect: CF components are always stored as doubles.
    CfStorage cf_storage = CfStorage::kF64;
  };

  // --- Outlier options of Sec. 5.1.4 ---
  struct Outliers {
    bool handling = true;
    double fraction = 0.25;  // "< 25% of average" rule
    bool delay_split = true;
  };

  // --- Phases 2-3 ---
  struct GlobalPhase {
    bool use_phase2 = true;
    size_t phase2_target_entries = 1000;
    GlobalAlgorithm algorithm = GlobalAlgorithm::kHierarchical;
    DistanceMetric metric = DistanceMetric::kD2;
    /// When k == 0: merge until the next merge would exceed this.
    double distance_limit = 0.0;
  };

  // --- Phase 4 ---
  struct Refine {
    /// Redistribution passes over the raw data; 0 skips Phase 4
    /// (labels are then produced by a single non-moving labelling
    /// pass).
    int passes = 1;
    /// > 0: discard points farther than this from every centroid.
    double outlier_distance = 0.0;
  };

  // --- Execution (src/exec + src/birch/kernel) ---
  struct Exec {
    /// Worker threads for the parallel paths. 0 (the default) runs
    /// the fully serial pipeline — bit-for-bit identical to the
    /// pre-parallel implementation. N >= 1 shards Phase 1 across N
    /// private CF trees (dealt by spatial affinity, merged by CF
    /// additivity) and runs the Phase-3 / Phase-4 loops through a
    /// ThreadPool of N workers. Results are deterministic for a fixed
    /// (seed, num_threads, splitter_seed) triple; different thread
    /// counts may differ in the last float bits (chunked summation
    /// order).
    int num_threads = 0;
    /// Seed for the affinity splitter's shallow k-means. Part of the
    /// determinism contract: fixed (seed, num_threads, splitter_seed)
    /// implies a bitwise-reproducible run.
    uint64_t splitter_seed = 0xb1c5;
    /// Has no effect: tree descent, the Phase-3 sweeps and Phase-4
    /// assignment always run the column scans (kernel/kernel.h).
    KernelKind kernel = KernelKind::kBatch;
  };

  // --- Observability (src/obs) ---
  struct Obs {
    /// > 0: the clusterer runs a background StatsSampler at this
    /// cadence for the lifetime of the run, sampling the BIRCH probes
    /// (tree occupancy, threshold T, memory and I/O volume) into
    /// BirchResult::timeseries. 0 (the default) records nothing and
    /// starts no thread.
    uint64_t sample_every_ms = 0;
    /// Ring capacity per sampled series; the oldest samples drop
    /// beyond it (the drop count is reported in the snapshot).
    size_t series_capacity = 4096;
  };

  // --- Serving tier (src/serving) ---
  struct Serving {
    /// > 0: Phase 1 publishes an immutable ServingSnapshot epoch to
    /// BirchClusterer::server() every `publish_every_n` ingested
    /// points, counted from the start of the stream like
    /// checkpoint_every_n (the sharded Cluster() path quiesces its
    /// shards at the same stream positions, so the epoch is one
    /// coherent image). Each epoch's cluster table (what Assign's
    /// cluster_id indexes into) clusters the tree with the run's `k`,
    /// or its distance_limit rule. 0 (the default) publishes nothing
    /// and creates no server.
    uint64_t publish_every_n = 0;
  };

  Resources resources;
  Tree tree;
  Outliers outliers;
  GlobalPhase global_phase;
  Refine refine;
  Exec exec;
  Obs obs;
  Serving serving;

  /// Upper bound Validate() accepts for num_threads (a guard against
  /// absurd CLI values, not a tuning knob).
  static constexpr int kMaxThreads = 256;

  /// Checks internal consistency.
  Status Validate() const {
    if (dim == 0) return Status::InvalidArgument("dim must be > 0");
    if (k < 0) return Status::InvalidArgument("k must be >= 0");
    if (k == 0) {
      if (global_phase.distance_limit <= 0.0) {
        return Status::InvalidArgument(
            "set k > 0, or k == 0 with global_phase.distance_limit > 0");
      }
      if (global_phase.algorithm != GlobalAlgorithm::kHierarchical) {
        return Status::InvalidArgument(
            "distance-limited clustering requires the hierarchical "
            "global algorithm");
      }
    }
    // A node page holds its header and at least two entries, so a split
    // has two halves; a nonleaf entry (CF + child) is the larger one.
    const size_t min_page =
        CfLayout::kNodeHeaderBytes +
        2 * CfLayout{resources.page_size, dim}.NonleafEntryBytes();
    if (resources.page_size < min_page) {
      return Status::InvalidArgument(
          "page_size " + std::to_string(resources.page_size) +
          " cannot hold two nonleaf entries at dim " + std::to_string(dim) +
          "; use page_size >= " + std::to_string(min_page));
    }
    if (resources.memory_bytes != 0 &&
        resources.memory_bytes < 4 * resources.page_size) {
      return Status::InvalidArgument("memory budget below 4 pages");
    }
    if (outliers.fraction < 0.0 || outliers.fraction >= 1.0) {
      return Status::InvalidArgument("outlier_fraction must be in [0,1)");
    }
    if (resources.disk_bytes > 0 &&
        resources.disk_bytes < resources.page_size) {
      return Status::InvalidArgument(
          "disk_bytes must be 0 (no outlier disk; in-tree fallback) or "
          "at least one page");
    }
    BIRCH_RETURN_IF_ERROR(resources.fault.Validate());
    BIRCH_RETURN_IF_ERROR(resources.io_retry.Validate());
    if (resources.checkpoint_every_n > 0 &&
        resources.checkpoint_path.empty()) {
      return Status::InvalidArgument(
          "checkpoint_every_n > 0 requires a checkpoint_path");
    }
    if (refine.passes < 0) {
      return Status::InvalidArgument("refinement_passes must be >= 0");
    }
    if (global_phase.phase2_target_entries == 0) {
      return Status::InvalidArgument("phase2_target_entries must be > 0");
    }
    if (exec.num_threads < 0 || exec.num_threads > kMaxThreads) {
      return Status::InvalidArgument(
          "num_threads must be in [0, " + std::to_string(kMaxThreads) +
          "] (0 = serial)");
    }
    if (obs.sample_every_ms > 0 && obs.series_capacity == 0) {
      return Status::InvalidArgument(
          "obs.series_capacity must be > 0 when sampling is enabled");
    }
    return Status::OK();
  }
};

}  // namespace birch

#endif  // BIRCH_BIRCH_OPTIONS_H_
