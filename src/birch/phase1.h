// Phase 1 (Fig. 2 of the paper): scan the data once, building an
// in-memory CF tree under a hard memory budget. When the budget is
// exceeded the tree is rebuilt with a larger threshold; during rebuilds
// low-density leaf entries are optionally written to the (simulated)
// outlier disk and periodically re-absorbed; the delay-split option
// spills points that would force a split to disk instead of rebuilding
// immediately, squeezing more data into the current tree.
#ifndef BIRCH_BIRCH_PHASE1_H_
#define BIRCH_BIRCH_PHASE1_H_

#include <functional>
#include <memory>
#include <vector>

#include "birch/cf_tree.h"
#include "birch/dataset.h"
#include "birch/threshold.h"
#include "birch/tree_io.h"
#include "pagestore/memory_tracker.h"
#include "pagestore/page_store.h"
#include "pagestore/spill_file.h"
#include "util/status.h"

namespace birch {

class PointSource;
struct ShardedPhase1Options;
struct ShardedPhase1Result;
namespace exec {
class ThreadPool;
}  // namespace exec

/// Phase-1 configuration. The defaults mirror the paper's Table 2
/// (M = 80 KB, P = 1 KB, R = 20% of M, T0 = 0, outlier = entry with
/// fewer than 25% of the average points per leaf entry).
struct Phase1Options {
  CfTreeOptions tree;
  size_t memory_budget_bytes = 80 * 1024;
  /// 0 = no outlier disk: spill-dependent options run in the in-tree
  /// fallback from the start (see RobustnessStats).
  size_t disk_budget_bytes = 16 * 1024;
  bool outlier_handling = true;
  double outlier_fraction = 0.25;
  bool delay_split = true;
  uint64_t expected_points = 0;  // N when known (threshold heuristic)
  /// Fault injection for the outlier disk; default injects nothing.
  FaultOptions fault;
  /// Retry policy for transient outlier-disk errors.
  RetryPolicy retry;
  /// Have no effect: the outlier disk stores raw pages.
  PageCodecKind page_codec = PageCodecKind::kNone;
  size_t hot_tier_bytes = 0;
};

/// Counters exposed to the benchmarks and EXPERIMENTS.md.
struct Phase1Stats {
  uint64_t points_added = 0;
  uint64_t rebuilds = 0;
  uint64_t outlier_entries_spilled = 0;
  uint64_t outlier_entries_reabsorbed = 0;
  uint64_t points_delay_spilled = 0;
  uint64_t reabsorb_cycles = 0;
  uint64_t forced_inserts = 0;  // disk full fallbacks
  double final_threshold = 0.0;

  /// Adds `other`'s counters (a shard's); final_threshold is kept.
  Phase1Stats& operator+=(const Phase1Stats& other);
};

/// Fault-tolerance accounting for one run: what the storage stack
/// absorbed (retries, checksum catches) and what Phase 1 had to do
/// about it (degradation to the in-tree fallback, records lost).
struct RobustnessStats {
  /// Transient IOErrors observed on the outlier disk (before retry).
  uint64_t transient_io_errors = 0;
  /// Retry attempts made after transient errors.
  uint64_t io_retries = 0;
  /// Simulated backoff time spent in those retries.
  uint64_t simulated_backoff_us = 0;
  /// Reads that failed CRC32C verification (bit rot caught).
  uint64_t checksum_failures = 0;
  /// Pages skipped by drains (lost, corrupt, or unreadable).
  uint64_t pages_lost = 0;
  /// Spill records inside those pages — gone, exactly counted.
  uint64_t records_lost = 0;
  /// Times Phase 1 degraded: an unrecoverable spill failure switched it
  /// to the in-tree fallback, or a drain came back with data missing.
  uint64_t degradation_events = 0;
  /// Entries the in-tree fallback absorbed at the current threshold.
  uint64_t fallback_absorbed = 0;
  /// Entries the fallback sent straight to the final outlier list.
  uint64_t fallback_dropped = 0;
  /// True when the run ended with the outlier disk out of service
  /// (disk_budget_bytes == 0, or disabled mid-run after a failure).
  bool outlier_disk_disabled = false;

  /// Adds `other`'s counters (a shard's); the disk counts as disabled
  /// if either was.
  RobustnessStats& operator+=(const RobustnessStats& other);
};

/// Complete mid-stream state of a Phase1Builder, in plain values: the
/// serialized CF tree (TreeIO node records), pending spill records,
/// threshold history, counters, and the fault injector's RNG. Freeze()
/// produces one without disturbing the live builder; Thaw() turns one
/// back into a builder that continues exactly where the original was.
/// The checkpoint file format is a framed, checksummed encoding of this
/// struct (see birch/checkpoint.h).
struct Phase1Freeze {
  /// The CF tree, its node records included.
  TreeImage image;
  /// Pending spill records (flattened CF serializations, append order).
  std::vector<double> outlier_records;
  std::vector<double> delayed_records;
  std::vector<ThresholdHeuristic::Observation> threshold_history;
  std::vector<CfVector> final_outliers;
  Phase1Stats stats;
  /// Aggregate robustness() at freeze time; becomes the restored
  /// builder's baseline (its fresh storage stack restarts from zero).
  RobustnessStats robustness;
  bool delay_mode = false;
  bool disk_enabled = true;
  /// Fault-injector stream, captured before the freeze's own reads so a
  /// restored run fails exactly where the uninterrupted one would.
  RngState fault_rng;
  FaultStats fault_stats;
};

/// InvalidArgument naming point `index` (its position in the stream
/// being ingested) when a coordinate of `x` is NaN or infinite, or when
/// `weight` is not a positive finite number; OK otherwise. Phase 1
/// runs it on every point before the point reaches a tree or the
/// sharded splitter.
Status ValidatePoint(std::span<const double> x, double weight,
                     uint64_t index);

/// The whole-batch check before any point is ingested: `xs` holds
/// n * dim values, `weights` one per point or none, and ValidatePoint()
/// accepts point i as index `first_index + i`.
Status ValidateBatch(std::span<const double> xs, size_t n, size_t dim,
                     std::span<const double> weights, uint64_t first_index);

/// The outlier criterion (Sec. 5.1.4): a leaf entry holding fewer than
/// `fraction` of the average points per leaf entry of `tree` is a
/// potential outlier. Returns that weight bound; 0 for an empty tree.
/// Phase 1's rebuilds, the sharded merge and Phase 2 all use it.
double OutlierWeightThreshold(const CfTree& tree, double fraction);

/// The re-absorb verdict for a potential outlier (Sec. 5.1.4): `e`
/// re-enters `tree` only by merging into an existing leaf entry, never
/// as a fresh entry or through a split, so a genuine outlier cannot
/// distort the tree. Counts an absorption in `stats`; false leaves the
/// tree unchanged.
bool ReabsorbEntry(CfTree* tree, const CfVector& e, Phase1Stats* stats);

/// Fig. 2's rebuild step: rebuilds `tree` at `heuristic`'s next
/// threshold, round after round, until it fits its memory budget
/// (OutOfMemory after 16 rounds). With options.outlier_handling each
/// round takes the leaf entries below OutlierWeightThreshold() out of
/// the tree and hands them to `shed` before the next round. Counts each
/// round in stats->rebuilds and leaves stats->final_threshold at the
/// last threshold. Phase1Builder and the sharded merge both rebuild
/// through it.
Status RebuildToFit(
    CfTree* tree, ThresholdHeuristic* heuristic, const Phase1Options& options,
    Phase1Stats* stats,
    const std::function<Status(std::vector<CfVector>&)>& shed);

/// Single-scan builder. Usage: Add() every point, then Finish() exactly
/// once; afterwards tree() holds the condensed summary and
/// final_outliers() the entries that never fit anywhere.
class Phase1Builder {
 public:
  explicit Phase1Builder(const Phase1Options& options);

  Phase1Builder(const Phase1Builder&) = delete;
  Phase1Builder& operator=(const Phase1Builder&) = delete;

  /// Inserts one (optionally weighted) point: AddBatch() with n = 1.
  Status Add(std::span<const double> x, double weight = 1.0);

  /// Batch insert: `n` points packed row-major in `xs` (exactly
  /// n * dim doubles), with optional per-point `weights` (empty =
  /// every point weighs 1.0). Arithmetic-identical to calling Add()
  /// on each row in order — same tree, bitwise — but hoists the
  /// per-call validation and counter traffic out of the loop and
  /// keeps the per-insert scan scratch hot. Validation failures
  /// (sizes, and any point ValidatePoint() rejects) reject the whole
  /// batch before any point is ingested.
  Status AddBatch(std::span<const double> xs, size_t n,
                  std::span<const double> weights = {});

  /// Convenience: one AddBatch() over `data`'s row-major storage.
  Status AddDataset(const Dataset& data);

  /// Flushes delay-split points and re-absorbs outliers. Must be called
  /// exactly once, after the last Add().
  Status Finish();

  const CfTree& tree() const { return *tree_; }
  CfTree* mutable_tree() { return tree_.get(); }
  const Phase1Stats& stats() const { return stats_; }
  const MemoryTracker& memory() const { return mem_; }
  const PageStore& disk() const { return disk_; }

  /// Aggregated fault-tolerance counters (storage stack + builder).
  RobustnessStats robustness() const;

  /// Entries judged outliers that could not be re-absorbed at Finish().
  const std::vector<CfVector>& final_outliers() const {
    return final_outliers_;
  }

  /// Captures the builder's complete mid-stream state without changing
  /// it (the tree is serialized into node records; spill files are
  /// peeked, not drained). FailedPrecondition after Finish().
  StatusOr<Phase1Freeze> Freeze();

  /// Reconstructs a builder from a freeze. `options` supplies the
  /// runtime knobs and budgets and must agree with the freeze on dim
  /// and page size; the tree threshold comes from the freeze. The
  /// thawed builder's CfTree op counters restart from zero (they are
  /// diagnostics, not state), and its PageStore IoStats likewise.
  static StatusOr<std::unique_ptr<Phase1Builder>> Thaw(
      const Phase1Options& options, const Phase1Freeze& freeze);

 private:
  // The clusterer and the sharded dealer validate every point they take
  // in, so they hand their pieces to Ingest() without a second pass.
  friend class BirchClusterer;
  friend StatusOr<ShardedPhase1Result> RunShardedPhase1(
      PointSource* source, const ShardedPhase1Options& options,
      exec::ThreadPool* pool);

  /// AddBatch() after its checks: ingests `n` points that
  /// ValidateBatch() accepts, in order.
  Status Ingest(std::span<const double> xs, size_t n,
                std::span<const double> weights);

  /// Inserts the point already staged in point_cf_ (delay-mode spill
  /// logic included) — the per-point step of Ingest().
  Status IngestPointCf();

  /// Called when the tree exceeds the memory budget after an insert.
  Status HandleMemoryExhaustion();

  /// Rebuilds the tree with the heuristic's next threshold, spilling
  /// low-density entries to the outlier disk.
  Status RebuildLarger();

  /// Drains the outlier disk, re-inserting entries that fit without a
  /// split and re-spilling the rest.
  Status ReabsorbOutliers(bool final_pass);

  /// Spills outlier entry `e` to the outlier disk; when the disk is
  /// full, falls back to a forced tree insert so progress is always
  /// made, and when it is broken or retired, to the in-tree fallback.
  /// `respill` marks an entry a re-absorb cycle hands back: it is not
  /// counted again and does not start another cycle.
  Status SpillOutlierEntry(const CfVector& e, bool respill);

  /// What one append to the outlier disk did.
  enum class SpillOutcome {
    kStored,
    kFull,    // OutOfDisk
    kBroken,  // unrecoverable: Spill() retired the disk
  };

  /// Appends `e` to `file` — every spill write goes through here. An
  /// unrecoverable device failure retires the disk (DegradeOutlierDisk)
  /// and reports kBroken; other errors than OutOfDisk are returned.
  StatusOr<SpillOutcome> Spill(SpillFile* file, const CfVector& e);

  /// Drains `file` and hands each record, deserialized, to `each` —
  /// every spill read goes through here. With `note_loss` a lossy drain
  /// counts a degradation event, and one that lost every page retires
  /// the disk.
  Status Drain(SpillFile* file, bool note_loss,
               const std::function<Status(CfVector)>& each);

  /// Re-inserts every delay-split point with splits allowed, rebuilding
  /// whenever the tree outgrows the budget.
  Status ReplayDelayedPoints(bool note_loss);

  /// In-tree fallback for one outlier entry when the disk is out of
  /// service: absorb at the current threshold if possible, otherwise
  /// drop to the final outlier list with accounting.
  void FallbackOutlierEntry(const CfVector& e);

  /// Takes the outlier disk out of service after an unrecoverable
  /// failure: salvages whatever both spill files still hold (re-absorb
  /// or drop outlier entries, replay delayed points) and routes all
  /// future spills through the in-tree fallback.
  Status DegradeOutlierDisk();

  Phase1Options options_;
  MemoryTracker mem_;
  PageStore disk_;
  SpillFile outlier_entries_;
  SpillFile delayed_points_;
  std::unique_ptr<CfTree> tree_;
  ThresholdHeuristic heuristic_;
  Phase1Stats stats_;
  RobustnessStats robust_;  // degradation counters; rest merged on read
  std::vector<CfVector> final_outliers_;
  /// Reused per-point CF (Add is not reentrant): avoids a malloc/free
  /// pair per point on the Phase-1 hot path.
  CfVector point_cf_;
  bool delay_mode_ = false;
  bool finished_ = false;
  /// False when there is no outlier disk (budget 0) or it failed
  /// unrecoverably; spills then use the in-tree fallback.
  bool disk_enabled_ = true;
};

}  // namespace birch

#endif  // BIRCH_BIRCH_PHASE1_H_
