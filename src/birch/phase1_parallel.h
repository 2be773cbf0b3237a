// Sharded Phase 1 — the paper's parallelism sketch (Sec. 4.1: the CF
// vector is additive, so partitioned builds merge exactly at
// subcluster granularity) made concrete:
//
//   1. The calling thread scans the PointSource once, in blocks
//      (ScanBlocks, birch/block_scan.h): it reads them in stream
//      order, pool workers decode them, and it deals each decoded
//      block's rows to shards in stream order. The head of the stream
//      is dealt i mod S while it accumulates into a sample; a shallow
//      seeded k-means fitted on that sample then owns the routing —
//      each point goes to the shard holding its nearest splitter
//      center (centers are packed onto shards greedily by sample mass,
//      heaviest first), so shard trees cover mostly disjoint regions
//      and the final merge is near-trivial. Routing is a deterministic
//      function of the stream prefix (plus splitter_seed), never of
//      thread timing.
//   2. Each shard has a private, fully serial Phase1Builder (its own
//      CF tree, memory tracker, outlier disk). Dealt points travel in
//      whole batches through a bounded per-shard FIFO queue
//      (backpressure: O(S * queue * batch) transient memory), and while
//      a queue holds batches one pool task ingests them in order
//      through the builder's batch path, so kernel scratch stays hot.
//      Ingest and decode share the pool: a worker whose shard has
//      nothing to ingest decodes instead.
//   3. The shard trees are folded pairwise (parallel rounds on the
//      pool; destination = the pair member with the larger threshold)
//      via CfTree::AbsorbTree, then absorbed into a final tree charged
//      against the full memory budget.
//   4. Threshold-consistency reabsorb pass: if the merged tree
//      overflows the total budget it is rebuilt at the heuristic's
//      next threshold (Phase 1's RebuildToFit), and every per-shard
//      final outlier, and every entry that rebuild sheds, gets one
//      absorb-only retry against the merged tree (Phase 1's
//      ReabsorbEntry: an entry that looked like an outlier inside one
//      shard may sit squarely inside a cluster of the union).
//
// Every step is deterministic for a fixed (options, num_shards,
// splitter_seed) triple: shard assignment, per-shard insertion order,
// fold pairing, and the final reabsorb order are all functions of the
// input alone.
#ifndef BIRCH_BIRCH_PHASE1_PARALLEL_H_
#define BIRCH_BIRCH_PHASE1_PARALLEL_H_

#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "birch/ingest_cadence.h"
#include "birch/phase1.h"
#include "birch/point_source.h"
#include "exec/thread_pool.h"
#include "util/status.h"

namespace birch {

struct ShardedPhase1Options {
  /// Template configuration; memory_budget_bytes, disk_budget_bytes
  /// and expected_points are totals that get divided across shards.
  Phase1Options phase1;
  /// Number of shards; clamped to [1, pool->size()] (at most one
  /// ingest task per shard runs at a time, so S shards keep at most S
  /// workers ingesting).
  int num_shards = 1;
  /// Seed of the affinity splitter's shallow k-means; part of the
  /// determinism contract (routing is a pure function of the stream
  /// prefix and this seed).
  uint64_t splitter_seed = 0xb1c5;

  // --- Checkpoint / publish boundaries ---
  /// Advanced once per dealt point; positioned at `resume_skip_points`.
  /// When a point lands on a boundary the dealer quiesces the stream:
  /// it waits until every shard has ingested everything dealt so far
  /// and no ingest task runs, then `on_boundary(due, points_dealt,
  /// builders)` runs with all builders idle — one coherent image across
  /// the shards (block decodes may go on; they touch no builder). A
  /// non-OK return aborts the run. Required when the cadence has
  /// boundaries.
  IngestCadence cadence;
  std::function<Status(CadenceDue due, uint64_t points_dealt,
                       std::span<const std::unique_ptr<Phase1Builder>>
                           builders)>
      on_boundary;
  /// Resume: per-shard freezes from a sharded checkpoint (size must
  /// equal the effective shard count). Each shard thaws its freeze
  /// instead of starting empty.
  const std::vector<Phase1Freeze>* resume = nullptr;
  /// Points the checkpointed run already consumed: the dealer skips
  /// this many source points, and dealing continues from this index so
  /// shard assignment matches the uninterrupted run (the splitter is
  /// re-fitted from the skipped prefix, reproducing the original
  /// routing exactly).
  uint64_t resume_skip_points = 0;
};

/// Everything Phases 2-4 need from a (sharded) Phase 1 run.
struct ShardedPhase1Result {
  /// Tracker of the merged tree, budgeted at the full memory budget.
  std::unique_ptr<MemoryTracker> mem;
  /// The merged CF tree.
  std::unique_ptr<CfTree> tree;
  /// Summed per-shard counters plus the merge's own rebuilds;
  /// final_threshold is the merged tree's.
  Phase1Stats stats;
  /// Summed per-shard fault-tolerance accounting.
  RobustnessStats robustness;
  /// Entries no shard could place that the merged tree rejected too.
  std::vector<CfVector> final_outliers;
  /// Summed per-shard outlier-disk traffic.
  IoStats disk;
  /// Sum of the per-shard tracker peaks only. The merged tree's own
  /// high-water mark lives in `mem` and keeps moving through Phases
  /// 2-4, so the caller reads `mem->peak()` at the end of the run and
  /// adds it to this.
  size_t peak_memory_bytes = 0;
};

/// Runs sharded Phase 1 over `source` on `pool`. The pool must outlive
/// the call; `options.phase1.tree.dim` must match the source. The run
/// fails with the first failure in stream order (a block that fails to
/// decode, once the rows before its bad line are dealt; a point
/// ValidatePoint() rejects, named by its index in the whole stream; a
/// failed read), else with the first failing shard's status, after
/// every decode and ingest task has finished. Each shard's Finish()
/// runs on the pool after the last deal.
StatusOr<ShardedPhase1Result> RunShardedPhase1(
    PointSource* source, const ShardedPhase1Options& options,
    exec::ThreadPool* pool);

}  // namespace birch

#endif  // BIRCH_BIRCH_PHASE1_PARALLEL_H_
