#include "birch/birch.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "birch/block_scan.h"
#include "birch/checkpoint.h"
#include "birch/phase1_parallel.h"
#include "birch/run_report.h"
#include "serving/server.h"
#include "serving/snapshot.h"
#include "exec/thread_pool.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/math.h"
#include "util/timer.h"

namespace birch {

/// What Phases 2-4 need from a finished Phase 1, whether it ran
/// serially (one Phase1Builder) or sharded (RunShardedPhase1).
struct Phase1Outcome {
  CfTree* tree = nullptr;
  Phase1Stats stats;
  RobustnessStats robustness;
  const std::vector<CfVector>* final_outliers = nullptr;
  /// Tracker backing `tree`; its peak is read after Phase 4 (Phase-2
  /// condensation can still raise the high-water mark).
  const MemoryTracker* mem = nullptr;
  /// Sharded runs: sum of the per-shard tracker peaks (the shards
  /// coexisted with each other, and briefly with the merged tree).
  size_t shard_peak_bytes = 0;
  /// Outlier-disk traffic, summed over the shards on the sharded path.
  IoStats disk;
  double seconds = 0.0;
};

namespace {

CfTreeOptions TreeOptionsFrom(const BirchOptions& o) {
  CfTreeOptions t;
  t.dim = o.dim;
  t.page_size = o.resources.page_size;
  t.threshold = o.tree.initial_threshold;
  t.metric = o.tree.metric;
  t.threshold_kind = o.tree.threshold_kind;
  t.merging_refinement = o.tree.merging_refinement;
  t.cf = o.tree.cf;
  return t;
}

/// Phase 3's setup, one rule for Finish, Snapshot(k) and publishes:
/// `k` comes from the caller and the rest from the run's options, except
/// that a k > 0 run over more than max_hierarchical_inputs `entries`
/// uses k-means, which is linear in them where the others are
/// quadratic. `pool` is Finish's (the result is the serial one bit for
/// bit at every pool size); snapshots and publishes pass nullptr.
GlobalClusterOptions GlobalPhaseOptions(const BirchOptions& o, int k,
                                        size_t entries,
                                        exec::ThreadPool* pool) {
  GlobalClusterOptions g;
  g.k = k;
  g.distance_limit = o.global_phase.distance_limit;
  g.algorithm = k > 0 && entries > g.max_hierarchical_inputs
                    ? GlobalAlgorithm::kKMeans
                    : o.global_phase.algorithm;
  g.metric = o.global_phase.metric;
  g.seed = o.seed;
  g.pool = pool;
  return g;
}

Phase1Options Phase1OptionsFrom(const BirchOptions& o) {
  Phase1Options p;
  p.tree = TreeOptionsFrom(o);
  p.memory_budget_bytes = o.resources.memory_bytes;
  p.disk_budget_bytes = o.resources.disk_bytes;
  p.outlier_handling = o.outliers.handling;
  p.outlier_fraction = o.outliers.fraction;
  p.delay_split = o.outliers.delay_split;
  p.expected_points = o.expected_points;
  p.fault = o.resources.fault;
  p.retry = o.resources.io_retry;
  return p;
}

IngestCadence CadenceFrom(const BirchOptions& o, uint64_t position) {
  return IngestCadence(o.resources.checkpoint_every_n,
                       o.serving.publish_every_n, position);
}

/// Points per ReadRows() slab when a source feeds Phase 1's batch path.
constexpr size_t kSourceChunk = 512;

/// Reads up to `max` points into `rows` (row-major, room for max * dim())
/// and `weights` (room for max), setting `*n` to how many: fewer only at
/// the end of the stream, or when the source stops on the error returned.
Status ReadRows(PointSource* source, size_t max, std::span<double> rows,
                std::span<double> weights, size_t* n) {
  const size_t dim = source->dim();
  size_t i = 0;
  while (i < max && source->Next(rows.subspan(i * dim, dim), &weights[i])) ++i;
  *n = i;
  return i < max ? source->status() : Status::OK();
}

/// Streamed Phase 4: re-scans `source`, already rewound, once per pass,
/// moving each center CF (the Phase-3 clusters at first) to the CF of
/// the points its centroid drew. The pass is one ScanBlocks(): `pool`
/// decodes and labels the source's blocks, and this thread folds them
/// into the cluster CFs in stream order, so the CFs are the serial
/// pass's bit for bit at every thread count, in O(k + workers * block)
/// memory. Keeping no labels, it stops when the
/// centers stop moving rather than when no label changes. The first
/// failing block in stream order, else a failed read, fails the pass.
/// Returns the last pass's cluster CFs, empty ones included.
StatusOr<std::vector<CfVector>> StreamingRefine(
    PointSource* source, const BirchOptions& opts,
    std::vector<CfVector> centers, exec::ThreadPool* pool) {
  TRACE_SPAN("phase4/refine");
  std::vector<std::vector<int>> labels(BlockScanWindow(pool));
  std::vector<CfVector> sums;
  for (int pass = 0; pass < opts.refine.passes; ++pass) {
    if (pass > 0) BIRCH_RETURN_IF_ERROR(source->Rewind());
    const SeedAssigner assigner(centers, opts.refine.outlier_distance);
    sums.assign(centers.size(), CfVector(opts.dim, opts.tree.cf));
    BlockScanStats scan;
    const Status scanned = ScanBlocks(
        source, pool,
        [&](size_t slot, const PointBlock& block) {
          labels[slot].resize(block.size());
          assigner.Label(block.values, block.size(), labels[slot].data());
        },
        [&](size_t slot, const PointBlock& block) {
          assigner.Fold(block.values, block.size(), block.weights,
                        labels[slot].data(), &sums);
          return Status::OK();
        },
        &scan);
    OBS_COUNTER_ADD("phase4/blocks", scan.blocks);
    OBS_COUNTER_ADD("phase4/wait_us", scan.wait_us);
    BIRCH_RETURN_IF_ERROR(scanned);
    double moved = 0.0;
    for (size_t c = 0; c < centers.size(); ++c) {
      if (sums[c].empty()) continue;
      moved += SquaredDistance(centers[c].Centroid(), sums[c].Centroid());
      centers[c] = sums[c];
    }
    if (moved < 1e-18) break;
  }
  return sums;
}

/// Drops the clusters Phase 4 left empty and renumbers `labels` (empty
/// for a streamed Phase 4) to match.
void DropEmptyClusters(std::vector<CfVector>* clusters,
                       std::vector<int>* labels) {
  std::vector<int> remap(clusters->size(), -1);
  std::vector<CfVector> kept;
  for (size_t c = 0; c < clusters->size(); ++c) {
    if ((*clusters)[c].empty()) continue;
    remap[c] = static_cast<int>(kept.size());
    kept.push_back(std::move((*clusters)[c]));
  }
  *clusters = std::move(kept);
  for (int& l : *labels) {
    if (l >= 0) l = remap[static_cast<size_t>(l)];
  }
}

/// Phases 2-4 plus result bookkeeping, shared by the serial and the
/// sharded pipelines. Phase 4 refines against `for_refinement`, or,
/// when that is null, re-scans `rescan` if it can rewind. `pool` is
/// nullptr for the serial path, which keeps every loop bit-for-bit
/// identical to the serial-only implementation.
StatusOr<BirchResult> RunPhases234(const BirchOptions& options,
                                   const Phase1Outcome& p1,
                                   const Dataset* for_refinement,
                                   PointSource* rescan,
                                   exec::ThreadPool* pool,
                                   const obs::MetricsSnapshot& baseline) {
  BirchResult result;
  Timer timer;
  CfTree* tree = p1.tree;
  result.timings.phase1 = p1.seconds;
  result.phase1 = p1.stats;
  result.robustness = p1.robustness;
  result.leaf_entries_after_phase1 = tree->leaf_entry_count();

  // --- Phase 2: condense for the global algorithm. ---
  timer.Restart();
  obs::SpanScope phase2_span("birch/phase2");
  std::vector<CfVector> shed_outliers;
  if (options.global_phase.use_phase2 &&
      tree->leaf_entry_count() > options.global_phase.phase2_target_entries) {
    Phase2Options p2;
    p2.target_leaf_entries = options.global_phase.phase2_target_entries;
    if (options.outliers.handling) {
      // Phase 2 "removes more outliers" (paper Sec. 5): entries far
      // below the average density are shed while condensing.
      p2.outlier_weight_threshold =
          OutlierWeightThreshold(*tree, options.outliers.fraction);
    }
    BIRCH_RETURN_IF_ERROR(
        CondenseTree(tree, p2, &shed_outliers, &result.phase2));
  }
  result.leaf_entries_after_phase2 = tree->leaf_entry_count();
  result.timings.phase2 = timer.Seconds();
  phase2_span.End();

  // --- Phase 3: global clustering of the leaf entries. ---
  timer.Restart();
  obs::SpanScope phase3_span("birch/phase3");
  std::vector<CfVector> entries;
  tree->CollectLeafEntries(&entries);
  if (entries.empty()) {
    return Status::FailedPrecondition(
        "no data was added: ingest at least one point (AddBatch/Add/"
        "AddSource) before running the pipeline");
  }
  auto clustering_or = GlobalCluster(
      entries, GlobalPhaseOptions(options, options.k, entries.size(), pool));
  if (!clustering_or.ok()) return clustering_or.status();
  GlobalClustering& clustering = clustering_or.value();
  result.timings.phase3 = timer.Seconds();
  phase3_span.End();

  result.clusters = clustering.clusters;

  // --- Phase 4: refinement / labelling over the raw data. ---
  timer.Restart();
  obs::SpanScope phase4_span("birch/phase4");
  if (for_refinement != nullptr && !for_refinement->empty()) {
    RefineOptions r;
    r.passes = std::max(1, options.refine.passes);
    r.stop_when_stable = true;
    r.outlier_distance = options.refine.outlier_distance;
    r.pool = pool;
    auto refined_or = RefineClusters(*for_refinement, result.clusters, r);
    if (!refined_or.ok()) return refined_or.status();
    result.labels = std::move(refined_or.value().labels);
    // refine.passes == 0: labels only, clusters stay Phase-3.
    if (options.refine.passes > 0) {
      result.clusters = std::move(refined_or.value().clusters);
      DropEmptyClusters(&result.clusters, &result.labels);
    }
  } else if (rescan != nullptr && options.refine.passes > 0) {
    // FailedPrecondition is the PointSource default for a source that
    // cannot rewind: no Phase 4. Any other Rewind error fails the run.
    const Status rewound = rescan->Rewind();
    if (rewound.code() != StatusCode::kFailedPrecondition) {
      BIRCH_RETURN_IF_ERROR(rewound);
      auto refined_or =
          StreamingRefine(rescan, options, clustering.clusters, pool);
      if (!refined_or.ok()) return refined_or.status();
      result.clusters = std::move(refined_or).ValueOrDie();
      DropEmptyClusters(&result.clusters, &result.labels);
    }
  }
  result.timings.phase4 = timer.Seconds();
  phase4_span.End();

  // --- Bookkeeping ---
  result.centroids.clear();
  result.centroids.reserve(result.clusters.size());
  for (const auto& c : result.clusters) {
    result.centroids.push_back(c.Centroid());
  }
  result.tree_stats = tree->stats();
  result.peak_memory_bytes =
      p1.shard_peak_bytes + (p1.mem != nullptr ? p1.mem->peak() : 0);
  result.tree_nodes = tree->node_count();
  result.tree_heap_bytes = tree->heap_bytes();
  result.disk_pages_written = p1.disk.pages_written;
  result.disk_pages_read = p1.disk.pages_read;
  result.final_threshold = tree->threshold();
  // Accumulate in integers: CF point counts are integral (weights are
  // summed exactly for unit-weight streams), and a double accumulator
  // stops counting distinct values past 2^53.
  uint64_t outlier_points = 0;
  for (const auto& e : *p1.final_outliers) {
    outlier_points += static_cast<uint64_t>(std::llround(e.n()));
  }
  for (const auto& e : shed_outliers) {
    outlier_points += static_cast<uint64_t>(std::llround(e.n()));
  }
  result.outlier_points = outlier_points;
  tree->ExportOccupancy();
  result.metrics = obs::CaptureSnapshot().DeltaSince(baseline);
  return result;
}

}  // namespace

BirchClusterer::BirchClusterer(const BirchOptions& options)
    : options_(options),
      phase1_(std::make_unique<Phase1Builder>(Phase1OptionsFrom(options))),
      cadence_(CadenceFrom(options, 0)),
      metrics_baseline_(obs::CaptureSnapshot()) {
  if (options_.serving.publish_every_n > 0) {
    server_ = std::make_unique<serving::BirchServer>(options_.dim);
  }
  if (options_.obs.sample_every_ms > 0) {
    obs::SamplerOptions so;
    so.sample_every_ms = options_.obs.sample_every_ms;
    so.series_capacity = options_.obs.series_capacity;
    sampler_ = std::make_unique<obs::StatsSampler>(so);
    RegisterBirchProbes(sampler_.get());
    if (server_ != nullptr) {
      // Serving trajectories: epoch number, live snapshots, and the
      // age of the current epoch. The age probe reads the server
      // (mutex + immutable snapshot), safe from the sampler thread;
      // server_ outlives sampler_ by declaration order.
      sampler_->AddGaugeProbe("serving/epoch");
      sampler_->AddGaugeProbe("serving/snapshots_live");
      serving::BirchServer* srv = server_.get();
      sampler_->AddProbe("serving/snapshot_age_ms",
                         [srv] { return srv->SnapshotAgeMs(); });
    }
    // Cannot fail: Validate() already rejected a zero cadence.
    Status st = sampler_->Start();
    (void)st;
  }
}

BirchClusterer::~BirchClusterer() = default;

StatusOr<std::unique_ptr<BirchClusterer>> BirchClusterer::Create(
    const BirchOptions& options) {
  BIRCH_RETURN_IF_ERROR(options.Validate());
  return std::unique_ptr<BirchClusterer>(new BirchClusterer(options));
}

const CfTree& BirchClusterer::tree() const {
  return sharded_ != nullptr ? *sharded_->tree : phase1_->tree();
}

const Phase1Stats& BirchClusterer::phase1_stats() const {
  return sharded_ != nullptr ? sharded_->stats : phase1_->stats();
}

Status BirchClusterer::RunBoundary(
    CadenceDue due, uint64_t position, const std::string& checkpoint_path,
    std::span<const std::unique_ptr<Phase1Builder>> shards) {
  if (due.checkpoint) {
    CheckpointImage img = CheckpointImage::For(options_);
    img.shard_count = static_cast<uint32_t>(shards.size());
    img.points_ingested = position;
    const auto builders =
        shards.empty()
            ? std::span<const std::unique_ptr<Phase1Builder>>(&phase1_, 1)
            : shards;
    for (const auto& b : builders) {
      auto f_or = b->Freeze();
      if (!f_or.ok()) return f_or.status();
      img.freezes.push_back(std::move(f_or).ValueOrDie());
    }
    BIRCH_RETURN_IF_ERROR(WriteCheckpointFile(checkpoint_path, img));
  }
  if (!due.publish) return Status::OK();
  // Quiesced shards are merged into a transient union (CF additivity;
  // unlimited transient tracker — the copy lives only for this call),
  // snapshotted, and let die. The snapshot itself is the compact
  // long-lived form.
  MemoryTracker mem(0);
  std::optional<CfTree> merged;
  if (!shards.empty()) {
    CfTreeOptions merged_opts = TreeOptionsFrom(options_);
    for (const auto& b : shards) {
      merged_opts.threshold =
          std::max(merged_opts.threshold, b->tree().threshold());
    }
    merged.emplace(merged_opts, &mem);
    for (const auto& b : shards) merged->AbsorbTree(b->tree());
  }
  const CfTree& snapped = merged ? *merged : tree();
  auto snap_or = serving::ServingSnapshot::Build(
      snapped, position,
      GlobalPhaseOptions(options_, options_.k, snapped.leaf_entry_count(),
                         /*pool=*/nullptr));
  if (!snap_or.ok()) return snap_or.status();
  return server_->Publish(std::move(snap_or).ValueOrDie());
}

Status BirchClusterer::PublishSnapshot() {
  if (server_ == nullptr) {
    return Status::FailedPrecondition(
        "serving is disabled: set serving.publish_every_n > 0");
  }
  return RunBoundary({.publish = true}, phase1_stats().points_added,
                     /*checkpoint_path=*/"");
}

Status BirchClusterer::AddBatch(std::span<const double> xs, size_t n,
                                std::span<const double> weights) {
  if (finished_) {
    return Status::FailedPrecondition(
        "AddBatch() after Finish(): the pipeline already ran; create a "
        "new clusterer to ingest more data");
  }
  if (!resume_freezes_.empty()) {
    return Status::FailedPrecondition(
        "restored from a sharded checkpoint: resume with Cluster() on "
        "the same full stream (streaming ingest only resumes serial "
        "checkpoints)");
  }
  const size_t dim = options_.dim;
  // The whole batch first: the cadence below ingests it piece by piece,
  // each piece already validated.
  BIRCH_RETURN_IF_ERROR(
      ValidateBatch(xs, n, dim, weights, phase1_->stats().points_added));
  size_t off = 0;
  while (off < n) {
    // Split the batch at the next checkpoint/publish boundary so both
    // cadences fire at the exact absolute point counts a point-by-
    // point ingest would produce.
    const size_t take =
        static_cast<size_t>(std::min<uint64_t>(n - off, cadence_.Room()));
    BIRCH_RETURN_IF_ERROR(phase1_->Ingest(
        xs.subspan(off * dim, take * dim), take,
        weights.empty() ? std::span<const double>()
                        : weights.subspan(off, take)));
    off += take;
    const CadenceDue due = cadence_.Advance(take);
    if (due.any()) {
      BIRCH_RETURN_IF_ERROR(RunBoundary(
          due, cadence_.position(), options_.resources.checkpoint_path));
    }
  }
  return Status::OK();
}

Status BirchClusterer::Add(std::span<const double> x, double weight) {
  return AddBatch(x, 1, std::span<const double>(&weight, 1));
}

Status BirchClusterer::AddDataset(const Dataset& data) {
  if (data.dim() != options_.dim) {
    return Status::InvalidArgument(
        "dataset dimension mismatch: dataset rows have dim " +
        std::to_string(data.dim()) + ", clusterer was created with dim " +
        std::to_string(options_.dim));
  }
  // One zero-copy batch over the dataset's row-major storage.
  return AddBatch(data.Values(), data.size(), data.Weights());
}

Status BirchClusterer::AddSource(PointSource* source) {
  if (finished_) {
    return Status::FailedPrecondition(
        "AddSource() after Finish(): the pipeline already ran; create a "
        "new clusterer to ingest more data");
  }
  if (source->dim() != options_.dim) {
    return Status::InvalidArgument(
        "source dimension mismatch: source yields dim " +
        std::to_string(source->dim()) + ", clusterer was created with "
        "dim " + std::to_string(options_.dim));
  }
  if (!resume_freezes_.empty()) {
    return Status::FailedPrecondition(
        "restored from a sharded checkpoint: resume with Cluster() on "
        "the same full stream (streaming ingest only resumes serial "
        "checkpoints)");
  }
  std::vector<double> xs(kSourceChunk * options_.dim);
  std::vector<double> ws(kSourceChunk);
  for (size_t n = kSourceChunk; n == kSourceChunk;) {
    BIRCH_RETURN_IF_ERROR(ReadRows(source, kSourceChunk, xs, ws, &n));
    BIRCH_RETURN_IF_ERROR(
        AddBatch(std::span<const double>(xs).first(n * options_.dim), n,
                 std::span<const double>(ws).first(n)));
  }
  return Status::OK();
}

Status BirchClusterer::SaveCheckpoint(const std::string& path) {
  if (finished_) {
    return Status::FailedPrecondition("SaveCheckpoint() after Finish()");
  }
  if (!resume_freezes_.empty()) {
    return Status::FailedPrecondition(
        "restored from a sharded checkpoint: sharded images are written "
        "by the checkpoint cadence inside Cluster()");
  }
  return RunBoundary({.checkpoint = true}, phase1_->stats().points_added,
                     path);
}

StatusOr<std::unique_ptr<BirchClusterer>> BirchClusterer::Restore(
    const std::string& path, const BirchOptions& options) {
  BIRCH_RETURN_IF_ERROR(options.Validate());
  auto img_or = ReadCheckpointFile(path);
  if (!img_or.ok()) return img_or.status();
  CheckpointImage img = std::move(img_or).ValueOrDie();

  // Fingerprint: options that shape the CF tree and its serialized form
  // must match the checkpointed run exactly.
  BIRCH_RETURN_IF_ERROR(img.MatchesOptions(options));

  std::unique_ptr<BirchClusterer> c(new BirchClusterer(options));
  c->resume_skip_points_ = img.points_ingested;
  // Both cadences continue from the absolute stream position, exactly
  // where the uninterrupted run's would.
  c->cadence_ = CadenceFrom(options, img.points_ingested);
  if (img.shard_count == 0) {
    if (options.exec.num_threads != 0) {
      return Status::InvalidArgument(
          "serial checkpoint requires num_threads == 0");
    }
    auto b_or = Phase1Builder::Thaw(Phase1OptionsFrom(options),
                                    img.freezes.front());
    if (!b_or.ok()) return b_or.status();
    c->phase1_ = std::move(b_or).ValueOrDie();
  } else {
    if (options.exec.num_threads != static_cast<int>(img.shard_count)) {
      return Status::InvalidArgument(
          "sharded checkpoint was written by " +
          std::to_string(img.shard_count) +
          " shards; options.exec.num_threads must equal that");
    }
    c->resume_freezes_ = std::move(img.freezes);
  }
  return c;
}

StatusOr<BirchResult> BirchClusterer::Snapshot(int k) const {
  std::vector<CfVector> entries;
  // Filled from the serving epoch on the mid-stream sharded path,
  // where the live tree() is not this thread's to read.
  std::shared_ptr<const serving::ServingSnapshot> epoch;
  if (options_.exec.num_threads > 0 &&
      !merged_ready_.load(std::memory_order_acquire)) {
    // The sharded pipeline merges its per-shard trees only at the end
    // of Cluster(), but the serving tier publishes coherent epochs
    // along the way: answer from the latest one, exactly like the
    // serial path answers from the live tree.
    epoch = server_ != nullptr ? server_->Acquire() : nullptr;
    if (epoch == nullptr) {
      return Status::FailedPrecondition(
          "Snapshot() before Cluster() on the sharded path (num_threads "
          "> 0) reads the last published serving epoch, and none exists "
          "yet — set serving.publish_every_n > 0 (and ingest past it), "
          "run Cluster() to completion first, or use num_threads == 0");
    }
    entries = epoch->LeafEntries();
  } else {
    tree().CollectLeafEntries(&entries);
  }
  if (entries.empty()) {
    return Status::FailedPrecondition(
        "no data to snapshot: ingest at least one point (AddBatch/Add/"
        "AddSource) before calling Snapshot(k)");
  }
  Timer timer;
  auto clustering_or = GlobalCluster(
      entries, GlobalPhaseOptions(options_, k, entries.size(),
                                  /*pool=*/nullptr));
  if (!clustering_or.ok()) return clustering_or.status();
  GlobalClustering& clustering = clustering_or.value();

  // No labels: a snapshot never revisits the raw stream. Everything
  // else a Finish() result carries (current-state flavoured) is here.
  BirchResult result;
  result.clusters = std::move(clustering.clusters);
  result.centroids.reserve(result.clusters.size());
  for (const auto& c : result.clusters) {
    result.centroids.push_back(c.Centroid());
  }
  result.timings.phase1 = phase1_timer_.Seconds();
  result.timings.phase3 = timer.Seconds();
  result.leaf_entries_after_phase1 = entries.size();
  result.leaf_entries_after_phase2 = entries.size();
  if (epoch != nullptr) {
    // Mid-stream sharded: the epoch's capture-time view stands in for
    // the live tree (whose pages belong to the shard workers).
    result.phase1.points_added = epoch->points_ingested();
    result.phase1.final_threshold = epoch->threshold();
    result.tree_nodes = epoch->node_count();
    result.final_threshold = epoch->threshold();
  } else {
    result.phase1 = phase1_stats();
    result.tree_stats = tree().stats();
    result.tree_nodes = tree().node_count();
    result.tree_heap_bytes = tree().heap_bytes();
    result.final_threshold = tree().threshold();
  }
  result.metrics = obs::CaptureSnapshot().DeltaSince(metrics_baseline_);
  return result;
}

StatusOr<BirchResult> BirchClusterer::Finish(const Dataset* for_refinement) {
  return FinishSerial(for_refinement, /*rescan=*/nullptr);
}

StatusOr<BirchResult> BirchClusterer::FinishSerial(
    const Dataset* for_refinement, PointSource* rescan) {
  if (finished_) return Status::FailedPrecondition("Finish() called twice");
  finished_ = true;

  // --- Phase 1 tail: flush delayed points, settle outliers. ---
  BIRCH_RETURN_IF_ERROR(phase1_->Finish());
  Phase1Outcome p1;
  p1.tree = phase1_->mutable_tree();
  p1.stats = phase1_->stats();
  p1.robustness = phase1_->robustness();
  p1.final_outliers = &phase1_->final_outliers();
  p1.mem = &phase1_->memory();
  p1.disk = phase1_->disk().io_stats();
  // The streaming API ingests serially (points arrive one Add() at a
  // time), but Phases 3/4 still parallelize when asked.
  std::unique_ptr<exec::ThreadPool> pool;
  if (options_.exec.num_threads > 0) {
    pool = std::make_unique<exec::ThreadPool>(options_.exec.num_threads);
  }
  return FinishRun(p1, for_refinement, rescan, pool.get());
}

StatusOr<BirchResult> BirchClusterer::FinishRun(Phase1Outcome p1,
                                                const Dataset* for_refinement,
                                                PointSource* rescan,
                                                exec::ThreadPool* pool) {
  // Phase 1 started when the clusterer was built: the ingest stream is
  // the phase, not just its tail.
  p1.seconds = phase1_timer_.Seconds();
  phase1_span_.End();

  // One final epoch covering the whole stream: the serial Phase-1 tail
  // may have settled delayed points since the last cadence publish,
  // and a sharded run's epochs saw the pre-merge shard union, not the
  // re-homed, reabsorbed tree Phases 2-4 start from.
  if (server_ != nullptr && tree().leaf_entry_count() > 0) {
    BIRCH_RETURN_IF_ERROR(PublishSnapshot());
  }
  auto result_or = RunPhases234(options_, p1, for_refinement, rescan, pool,
                                metrics_baseline_);
  if (sampler_ != nullptr) {
    sampler_->Stop();  // final sample covers the finished run
    if (result_or.ok()) result_or.value().timeseries = sampler_->Snapshot();
  }
  return result_or;
}

StatusOr<BirchResult> BirchClusterer::Cluster(PointSource* source,
                                              const Dataset* for_refinement) {
  if (finished_) {
    return Status::FailedPrecondition("Cluster() after Finish()");
  }
  if (source->dim() != options_.dim) {
    return Status::InvalidArgument("source dimension mismatch");
  }
  // Without a dataset, Phase 4 re-scans the source itself.
  PointSource* rescan = for_refinement == nullptr ? source : nullptr;
  if (options_.exec.num_threads <= 0) {
    // Serial: AddSource drains the source into Phase 1. A restored
    // clusterer first skips what the checkpointed run already consumed.
    if (resume_skip_points_ > 0) {
      std::vector<double> xs(kSourceChunk * options_.dim);
      std::vector<double> ws(kSourceChunk);
      for (uint64_t skipped = 0; skipped < resume_skip_points_;) {
        const size_t want = static_cast<size_t>(
            std::min<uint64_t>(kSourceChunk, resume_skip_points_ - skipped));
        size_t n = 0;
        BIRCH_RETURN_IF_ERROR(ReadRows(source, want, xs, ws, &n));
        skipped += n;
        if (n < want) {
          return Status::InvalidArgument(
              "source ended before the checkpoint's resume offset (" +
              std::to_string(skipped) + " < " +
              std::to_string(resume_skip_points_) +
              "); pass the same stream the checkpointed run consumed");
        }
      }
      resume_skip_points_ = 0;
    }
    BIRCH_RETURN_IF_ERROR(AddSource(source));
    return FinishSerial(for_refinement, rescan);
  }

  // Sharded: N private trees merged by CF additivity, then the
  // parallel Phases 2-4. The result outlives the pool; the merged
  // tree is kept so tree()/phase1_stats() work afterwards.
  finished_ = true;
  exec::ThreadPool pool(options_.exec.num_threads);
  ShardedPhase1Options sp;
  sp.phase1 = Phase1OptionsFrom(options_);
  sp.num_shards = options_.exec.num_threads;
  sp.splitter_seed = options_.exec.splitter_seed;
  // The dealer's stream starts at the resume offset; its boundaries
  // run through the same routine as the serial cadence's.
  sp.cadence = CadenceFrom(options_, resume_skip_points_);
  sp.on_boundary =
      [this](CadenceDue due, uint64_t points_dealt,
             std::span<const std::unique_ptr<Phase1Builder>> builders) {
        return RunBoundary(due, points_dealt,
                           options_.resources.checkpoint_path, builders);
      };
  sp.resume = resume_freezes_.empty() ? nullptr : &resume_freezes_;
  sp.resume_skip_points = resume_skip_points_;
  auto sharded_or = RunShardedPhase1(source, sp, &pool);
  if (!sharded_or.ok()) return sharded_or.status();
  resume_freezes_.clear();
  resume_skip_points_ = 0;
  sharded_ = std::make_unique<ShardedPhase1Result>(
      std::move(sharded_or).ValueOrDie());
  merged_ready_.store(true, std::memory_order_release);
  Phase1Outcome p1;
  p1.tree = sharded_->tree.get();
  p1.stats = sharded_->stats;
  p1.robustness = sharded_->robustness;
  p1.final_outliers = &sharded_->final_outliers;
  p1.mem = sharded_->mem.get();
  p1.shard_peak_bytes = sharded_->peak_memory_bytes;
  p1.disk = sharded_->disk;
  return FinishRun(p1, for_refinement, rescan, &pool);
}

StatusOr<BirchResult> ClusterSource(PointSource* source,
                                    const BirchOptions& options) {
  BirchOptions opts = options;
  opts.dim = source->dim();
  if (opts.expected_points == 0) opts.expected_points = source->SizeHint();

  auto clusterer_or = BirchClusterer::Create(opts);
  if (!clusterer_or.ok()) return clusterer_or.status();
  return clusterer_or.value()->Cluster(source);
}

StatusOr<BirchResult> ClusterDataset(const Dataset& data,
                                     const BirchOptions& options) {
  BirchOptions opts = options;
  if (opts.expected_points == 0) opts.expected_points = data.size();

  auto clusterer_or = BirchClusterer::Create(opts);
  if (!clusterer_or.ok()) return clusterer_or.status();
  DatasetSource source(&data);
  return clusterer_or.value()->Cluster(&source, &data);
}

}  // namespace birch
