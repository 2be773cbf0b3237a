#include "birch/phase1_parallel.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <iterator>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "birch/block_scan.h"
#include "birch/kernel/kernel.h"
#include "birch/threshold.h"
#include "exec/parallel_for.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace birch {

namespace {

/// Points per hand-off batch.
constexpr size_t kBatchPoints = 256;
/// Batches a shard's queue holds before the dealer waits for room; it
/// resumes once the queue is down to half, so the two threads trade one
/// wakeup per kQueueBatches / 2 batches rather than one per batch.
constexpr size_t kQueueBatches = 64;

/// One hand-off unit: `xs` holds batch points flattened dim-major.
struct PointBatch {
  std::vector<double> xs;
  std::vector<double> ws;
};

/// The shards' ingest queues. The dealer appends each point to its
/// shard's pending batch; a full batch joins the shard's FIFO queue, and
/// while a queue holds batches one pool task per shard ingests them in
/// order. A worker whose shard has nothing to ingest is free to decode.
/// Tasks never wait: the dealer waits for room in a queue, and for
/// every shard to be idle (no queued batch, no task) around a cadence
/// boundary and at the end. The mutex hand-offs publish each task's
/// builder writes to the dealer and back.
class ShardQueues {
 public:
  /// Shard s's task runs `ingest(s, batch)` on each of its batches in
  /// order, and `finish(s)` once after the last (see Finish()).
  ShardQueues(size_t shards, size_t dim, exec::ThreadPool* pool,
              std::function<Status(size_t, const PointBatch&)> ingest,
              std::function<Status(size_t)> finish)
      : pool_(pool),
        ingest_(std::move(ingest)),
        finish_(std::move(finish)),
        shards_(shards) {
    for (Shard& sh : shards_) {
      sh.pending.xs.reserve(kBatchPoints * dim);
      sh.pending.ws.reserve(kBatchPoints);
    }
  }
  ~ShardQueues() { AwaitIdle(); }
  ShardQueues(const ShardQueues&) = delete;
  ShardQueues& operator=(const ShardQueues&) = delete;

  /// Appends one point to shard `s`; a full batch joins its queue.
  void Deal(size_t s, std::span<const double> p, double w) {
    PointBatch& b = shards_[s].pending;
    b.xs.insert(b.xs.end(), p.begin(), p.end());
    b.ws.push_back(w);
    if (b.ws.size() >= kBatchPoints) Push(s);
  }

  /// Queues every partial batch and waits until every shard has ingested
  /// all it was dealt. On return no task touches a builder and every
  /// shard's status is safe to read.
  void Quiesce() {
    QueuePending();
    AwaitIdle();
  }

  /// After the last deal: quiesces, with each shard that has not failed
  /// running `finish` on the pool once its queue drains.
  void Finish() {
    QueuePending();
    for (size_t s = 0; s < shards_.size(); ++s) {
      bool start = false;
      {
        std::lock_guard<std::mutex> lock(mu_);
        shards_[s].finish = true;
        start = !std::exchange(shards_[s].busy, true);
      }
      if (start) Submit(s);
    }
    AwaitIdle();
  }

  /// The first failing shard's status (call while quiesced).
  Status status() const {
    for (const Shard& sh : shards_) BIRCH_RETURN_IF_ERROR(sh.status);
    return Status::OK();
  }

  /// Microseconds the dealer waited for room in a queue.
  uint64_t wait_us() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(waited_)
            .count());
  }

 private:
  struct Shard {
    PointBatch pending;  // the dealer's
    // Guarded by mu_: the shard's queue; whether a task is queued or
    // running for it; whether that task runs Finish() once drained.
    std::deque<PointBatch> queue;
    bool busy = false;
    bool finish = false;
    // The shard task's; read by the dealer only while the shard is idle.
    Status status;
  };

  void QueuePending() {
    for (size_t s = 0; s < shards_.size(); ++s) {
      if (!shards_[s].pending.ws.empty()) Push(s);
    }
  }

  void Push(size_t s) {
    Shard& sh = shards_[s];
    bool start = false;
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (sh.queue.size() >= kQueueBatches) {
        const auto t0 = std::chrono::steady_clock::now();
        changed_.wait(
            lock, [&sh] { return sh.queue.size() <= kQueueBatches / 2; });
        waited_ += std::chrono::steady_clock::now() - t0;
      }
      sh.queue.push_back(std::move(sh.pending));
      start = !std::exchange(sh.busy, true);
    }
    sh.pending = PointBatch{};
    if (start) Submit(s);
  }

  void Submit(size_t s) {
    pool_->Submit([this, s] { Ingest(s); });
  }

  /// The shard's pool task: ingests its queue in order until it is empty.
  void Ingest(size_t s) {
    obs::SpanScope span("phase1/shard");
    Shard& sh = shards_[s];
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      if (!sh.queue.empty()) {
        PointBatch batch = std::move(sh.queue.front());
        sh.queue.pop_front();
        if (sh.queue.size() == kQueueBatches / 2) changed_.notify_one();
        lock.unlock();
        // After a failure the queue still drains, so the dealer never
        // stalls.
        if (sh.status.ok()) sh.status = ingest_(s, batch);
        lock.lock();
      } else if (sh.finish) {
        sh.finish = false;
        lock.unlock();
        if (sh.status.ok()) sh.status = finish_(s);
        lock.lock();
      } else {
        sh.busy = false;
        changed_.notify_one();  // idle
        return;
      }
    }
  }

  void AwaitIdle() {
    std::unique_lock<std::mutex> lock(mu_);
    changed_.wait(lock, [this] {
      return std::none_of(shards_.begin(), shards_.end(),
                          [](const Shard& sh) { return sh.busy; });
    });
  }

  exec::ThreadPool* const pool_;
  const std::function<Status(size_t, const PointBatch&)> ingest_;
  const std::function<Status(size_t)> finish_;
  std::vector<Shard> shards_;
  std::mutex mu_;
  std::condition_variable changed_;  // a queue popped or a shard went idle
  std::chrono::steady_clock::duration waited_{};  // the dealer's
};

/// Divides the run's total budgets across `shards` builders. Each
/// shard keeps at least the minimum viable slice (4 pages of memory,
/// one page of disk) so a high shard count degrades throughput, never
/// correctness.
Phase1Options ShardOptions(const Phase1Options& total, int shards) {
  Phase1Options o = total;
  const size_t s = static_cast<size_t>(shards);
  if (total.memory_budget_bytes > 0) {
    o.memory_budget_bytes = std::max(total.memory_budget_bytes / s,
                                     4 * total.tree.page_size);
  }
  if (total.disk_budget_bytes > 0) {
    o.disk_budget_bytes =
        std::max(total.disk_budget_bytes / s, total.tree.page_size);
  }
  o.expected_points = total.expected_points / s;
  return o;
}

uint64_t SplitMix64(uint64_t* s) {
  uint64_t z = (*s += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// The dealer's top-level splitter: a shallow k-means over the first
/// max(1024, 256 * S) stream points. Until the sample is full the
/// splitter is unarmed (callers deal i mod S and Observe()); arming
/// fits min(4 * S, 64) centers (at least one per shard) with a seeded
/// init + 4 Lloyd rounds, packs them onto shards greedily by sample
/// mass (heaviest center to the least-loaded shard), and from then on
/// Route() sends each point to the shard owning its nearest center.
/// Everything here is a pure function of (observed prefix, seed): same
/// stream, same seed, same shard count => identical routing, on a
/// fresh run or a resume.
class AffinitySplitter {
 public:
  AffinitySplitter(size_t dim, int shards, uint64_t seed)
      : dim_(dim),
        shards_(static_cast<size_t>(shards)),
        seed_(seed),
        sample_target_(std::max<size_t>(1024, 256 * shards_)),
        centers_target_(
            std::max(std::min<size_t>(4 * shards_, 64), shards_)) {
    sample_.reserve(sample_target_ * dim_);
  }

  bool armed() const { return armed_; }

  /// Warmup: appends one stream point to the sample; fits and arms
  /// once the sample reaches its target size.
  void Observe(std::span<const double> p) {
    sample_.insert(sample_.end(), p.begin(), p.end());
    if (sample_.size() >= sample_target_ * dim_) Fit();
  }

  /// Shard owning the region `p` falls in (armed() only).
  size_t Route(std::span<const double> p) const {
    return shard_of_center_[NearestCenter(p)];
  }

 private:
  /// Index of the center nearest `p`; center 0 when none compares below
  /// +inf (its squared distances overflow).
  size_t NearestCenter(std::span<const double> p) const {
    const size_t best = centers_.NearestCentroidSq(p).index;
    return best == static_cast<size_t>(-1) ? 0 : best;
  }

  void Fit() {
    const size_t m = sample_.size() / dim_;
    const size_t c = std::min(centers_target_, m);
    // Seeded init: c distinct sample rows via partial Fisher-Yates,
    // each as a one-point CF (its centroid is the row).
    std::vector<size_t> idx(m);
    for (size_t j = 0; j < m; ++j) idx[j] = j;
    uint64_t rng = seed_;
    std::vector<CfVector> centers(c);
    for (size_t j = 0; j < c; ++j) {
      size_t pick = j + static_cast<size_t>(SplitMix64(&rng) %
                                            static_cast<uint64_t>(m - j));
      std::swap(idx[j], idx[pick]);
      centers[j] = CfVector::FromPoint(
          std::span<const double>(sample_.data() + idx[j] * dim_, dim_));
    }
    centers_.Init(dim_, c,
                  kernel::CfBatch::Needs::For(DistanceMetric::kD0));
    // Shallow Lloyd: a handful of rounds is plenty for a splitter —
    // it only has to carve the space into coherent regions, not
    // converge. Each cluster's sum is a classic CF fed its rows: LS
    // adds each row exactly (1.0 * x) and N counts them, so the next
    // center's centroid LS/N is the mean of the rows.
    std::vector<CfVector> sums;
    for (int round = 0; round < 4; ++round) {
      centers_.Assign(centers);
      sums.assign(c, CfVector(dim_));
      for (size_t j = 0; j < m; ++j) {
        std::span<const double> row(sample_.data() + j * dim_, dim_);
        sums[NearestCenter(row)].AddPoint(row);
      }
      for (size_t cc = 0; cc < c; ++cc) {
        if (!sums[cc].empty()) centers[cc] = sums[cc];  // empty: keep it
      }
    }
    // Greedy LPT pack: heaviest center onto the least-loaded shard, so
    // expected per-shard point mass stays balanced even when cluster
    // sizes are skewed.
    std::vector<size_t> order(c);
    for (size_t j = 0; j < c; ++j) order[j] = j;
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return sums[a].n() > sums[b].n();
    });
    std::vector<double> load(shards_, 0.0);
    shard_of_center_.assign(c, 0);
    for (size_t j : order) {
      size_t best = 0;
      for (size_t s = 1; s < shards_; ++s) {
        if (load[s] < load[best]) best = s;
      }
      shard_of_center_[j] = best;
      load[best] += sums[j].n();
    }
    centers_.Assign(centers);
    sample_.clear();
    sample_.shrink_to_fit();
    armed_ = true;
  }

  const size_t dim_;
  const size_t shards_;
  const uint64_t seed_;
  const size_t sample_target_;
  const size_t centers_target_;
  std::vector<double> sample_;  // row-major warmup buffer
  kernel::CfBatch centers_;  // rows: the centers as CFs
  std::vector<size_t> shard_of_center_;
  bool armed_ = false;
};

}  // namespace

StatusOr<ShardedPhase1Result> RunShardedPhase1(
    PointSource* source, const ShardedPhase1Options& options,
    exec::ThreadPool* pool) {
  if (pool == nullptr) {
    return Status::InvalidArgument("sharded Phase 1 needs a thread pool");
  }
  const size_t dim = options.phase1.tree.dim;
  if (source->dim() != dim) {
    return Status::InvalidArgument("source dimension mismatch");
  }
  const int shards =
      std::clamp(options.num_shards, 1, std::max(1, pool->size()));

  OBS_GAUGE_SET("exec/shards", shards);

  // --- 1. Scan: deal points to one builder per shard. ---
  std::vector<std::unique_ptr<Phase1Builder>> builders;
  builders.reserve(static_cast<size_t>(shards));
  const Phase1Options shard_opts = ShardOptions(options.phase1, shards);
  if (options.resume != nullptr &&
      options.resume->size() != static_cast<size_t>(shards)) {
    return Status::InvalidArgument(
        "sharded checkpoint holds " + std::to_string(options.resume->size()) +
        " shards but this run would use " + std::to_string(shards));
  }
  for (int s = 0; s < shards; ++s) {
    if (options.resume != nullptr) {
      auto b_or = Phase1Builder::Thaw(shard_opts,
                                      (*options.resume)[static_cast<size_t>(s)]);
      if (!b_or.ok()) return b_or.status();
      builders.push_back(std::move(b_or).ValueOrDie());
    } else {
      builders.push_back(std::make_unique<Phase1Builder>(shard_opts));
    }
  }

  // The splitter routes once armed; during warmup (and with one shard,
  // where routing is moot) point i goes to shard i mod S.
  std::unique_ptr<AffinitySplitter> splitter;
  if (shards > 1) {
    splitter =
        std::make_unique<AffinitySplitter>(dim, shards, options.splitter_seed);
  }

  {
    TRACE_SPAN("phase1/scan");
    // Whole-batch ingest: arithmetic-identical to a per-point Add loop;
    // the dealer validates every point it deals.
    ShardQueues queues(
        static_cast<size_t>(shards), dim, pool,
        [&builders](size_t s, const PointBatch& b) {
          return builders[s]->Ingest(b.xs, b.ws.size(), b.ws);
        },
        [&builders](size_t s) { return builders[s]->Finish(); });
    IngestCadence cadence = options.cadence;
    uint64_t i = 0;
    // Deals one decoded block, row by row in stream order. Resume: the
    // rows the checkpointed run already consumed are skipped; dealing
    // continues at the original index — and the affinity splitter is
    // re-fitted from the skipped prefix — so shard assignment matches
    // the uninterrupted run point for point.
    auto deal = [&](size_t, const PointBlock& block) -> Status {
      for (size_t r = 0; r < block.size(); ++r) {
        const std::span<const double> p(block.values.data() + r * dim, dim);
        const double w = block.weights[r];
        const bool skip = i < options.resume_skip_points;
        if (skip && (splitter == nullptr || splitter->armed())) {
          ++i;
          continue;
        }
        // The splitter must never see a NaN or infinite coordinate.
        BIRCH_RETURN_IF_ERROR(ValidatePoint(p, w, i));
        size_t s;
        if (splitter != nullptr && splitter->armed()) {
          s = splitter->Route(p);
        } else {
          s = static_cast<size_t>(i % static_cast<uint64_t>(shards));
          // The point that completes the sample is still dealt i mod S;
          // affinity routing starts at the next one.
          if (splitter != nullptr) splitter->Observe(p);
        }
        ++i;
        if (skip) continue;
        queues.Deal(s, p, w);
        const CadenceDue due = cadence.Advance(1);
        if (due.any()) {
          // Quiesce: every shard ingests what it was dealt, then the
          // boundary sees all builders idle. Decodes run on meanwhile;
          // they touch no builder. Don't checkpoint or publish from a
          // failed run.
          TRACE_SPAN("phase1/quiesce");
          queues.Quiesce();
          BIRCH_RETURN_IF_ERROR(queues.status());
          BIRCH_RETURN_IF_ERROR(options.on_boundary(due, i, builders));
        }
      }
      return Status::OK();
    };
    BlockScanStats scan;
    Status deal_status = ScanBlocks(source, pool, nullptr, deal, &scan);
    if (deal_status.ok() && i < options.resume_skip_points) {
      deal_status = Status::InvalidArgument(
          "source ended before the checkpoint's resume offset (" +
          std::to_string(i) + " < " +
          std::to_string(options.resume_skip_points) +
          "); pass the same stream the checkpointed run consumed");
    }
    // A failed run skips Finish(); ~ShardQueues waits for its tasks.
    if (deal_status.ok()) {
      queues.Finish();
      deal_status = queues.status();
    }
    OBS_COUNTER_ADD("phase1/blocks", scan.blocks);
    OBS_COUNTER_ADD("phase1/wait_us", scan.wait_us);
    OBS_COUNTER_ADD("phase1/shard_wait_us", queues.wait_us());
    BIRCH_RETURN_IF_ERROR(deal_status);
  }

  ShardedPhase1Result result;
  for (int s = 0; s < shards; ++s) {
    const Phase1Builder& b = *builders[static_cast<size_t>(s)];
    result.stats += b.stats();
    result.robustness += b.robustness();
    result.disk += b.disk().io_stats();
    result.peak_memory_bytes += b.memory().peak();
    if (obs::Enabled()) {
      obs::Registry::Default()
          .GetGauge("exec/shard" + std::to_string(s) + "/points")
          .Set(static_cast<double>(b.stats().points_added));
    }
  }

  // --- 2. Pairwise fold of the shard trees (CF additivity makes the
  // merge exact at subcluster granularity). Each round merges disjoint
  // pairs in parallel; the destination is the pair member with the
  // larger threshold so absorbed entries never face a tighter bound
  // than the one they were built under. ---
  {
    TRACE_SPAN("phase1/merge_shards");
    std::vector<CfTree*> active;
    active.reserve(static_cast<size_t>(shards));
    for (auto& b : builders) active.push_back(b->mutable_tree());
    while (active.size() > 1) {
      const size_t pairs = active.size() / 2;
      std::vector<CfTree*> next(pairs + active.size() % 2);
      exec::ParallelFor(
          pool, pairs,
          [&](size_t begin, size_t end, size_t) {
            for (size_t j = begin; j < end; ++j) {
              CfTree* a = active[2 * j];
              CfTree* b = active[2 * j + 1];
              CfTree* dst = b->threshold() > a->threshold() ? b : a;
              const CfTree* src = dst == a ? b : a;
              dst->AbsorbTree(*src);
              next[j] = dst;
            }
          },
          /*min_per_chunk=*/1);
      if (active.size() % 2 == 1) next.back() = active.back();
      active = std::move(next);
    }

    // --- 3. Re-home the fold into a tree charged against the *total*
    // memory budget (the per-shard trackers each only carry 1/S). ---
    result.mem =
        std::make_unique<MemoryTracker>(options.phase1.memory_budget_bytes);
    CfTreeOptions merged_opts = options.phase1.tree;
    merged_opts.threshold = active[0]->threshold();
    result.tree = std::make_unique<CfTree>(merged_opts, result.mem.get());
    result.tree->AbsorbTree(*active[0]);
  }

  // --- 4. Threshold-consistency reabsorb pass: Phase 1's own rebuild
  // step, with the shed entries collected instead of spilled. ---
  TRACE_SPAN("phase1/merge_reabsorb");
  std::vector<CfVector> shed;
  if (result.tree->over_budget()) {
    ThresholdHeuristic heuristic(dim, result.stats.points_added);
    BIRCH_RETURN_IF_ERROR(RebuildToFit(
        result.tree.get(), &heuristic, options.phase1, &result.stats,
        [&shed](std::vector<CfVector>& out) {
          shed.insert(shed.end(), std::make_move_iterator(out.begin()),
                      std::make_move_iterator(out.end()));
          return Status::OK();
        }));
  }
  // Entries that were outliers within one shard (or shed just above)
  // get one absorb-only retry against the union.
  auto reabsorb = [&](const CfVector& e) {
    if (!ReabsorbEntry(result.tree.get(), e, &result.stats)) {
      result.final_outliers.push_back(e);
    }
  };
  for (auto& b : builders) {
    for (const CfVector& e : b->final_outliers()) reabsorb(e);
  }
  for (const CfVector& e : shed) reabsorb(e);

  builders.clear();  // release the shard trees and trackers
  result.stats.final_threshold = result.tree->threshold();
  return result;
}

}  // namespace birch
