#include "birch/phase1_parallel.h"

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <iterator>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "birch/kernel/kernel.h"
#include "birch/threshold.h"
#include "exec/channel.h"
#include "exec/parallel_for.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace birch {

namespace {

/// Points per hand-off batch (amortizes channel locking).
constexpr size_t kBatchPoints = 256;
/// Batches buffered per shard channel before the reader blocks.
constexpr size_t kChannelCapacity = 4;

/// Quiesce barrier for a cadence boundary: each worker arrives (after
/// consuming every batch dealt before the sync marker) and parks until
/// released; the dealer waits for all arrivals, snapshots the builders
/// while nothing touches them, then releases. The mutex hand-off also
/// publishes each worker's writes to the dealer and vice versa.
///
/// Shared ownership is load-bearing: the dealer may start the next
/// quiesce before a released worker has fully left Arrive(), so each
/// barrier must be a distinct object that outlives its slowest waiter
/// (a reused stack slot would hand that waiter a recycled, un-released
/// barrier).
struct SyncPoint {
  std::mutex mu;
  std::condition_variable cv;
  const int expected;
  int arrived = 0;
  bool released = false;

  explicit SyncPoint(int n) : expected(n) {}
  void Arrive() {
    std::unique_lock<std::mutex> lock(mu);
    if (++arrived == expected) cv.notify_all();
    cv.wait(lock, [this] { return released; });
  }
  void AwaitAll() {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [this] { return arrived == expected; });
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mu);
    released = true;
    cv.notify_all();
  }
};

/// One hand-off unit: `xs` holds batch points flattened dim-major.
/// A batch with `sync` set carries no points — it tells the worker to
/// park at the barrier.
struct PointBatch {
  std::vector<double> xs;
  std::vector<double> ws;
  std::shared_ptr<SyncPoint> sync;
};

/// Completion latch for the shard workers.
struct ShardLatch {
  std::mutex mu;
  std::condition_variable cv;
  int pending;

  explicit ShardLatch(int n) : pending(n) {}
  void Done() {
    std::lock_guard<std::mutex> lock(mu);
    if (--pending == 0) cv.notify_all();
  }
  void Wait() {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [this] { return pending == 0; });
  }
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
    const size_t best = centers_batch_.NearestSq(p).index;
    return best == static_cast<size_t>(-1) ? 0 : best;
  }

  void Fit() {
    const size_t m = sample_.size() / dim_;
    const size_t c = std::min(centers_target_, m);
    // Seeded init: c distinct sample rows via partial Fisher-Yates.
    std::vector<size_t> idx(m);
    for (size_t j = 0; j < m; ++j) idx[j] = j;
    uint64_t rng = seed_;
    std::vector<std::vector<double>> centers(c);
    for (size_t j = 0; j < c; ++j) {
      size_t pick = j + static_cast<size_t>(SplitMix64(&rng) %
                                            static_cast<uint64_t>(m - j));
      std::swap(idx[j], idx[pick]);
      const double* row = sample_.data() + idx[j] * dim_;
      centers[j].assign(row, row + dim_);
    }
    // Shallow Lloyd: a handful of rounds is plenty for a splitter —
    // it only has to carve the space into coherent regions, not
    // converge.
    std::vector<double> counts(c, 0.0);
    for (int round = 0; round < 4; ++round) {
      centers_batch_.Assign(centers);
      std::fill(counts.begin(), counts.end(), 0.0);
      std::vector<std::vector<double>> sums(
          c, std::vector<double>(dim_, 0.0));
      for (size_t j = 0; j < m; ++j) {
        std::span<const double> row(sample_.data() + j * dim_, dim_);
        size_t best = NearestCenter(row);
        counts[best] += 1.0;
        double* sum = sums[best].data();
        for (size_t k = 0; k < dim_; ++k) sum[k] += row[k];
      }
      for (size_t cc = 0; cc < c; ++cc) {
        if (counts[cc] == 0.0) continue;  // empty: keep the old spot
        for (size_t k = 0; k < dim_; ++k) {
          centers[cc][k] = sums[cc][k] / counts[cc];
        }
      }
    }
    // Greedy LPT pack: heaviest center onto the least-loaded shard, so
    // expected per-shard point mass stays balanced even when cluster
    // sizes are skewed.
    std::vector<size_t> order(c);
    for (size_t j = 0; j < c; ++j) order[j] = j;
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return counts[a] > counts[b];
    });
    std::vector<double> load(shards_, 0.0);
    shard_of_center_.assign(c, 0);
    for (size_t j : order) {
      size_t best = 0;
      for (size_t s = 1; s < shards_; ++s) {
        if (load[s] < load[best]) best = s;
      }
      shard_of_center_[j] = best;
      load[best] += counts[j];
    }
    centers_batch_.Assign(centers);
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
  kernel::CenterBatch centers_batch_;
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
  std::vector<std::unique_ptr<exec::Channel<PointBatch>>> channels;
  std::vector<Status> shard_status(static_cast<size_t>(shards));
  builders.reserve(static_cast<size_t>(shards));
  channels.reserve(static_cast<size_t>(shards));
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
    channels.push_back(
        std::make_unique<exec::Channel<PointBatch>>(kChannelCapacity));
  }

  ShardLatch latch(shards);
  for (int s = 0; s < shards; ++s) {
    Phase1Builder* builder = builders[static_cast<size_t>(s)].get();
    exec::Channel<PointBatch>* ch = channels[static_cast<size_t>(s)].get();
    Status* st = &shard_status[static_cast<size_t>(s)];
    pool->Submit([builder, ch, st, &latch] {
      obs::SpanScope span("phase1/shard");
      PointBatch batch;
      // After a failure keep draining: a stalled consumer would wedge
      // the reader on a full channel.
      while (ch->Pop(&batch)) {
        if (batch.sync != nullptr) {
          // Boundary barrier. Arrive even after a failure — the
          // dealer is waiting on every shard.
          batch.sync->Arrive();
          continue;
        }
        if (!st->ok()) continue;
        // Whole-batch ingest: arithmetic-identical to a per-point Add
        // loop; the dealer validated every point it dealt.
        *st = builder->Ingest(batch.xs, batch.ws.size(), batch.ws);
      }
      if (st->ok()) *st = builder->Finish();
      latch.Done();
    });
  }

  // The splitter routes once armed; during warmup (and with one shard,
  // where routing is moot) point i goes to shard i mod S.
  std::unique_ptr<AffinitySplitter> splitter;
  if (shards > 1) {
    splitter =
        std::make_unique<AffinitySplitter>(dim, shards, options.splitter_seed);
  }

  Status deal_status;
  {
    TRACE_SPAN("phase1/scan");
    std::vector<PointBatch> pending(static_cast<size_t>(shards));
    IngestCadence cadence = options.cadence;
    std::vector<double> p(dim);
    double w = 1.0;
    uint64_t i = 0;
    // Resume: skip what the checkpointed run already consumed; dealing
    // continues at the original index — and the affinity splitter is
    // re-fitted from the skipped prefix — so shard assignment matches
    // the uninterrupted run point for point.
    while (i < options.resume_skip_points && source->Next(p, &w)) {
      if (splitter != nullptr && !splitter->armed()) {
        deal_status = ValidatePoint(p, w, i);
        if (!deal_status.ok()) break;
        splitter->Observe(p);
      }
      ++i;
    }
    if (deal_status.ok()) deal_status = source->status();
    if (deal_status.ok() && i < options.resume_skip_points) {
      deal_status = Status::InvalidArgument(
          "source ended before the checkpoint's resume offset (" +
          std::to_string(i) + " < " +
          std::to_string(options.resume_skip_points) +
          "); pass the same stream the checkpointed run consumed");
    }
    while (deal_status.ok() && source->Next(p, &w)) {
      // The splitter must never see a NaN or infinite coordinate.
      deal_status = ValidatePoint(p, w, i);
      if (!deal_status.ok()) break;
      size_t s;
      if (splitter != nullptr && splitter->armed()) {
        s = splitter->Route(p);
      } else {
        s = static_cast<size_t>(i % static_cast<uint64_t>(shards));
        // The point that completes the sample is still dealt i mod S;
        // affinity routing starts at the next one.
        if (splitter != nullptr) splitter->Observe(p);
      }
      PointBatch& b = pending[s];
      b.xs.insert(b.xs.end(), p.begin(), p.end());
      b.ws.push_back(w);
      if (b.ws.size() >= kBatchPoints) {
        channels[s]->Push(std::move(b));
        b = PointBatch{};
      }
      ++i;
      const CadenceDue due = cadence.Advance(1);
      if (due.any()) {
        // Quiesce: flush partial batches so every dealt point is in its
        // shard's channel, then park all workers at a barrier. FIFO
        // channels guarantee each worker consumed everything before the
        // marker by the time it arrives.
        TRACE_SPAN("phase1/quiesce");
        for (int q = 0; q < shards; ++q) {
          PointBatch& pb = pending[static_cast<size_t>(q)];
          if (!pb.ws.empty()) {
            channels[static_cast<size_t>(q)]->Push(std::move(pb));
            pb = PointBatch{};
          }
        }
        auto sync = std::make_shared<SyncPoint>(shards);
        for (int q = 0; q < shards; ++q) {
          PointBatch marker;
          marker.sync = sync;
          channels[static_cast<size_t>(q)]->Push(std::move(marker));
        }
        sync->AwaitAll();
        // Workers are parked; their builders and statuses are safe to
        // read. Don't checkpoint or publish from a failed run.
        for (const Status& st : shard_status) {
          if (!st.ok()) deal_status = st;
        }
        if (deal_status.ok()) {
          deal_status = options.on_boundary(due, i, builders);
        }
        sync->Release();
      }
    }
    if (deal_status.ok()) deal_status = source->status();
    for (int s = 0; s < shards; ++s) {
      if (!pending[static_cast<size_t>(s)].ws.empty()) {
        channels[static_cast<size_t>(s)]->Push(
            std::move(pending[static_cast<size_t>(s)]));
      }
      channels[static_cast<size_t>(s)]->Close();
    }
    latch.Wait();
  }
  BIRCH_RETURN_IF_ERROR(deal_status);
  for (const Status& st : shard_status) BIRCH_RETURN_IF_ERROR(st);

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
