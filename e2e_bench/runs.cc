// One clustering run per workload (RunOnce in workloads.h). The traced
// variants wrap every public call the benchmark makes in a "bench/..."
// span, record the tracer's events, and derive the per-layer metrics
// from those spans, the public stats structs and the obs export.
#include <malloc.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <random>
#include <thread>

#include "birch/dataset_io.h"
#include "birch/phase1.h"
#include "birch/phase2.h"
#include "obs/export.h"
#include "serving/server.h"
#include "util/timer.h"
#include "workloads.h"

namespace birch {
namespace e2e {

namespace {

using Clock = std::chrono::steady_clock;

/// The Phase-1 configuration BirchClusterer derives from `o`; the
/// phase-driven pipeline must match it field for field to reproduce
/// ClusterDataset bitwise.
Phase1Options Phase1OptionsFor(const BirchOptions& o) {
  Phase1Options p;
  p.tree.dim = o.dim;
  p.tree.page_size = o.resources.page_size;
  p.tree.threshold = o.tree.initial_threshold;
  p.tree.metric = o.tree.metric;
  p.tree.threshold_kind = o.tree.threshold_kind;
  p.tree.merging_refinement = o.tree.merging_refinement;
  p.tree.cf = o.tree.cf;
  p.tree.cf_storage = o.tree.cf_storage;
  p.tree.kernel = o.exec.kernel;
  p.memory_budget_bytes = o.resources.memory_bytes;
  p.disk_budget_bytes = o.resources.disk_bytes;
  p.outlier_handling = o.outliers.handling;
  p.outlier_fraction = o.outliers.fraction;
  p.delay_split = o.outliers.delay_split;
  p.expected_points = o.expected_points;
  p.fault = o.resources.fault;
  p.retry = o.resources.io_retry;
  p.page_codec = o.resources.page_codec;
  p.hot_tier_bytes = o.resources.hot_tier_bytes;
  return p;
}

/// Heap bytes in use (all arenas plus mmapped chunks).
double HeapBytes() {
  struct mallinfo2 mi = mallinfo2();
  return static_cast<double>(mi.uordblks + mi.hblkhd);
}

uint64_t PointsOf(const std::vector<CfVector>& entries) {
  uint64_t n = 0;
  for (const auto& e : entries) {
    n += static_cast<uint64_t>(std::llround(e.n()));
  }
  return n;
}

/// PointSource wrapper that times every Next() call: the dataset_io
/// layer's busy time as the pipeline sees it.
class TimingSource : public PointSource {
 public:
  explicit TimingSource(PointSource* inner) : inner_(inner) {}
  size_t dim() const override { return inner_->dim(); }
  uint64_t SizeHint() const override { return inner_->SizeHint(); }
  bool Next(std::span<double> out, double* weight) override {
    const auto t0 = Clock::now();
    const bool more = inner_->Next(out, weight);
    next_s_ += std::chrono::duration<double>(Clock::now() - t0).count();
    if (more) ++rows_;
    return more;
  }
  Status Rewind() override {
    ++rewinds_;
    return inner_->Rewind();
  }
  double next_s() const { return next_s_; }
  uint64_t rows() const { return rows_; }
  uint64_t rewinds() const { return rewinds_; }

 private:
  PointSource* inner_;
  double next_s_ = 0.0;
  uint64_t rows_ = 0;
  uint64_t rewinds_ = 0;
};

/// Numbers a traced run reads from the public API besides spans and
/// obs counters (absent ones stay 0).
struct Facts {
  double phase1_final_threshold = 0.0;
  CfTreeStats tree_stats;
  size_t leaf_entries_p1 = 0;
  size_t leaf_entries_p2 = 0;
  size_t nodes = 0;
  double heap_bytes = 0.0;
  double charged_bytes = 0.0;
  uint64_t pages_written = 0;
  uint64_t pages_read = 0;
  size_t page_size = 0;
  int phase2_rounds = 0;
  double points_shed = 0.0;
  double next_s = 0.0;
  uint64_t rows = 0;
  uint64_t rewinds = 0;
};

/// obs on + tracer recording for the lifetime of the session.
class TraceSession {
 public:
  TraceSession() {
    obs::SetEnabled(true);
    obs::Tracer::Default().Reset();
    obs::Tracer::Default().StartRecording();
    base_ = obs::CaptureSnapshot();
    cpu0_ = ProcessCpuSeconds();
  }
  ~TraceSession() { Finish(""); }
  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

  /// Stops recording, keeps the run's metric delta and span times, and
  /// writes the Chrome trace to `path` when non-empty.
  void Finish(const std::string& path) {
    if (done_) return;
    done_ = true;
    cpu_s_ = ProcessCpuSeconds() - cpu0_;
    obs::Tracer& tr = obs::Tracer::Default();
    tr.StopRecording();
    delta_ = obs::CaptureSnapshot().DeltaSince(base_);
    spans_ = AttributeSpans(tr.events());
    if (!path.empty()) {
      Status st = tr.WriteChromeTrace(path);
      if (!st.ok()) {
        std::fprintf(stderr, "trace: %s\n", st.ToString().c_str());
      }
    }
    obs::SetEnabled(false);
  }

  double cpu_s() const { return cpu_s_; }
  double Counter(const char* name) const {
    auto it = delta_.counters.find(name);
    return it == delta_.counters.end() ? 0.0
                                       : static_cast<double>(it->second);
  }
  double Gauge(const char* name) const {
    auto it = delta_.gauges.find(name);
    return it == delta_.gauges.end() ? 0.0 : it->second;
  }
  double HistogramSum(const char* name) const {
    auto it = delta_.histograms.find(name);
    return it == delta_.histograms.end() ? 0.0 : it->second.sum;
  }
  double Inclusive(std::initializer_list<const char*> names) const {
    return SumSpans(names, &SpanTime::inclusive_s);
  }
  double Self(std::initializer_list<const char*> names) const {
    return SumSpans(names, &SpanTime::self_s);
  }

 private:
  double SumSpans(std::initializer_list<const char*> names,
                  double SpanTime::*field) const {
    double s = 0.0;
    for (const char* n : names) {
      auto it = spans_.find(n);
      if (it != spans_.end()) s += it->second.*field;
    }
    return s;
  }

  obs::MetricsSnapshot base_;
  obs::MetricsSnapshot delta_;
  std::map<std::string, SpanTime> spans_;
  double cpu0_ = 0.0;
  double cpu_s_ = 0.0;
  bool done_ = false;
};

/// The per-layer metrics of a traced run (names as in BENCHMARK.json).
void FillLayerMetrics(const TraceSession& t, const Facts& f, size_t n_points,
                      size_t k, bool sharded, Outcome* out) {
  const double n = static_cast<double>(n_points);
  auto set = [out](const char* name, double value, const char* unit) {
    out->layer[name] = {value, unit};
  };
  auto count = [&set](const char* name, double value) {
    set(name, value, "count");
  };

  set("dataset_io.next_s", f.next_s, "s");
  count("dataset_io.rows", static_cast<double>(f.rows));
  count("dataset_io.rewinds", static_cast<double>(f.rewinds));

  set("phase1.s", t.Inclusive({"bench/phase1", "birch/phase1"}), "s");
  set("phase1.insert_s",
      t.Self({"bench/phase1", "birch/phase1", "bench/add_batch",
              "phase1/shard"}),
      "s");
  set("phase1.rebuild_s", t.Inclusive({"phase1/rebuild"}), "s");
  count("phase1.rebuilds", t.Counter("phase1/rebuilds"));
  set("phase1.reabsorb_s", t.Inclusive({"phase1/reabsorb"}), "s");
  count("phase1.reabsorb_cycles", t.Counter("phase1/reabsorb_cycles"));
  count("phase1.delay_spills", t.Counter("phase1/delay_spills"));
  count("phase1.outlier_spills", t.Counter("phase1/outlier_spills"));
  count("phase1.outliers_reabsorbed",
        t.Counter("phase1/outliers_reabsorbed"));
  set("phase1.finish_s", t.Inclusive({"phase1/finish"}), "s");
  set("phase1.final_threshold", f.phase1_final_threshold, "distance");

  const double inserts = t.Counter("tree/inserts");
  count("cf_tree.inserts", inserts);
  set("cf_tree.absorb_ratio",
      f.tree_stats.inserts == 0
          ? 0.0
          : static_cast<double>(f.tree_stats.absorbed) /
                static_cast<double>(f.tree_stats.inserts),
      "ratio");
  count("cf_tree.leaf_splits", t.Counter("tree/leaf_splits"));
  count("cf_tree.nonleaf_splits", t.Counter("tree/nonleaf_splits"));
  count("cf_tree.merge_refinements", t.Counter("tree/merge_refinements"));
  count("cf_tree.distance_comps_per_insert",
        inserts == 0.0 ? 0.0 : t.Counter("tree/distance_comps") / inserts);
  count("cf_tree.leaf_entries", static_cast<double>(f.leaf_entries_p1));
  count("cf_tree.nodes", static_cast<double>(f.nodes));
  set("cf_tree.heap_bytes", f.heap_bytes, "B");
  set("cf_tree.heap_per_charged",
      f.charged_bytes > 0.0 ? f.heap_bytes / f.charged_bytes : 0.0, "ratio");

  count("pagestore.pages_written", static_cast<double>(f.pages_written));
  count("pagestore.pages_read", static_cast<double>(f.pages_read));
  set("pagestore.bytes_per_point",
      static_cast<double>(f.pages_written * f.page_size) / n, "B");
  set("pagestore.drain_s", t.Inclusive({"spill/drain"}), "s");

  set("phase2.s", t.Inclusive({"bench/phase2", "birch/phase2"}), "s");
  count("phase2.rounds", static_cast<double>(f.phase2_rounds));
  count("phase2.entries_in", static_cast<double>(f.leaf_entries_p1));
  count("phase2.entries_out", static_cast<double>(f.leaf_entries_p2));
  set("phase2.points_shed", f.points_shed, "points");

  set("global_cluster.s", t.Inclusive({"phase3/global"}), "s");
  count("global_cluster.inputs", t.Counter("phase3/input_entries"));

  // The streaming re-scan (ClusterSource) counts no passes of its own;
  // each of its passes rewinds the source once.
  const double passes =
      t.Counter("phase4/passes") + static_cast<double>(f.rewinds);
  set("refine.s", t.Inclusive({"bench/refine", "birch/phase4"}), "s");
  count("refine.passes", passes);
  count("refine.point_center_pairs", passes * n * static_cast<double>(k));
  count("refine.label_changes", t.Counter("phase4/label_changes"));

  count("exec.shards", t.Gauge("exec/shards"));
  set("exec.scan_s", t.Inclusive({"phase1/scan"}), "s");
  set("exec.merge_s",
      t.Inclusive({"phase1/merge_shards", "phase1/merge_reabsorb"}), "s");
  count("exec.shard_rebuilds", sharded ? t.Counter("phase1/rebuilds") : 0.0);
  set("process.cpu_per_wall", t.cpu_s() / out->cluster_s, "ratio");

  count("serving.publishes", t.Counter("serving/publishes"));
  set("serving.publish_s", t.HistogramSum("serving/publish_us") * 1e-6, "s");
  set("serving.snapshot_bytes", t.Gauge("serving/snapshot_bytes"), "B");
  set("serving.knn_p50_us", out->knn_latency.QuantileUs(0.5), "us");
  set("serving.epoch_lag_points", out->epoch_lag_points, "points");
  set("serving.ingest_stall_max_s", out->ingest_stall_max_s, "s");
  set("serving.assign_qps",
      out->reader_seconds > 0.0
          ? static_cast<double>(out->queries_attempted) / out->reader_seconds
          : 0.0,
      "1/s");
  set("serving.assign_p50_us", out->assign_latency.QuantileUs(0.5), "us");
  set("serving.assign_p99_us", out->assign_latency.QuantileUs(0.99), "us");

  const double saves = t.Counter("checkpoint/writes");
  count("checkpoint.saves", saves);
  set("checkpoint.save_s", t.HistogramSum("checkpoint/save_us") * 1e-6, "s");
  set("checkpoint.bytes",
      saves > 0.0 ? t.Counter("checkpoint/bytes_written") / saves : 0.0, "B");

  // Self time per layer, summed over threads; what the calling thread
  // spent inside the root span but outside every layer's span is the
  // unattributed remainder.
  set("phase1.self_s",
      t.Self({"bench/phase1", "birch/phase1", "bench/add_batch",
              "phase1/rebuild", "phase1/reabsorb", "phase1/finish",
              "phase1/shard", "phase1/freeze"}),
      "s");
  set("cf_tree.self_s", t.Self({"tree/rebuild"}), "s");
  set("pagestore.self_s", t.Self({"spill/drain", "spill/peek"}), "s");
  set("phase2.self_s",
      t.Self({"bench/phase2", "birch/phase2", "phase2/condense"}), "s");
  set("global_cluster.self_s",
      t.Self({"bench/global_cluster", "birch/phase3", "phase3/global"}), "s");
  set("refine.self_s",
      t.Self({"bench/refine", "birch/phase4", "phase4/refine"}), "s");
  set("exec.self_s",
      t.Self({"phase1/scan", "phase1/quiesce", "phase1/merge_shards",
              "phase1/merge_reabsorb"}),
      "s");
  set("checkpoint.self_s", t.Self({"checkpoint/save"}), "s");
  set("trace.unattributed_s", t.Self({"bench/cluster"}), "s");
}

void TakeResult(BirchResult&& r, Outcome* out) {
  out->labels = std::move(r.labels);
  out->clusters = std::move(r.clusters);
  out->outlier_points = r.outlier_points;
  out->peak_memory_bytes = r.peak_memory_bytes;
}

void FactsFromResult(const BirchResult& r, Facts* f) {
  f->phase1_final_threshold = r.phase1.final_threshold;
  f->leaf_entries_p1 = r.leaf_entries_after_phase1;
  f->leaf_entries_p2 = r.leaf_entries_after_phase2;
  f->pages_written = r.disk_pages_written;
  f->pages_read = r.disk_pages_read;
  f->phase2_rounds = r.phase2.rounds;
}

// --- paper_2d / blobs_16d -------------------------------------------

Status RunInMemoryUntraced(const Dataset& data, const BirchOptions& options,
                           Outcome* out) {
  Timer timer;
  auto r_or = ClusterDataset(data, options);
  out->cluster_s = timer.Seconds();
  if (!r_or.ok()) return r_or.status();
  TakeResult(std::move(r_or).ValueOrDie(), out);
  return Status::OK();
}

/// Phases 1-4 through their own public entry points, in the order and
/// with the settings BirchClusterer uses for ClusterDataset.
Status RunPhaseDriven(const Dataset& data, const BirchOptions& options,
                      Outcome* out, Facts* f) {
  BirchOptions o = options;
  o.expected_points = data.size();
  Timer timer;
  obs::SpanScope root("bench/cluster");

  const double heap0 = HeapBytes();
  Phase1Builder builder(Phase1OptionsFor(o));
  {
    obs::SpanScope span("bench/phase1");
    BIRCH_RETURN_IF_ERROR(
        builder.AddBatch(data.Values(), data.size(), data.Weights()));
    BIRCH_RETURN_IF_ERROR(builder.Finish());
  }
  f->heap_bytes = HeapBytes() - heap0;
  f->charged_bytes = static_cast<double>(builder.memory().used());
  CfTree* tree = builder.mutable_tree();
  f->tree_stats = tree->stats();
  f->leaf_entries_p1 = tree->leaf_entry_count();
  f->nodes = tree->node_count();
  f->phase1_final_threshold = builder.stats().final_threshold;
  f->pages_written = builder.disk().io_stats().pages_written;
  f->pages_read = builder.disk().io_stats().pages_read;

  std::vector<CfVector> shed;
  {
    obs::SpanScope span("bench/phase2");
    if (o.global_phase.use_phase2 &&
        tree->leaf_entry_count() > o.global_phase.phase2_target_entries) {
      Phase2Options p2;
      p2.target_leaf_entries = o.global_phase.phase2_target_entries;
      if (o.outliers.handling && tree->leaf_entry_count() > 0) {
        const double avg = tree->TreeSummary().n() /
                           static_cast<double>(tree->leaf_entry_count());
        p2.outlier_weight_threshold = o.outliers.fraction * avg;
      }
      Phase2Stats p2s;
      BIRCH_RETURN_IF_ERROR(CondenseTree(tree, p2, &shed, &p2s));
      f->phase2_rounds = p2s.rounds;
    }
  }
  f->leaf_entries_p2 = tree->leaf_entry_count();
  f->points_shed = static_cast<double>(PointsOf(shed));

  std::vector<CfVector> clusters;
  {
    obs::SpanScope span("bench/global_cluster");
    std::vector<CfVector> entries;
    tree->CollectLeafEntries(&entries);
    GlobalClusterOptions g;
    g.k = o.k;
    g.distance_limit = o.global_phase.distance_limit;
    g.algorithm = o.global_phase.algorithm;
    g.metric = o.global_phase.metric;
    g.seed = o.seed;
    g.kernel = o.exec.kernel;
    auto c_or = GlobalCluster(entries, g);
    if (!c_or.ok()) return c_or.status();
    clusters = std::move(c_or.value().clusters);
  }
  {
    obs::SpanScope span("bench/refine");
    RefineOptions r;
    r.passes = std::max(1, o.refine.passes);
    r.stop_when_stable = true;
    r.outlier_distance = o.refine.outlier_distance;
    r.kernel = o.exec.kernel;
    auto r_or = RefineClusters(data, clusters, r);
    if (!r_or.ok()) return r_or.status();
    RefineResult& refined = r_or.value();
    out->labels = std::move(refined.labels);
    if (o.refine.passes > 0) {
      // Keep the refined clusters that are not empty, as Finish() does.
      std::vector<int> remap(refined.clusters.size(), -1);
      clusters.clear();
      for (size_t c = 0; c < refined.clusters.size(); ++c) {
        if (refined.clusters[c].empty()) continue;
        remap[c] = static_cast<int>(clusters.size());
        clusters.push_back(refined.clusters[c]);
      }
      for (int& l : out->labels) {
        if (l >= 0) l = remap[static_cast<size_t>(l)];
      }
    }
  }
  out->clusters = std::move(clusters);
  out->outlier_points = PointsOf(builder.final_outliers()) + PointsOf(shed);
  out->peak_memory_bytes = builder.memory().peak();
  root.End();
  out->cluster_s = timer.Seconds();
  return Status::OK();
}

// --- csv_2d_t3 ------------------------------------------------------

Status RunCsv(const std::string& path, const BirchOptions& options,
              bool traced, Outcome* out, Facts* f) {
  Timer timer;
  obs::SpanScope root("bench/cluster");
  auto src_or = CsvPointSource::Open(path);
  if (!src_or.ok()) return src_or.status();
  std::unique_ptr<CsvPointSource> csv = std::move(src_or).ValueOrDie();
  TimingSource timing(csv.get());
  PointSource* src = traced ? static_cast<PointSource*>(&timing) : csv.get();
  auto r_or = ClusterSource(src, options);
  root.End();
  out->cluster_s = timer.Seconds();
  if (!r_or.ok()) return r_or.status();
  BirchResult r = std::move(r_or).ValueOrDie();
  FactsFromResult(r, f);
  f->tree_stats = r.tree_stats;
  f->nodes = r.tree_nodes;
  // Phase 2 did not run unless it took rounds; when it did, the
  // clusterer API does not split outlier points between the phases.
  f->points_shed = r.phase2.rounds == 0 ? 0.0 : -1.0;
  f->next_s = timing.next_s();
  f->rows = timing.rows();
  f->rewinds = timing.rewinds();
  TakeResult(std::move(r), out);
  return Status::OK();
}

// --- serve_2d -------------------------------------------------------

/// One closed-loop reader: 15 of 16 queries are Assign, 1 is
/// KNearestCentroids(k=5), on uniformly drawn rows. It starts counting
/// once the first epoch exists, times every call on its own clock, and
/// every 4096 queries checks that a pinned epoch answers a repeated
/// query bitwise-identically. Cache-line aligned: each reader thread
/// updates its own histograms on every query.
struct alignas(64) Reader {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool pinned_ok = true;
  bool started = false;
  Clock::time_point first;
  LatencyHistogram assign;
  LatencyHistogram knn;

  void Run(const serving::BirchServer* server, const Dataset& data,
           uint64_t seed, Corrupt corrupt, const std::atomic<bool>* stop) {
    while (!stop->load(std::memory_order_relaxed) && server->epoch() == 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    if (stop->load(std::memory_order_relaxed)) return;
    started = true;
    first = Clock::now();
    std::mt19937_64 rng(seed);
    std::uniform_int_distribution<size_t> pick(0, data.size() - 1);
    kernel::Workspace ws;
    uint64_t n = 0, bad = 0;
    while (!stop->load(std::memory_order_relaxed)) {
      auto row = data.Row(pick(rng));
      ++n;
      bool ok = false;
      const auto t0 = Clock::now();
      if (n % 16 == 0) {
        auto r = server->KNearestCentroids(row, 5);
        const auto t1 = Clock::now();
        knn.Record(std::chrono::duration<double, std::nano>(t1 - t0).count());
        ok = r.ok() && !r.value().empty();
      } else {
        auto r = server->Assign(row);
        const auto t1 = Clock::now();
        assign.Record(
            std::chrono::duration<double, std::nano>(t1 - t0).count());
        ok = r.ok() && r.value().cluster_id >= 0;
      }
      if (!ok) ++bad;
      if (n % 4096 == 0) {
        auto epoch = server->Acquire();
        serving::AssignResult a = epoch->Assign(row, &ws);
        serving::AssignResult b = epoch->Assign(row, &ws);
        if (corrupt == Corrupt::kEpoch) {
          b.distance = std::nextafter(b.distance, 1e300);
        }
        if (std::memcmp(&a.distance, &b.distance, sizeof(double)) != 0 ||
            a.leaf_entry != b.leaf_entry || a.cluster_id != b.cluster_id) {
          pinned_ok = false;
        }
      }
    }
    attempted = n;
    failed = bad;
  }
};

Status RunServe(const Dataset& data, const BirchOptions& options,
                uint64_t seed, bool traced, Corrupt corrupt, Outcome* out,
                Facts* f) {
  constexpr size_t kBatch = 4096;
  constexpr int kReaders = 2;
  std::atomic<bool> stop{false};
  std::vector<Reader> readers(kReaders);
  std::vector<std::thread> threads;
  std::unique_ptr<BirchClusterer> clusterer;
  Status status;
  BirchResult result;
  {
    Timer timer;
    obs::SpanScope root("bench/cluster");
    const double heap0 = HeapBytes();
    auto c_or = BirchClusterer::Create(options);
    if (!c_or.ok()) return c_or.status();
    clusterer = std::move(c_or).ValueOrDie();
    const serving::BirchServer* server = clusterer->server();
    for (int r = 0; r < kReaders; ++r) {
      threads.emplace_back([&, r] {
        readers[r].Run(server, data, seed * 16 + static_cast<uint64_t>(r),
                       corrupt, &stop);
      });
    }
    const size_t dim = data.dim();
    double lag_sum = 0.0;
    size_t batches = 0;
    for (size_t off = 0; off < data.size() && status.ok(); off += kBatch) {
      const size_t n = std::min(kBatch, data.size() - off);
      const auto t0 = Clock::now();
      {
        obs::SpanScope span("bench/add_batch");
        status = clusterer->AddBatch(
            data.Values().subspan(off * dim, n * dim), n);
      }
      out->ingest_stall_max_s = std::max(
          out->ingest_stall_max_s,
          std::chrono::duration<double>(Clock::now() - t0).count());
      auto epoch = server->Acquire();
      lag_sum += static_cast<double>(off + n) -
                 (epoch ? static_cast<double>(epoch->points_ingested()) : 0.0);
      ++batches;
    }
    out->epoch_lag_points = batches > 0 ? lag_sum / batches : 0.0;
    if (status.ok()) {
      const CfTree& tree = clusterer->tree();
      f->heap_bytes = HeapBytes() - heap0;
      f->charged_bytes = static_cast<double>(tree.memory()->used());
      f->tree_stats = tree.stats();
      f->nodes = tree.node_count();
      auto r_or = clusterer->Finish();
      if (r_or.ok()) {
        result = std::move(r_or).ValueOrDie();
      } else {
        status = r_or.status();
      }
    }
    root.End();
    out->cluster_s = timer.Seconds();
  }
  stop.store(true, std::memory_order_relaxed);
  const auto stopped = Clock::now();
  for (auto& t : threads) t.join();
  BIRCH_RETURN_IF_ERROR(status);

  bool started = false;
  Clock::time_point first = stopped;
  for (const Reader& r : readers) {
    out->queries_attempted += r.attempted;
    out->queries_failed += r.failed;
    out->assign_latency.Merge(r.assign);
    out->knn_latency.Merge(r.knn);
    out->pinned_epoch_ok = out->pinned_epoch_ok && r.pinned_ok;
    if (r.started) {
      first = started ? std::min(first, r.first) : r.first;
      started = true;
    }
  }
  out->reader_seconds = std::chrono::duration<double>(stopped - first).count();

  // Ingest has stopped: the server's epoch is fixed, so a pinned epoch
  // and the server must agree bitwise on every query.
  const serving::BirchServer* server = clusterer->server();
  auto epoch = server->Acquire();
  kernel::Workspace ws;
  const size_t step = std::max<size_t>(1, data.size() / 2000);
  for (size_t i = 0; epoch != nullptr && i < data.size(); i += step) {
    serving::AssignResult a = epoch->Assign(data.Row(i), &ws);
    auto b_or = server->Assign(data.Row(i));
    if (!b_or.ok()) {
      out->pinned_epoch_ok = false;
      break;
    }
    serving::AssignResult b = b_or.value();
    if (corrupt == Corrupt::kEpoch) {
      b.distance = std::nextafter(b.distance, 1e300);
    }
    if (std::memcmp(&a.distance, &b.distance, sizeof(double)) != 0 ||
        a.leaf_entry != b.leaf_entry || a.cluster_id != b.cluster_id) {
      out->pinned_epoch_ok = false;
    }
  }
  if (epoch == nullptr) out->pinned_epoch_ok = false;

  FactsFromResult(result, f);
  if (traced && result.phase2.rounds > 0 && epoch != nullptr) {
    // Finish() publishes its last epoch between Phases 1 and 2, so the
    // epoch holds the Phase-1 tree and the live tree the condensed one.
    f->points_shed = static_cast<double>(PointsOf(epoch->LeafEntries())) -
                     clusterer->tree().TreeSummary().n();
  }
  TakeResult(std::move(result), out);
  return Status::OK();
}

}  // namespace

Status RunOnce(Workload w, const Inputs& in, const BirchOptions& options,
               uint64_t seed, bool traced, Corrupt corrupt,
               const std::string& trace_path, Outcome* out) {
  const Dataset& data = in.gen.data;
  Facts f;
  f.page_size = options.resources.page_size;
  std::unique_ptr<TraceSession> session;
  if (traced) session = std::make_unique<TraceSession>();
  Status st;
  switch (w) {
    case Workload::kPaper2d:
    case Workload::kBlobs16d:
      st = traced ? RunPhaseDriven(data, options, out, &f)
                  : RunInMemoryUntraced(data, options, out);
      break;
    case Workload::kCsv2dT3:
      st = RunCsv(in.csv_path, options, traced, out, &f);
      break;
    case Workload::kServe2d:
      st = RunServe(data, options, seed, traced, corrupt, out, &f);
      break;
  }
  if (session != nullptr) {
    session->Finish(trace_path);
    if (st.ok()) {
      FillLayerMetrics(*session, f, data.size(),
                       static_cast<size_t>(options.k),
                       options.exec.num_threads > 0, out);
    }
  }
  return st;
}

}  // namespace e2e
}  // namespace birch
