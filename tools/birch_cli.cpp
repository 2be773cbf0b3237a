// birch_cli: cluster a CSV of numeric rows from the command line.
//
//   birch_cli --input points.csv --k 10 [--output labels.csv]
//             [--memory-kb 80] [--page 1024] [--metric D2]
//             [--threshold 0] [--algorithm hc|kmeans|medoids]
//             [--refine-passes 1] [--discard-distance 0]
//             [--no-outliers] [--no-delay-split] [--seed 42]
//             [--threads 0]
//             [--checkpoint ckpt.birch --checkpoint-every 100000]
//             [--restore ckpt.birch]
//
// Prints one summary line per cluster; with --output, writes a CSV of
// per-row cluster labels (-1 = outlier). --checkpoint periodically
// saves the live Phase-1 state; --restore resumes from such a file,
// re-reading the SAME input (already-ingested rows are skipped).
#include <atomic>
#include <chrono>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <random>
#include <thread>

#include "birch/birch.h"
#include "birch/dataset_io.h"
#include "birch/run_report.h"
#include "eval/quality.h"
#include "obs/export.h"
#include "obs/sampler.h"
#include "obs/trace.h"
#include "serving/server.h"
#include "util/flags.h"
#include "util/table.h"
#include "util/timer.h"

namespace birch {
namespace {

StatusOr<DistanceMetric> ParseMetric(const std::string& name) {
  for (auto m : {DistanceMetric::kD0, DistanceMetric::kD1,
                 DistanceMetric::kD2, DistanceMetric::kD3,
                 DistanceMetric::kD4}) {
    if (name == MetricName(m)) return m;
  }
  return Status::InvalidArgument("unknown metric '" + name +
                                 "' (want D0..D4)");
}

StatusOr<CfRepresentation> ParseCfRep(const std::string& name) {
  for (auto r : {CfRepresentation::kClassic, CfRepresentation::kBetula}) {
    if (name == CfRepresentationName(r)) return r;
  }
  return Status::InvalidArgument("unknown CF representation '" + name +
                                 "' (want classic|betula)");
}

StatusOr<GlobalAlgorithm> ParseAlgorithm(const std::string& name) {
  if (name == "hc") return GlobalAlgorithm::kHierarchical;
  if (name == "kmeans") return GlobalAlgorithm::kKMeans;
  if (name == "medoids") return GlobalAlgorithm::kMedoids;
  return Status::InvalidArgument("unknown algorithm '" + name +
                                 "' (want hc|kmeans|medoids)");
}

int Run(int argc, char** argv) {
  Flags flags = Flags::Parse(argc, argv);
  Status known = flags.CheckKnown(
      {"input", "output", "k", "distance-limit", "memory-kb", "disk-kb",
       "page", "metric", "cf", "threshold", "algorithm",
       "refine-passes",
       "discard-distance", "no-outliers", "no-delay-split", "stream",
       "seed", "threads", "splitter-seed",
       "fault-read", "fault-write", "fault-lose",
       "fault-flip", "fault-seed", "io-attempts", "metrics", "metrics-csv",
       "trace-out", "report", "sample-every-ms", "checkpoint",
       "checkpoint-every", "restore", "publish-every", "serve-seconds",
       "serve-readers", "help"});
  if (!known.ok() || flags.Has("help") || !flags.Has("input") ||
      (!flags.Has("k") && !flags.Has("distance-limit"))) {
    if (!known.ok()) std::fprintf(stderr, "%s\n", known.ToString().c_str());
    std::fprintf(stderr,
                 "usage: birch_cli --input points.csv (--k K | "
                 "--distance-limit D) [--output labels.csv] "
                 "[--memory-kb 80] [--page 1024] [--metric D0..D4] "
                 "[--cf classic|betula] "
                 "[--threshold T0] [--algorithm hc|kmeans|medoids] "
                 "[--refine-passes N] [--discard-distance D] "
                 "[--no-outliers] [--no-delay-split] [--stream] "
                 "[--seed S] [--threads N] "
                 "[--splitter-seed S]\n"
                 "       [--disk-kb R] "
                 "[--fault-read P] [--fault-write P] [--fault-lose P] "
                 "[--fault-flip P] [--fault-seed S] [--io-attempts N]\n"
                 "  --stream clusters the file without loading it into "
                 "memory (no per-row labels); a bad\n  row fails the "
                 "run naming its line, as without --stream. A pipe "
                 "(say <(zcat x.csv.gz))\n  cannot be re-read, so "
                 "--stream over one skips the Phase-4 refinement.\n"
                 "  --cf betula uses the numerically stable BETULA "
                 "(N, mean, S) CF representation\n"
                 "  (use for data far from the origin); every CF is "
                 "stored as doubles.\n"
                 "  A numeric flag's whole value must parse and be in "
                 "range (a kB size up to\n"
                 "  SIZE_MAX / 1024, an int option up to INT_MAX, "
                 "--threads and --serve-readers\n"
                 "  up to 256); otherwise the run exits 2 naming the "
                 "flag.\n"
                 "  --threads N shards Phase 1 across N workers and "
                 "parallelizes Phases 3/4\n"
                 "  (0 = serial, the default; deterministic for a fixed "
                 "seed, thread count, and\n"
                 "  splitter seed); points route to shards by spatial "
                 "region via a sampled\n"
                 "  splitter seeded by --splitter-seed. With --stream "
                 "the workers also decode\n"
                 "  the file's blocks, in Phase 1 and in the Phase-4 "
                 "re-scan (which they label\n"
                 "  too); rows are still dealt to shards and folded into "
                 "the clusters in file\n  order.\n"
                 "  --disk-kb 0 disables the outlier disk (in-tree "
                 "fallback); --fault-* inject seeded\n"
                 "  disk faults (probabilities in [0,1]) retried up to "
                 "--io-attempts times.\n"
                 "  --metrics prints the instrumentation summary; "
                 "--metrics-csv FILE writes it as CSV;\n"
                 "  --trace-out FILE records a Chrome trace_event JSON "
                 "(chrome://tracing, ui.perfetto.dev);\n"
                 "  --report FILE writes the versioned JSON run-report "
                 "manifest (options fingerprint,\n"
                 "  phase timings, metrics with quantiles, time series) — "
                 "on failure too;\n"
                 "  --sample-every-ms N samples tree/memory/I-O "
                 "trajectories every N ms into the\n"
                 "  report and trace (0 = off, the default).\n"
                 "  --checkpoint FILE --checkpoint-every N save the live "
                 "Phase-1 state every N points\n"
                 "  (atomic replace); --restore FILE resumes from such a "
                 "checkpoint — pass the SAME\n"
                 "  input file and the already-ingested rows are skipped "
                 "(options must match the\n"
                 "  checkpointed run's dim/page/metric/threshold kind); "
                 "with --stream the resumed\n"
                 "  run refines (Phase 4) like an uninterrupted one.\n"
                 "  --publish-every N publishes a serving snapshot epoch "
                 "every N points (the\n"
                 "  queryable point->cluster serving tier; see "
                 "DESIGN.md §13); --serve-seconds S\n"
                 "  with --serve-readers R (default 4) then drives R "
                 "reader threads of\n"
                 "  Assign(point) load for S seconds after the run and "
                 "prints QPS and latency\n"
                 "  quantiles (not with --stream).\n");
    return flags.Has("help") ? 0 : 2;
  }
  const bool stream = flags.GetBool("stream", false);
  if (stream && flags.Has("output")) {
    std::fprintf(stderr,
                 "--stream computes no per-row labels; drop --output\n");
    return 2;
  }

  // Every numeric flag is read here, before the input is opened or a
  // trace or sampler starts: the first malformed or out-of-range value
  // exits 2 naming its flag. An int-typed option holds at most INT_MAX,
  // and a kB size at most SIZE_MAX / 1024, so that * 1024 cannot wrap.
  Status bad_flag = Status::OK();
  auto int_flag = [&](const char* name, int64_t fallback,
                      int64_t lo = INT_MIN, int64_t hi = INT_MAX) {
    StatusOr<int64_t> v = flags.GetInt(name, fallback, lo, hi);
    if (!v.ok() && bad_flag.ok()) bad_flag = v.status();
    return v.ok() ? v.value() : fallback;
  };
  auto double_flag = [&](const char* name, double fallback) {
    StatusOr<double> v = flags.GetDouble(name, fallback);
    if (!v.ok() && bad_flag.ok()) bad_flag = v.status();
    return v.ok() ? v.value() : fallback;
  };
  auto kb_flag = [&](const char* name, size_t fallback_kb) {
    return static_cast<size_t>(
               int_flag(name, static_cast<int64_t>(fallback_kb), 0,
                        static_cast<int64_t>(SIZE_MAX / 1024))) *
           1024;
  };
  auto seed_flag = [&](const char* name, uint64_t fallback) {
    return static_cast<uint64_t>(int_flag(
        name, static_cast<int64_t>(fallback), INT64_MIN, INT64_MAX));
  };

  BirchOptions o;
  o.k = static_cast<int>(int_flag("k", 0));
  o.global_phase.distance_limit = double_flag("distance-limit", 0.0);
  o.resources.memory_bytes = kb_flag("memory-kb", 80);
  o.resources.disk_bytes =
      kb_flag("disk-kb", o.resources.memory_bytes / 5 / 1024);
  o.resources.fault.read_transient_rate = double_flag("fault-read", 0.0);
  o.resources.fault.write_transient_rate = double_flag("fault-write", 0.0);
  o.resources.fault.page_loss_rate = double_flag("fault-lose", 0.0);
  o.resources.fault.bit_flip_rate = double_flag("fault-flip", 0.0);
  o.resources.fault.seed = seed_flag("fault-seed", o.resources.fault.seed);
  o.resources.io_retry.max_attempts = static_cast<int>(
      int_flag("io-attempts", o.resources.io_retry.max_attempts));
  o.resources.page_size =
      static_cast<size_t>(int_flag("page", 1024, 0, INT64_MAX));
  o.tree.initial_threshold = double_flag("threshold", 0.0);
  o.refine.passes = static_cast<int>(int_flag("refine-passes", 1));
  o.refine.outlier_distance = double_flag("discard-distance", 0.0);
  o.outliers.handling = !flags.GetBool("no-outliers", false);
  o.outliers.delay_split = !flags.GetBool("no-delay-split", false);
  o.seed = seed_flag("seed", 42);
  o.exec.num_threads = static_cast<int>(
      int_flag("threads", 0, 0, BirchOptions::kMaxThreads));
  o.exec.splitter_seed = seed_flag("splitter-seed", o.exec.splitter_seed);
  o.serving.publish_every_n =
      static_cast<uint64_t>(int_flag("publish-every", 0, 0, INT64_MAX));
  const double serve_seconds = double_flag("serve-seconds", 0.0);
  // Each reader is a thread: capped like --threads.
  const int64_t serve_readers =
      int_flag("serve-readers", 4, 1, BirchOptions::kMaxThreads);
  const int64_t sample_ms = int_flag("sample-every-ms", 0, 0);
  if (flags.Has("checkpoint")) {
    o.resources.checkpoint_path = flags.GetString("checkpoint");
    o.resources.checkpoint_every_n = static_cast<uint64_t>(
        int_flag("checkpoint-every", 0, 1, INT64_MAX));
  }
  if (!bad_flag.ok()) {
    std::fprintf(stderr, "%s\n", bad_flag.message().c_str());
    return 2;
  }

  if (serve_seconds < 0.0) {
    std::fprintf(stderr, "--serve-seconds must be >= 0\n");
    return 2;
  }
  if (serve_seconds > 0.0 && (o.serving.publish_every_n == 0 || stream)) {
    std::fprintf(stderr,
                 "--serve-seconds needs --publish-every N > 0 and an "
                 "in-memory input (no --stream)\n");
    return 2;
  }
  if (flags.Has("checkpoint") != flags.Has("checkpoint-every")) {
    std::fprintf(stderr,
                 "--checkpoint FILE and --checkpoint-every N go together\n");
    return 2;
  }

  auto metric_or = ParseMetric(flags.GetString("metric", "D2"));
  if (!metric_or.ok()) {
    std::fprintf(stderr, "%s\n", metric_or.status().ToString().c_str());
    return 2;
  }
  o.tree.metric = metric_or.value();
  o.global_phase.metric = metric_or.value();
  auto cf_or = ParseCfRep(flags.GetString("cf", "classic"));
  if (!cf_or.ok()) {
    std::fprintf(stderr, "%s\n", cf_or.status().ToString().c_str());
    return 2;
  }
  o.tree.cf = cf_or.value();
  auto algo_or = ParseAlgorithm(flags.GetString("algorithm", "hc"));
  if (!algo_or.ok()) {
    std::fprintf(stderr, "%s\n", algo_or.status().ToString().c_str());
    return 2;
  }
  o.global_phase.algorithm = algo_or.value();

  if (flags.Has("trace-out")) obs::Tracer::Default().StartRecording();

  // Registry state before the run: the failure path has no
  // BirchResult::metrics delta, so the CLI computes its own.
  obs::MetricsSnapshot cli_baseline = obs::CaptureSnapshot();

  // The CLI owns its sampler (rather than wiring o.obs) so a failed
  // run's trajectory still exists for the report.
  std::unique_ptr<obs::StatsSampler> sampler;
  if (sample_ms > 0) {
    obs::SamplerOptions so;
    so.sample_every_ms = static_cast<uint64_t>(sample_ms);
    sampler = std::make_unique<obs::StatsSampler>(so);
    RegisterBirchProbes(sampler.get());
    Status st = sampler->Start();
    if (!st.ok()) {
      std::fprintf(stderr, "sampler: %s\n", st.ToString().c_str());
      return 2;
    }
  }

  Dataset data(1);
  StatusOr<BirchResult> result_or = Status::Internal("unreachable");
  // Kept alive past the run when --serve-seconds is set: the serving
  // tier lives on the clusterer, and the serve phase queries it after
  // clustering completes.
  std::unique_ptr<BirchClusterer> serving_clusterer;
  if (stream) {
    // Out-of-core: the file is scanned, never loaded.
    auto source_or = CsvPointSource::Open(flags.GetString("input"));
    if (!source_or.ok()) {
      std::fprintf(stderr, "opening input: %s\n",
                   source_or.status().ToString().c_str());
      return 1;
    }
    o.dim = source_or.value()->dim();
    if (flags.Has("restore")) {
      if (o.expected_points == 0) {
        o.expected_points = source_or.value()->SizeHint();
      }
      auto c_or = BirchClusterer::Restore(flags.GetString("restore"), o);
      if (!c_or.ok()) {
        std::fprintf(stderr, "restoring checkpoint: %s\n",
                     c_or.status().ToString().c_str());
        return 1;
      }
      result_or = c_or.value()->Cluster(source_or.value().get());
    } else {
      result_or = ClusterSource(source_or.value().get(), o);
    }
  } else {
    auto data_or = ReadCsvPoints(flags.GetString("input"));
    if (!data_or.ok()) {
      std::fprintf(stderr, "reading input: %s\n",
                   data_or.status().ToString().c_str());
      return 1;
    }
    data = std::move(data_or).ValueOrDie();
    o.dim = data.dim();
    if (flags.Has("restore")) {
      if (o.expected_points == 0) o.expected_points = data.size();
      auto c_or = BirchClusterer::Restore(flags.GetString("restore"), o);
      if (!c_or.ok()) {
        std::fprintf(stderr, "restoring checkpoint: %s\n",
                     c_or.status().ToString().c_str());
        return 1;
      }
      DatasetSource source(&data);
      serving_clusterer = std::move(c_or).ValueOrDie();
      result_or = serving_clusterer->Cluster(&source, &data);
    } else if (serve_seconds > 0.0) {
      auto c_or = BirchClusterer::Create(o);
      if (!c_or.ok()) {
        std::fprintf(stderr, "%s\n", c_or.status().ToString().c_str());
        return 1;
      }
      DatasetSource source(&data);
      serving_clusterer = std::move(c_or).ValueOrDie();
      result_or = serving_clusterer->Cluster(&source, &data);
    } else {
      result_or = ClusterDataset(data, o);
    }
  }
  // Flushes every requested artifact — trace, metrics, run report — on
  // the success AND failure paths: a partial run's telemetry is exactly
  // what a post-mortem needs. Returns false if any write failed.
  auto flush_artifacts = [&](const Status& run_status,
                             const BirchResult* result) -> bool {
    bool all_ok = true;
    std::vector<obs::TimeSeriesSnapshot> series;
    if (sampler != nullptr) {
      sampler->Stop();  // idempotent; takes the final sample
      series = sampler->Snapshot();
    }
    if (flags.Has("trace-out")) {
      obs::Tracer::Default().StopRecording();
      Status st = obs::Tracer::Default().WriteChromeTrace(
          flags.GetString("trace-out"));
      if (!st.ok()) {
        std::fprintf(stderr, "trace write failed: %s\n",
                     st.ToString().c_str());
        all_ok = false;
      } else {
        std::printf("trace written to %s\n",
                    flags.GetString("trace-out").c_str());
      }
    }
    obs::MetricsSnapshot metrics =
        result != nullptr ? result->metrics
                          : obs::CaptureSnapshot().DeltaSince(cli_baseline);
    if (flags.Has("metrics")) {
      std::printf("%s", obs::SummaryTable(metrics).c_str());
    }
    if (flags.Has("metrics-csv")) {
      Status st = obs::WriteCsv(metrics, flags.GetString("metrics-csv"));
      if (!st.ok()) {
        std::fprintf(stderr, "metrics csv write failed: %s\n",
                     st.ToString().c_str());
        all_ok = false;
      } else {
        std::printf("metrics csv written to %s\n",
                    flags.GetString("metrics-csv").c_str());
      }
    }
    if (flags.Has("report")) {
      RunReportInputs in;
      in.options = &o;
      in.dataset_name = flags.GetString("input");
      in.dataset_points =
          result != nullptr ? result->phase1.points_added : 0;
      in.dataset_dim = o.dim;
      in.status = run_status;
      in.result = result;
      in.timeseries = std::move(series);
      Status st = WriteRunReport(flags.GetString("report"), in);
      if (!st.ok()) {
        std::fprintf(stderr, "report write failed: %s\n",
                     st.ToString().c_str());
        all_ok = false;
      } else {
        std::printf("run report written to %s\n",
                    flags.GetString("report").c_str());
      }
    }
    return all_ok;
  };

  if (!result_or.ok()) {
    std::fprintf(stderr, "clustering: %s\n",
                 result_or.status().ToString().c_str());
    flush_artifacts(result_or.status(), nullptr);
    return 1;
  }
  const BirchResult& r = result_or.value();
  if (!flush_artifacts(Status::OK(), &r)) return 1;

  double points_seen = static_cast<double>(r.phase1.points_added);
  std::printf("%.0f points (dim %zu) -> %zu clusters in %.3fs; "
              "weighted avg diameter %.4f; %llu rebuilds; peak memory "
              "%zu KB, tree heap %zu KB%s\n",
              points_seen, o.dim, r.clusters.size(), r.timings.Total(),
              WeightedAverageDiameter(r.clusters),
              static_cast<unsigned long long>(r.phase1.rebuilds),
              r.peak_memory_bytes / 1024, r.tree_heap_bytes / 1024,
              stream ? " (streamed; data never resident)" : "");
  const RobustnessStats& rb = r.robustness;
  if (o.resources.fault.enabled() || rb.degradation_events > 0 ||
      rb.outlier_disk_disabled) {
    std::printf("robustness: %llu transient errors (%llu retries), "
                "%llu checksum failures, %llu records lost, "
                "%llu degradation events%s\n",
                static_cast<unsigned long long>(rb.transient_io_errors),
                static_cast<unsigned long long>(rb.io_retries),
                static_cast<unsigned long long>(rb.checksum_failures),
                static_cast<unsigned long long>(rb.records_lost),
                static_cast<unsigned long long>(rb.degradation_events),
                rb.outlier_disk_disabled ? "; outlier disk out of service"
                                         : "");
  }
  const CfTreeStats& ts = r.tree_stats;
  std::printf("tree: %llu inserts (%llu absorbed, %llu new, %llu rejected), "
              "%llu leaf + %llu nonleaf splits, %llu merge refinements, "
              "%llu rebuilds, %llu distance comparisons, %zu nodes\n",
              static_cast<unsigned long long>(ts.inserts),
              static_cast<unsigned long long>(ts.absorbed),
              static_cast<unsigned long long>(ts.new_entries),
              static_cast<unsigned long long>(ts.rejected),
              static_cast<unsigned long long>(ts.leaf_splits),
              static_cast<unsigned long long>(ts.nonleaf_splits),
              static_cast<unsigned long long>(ts.merge_refinements),
              static_cast<unsigned long long>(ts.rebuilds),
              static_cast<unsigned long long>(ts.distance_comparisons),
              r.tree_nodes);

  TablePrinter table({"cluster", "points", "radius", "centroid"});
  for (size_t c = 0; c < r.clusters.size(); ++c) {
    std::string centroid;
    for (double v : r.centroids[c]) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%s%.3f", centroid.empty() ? "" : ", ",
                    v);
      centroid += buf;
    }
    table.Row()
        .Add(c)
        .Add(static_cast<int64_t>(r.clusters[c].n()))
        .Add(r.clusters[c].Radius(), 3)
        .Add("(" + centroid + ")");
  }
  table.Print();

  if (serve_seconds > 0.0 && serving_clusterer != nullptr &&
      serving_clusterer->server() != nullptr) {
    const serving::BirchServer* server = serving_clusterer->server();
    obs::MetricsSnapshot serve_baseline = obs::CaptureSnapshot();
    std::atomic<bool> stop{false};
    std::atomic<uint64_t> queries{0}, errors{0};
    std::vector<std::thread> threads;
    for (int64_t t = 0; t < serve_readers; ++t) {
      threads.emplace_back([&, t] {
        std::mt19937_64 rng(0x51e6 + static_cast<uint64_t>(t));
        std::uniform_int_distribution<size_t> pick(0, data.size() - 1);
        while (!stop.load(std::memory_order_relaxed)) {
          auto got = server->Assign(data.Row(pick(rng)));
          if (got.ok()) {
            queries.fetch_add(1, std::memory_order_relaxed);
          } else {
            errors.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
    Timer serve_timer;
    std::this_thread::sleep_for(
        std::chrono::duration<double>(serve_seconds));
    stop.store(true, std::memory_order_relaxed);
    for (auto& th : threads) th.join();
    const double elapsed = serve_timer.Seconds();
    obs::MetricsSnapshot delta =
        obs::CaptureSnapshot().DeltaSince(serve_baseline);
    double p50 = 0.0, p99 = 0.0, p999 = 0.0;
    auto hist = delta.histograms.find("serving/assign_us");
    if (hist != delta.histograms.end()) {
      p50 = hist->second.Quantile(0.50);
      p99 = hist->second.Quantile(0.99);
      p999 = hist->second.Quantile(0.999);
    }
    const uint64_t q = queries.load();
    std::printf("serving: %llu Assign queries from %lld readers in %.2fs "
                "(%.0f QPS; p50 %.1fus, p99 %.1fus, p999 %.1fus; "
                "epoch %llu)\n",
                static_cast<unsigned long long>(q),
                static_cast<long long>(serve_readers), elapsed,
                elapsed > 0.0 ? q / elapsed : 0.0, p50, p99, p999,
                static_cast<unsigned long long>(server->epoch()));
    if (errors.load() > 0) {
      std::fprintf(stderr, "serving: %llu query errors\n",
                   static_cast<unsigned long long>(errors.load()));
      return 1;
    }
  }

  if (flags.Has("output")) {
    std::ofstream out(flags.GetString("output"));
    if (!out) {
      std::fprintf(stderr, "cannot open %s\n",
                   flags.GetString("output").c_str());
      return 1;
    }
    out << "label\n";
    for (int l : r.labels) out << l << "\n";
    std::printf("labels written to %s\n", flags.GetString("output").c_str());
  }
  return 0;
}

}  // namespace
}  // namespace birch

int main(int argc, char** argv) { return birch::Run(argc, argv); }
