// End-to-end BIRCH benchmark: generates one workload from a seed,
// clusters it through the public API for a fixed wall-clock budget,
// checks the answers, and prints its metrics. See README.md.
//
//   birch_e2e --workload paper_2d|blobs_16d|csv_2d_t3|serve_2d
//             --seed N --seconds S --trace 0|1
//             [--scale F] [--workdir DIR] [--commit SHA]
//             [--corrupt labels|centroids|trace|epoch|csv]
//
// --trace 0 runs with obs off and reports the end-to-end metrics;
// --trace 1 alternates untraced runs with traced ones and reports the
// per-layer metrics. Human-readable lines come first; the last line of
// stdout is one JSON object {correct, attempted, failed, metrics}. A
// failed correctness gate prints why on stderr and exits 1 without
// that line. --scale shrinks the input (the self-check uses it) and
// --corrupt injects a wrong answer to prove a gate rejects it.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "e2e_util.h"
#include "obs/metrics.h"
#include "util/timer.h"
#include "workloads.h"

namespace birch {
namespace e2e {
namespace {

/// Lowest share of the k ground-truth clusters that must be matched.
/// Nearly every input matches all 100; a few 16-D inputs end Phase 1
/// with ~108 leaf entries after a threshold overshoot, and Phase 4 then
/// empties 13 of the 100 Phase-3 clusters (87 matched). A collapse like
/// Phase 2 leaving 45 entries still fails.
constexpr double kMinMatchedShare = 0.8;
/// Lowest label accuracy the gate accepts. The 2-D grid clusters
/// overlap, so it reads ~0.915 there at full size and ~0.89 at 2% size;
/// each pair of clusters merged into one costs about 0.01.
constexpr double kMinLabelAccuracy = 0.8;

struct Args {
  Workload workload = Workload::kPaper2d;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  double scale = 1.0;
  std::string workdir = ".bench_build";
  std::string commit = "unknown";
  Corrupt corrupt = Corrupt::kNone;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      if (!ParseWorkload(val, &a->workload)) return false;
      have_workload = true;
    } else if (key == "--seed") {
      a->seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      a->seconds = std::atof(val.c_str());
    } else if (key == "--trace") {
      a->trace = val == "1";
    } else if (key == "--scale") {
      a->scale = std::atof(val.c_str());
    } else if (key == "--workdir") {
      a->workdir = val;
    } else if (key == "--commit") {
      a->commit = val;
    } else if (key == "--corrupt") {
      if (!ParseCorrupt(val, &a->corrupt)) return false;
    } else {
      return false;
    }
  }
  return have_workload && (argc % 2) == 1 && a->scale > 0.0;
}

std::string ContextJson(const Args& a) {
  const std::string flags = CpuInfoField("flags");
  std::string s = "{";
  auto add = [&s](const char* k, const std::string& v, bool last = false) {
    s += Quote(k) + ": " + v + (last ? "" : ", ");
  };
  add("workload", Quote(WorkloadName(a.workload)));
  add("seed", std::to_string(a.seed));
  add("scale", Num(a.scale));
  add("seconds", Num(a.seconds));
  add("trace", a.trace ? "1" : "0");
  add("obs", Quote(a.trace ? "on in traced runs, off in untraced runs"
                           : "off"));
  add("nproc", std::to_string(std::thread::hardware_concurrency()));
  add("cpu_model", Quote(CpuInfoField("model name")));
  add("avx2", HasCpuFlag(flags, "avx2") ? "true" : "false");
  add("avx512f", HasCpuFlag(flags, "avx512f") ? "true" : "false");
  add("fma", HasCpuFlag(flags, "fma") ? "true" : "false");
#ifdef __clang__
  add("compiler", Quote(std::string("clang ") + __clang_version__));
#else
  add("compiler", Quote(std::string("gcc ") + __VERSION__));
#endif
  add("cxx_flags", Quote(BENCH_CXX_FLAGS));
  add("build_type", Quote(BENCH_BUILD_TYPE));
  add("kernel_avx2_compiled", BENCH_KERNEL_AVX2 ? "true" : "false");
  add("kernel_fma_compiled", BENCH_KERNEL_FMA ? "true" : "false");
  add("commit", Quote(a.commit), true);
  return s + "}";
}

int Fail(const std::string& why) {
  std::fflush(stdout);
  std::fprintf(stderr, "birch_e2e: %s\n", why.c_str());
  return 1;
}

/// Moves every cluster 5 units along the first axis (the "centroids"
/// corruption): far outside r of its ground-truth center.
void ShiftClusters(std::vector<CfVector>* clusters) {
  for (CfVector& c : *clusters) {
    std::vector<double> far = c.Centroid();
    far[0] += 10.0;
    c.AddPoint(far, c.n());
  }
}

int Run(const Args& a) {
  obs::SetEnabled(false);
  const char* name = WorkloadName(a.workload);
  std::printf("context %s\n", ContextJson(a).c_str());

  const BirchOptions options = OptionsFor(a.workload, a.scale, a.workdir);
  const std::string trace_path =
      a.workdir + "/trace_" + std::string(name) + ".json";
  // The generated CSV and the checkpoint file go away with the run; the
  // Chrome trace stays for inspection.
  struct RemoveOnExit {
    std::vector<std::string> paths;
    ~RemoveOnExit() {
      for (const auto& p : paths) std::remove(p.c_str());
    }
  } scratch_files;
  if (!options.resources.checkpoint_path.empty()) {
    scratch_files.paths.push_back(options.resources.checkpoint_path);
  }

  // --- Repetitions until the time budget is spent. Each clusters its
  // own input, drawn from --seed, so the medians average over inputs:
  // one input's threshold trajectory alone can make a run fast or slow.
  std::vector<double> setup_times, cluster_times, traced_times, stalls,
      rss_peaks, d_ratios, accuracies, outlier_shares, mem_peaks, within_r,
      matched;
  std::map<std::string, std::vector<double>> layer_values;
  std::map<std::string, const char*> layer_units;
  LatencyHistogram assign_latency;
  uint64_t attempted = 0, failed = 0, queries = 0;
  double reader_seconds = 0.0;
  Inputs in;
  Timer budget;
  for (uint64_t rep = 0; rep == 0 || budget.Seconds() < a.seconds; ++rep) {
    // Setup: generate (and for csv_2d_t3 write) this repetition's input.
    Timer setup;
    const uint64_t input_seed = a.seed * 1000003ULL + rep;
    std::printf("run %llu input seed %llu\n",
                static_cast<unsigned long long>(rep),
                static_cast<unsigned long long>(input_seed));
    Status st = MakeInputs(a.workload, input_seed, a.scale, a.workdir, &in);
    if (!st.ok()) return Fail("setup: " + st.ToString());
    setup_times.push_back(setup.Seconds());
    if (rep == 0 && !in.csv_path.empty()) {
      scratch_files.paths.push_back(in.csv_path);
      st = CheckCsvRoundTrip(in, a.corrupt);
      if (!st.ok()) return Fail("gate csv_round_trip: " + st.ToString());
    }

    Outcome out;
    {
      RssSampler rss;
      st = RunOnce(a.workload, in, options, a.seed, false, a.corrupt, "",
                   &out);
      rss_peaks.push_back(rss.PeakMb());
    }
    ++attempted;
    if (!st.ok()) return Fail("clustering failed: " + st.ToString());
    cluster_times.push_back(out.cluster_s);
    stalls.push_back(out.ingest_stall_max_s);
    mem_peaks.push_back(static_cast<double>(out.peak_memory_bytes));
    assign_latency.Merge(out.assign_latency);
    queries += out.queries_attempted;
    reader_seconds += out.reader_seconds;

    if (a.trace) {
      Outcome traced;
      st = RunOnce(a.workload, in, options, a.seed, true, a.corrupt,
                   trace_path, &traced);
      ++attempted;
      if (!st.ok()) return Fail("traced clustering failed: " + st.ToString());
      traced_times.push_back(traced.cluster_s);
      attempted += traced.queries_attempted;
      failed += traced.queries_failed;
      if (a.corrupt == Corrupt::kTrace) {
        traced.clusters[0].AddPoint(traced.clusters[0].Centroid(), 1.0);
      }
      if (!SameClustering(traced, out)) {
        return Fail("gate traced_equals_untraced: the traced run's labels "
                    "or cluster CFs differ bitwise from the untraced result");
      }
      if (!traced.pinned_epoch_ok) out.pinned_epoch_ok = false;
      for (const auto& [k, m] : traced.layer) {
        layer_values[k].push_back(m.value);
        layer_units[k] = m.unit;
      }
      std::printf("run %llu traced: phase1.self_s %.4g, global_cluster.s "
                  "%.4g, refine.s %.4g, leaf entries %.0f -> %.0f, "
                  "%zu clusters\n",
                  static_cast<unsigned long long>(rep),
                  traced.layer["phase1.self_s"].value,
                  traced.layer["global_cluster.s"].value,
                  traced.layer["refine.s"].value,
                  traced.layer["phase2.entries_in"].value,
                  traced.layer["phase2.entries_out"].value,
                  traced.clusters.size());
    }

    // Correctness gates on this repetition's answer.
    attempted += out.queries_attempted;
    failed += out.queries_failed;
    if (!out.pinned_epoch_ok) {
      return Fail("gate pinned_epoch: a pinned epoch answered a repeated "
                  "query differently");
    }
    if (a.corrupt == Corrupt::kLabels) {
      for (int& l : out.labels) {
        if (l >= 0) l = (l + 1) % static_cast<int>(out.clusters.size());
      }
    }
    if (a.corrupt == Corrupt::kCentroids) ShiftClusters(&out.clusters);
    const Quality q = Evaluate(in, out);
    std::printf("run %llu quality: matched %d, within r %d, accuracy %.4f, "
                "d_ratio %.4f\n",
                static_cast<unsigned long long>(rep), q.matched_clusters,
                q.clusters_within_r, q.label_accuracy, q.d_ratio);
    if (q.matched_clusters < kMinMatchedShare * options.k) {
      return Fail("gate matched_clusters: " +
                  std::to_string(q.matched_clusters) + " of " +
                  std::to_string(options.k) + " clusters matched");
    }
    if (q.label_accuracy < kMinLabelAccuracy) {
      return Fail("gate label_accuracy: " + Num(q.label_accuracy) +
                  " is below " + Num(kMinLabelAccuracy));
    }
    st = CheckAnswer(a.workload, in, out);
    if (!st.ok()) return Fail("gate consistent_answer: " + st.ToString());
    d_ratios.push_back(q.d_ratio);
    within_r.push_back(q.clusters_within_r);
    matched.push_back(q.matched_clusters);
    accuracies.push_back(q.label_accuracy);
    outlier_shares.push_back(q.outlier_share);
  }

  // --- Report. ---
  const double qps = reader_seconds > 0.0 ? queries / reader_seconds : 0.0;
  const bool serving = a.workload == Workload::kServe2d;
  std::map<std::string, Metric> e2e = {
      {"setup_s", {Median(setup_times), "s"}},
      {"cluster_s", {Median(cluster_times), "s"}},
      {"d_ratio", {Median(d_ratios), "ratio"}},
      {"matched_clusters", {Median(matched), "count"}},
      {"label_accuracy", {Median(accuracies), "fraction"}},
      {"mem_charged_peak_bytes", {Median(mem_peaks), "B"}},
      {"rss_peak_mb", {Median(rss_peaks), "MB"}},
  };
  std::printf("workload %s: %zu points, %zu untraced and %zu traced "
              "clustering runs\n",
              name, in.gen.data.size(), cluster_times.size(),
              traced_times.size());
  for (size_t i = 0; i < cluster_times.size(); ++i) {
    std::printf("run %zu cluster_s %.6g s%s\n", i, cluster_times[i],
                i < traced_times.size()
                    ? (", traced " + Num(traced_times[i]) + " s").c_str()
                    : "");
  }
  for (const auto& [k, m] : e2e) {
    std::printf("metric %-24s %.6g %s\n", k.c_str(), m.value, m.unit);
  }
  // Reported with the per-layer metrics: outlier_share is 0 on
  // blobs_16d, and both move with the input more than any bound allows.
  const double outlier_share = Median(outlier_shares);
  const double clusters_within_r = Median(within_r);
  std::printf("metric %-24s %.6g fraction\n", "outlier_share", outlier_share);
  std::printf("metric %-24s %.6g count\n", "clusters_within_r",
              clusters_within_r);
  if (serving) {
    std::printf("metric %-24s %.6g s\n", "ingest_stall_max_s", Median(stalls));
    std::printf("metric %-24s %.6g 1/s\n", "assign_qps", qps);
    std::printf("metric %-24s %.6g us\n", "assign_p50_us",
                assign_latency.QuantileUs(0.5));
    std::printf("metric %-24s %.6g us\n", "assign_p99_us",
                assign_latency.QuantileUs(0.99));
  }
  std::printf("metric %-24s %.6g fraction (%llu of %llu operations)\n",
              "error_ratio", static_cast<double>(failed) / attempted,
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));

  std::string json = "{\"correct\": true, \"attempted\": " +
                     std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  bool first = true;
  auto emit = [&](const std::string& k, double v, const char* unit) {
    json += std::string(first ? "" : ", ") + Quote(k) + ": {\"value\": " +
            Num(v) + ", \"unit\": " + Quote(unit) + "}";
    first = false;
  };
  if (!a.trace) {
    for (const auto& [k, m] : e2e) emit(k, m.value, m.unit);
  } else {
    const double overhead = Median(traced_times) / Median(cluster_times);
    std::printf("layer %-32s %.6g ratio\n", "obs.overhead_ratio", overhead);
    std::printf("trace written to %s\n", trace_path.c_str());
    for (const auto& [k, v] : layer_values) {
      const double med = Median(v);
      const char* unit = layer_units[k];
      std::printf("layer %-32s %.6g %s\n", k.c_str(), med, unit);
      emit(k, med, unit);
    }
    emit("obs.overhead_ratio", overhead, "ratio");
    emit("outlier_share", outlier_share, "fraction");
    emit("clusters_within_r", clusters_within_r, "count");
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace
}  // namespace e2e
}  // namespace birch

int main(int argc, char** argv) {
  birch::e2e::Args args;
  if (!birch::e2e::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: birch_e2e --workload paper_2d|blobs_16d|csv_2d_t3|"
                 "serve_2d --seed N --seconds S --trace 0|1 [--scale F] "
                 "[--workdir DIR] [--commit SHA] [--corrupt GATE]\n");
    return 2;
  }
  return birch::e2e::Run(args);
}
