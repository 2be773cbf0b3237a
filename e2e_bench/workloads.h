// The benchmark's four workloads: how each input is generated from the
// seed, the options each runs with, and one clustering run through the
// public API — untraced, or traced with benchmark-side spans and the
// per-layer numbers read back from public stats and obs exports.
#ifndef BIRCH_E2E_BENCH_WORKLOADS_H_
#define BIRCH_E2E_BENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "birch/birch.h"
#include "datagen/generator.h"
#include "e2e_util.h"
#include "util/status.h"

namespace birch {
namespace e2e {

enum class Workload { kPaper2d, kBlobs16d, kCsv2dT3, kServe2d };

const char* WorkloadName(Workload w);
bool ParseWorkload(const std::string& name, Workload* w);

/// Deliberate corruptions the self-check injects to prove that each
/// correctness gate rejects a wrong answer.
enum class Corrupt {
  kNone,
  kLabels,     // permute the reported labels
  kCentroids,  // move every reported cluster off its ground truth
  kTrace,      // flip one bit of the traced pipeline's clusters
  kEpoch,      // perturb the repeated pinned-epoch answer
  kCsv,        // perturb one row read back from the CSV
};
bool ParseCorrupt(const std::string& name, Corrupt* c);

/// Generated input of one run. `csv_path` is set for kCsv2dT3.
struct Inputs {
  GeneratedData gen;
  std::string csv_path;
};

/// Generates the workload's input from `seed` (`scale` multiplies the
/// per-cluster point count) and, for the CSV workload, writes it as
/// %.17g text to a file under `workdir`.
Status MakeInputs(Workload w, uint64_t seed, double scale,
                  const std::string& workdir, Inputs* out);

/// Streams the CSV back through CsvPointSource and checks that it
/// reproduces the generated rows bit for bit.
Status CheckCsvRoundTrip(const Inputs& in, Corrupt corrupt);

/// Clustering options of the workload (the table in README.md).
BirchOptions OptionsFor(Workload w, double scale, const std::string& workdir);

/// A metric value with its unit.
struct Metric {
  double value = 0.0;
  const char* unit = "";
};

/// What one clustering run produced.
struct Outcome {
  double cluster_s = 0.0;
  std::vector<int> labels;  // empty when the API gives none
  std::vector<CfVector> clusters;
  uint64_t outlier_points = 0;
  size_t peak_memory_bytes = 0;

  // serve_2d only.
  double ingest_stall_max_s = 0.0;
  double reader_seconds = 0.0;  // first epoch -> readers stopped
  uint64_t queries_attempted = 0;
  uint64_t queries_failed = 0;
  LatencyHistogram assign_latency;
  LatencyHistogram knn_latency;
  double epoch_lag_points = 0.0;
  bool pinned_epoch_ok = true;

  /// Per-layer metrics of a traced run.
  std::map<std::string, Metric> layer;
};

/// One clustering run of `in` with `options`. Traced runs turn obs and
/// the tracer on, drive the in-memory workloads phase by phase through
/// the public entry points, and fill Outcome::layer; `trace_path`
/// (non-empty) receives the Chrome trace.
Status RunOnce(Workload w, const Inputs& in, const BirchOptions& options,
               uint64_t seed, bool traced, Corrupt corrupt,
               const std::string& trace_path, Outcome* out);

/// Checks that an answer is self-consistent, whatever its quality:
/// every point is accounted for exactly once (in a cluster, or as an
/// outlier where no Phase 4 relabels them), and labels, where the API
/// returns them, rebuild the reported cluster CFs.
Status CheckAnswer(Workload w, const Inputs& in, const Outcome& out);

/// Bitwise equality of two clusterings (labels and cluster CFs).
bool SameClustering(const Outcome& a, const Outcome& b);

/// Result quality against the generated ground truth.
struct Quality {
  double d_ratio = 0.0;
  int matched_clusters = 0;
  int clusters_within_r = 0;
  double label_accuracy = 0.0;
  double outlier_share = 0.0;
};
Quality Evaluate(const Inputs& in, const Outcome& out);

}  // namespace e2e
}  // namespace birch

#endif  // BIRCH_E2E_BENCH_WORKLOADS_H_
