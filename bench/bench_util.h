// Shared helpers for the benchmark binaries: paper-default BIRCH
// options, a standard "run BIRCH and collect the row" wrapper, and
// optional CSV / JSON dumping (pass --csv <path> / --json <path> to
// any bench binary; the JSON shape is what tools/bench_diff gates).
#ifndef BIRCH_BENCH_BENCH_UTIL_H_
#define BIRCH_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <string>
#include <vector>

#include "birch/birch.h"
#include "datagen/generator.h"
#include "eval/matching.h"
#include "eval/quality.h"
#include "obs/export.h"
#include "obs/trace.h"
#include "util/csv.h"
#include "util/json.h"
#include "util/table.h"
#include "util/timer.h"

namespace birch {
namespace bench {

/// The paper's Table-2 default configuration.
inline BirchOptions PaperDefaults(int k, uint64_t expected_points = 0) {
  BirchOptions o;
  o.dim = 2;
  o.k = k;
  o.resources.memory_bytes = 80 * 1024;
  o.resources.disk_bytes = 16 * 1024;  // R = 20% of M
  o.resources.page_size = 1024;
  o.tree.initial_threshold = 0.0;
  o.tree.metric = DistanceMetric::kD2;
  o.tree.threshold_kind = ThresholdKind::kDiameter;
  o.outliers.handling = true;
  o.outliers.delay_split = true;
  o.refine.passes = 1;
  o.expected_points = expected_points;
  return o;
}

/// One benchmark row: timings plus quality/accuracy measures.
struct RunRow {
  BirchResult result;
  double seconds_total = 0.0;
  double weighted_diameter = 0.0;   // the paper's quality "D"
  double weighted_radius = 0.0;
  double actual_diameter = 0.0;     // same measure on the ground truth
  MatchReport match;
  double label_accuracy = 0.0;
};

/// Runs BIRCH on generated data and fills the standard row.
inline StatusOr<RunRow> RunBirch(const GeneratedData& gen,
                                 const BirchOptions& options) {
  RunRow row;
  Timer timer;
  auto result = ClusterDataset(gen.data, options);
  if (!result.ok()) return result.status();
  row.seconds_total = timer.Seconds();
  row.result = std::move(result).ValueOrDie();
  row.weighted_diameter = WeightedAverageDiameter(row.result.clusters);
  row.weighted_radius = WeightedAverageRadius(row.result.clusters);
  std::vector<CfVector> actual_cfs;
  for (const auto& a : gen.actual) actual_cfs.push_back(a.cf);
  row.actual_diameter = WeightedAverageDiameter(actual_cfs);
  row.match = MatchClusters(gen.actual, row.result.clusters);
  row.label_accuracy = LabelAccuracy(gen.truth, row.result.labels, row.match);
  return row;
}

/// Shared RobustnessStats columns: append the headers to a table/CSV
/// header list, then AddRobustnessCells on each row, so every bench
/// that reports fault tolerance uses the same schema.
inline void AppendRobustnessHeaders(std::vector<std::string>* headers) {
  for (const char* h :
       {"retries", "crc-fail", "lost-recs", "degraded", "fb-drop"}) {
    headers->emplace_back(h);
  }
}

inline void AddRobustnessCells(TablePrinter* table,
                               const RobustnessStats& r) {
  table->Add(static_cast<int64_t>(r.io_retries))
      .Add(static_cast<int64_t>(r.checksum_failures))
      .Add(static_cast<int64_t>(r.records_lost))
      .Add(static_cast<int64_t>(r.degradation_events))
      .Add(static_cast<int64_t>(r.fallback_dropped));
}

inline void AddRobustnessCells(CsvWriter* csv, const RobustnessStats& r) {
  csv->Add(static_cast<int64_t>(r.io_retries))
      .Add(static_cast<int64_t>(r.checksum_failures))
      .Add(static_cast<int64_t>(r.records_lost))
      .Add(static_cast<int64_t>(r.degradation_events))
      .Add(static_cast<int64_t>(r.fallback_dropped));
}

/// --csv <path> support.
inline std::string CsvPathFromArgs(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--csv") return argv[i + 1];
  }
  return "";
}

/// Bare-flag lookup (e.g. --smoke) for bench binaries.
inline bool HasFlagArg(int argc, char** argv, const std::string& name) {
  for (int i = 1; i < argc; ++i) {
    if (argv[i] == name) return true;
  }
  return false;
}

/// Valued-flag lookup (e.g. --affinity on); `fallback` when absent.
inline std::string FlagValueFromArgs(int argc, char** argv,
                                     const std::string& name,
                                     const std::string& fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (argv[i] == name) return argv[i + 1];
  }
  return fallback;
}

/// Shared instrumentation dump: prints the summary table and optionally
/// writes the metrics CSV and the Chrome trace (stops recording first
/// so every open "B" has its "E"). Returns false if a write failed.
inline bool DumpMetrics(const obs::MetricsSnapshot& snapshot,
                        const std::string& csv_path = "",
                        const std::string& trace_path = "") {
  std::printf("%s", obs::SummaryTable(snapshot).c_str());
  bool ok = true;
  if (!csv_path.empty()) {
    Status st = obs::WriteCsv(snapshot, csv_path);
    if (!st.ok()) {
      std::fprintf(stderr, "metrics csv write failed: %s\n",
                   st.ToString().c_str());
      ok = false;
    } else {
      std::printf("(metrics csv written to %s)\n", csv_path.c_str());
    }
  }
  if (!trace_path.empty()) {
    obs::Tracer::Default().StopRecording();
    Status st = obs::Tracer::Default().WriteChromeTrace(trace_path);
    if (!st.ok()) {
      std::fprintf(stderr, "trace write failed: %s\n",
                   st.ToString().c_str());
      ok = false;
    } else {
      std::printf("(trace written to %s)\n", trace_path.c_str());
    }
  }
  return ok;
}

inline void MaybeWriteCsv(const CsvWriter& csv, const std::string& path) {
  if (path.empty()) return;
  Status st = csv.WriteFile(path);
  if (!st.ok()) {
    std::fprintf(stderr, "csv write failed: %s\n", st.ToString().c_str());
  } else {
    std::printf("(csv written to %s)\n", path.c_str());
  }
}

/// --json <path> support (the bench_diff input format).
inline std::string JsonPathFromArgs(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--json") return argv[i + 1];
  }
  return "";
}

/// Typed row accumulator rendered as {"bench": name, "rows": [...]}:
/// one object per row, keys in insertion order. This is the committed
/// BENCH_*.json shape that tools/bench_diff compares run to run.
class JsonRows {
 public:
  explicit JsonRows(std::string bench_name)
      : bench_name_(std::move(bench_name)) {}

  JsonRows& Row() {
    writer_ = nullptr;
    rows_.emplace_back();
    writer_ = &rows_.back();
    writer_->BeginObject();
    return *this;
  }
  JsonRows& Add(std::string_view key, std::string_view v) {
    writer_->KV(key, v);
    return *this;
  }
  JsonRows& Add(std::string_view key, const char* v) {
    writer_->KV(key, std::string_view(v));
    return *this;
  }
  JsonRows& Add(std::string_view key, double v) {
    writer_->KV(key, v);
    return *this;
  }
  JsonRows& Add(std::string_view key, int64_t v) {
    writer_->KV(key, v);
    return *this;
  }
  JsonRows& Add(std::string_view key, uint64_t v) {
    writer_->KV(key, v);
    return *this;
  }
  JsonRows& Add(std::string_view key, bool v) {
    writer_->KV(key, v);
    return *this;
  }

  std::string ToString() const {
    JsonWriter w;
    w.BeginObject();
    w.KV("bench", bench_name_);
    w.Key("rows").BeginArray();
    std::string out = w.str();
    for (size_t i = 0; i < rows_.size(); ++i) {
      if (i > 0) out += ',';
      out += rows_[i].str();
      out += '}';  // each row's writer holds an open object
    }
    out += "]}";
    return out;
  }

 private:
  std::string bench_name_;
  std::vector<JsonWriter> rows_;
  JsonWriter* writer_ = nullptr;
};

inline void MaybeWriteJson(const JsonRows& rows, const std::string& path) {
  if (path.empty()) return;
  Status st = WriteFileAtomic(path, rows.ToString());
  if (!st.ok()) {
    std::fprintf(stderr, "json write failed: %s\n", st.ToString().c_str());
  } else {
    std::printf("(json written to %s)\n", path.c_str());
  }
}

}  // namespace bench
}  // namespace birch

#endif  // BIRCH_BENCH_BENCH_UTIL_H_
