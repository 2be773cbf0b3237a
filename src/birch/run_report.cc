#include "birch/run_report.h"

#include <cinttypes>
#include <cstdio>

namespace birch {

namespace {

/// FNV-1a 64-bit over bytes.
class Fnv1a {
 public:
  void Mix(std::string_view s) {
    for (unsigned char c : s) {
      h_ ^= c;
      h_ *= 0x100000001b3ULL;
    }
    Mix('|');  // field separator: "ab"+"c" != "a"+"bc"
  }
  void Mix(double v) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    Mix(std::string_view(buf));
  }
  void Mix(uint64_t v) { Mix(std::string_view(std::to_string(v))); }
  void Mix(int64_t v) { Mix(std::string_view(std::to_string(v))); }
  void Mix(bool v) { Mix(std::string_view(v ? "1" : "0")); }
  uint64_t value() const { return h_; }

 private:
  void Mix(char c) {
    h_ ^= static_cast<unsigned char>(c);
    h_ *= 0x100000001b3ULL;
  }
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

void WriteOptions(JsonWriter* w, const BirchOptions& o) {
  w->BeginObject();
  w->KV("fingerprint", OptionsFingerprint(o));
  w->KV("dim", static_cast<uint64_t>(o.dim));
  w->KV("k", static_cast<int64_t>(o.k));
  w->KV("expected_points", o.expected_points);
  w->KV("seed", o.seed);
  w->Key("resources").BeginObject();
  w->KV("memory_bytes", static_cast<uint64_t>(o.resources.memory_bytes));
  w->KV("disk_bytes", static_cast<uint64_t>(o.resources.disk_bytes));
  w->KV("page_size", static_cast<uint64_t>(o.resources.page_size));
  w->KV("page_codec", PageCodecName(o.resources.page_codec));
  w->KV("checkpoint_every_n", o.resources.checkpoint_every_n);
  w->EndObject();
  w->Key("tree").BeginObject();
  w->KV("initial_threshold", o.tree.initial_threshold);
  w->KV("metric", static_cast<int64_t>(o.tree.metric));
  w->KV("threshold_kind", static_cast<int64_t>(o.tree.threshold_kind));
  w->KV("merging_refinement", o.tree.merging_refinement);
  w->KV("cf", static_cast<int64_t>(o.tree.cf));
  w->EndObject();
  w->Key("outliers").BeginObject();
  w->KV("handling", o.outliers.handling);
  w->KV("fraction", o.outliers.fraction);
  w->KV("delay_split", o.outliers.delay_split);
  w->EndObject();
  w->Key("global_phase").BeginObject();
  w->KV("use_phase2", o.global_phase.use_phase2);
  w->KV("phase2_target_entries",
        static_cast<uint64_t>(o.global_phase.phase2_target_entries));
  w->KV("algorithm", static_cast<int64_t>(o.global_phase.algorithm));
  w->KV("metric", static_cast<int64_t>(o.global_phase.metric));
  w->KV("distance_limit", o.global_phase.distance_limit);
  w->EndObject();
  w->Key("refine").BeginObject();
  w->KV("passes", static_cast<int64_t>(o.refine.passes));
  w->KV("outlier_distance", o.refine.outlier_distance);
  w->EndObject();
  w->Key("exec").BeginObject();
  w->KV("num_threads", static_cast<int64_t>(o.exec.num_threads));
  w->KV("splitter_seed", o.exec.splitter_seed);
  w->EndObject();
  w->Key("serving").BeginObject();
  w->KV("publish_every_n", o.serving.publish_every_n);
  w->EndObject();
  w->Key("obs").BeginObject();
  w->KV("sample_every_ms", o.obs.sample_every_ms);
  w->KV("series_capacity", static_cast<uint64_t>(o.obs.series_capacity));
  w->EndObject();
  w->EndObject();
}

void WriteHistogram(JsonWriter* w, const obs::HistogramSnapshot& h) {
  w->BeginObject();
  w->KV("count", h.count);
  w->KV("sum", h.sum);
  w->KV("min", h.min);
  w->KV("max", h.max);
  w->KV("mean", h.Mean());
  w->KV("p50", h.Quantile(0.50));
  w->KV("p90", h.Quantile(0.90));
  w->KV("p99", h.Quantile(0.99));
  w->KV("p999", h.Quantile(0.999));
  w->EndObject();
}

void WriteMetrics(JsonWriter* w, const obs::MetricsSnapshot& m) {
  w->BeginObject();
  w->Key("counters").BeginObject();
  for (const auto& [name, v] : m.counters) w->KV(name, v);
  w->EndObject();
  w->Key("gauges").BeginObject();
  for (const auto& [name, v] : m.gauges) w->KV(name, v);
  w->EndObject();
  w->Key("histograms").BeginObject();
  for (const auto& [name, h] : m.histograms) {
    w->Key(name);
    WriteHistogram(w, h);
  }
  w->EndObject();
  w->Key("spans").BeginObject();
  for (const auto& [name, s] : m.spans) {
    w->Key(name).BeginObject();
    w->KV("count", s.count);
    w->KV("total_us", s.total_us);
    w->KV("max_us", s.max_us);
    w->EndObject();
  }
  w->EndObject();
  w->EndObject();
}

void WriteTimeSeries(JsonWriter* w,
                     const std::vector<obs::TimeSeriesSnapshot>& series) {
  w->BeginArray();
  for (const auto& s : series) {
    w->BeginObject();
    w->KV("name", s.name);
    w->KV("dropped", s.dropped);
    w->Key("points").BeginArray();
    for (const auto& p : s.points) {
      w->BeginArray().Value(p.t_us).Value(p.value).EndArray();
    }
    w->EndArray();
    w->EndObject();
  }
  w->EndArray();
}

}  // namespace

uint64_t OptionsFingerprint(const BirchOptions& o) {
  Fnv1a f;
  f.Mix(static_cast<uint64_t>(o.dim));
  f.Mix(static_cast<int64_t>(o.k));
  f.Mix(o.expected_points);
  f.Mix(o.seed);
  f.Mix(static_cast<uint64_t>(o.resources.memory_bytes));
  f.Mix(static_cast<uint64_t>(o.resources.disk_bytes));
  f.Mix(static_cast<uint64_t>(o.resources.page_size));
  f.Mix(static_cast<int64_t>(o.resources.page_codec));
  f.Mix(o.resources.fault.read_transient_rate);
  f.Mix(o.resources.fault.write_transient_rate);
  f.Mix(o.resources.fault.page_loss_rate);
  f.Mix(o.resources.fault.bit_flip_rate);
  f.Mix(o.resources.fault.seed);
  f.Mix(static_cast<int64_t>(o.resources.io_retry.max_attempts));
  f.Mix(o.resources.io_retry.backoff_initial_us);
  f.Mix(o.resources.io_retry.backoff_max_us);
  f.Mix(o.resources.checkpoint_every_n);
  f.Mix(o.tree.initial_threshold);
  f.Mix(static_cast<int64_t>(o.tree.metric));
  f.Mix(static_cast<int64_t>(o.tree.threshold_kind));
  f.Mix(o.tree.merging_refinement);
  f.Mix(static_cast<int64_t>(o.tree.cf));
  f.Mix(o.outliers.handling);
  f.Mix(o.outliers.fraction);
  f.Mix(o.outliers.delay_split);
  f.Mix(o.global_phase.use_phase2);
  f.Mix(static_cast<uint64_t>(o.global_phase.phase2_target_entries));
  f.Mix(static_cast<int64_t>(o.global_phase.algorithm));
  f.Mix(static_cast<int64_t>(o.global_phase.metric));
  f.Mix(o.global_phase.distance_limit);
  f.Mix(static_cast<int64_t>(o.refine.passes));
  f.Mix(o.refine.outlier_distance);
  f.Mix(static_cast<int64_t>(o.exec.num_threads));
  f.Mix(o.exec.splitter_seed);
  f.Mix(o.serving.publish_every_n);
  // options.obs deliberately excluded: telemetry cadence must never
  // make two otherwise-identical runs incomparable.
  return f.value();
}

std::string RunReportJson(const RunReportInputs& in) {
  JsonWriter w;
  w.BeginObject();
  w.KV("schema", kRunReportSchema);
  w.KV("schema_version", kRunReportSchemaVersion);

  w.Key("status").BeginObject();
  w.KV("ok", in.status.ok());
  w.KV("code", Status::CodeName(in.status.code()));
  w.KV("message", in.status.message());
  w.EndObject();

  if (in.options != nullptr) {
    w.Key("options");
    WriteOptions(&w, *in.options);
  }

  w.Key("dataset").BeginObject();
  w.KV("name", in.dataset_name);
  w.KV("points", in.dataset_points);
  w.KV("dim", static_cast<uint64_t>(in.dataset_dim));
  w.EndObject();

  if (in.result != nullptr) {
    const BirchResult& r = *in.result;
    w.Key("timings").BeginObject();
    w.KV("phase1_seconds", r.timings.phase1);
    w.KV("phase2_seconds", r.timings.phase2);
    w.KV("phase3_seconds", r.timings.phase3);
    w.KV("phase4_seconds", r.timings.phase4);
    w.KV("total_seconds", r.timings.Total());
    w.EndObject();

    w.Key("summary").BeginObject();
    w.KV("clusters", static_cast<uint64_t>(r.clusters.size()));
    w.KV("final_threshold", r.final_threshold);
    w.KV("points_added", r.phase1.points_added);
    w.KV("rebuilds", r.phase1.rebuilds);
    w.KV("phase2_rounds", static_cast<int64_t>(r.phase2.rounds));
    w.KV("leaf_entries_after_phase1",
         static_cast<uint64_t>(r.leaf_entries_after_phase1));
    w.KV("leaf_entries_after_phase2",
         static_cast<uint64_t>(r.leaf_entries_after_phase2));
    w.KV("tree_nodes", static_cast<uint64_t>(r.tree_nodes));
    w.KV("tree_heap_bytes", static_cast<uint64_t>(r.tree_heap_bytes));
    w.KV("peak_memory_bytes", static_cast<uint64_t>(r.peak_memory_bytes));
    w.KV("disk_pages_written", r.disk_pages_written);
    w.KV("disk_pages_read", r.disk_pages_read);
    w.KV("outlier_points", r.outlier_points);
    w.KV("distance_comparisons", r.tree_stats.distance_comparisons);
    w.EndObject();

    w.Key("robustness").BeginObject();
    w.KV("transient_io_errors", r.robustness.transient_io_errors);
    w.KV("io_retries", r.robustness.io_retries);
    w.KV("simulated_backoff_us", r.robustness.simulated_backoff_us);
    w.KV("checksum_failures", r.robustness.checksum_failures);
    w.KV("pages_lost", r.robustness.pages_lost);
    w.KV("records_lost", r.robustness.records_lost);
    w.KV("degradation_events", r.robustness.degradation_events);
    w.KV("fallback_absorbed", r.robustness.fallback_absorbed);
    w.KV("fallback_dropped", r.robustness.fallback_dropped);
    w.KV("outlier_disk_disabled", r.robustness.outlier_disk_disabled);
    w.EndObject();

    w.Key("metrics");
    WriteMetrics(&w, r.metrics);
  }

  if (!in.quality.empty()) {
    w.Key("quality").BeginObject();
    for (const auto& [name, v] : in.quality) w.KV(name, v);
    w.EndObject();
  }

  if (!in.serving.empty()) {
    w.Key("serving").BeginObject();
    for (const auto& [name, v] : in.serving) w.KV(name, v);
    w.EndObject();
  }

  // Result-attached series win; the standalone vector covers failed
  // runs whose sampler outlived the clusterer.
  const std::vector<obs::TimeSeriesSnapshot>& series =
      (in.result != nullptr && !in.result->timeseries.empty())
          ? in.result->timeseries
          : in.timeseries;
  w.Key("timeseries");
  WriteTimeSeries(&w, series);

  w.EndObject();
  return w.str();
}

Status WriteRunReport(const std::string& path, const RunReportInputs& in) {
  if (in.options == nullptr) {
    return Status::InvalidArgument("run report requires options");
  }
  return WriteFileAtomic(path, RunReportJson(in));
}

StatusOr<JsonValue> ReadRunReport(const std::string& path) {
  auto doc_or = JsonValue::ParseFile(path);
  if (!doc_or.ok()) return doc_or.status();
  JsonValue doc = std::move(doc_or).ValueOrDie();
  if (!doc.is_object()) {
    return Status::InvalidArgument(path + ": run report must be an object");
  }
  const JsonValue* schema = doc.Find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->string_value() != kRunReportSchema) {
    return Status::InvalidArgument(
        path + ": not a " + std::string(kRunReportSchema) + " document");
  }
  const JsonValue* version = doc.Find("schema_version");
  if (version == nullptr || !version->is_number() ||
      static_cast<int64_t>(version->number()) != kRunReportSchemaVersion) {
    return Status::InvalidArgument(
        path + ": unsupported schema_version (this reader knows " +
        std::to_string(kRunReportSchemaVersion) + ")");
  }
  return doc;
}

void RegisterBirchProbes(obs::StatsSampler* sampler) {
  sampler->AddGaugeProbe("tree/nodes");
  sampler->AddGaugeProbe("tree/heap_bytes");
  sampler->AddGaugeProbe("tree/leaf_entries");
  sampler->AddGaugeProbe("tree/threshold");
  sampler->AddGaugeProbe("phase1/threshold");
  sampler->AddGaugeProbe("mem/used_bytes");
  sampler->AddGaugeProbe("pagestore/used_bytes");
  sampler->AddCounterProbe("phase1/points");
  sampler->AddCounterProbe("pagestore/pages_written");
  sampler->AddCounterProbe("pagestore/pages_read");
  sampler->AddCounterProbe("spill/records_appended");
  sampler->AddCounterProbe("tree/rebuilds");
}

}  // namespace birch
