// Continuous-telemetry tests: the options-wired StatsSampler capturing
// real trajectories during clustering (serial and sharded), the gauge
// balance that makes those trajectories truthful, the run-report
// manifest round trip with its schema-version gate, and the JSON
// writer/parser pair underneath it all.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "birch/birch.h"
#include "birch/run_report.h"
#include "datagen/paper_datasets.h"
#include "obs/metrics.h"
#include "obs/sampler.h"
#include "util/json.h"
#include "util/status.h"

namespace birch {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

BirchOptions SmallOptions(int k) {
  BirchOptions o;
  o.dim = 2;
  o.k = k;
  o.resources.memory_bytes = 24 * 1024;
  o.resources.disk_bytes = 5 * 1024;
  o.resources.page_size = 512;
  return o;
}

std::set<std::string> SeriesNames(
    const std::vector<obs::TimeSeriesSnapshot>& series) {
  std::set<std::string> names;
  for (const auto& s : series) names.insert(s.name);
  return names;
}

const obs::TimeSeriesSnapshot* FindSeries(
    const std::vector<obs::TimeSeriesSnapshot>& series,
    const std::string& name) {
  for (const auto& s : series) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

class TelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override { obs::SetEnabled(true); }
  void TearDown() override { obs::SetEnabled(true); }
};

TEST_F(TelemetryTest, OptionsWiredSamplerCapturesTrajectories) {
  auto gen = GeneratePaperDataset(PaperDataset::kDS1, /*k=*/25, /*n=*/200);
  ASSERT_TRUE(gen.ok());
  BirchOptions o = SmallOptions(25);
  o.obs.sample_every_ms = 5;
  auto result = ClusterDataset(gen.value().data, o);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const BirchResult& r = result.value();

  // Start() and Stop() each take a sample, so every registered probe
  // has a non-empty series even if the run beat the cadence.
  ASSERT_FALSE(r.timeseries.empty());
  std::set<std::string> names = SeriesNames(r.timeseries);
  for (const char* expected :
       {"tree/nodes", "tree/leaf_entries", "tree/threshold",
        "mem/used_bytes", "phase1/points"}) {
    EXPECT_EQ(names.count(expected), 1u) << expected;
  }
  for (const auto& s : r.timeseries) {
    EXPECT_FALSE(s.empty()) << s.name;
    // Timestamps are non-decreasing within a series.
    for (size_t i = 1; i < s.points.size(); ++i) {
      EXPECT_LE(s.points[i - 1].t_us, s.points[i].t_us) << s.name;
    }
  }
  // The final sample happens after clustering: the ingest counter's
  // trajectory must end at the full point count.
  const obs::TimeSeriesSnapshot* points =
      FindSeries(r.timeseries, "phase1/points");
  ASSERT_NE(points, nullptr);
  EXPECT_DOUBLE_EQ(points->points.back().value,
                   static_cast<double>(gen.value().data.size()));
}

TEST_F(TelemetryTest, SamplingOffByDefault) {
  auto gen = GeneratePaperDataset(PaperDataset::kDS1, 9, 60);
  ASSERT_TRUE(gen.ok());
  auto result = ClusterDataset(gen.value().data, SmallOptions(9));
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().timeseries.empty());
}

TEST_F(TelemetryTest, ShardedRunSamplesConcurrently) {
  // The sampler thread reads registry atomics while four Phase-1 shards
  // write them — the telemetry_test.tsan variant proves it race-free.
  auto gen = GeneratePaperDataset(PaperDataset::kDS1, /*k=*/25, /*n=*/200);
  ASSERT_TRUE(gen.ok());
  BirchOptions o = SmallOptions(25);
  o.obs.sample_every_ms = 1;
  o.exec.num_threads = 4;
  auto result = ClusterDataset(gen.value().data, o);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_FALSE(result.value().timeseries.empty());
  const obs::TimeSeriesSnapshot* mem =
      FindSeries(result.value().timeseries, "mem/used_bytes");
  ASSERT_NE(mem, nullptr);
  EXPECT_FALSE(mem->empty());
}

TEST_F(TelemetryTest, LeafEntryGaugeBalancesToZero) {
  // Every increment (insert, split, tree-load) must have a matching
  // decrement (rebuild reset, destructor), or trajectories drift
  // run over run. Ensure a clean slate, run, and check the balance.
  obs::Gauge& g = obs::Registry::Default().GetGauge("tree/leaf_entries");
  g.Set(0.0);
  auto gen = GeneratePaperDataset(PaperDataset::kDS1, 25, 200);
  ASSERT_TRUE(gen.ok());
  auto result = ClusterDataset(gen.value().data, SmallOptions(25));
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(g.Value(), 0.0);
  obs::Gauge& mem = obs::Registry::Default().GetGauge("mem/used_bytes");
  mem.Set(0.0);
  auto again = ClusterDataset(gen.value().data, SmallOptions(25));
  ASSERT_TRUE(again.ok());
  EXPECT_DOUBLE_EQ(mem.Value(), 0.0);
}

TEST_F(TelemetryTest, RunReportRoundTrip) {
  auto gen = GeneratePaperDataset(PaperDataset::kDS1, 25, 200);
  ASSERT_TRUE(gen.ok());
  BirchOptions o = SmallOptions(25);
  o.obs.sample_every_ms = 5;
  auto result = ClusterDataset(gen.value().data, o);
  ASSERT_TRUE(result.ok());

  RunReportInputs in;
  in.options = &o;
  in.dataset_name = "DS1-small";
  in.dataset_points = gen.value().data.size();
  in.dataset_dim = 2;
  in.status = Status::OK();
  in.result = &result.value();
  in.quality["label_accuracy"] = 0.93;

  const std::string path = TempPath("run_report.json");
  ASSERT_TRUE(WriteRunReport(path, in).ok());
  auto doc_or = ReadRunReport(path);
  ASSERT_TRUE(doc_or.ok()) << doc_or.status().ToString();
  const JsonValue& doc = doc_or.value();

  const JsonValue* schema = doc.Find("schema");
  ASSERT_NE(schema, nullptr);
  EXPECT_EQ(schema->string_value(), kRunReportSchema);
  const JsonValue* version = doc.Find("schema_version");
  ASSERT_NE(version, nullptr);
  EXPECT_EQ(static_cast<int64_t>(version->number()),
            kRunReportSchemaVersion);

  const JsonValue* dataset = doc.Find("dataset");
  ASSERT_NE(dataset, nullptr);
  EXPECT_EQ(dataset->Find("name")->string_value(), "DS1-small");
  EXPECT_EQ(static_cast<uint64_t>(dataset->Find("points")->number()),
            gen.value().data.size());

  const JsonValue* status = doc.Find("status");
  ASSERT_NE(status, nullptr);
  EXPECT_TRUE(status->Find("ok")->boolean());

  const JsonValue* timings = doc.Find("timings");
  ASSERT_NE(timings, nullptr);
  EXPECT_NE(timings->Find("total_seconds"), nullptr);

  const JsonValue* options = doc.Find("options");
  ASSERT_NE(options, nullptr);
  ASSERT_NE(options->Find("fingerprint"), nullptr);

  const JsonValue* quality = doc.Find("quality");
  ASSERT_NE(quality, nullptr);
  EXPECT_DOUBLE_EQ(quality->Find("label_accuracy")->number(), 0.93);

  // The sampled trajectories survive the round trip.
  const JsonValue* series = doc.Find("timeseries");
  ASSERT_NE(series, nullptr);
  ASSERT_EQ(series->kind(), JsonValue::Kind::kArray);
  EXPECT_GE(series->array().size(), 3u);
  size_t nonempty = 0;
  for (const auto& s : series->array()) {
    const JsonValue* pts = s.Find("points");
    ASSERT_NE(pts, nullptr);
    if (!pts->array().empty()) ++nonempty;
  }
  EXPECT_GE(nonempty, 3u);

  // Histogram quantiles are part of the metrics section (whether this
  // small run recorded any histograms depends on rebuild/spill
  // activity; HistogramQuantilesInReport pins the key set).
  const JsonValue* metrics = doc.Find("metrics");
  ASSERT_NE(metrics, nullptr);
  const JsonValue* hists = metrics->Find("histograms");
  ASSERT_NE(hists, nullptr);
  for (const auto& [name, h] : hists->members()) {
    EXPECT_NE(h.Find("p50"), nullptr) << name;
    EXPECT_NE(h.Find("p99"), nullptr) << name;
  }
}

TEST_F(TelemetryTest, HistogramQuantilesInReport) {
  // Synthetic result with one known histogram: the report must carry
  // count/sum/min/max/mean plus the four quantile estimates.
  BirchOptions o = SmallOptions(4);
  BirchResult r;
  obs::HistogramSnapshot h;
  for (double v : {2.0, 4.0, 8.0, 100.0}) {
    h.buckets.resize(obs::Histogram::kNumBuckets, 0);
    ++h.buckets[obs::Histogram::BucketIndex(v)];
    ++h.count;
    h.sum += v;
    h.min = h.count == 1 ? v : std::min(h.min, v);
    h.max = std::max(h.max, v);
  }
  r.metrics.histograms["synthetic/us"] = h;

  RunReportInputs in;
  in.options = &o;
  in.dataset_name = "synthetic";
  in.result = &r;
  const std::string path = TempPath("run_report_hist.json");
  ASSERT_TRUE(WriteRunReport(path, in).ok());
  auto doc_or = ReadRunReport(path);
  ASSERT_TRUE(doc_or.ok());
  const JsonValue* hist =
      doc_or.value().Find("metrics")->Find("histograms")->Find(
          "synthetic/us");
  ASSERT_NE(hist, nullptr);
  EXPECT_DOUBLE_EQ(hist->Find("count")->number(), 4.0);
  EXPECT_DOUBLE_EQ(hist->Find("min")->number(), 2.0);
  EXPECT_DOUBLE_EQ(hist->Find("max")->number(), 100.0);
  for (const char* q : {"p50", "p90", "p99", "p999"}) {
    const JsonValue* v = hist->Find(q);
    ASSERT_NE(v, nullptr) << q;
    EXPECT_GE(v->number(), 2.0) << q;
    EXPECT_LE(v->number(), 100.0) << q;
  }
}

TEST_F(TelemetryTest, RunReportWrittenOnFailure) {
  // A failed run still gets a report: null result, non-OK status, and
  // whatever series the (caller-owned) sampler collected.
  BirchOptions o = SmallOptions(4);
  RunReportInputs in;
  in.options = &o;
  in.dataset_name = "doomed";
  in.status = Status::InvalidArgument("synthetic failure");
  obs::TimeSeriesSnapshot s;
  s.name = "tree/threshold";
  s.points.push_back({10, 1.5});
  in.timeseries.push_back(s);

  const std::string path = TempPath("run_report_failed.json");
  ASSERT_TRUE(WriteRunReport(path, in).ok());
  auto doc_or = ReadRunReport(path);
  ASSERT_TRUE(doc_or.ok());
  const JsonValue& doc = doc_or.value();
  EXPECT_FALSE(doc.Find("status")->Find("ok")->boolean());
  EXPECT_EQ(doc.Find("timings"), nullptr);  // no result, no timings
  const JsonValue* series = doc.Find("timeseries");
  ASSERT_NE(series, nullptr);
  ASSERT_EQ(series->array().size(), 1u);
  EXPECT_EQ(series->array()[0].Find("name")->string_value(),
            "tree/threshold");
}

TEST_F(TelemetryTest, RunReportRequiresOptions) {
  RunReportInputs in;  // options left null
  Status st = WriteRunReport(TempPath("run_report_null.json"), in);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

TEST_F(TelemetryTest, ReadRejectsWrongSchemaAndVersion) {
  const std::string wrong_schema = TempPath("report_wrong_schema.json");
  ASSERT_TRUE(WriteFileAtomic(wrong_schema,
                              R"({"schema": "not_a_run_report", )"
                              R"("schema_version": 1})")
                  .ok());
  EXPECT_EQ(ReadRunReport(wrong_schema).status().code(),
            StatusCode::kInvalidArgument);

  const std::string wrong_version = TempPath("report_wrong_version.json");
  ASSERT_TRUE(WriteFileAtomic(wrong_version,
                              R"({"schema": "birch_run_report", )"
                              R"("schema_version": 99})")
                  .ok());
  EXPECT_EQ(ReadRunReport(wrong_version).status().code(),
            StatusCode::kInvalidArgument);

  const std::string garbage = TempPath("report_garbage.json");
  ASSERT_TRUE(WriteFileAtomic(garbage, "{\"schema\": \"birch_").ok());
  EXPECT_EQ(ReadRunReport(garbage).status().code(),
            StatusCode::kCorruption);

  EXPECT_FALSE(ReadRunReport(TempPath("no_such_report.json")).ok());
}

TEST_F(TelemetryTest, OptionsFingerprintTracksBehaviorNotTelemetry) {
  BirchOptions a = SmallOptions(8);
  BirchOptions b = SmallOptions(8);
  EXPECT_EQ(OptionsFingerprint(a), OptionsFingerprint(b));
  // Telemetry knobs never change the fingerprint...
  b.obs.sample_every_ms = 50;
  b.obs.series_capacity = 16;
  EXPECT_EQ(OptionsFingerprint(a), OptionsFingerprint(b));
  // ...behavioral knobs always do.
  b.k = 9;
  EXPECT_NE(OptionsFingerprint(a), OptionsFingerprint(b));
  b = SmallOptions(8);
  b.tree.initial_threshold = 0.5;
  EXPECT_NE(OptionsFingerprint(a), OptionsFingerprint(b));
  b = SmallOptions(8);
  b.resources.memory_bytes += 1024;
  EXPECT_NE(OptionsFingerprint(a), OptionsFingerprint(b));
  // The splitter seed routes sharded points, so it changes labels.
  b = SmallOptions(8);
  b.exec.splitter_seed += 1;
  EXPECT_NE(OptionsFingerprint(a), OptionsFingerprint(b));
}

TEST_F(TelemetryTest, ValidateRejectsZeroSeriesCapacity) {
  BirchOptions o = SmallOptions(8);
  o.obs.sample_every_ms = 10;
  o.obs.series_capacity = 0;
  EXPECT_EQ(o.Validate().code(), StatusCode::kInvalidArgument);
  o.obs.series_capacity = 4;
  EXPECT_TRUE(o.Validate().ok());
}

TEST_F(TelemetryTest, JsonWriterParserRoundTrip) {
  JsonWriter w;
  w.BeginObject();
  w.KV("name", "sp\"ec\\ial\n");
  w.KV("int", static_cast<int64_t>(-42));
  w.KV("big", static_cast<uint64_t>(1) << 53);
  w.KV("pi", 3.141592653589793);
  w.KV("flag", true);
  w.Key("null_key").Null();
  w.Key("nested").BeginArray();
  w.BeginObject();
  w.KV("x", 1.5);
  w.EndObject();
  w.Value(static_cast<int64_t>(7));
  w.EndArray();
  w.EndObject();

  auto doc_or = JsonValue::Parse(w.str());
  ASSERT_TRUE(doc_or.ok()) << doc_or.status().ToString();
  const JsonValue& doc = doc_or.value();
  EXPECT_EQ(doc.Find("name")->string_value(), "sp\"ec\\ial\n");
  EXPECT_DOUBLE_EQ(doc.Find("int")->number(), -42.0);
  EXPECT_DOUBLE_EQ(doc.Find("big")->number(), 9007199254740992.0);
  EXPECT_DOUBLE_EQ(doc.Find("pi")->number(), 3.141592653589793);
  EXPECT_TRUE(doc.Find("flag")->boolean());
  EXPECT_EQ(doc.Find("null_key")->kind(), JsonValue::Kind::kNull);
  const JsonValue* nested = doc.Find("nested");
  ASSERT_EQ(nested->array().size(), 2u);
  EXPECT_DOUBLE_EQ(nested->array()[0].Find("x")->number(), 1.5);
  EXPECT_DOUBLE_EQ(nested->array()[1].number(), 7.0);
}

TEST_F(TelemetryTest, JsonParserRejectsMalformedInput) {
  for (const char* bad :
       {"", "{", "[1,2", "{\"a\": }", "{\"a\": 1,}", "[1 2]",
        "\"unterminated", "{\"a\": 1} trailing", "nul", "01",
        "{\"a\"}", "1e", "-"}) {
    EXPECT_EQ(JsonValue::Parse(bad).status().code(),
              StatusCode::kCorruption)
        << "input: " << bad;
  }
  // Depth bomb: past the parser's recursion limit.
  std::string deep(200, '[');
  deep += std::string(200, ']');
  EXPECT_EQ(JsonValue::Parse(deep).status().code(),
            StatusCode::kCorruption);
}

}  // namespace
}  // namespace birch
