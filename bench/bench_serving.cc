// Serving-tier benchmark: closed-loop mixed read/write load against a
// live BirchServer (DESIGN.md §13). An ingest thread keeps streaming
// DS1 points (serial Phase 1, publishing an epoch every
// serving.publish_every_n of them; a second scenario drives the
// sharded pipeline's quiesce-and-publish hook), while N reader threads
// hammer Assign() — with an occasional KNearestCentroids() — on the
// current epoch. Reports aggregate QPS and the p50/p99/p999 assign
// latency taken from the "serving/assign_us" obs histogram delta, so
// the bench measures exactly what production telemetry would.
//
//   bench_serving [--smoke] [--readers N] [--seconds S] [--qps Q]
//                 [--min-qps Q]
//                 [--csv out.csv] [--json out.json] [--report out.json]
//
// --qps Q paces the readers to an aggregate target (0 = unpaced closed
// loop); --min-qps Q makes the serial scenario's aggregate QPS a hard
// gate (exit 1 below it; default 0 = report only, since wall-clock
// throughput is hardware-dependent). The determinism check (bitwise
// repeatable queries on a pinned epoch) always gates.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "birch/run_report.h"
#include "datagen/paper_datasets.h"
#include "serving/server.h"
#include "serving/snapshot.h"
#include "util/table.h"

namespace birch {
namespace {

/// Cycles a dataset's rows until Stop() — gives the sharded Cluster()
/// call a stream that outlasts the measurement window.
class CyclingSource : public PointSource {
 public:
  explicit CyclingSource(const Dataset* data) : data_(data) {}
  size_t dim() const override { return data_->dim(); }
  bool Next(std::span<double> out, double* weight) override {
    if (stop_.load(std::memory_order_relaxed)) return false;
    auto row = data_->Row(next_);
    std::copy(row.begin(), row.end(), out.begin());
    *weight = 1.0;
    next_ = (next_ + 1) % data_->size();
    return true;
  }
  void Stop() { stop_.store(true, std::memory_order_relaxed); }

 private:
  const Dataset* data_;
  size_t next_ = 0;
  std::atomic<bool> stop_{false};
};

struct LoadResult {
  uint64_t assign_queries = 0;
  uint64_t knn_queries = 0;
  uint64_t errors = 0;
  double seconds = 0.0;
};

/// Runs `readers` closed-loop reader threads against `server` for
/// `seconds` (or until the server's clusterer stops publishing — the
/// readers only depend on the server). `target_qps` > 0 paces the
/// aggregate rate across readers.
LoadResult DriveReaders(const serving::BirchServer* server,
                        const Dataset& data, int readers, double seconds,
                        double target_qps) {
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> assigns{0}, knns{0}, errors{0};
  std::vector<std::thread> threads;
  threads.reserve(readers);
  Timer timer;
  for (int r = 0; r < readers; ++r) {
    threads.emplace_back([&, r] {
      std::mt19937_64 rng(0x5e41 + static_cast<uint64_t>(r));
      std::uniform_int_distribution<size_t> pick(0, data.size() - 1);
      // Per-reader pacing interval for the aggregate target.
      const double interval_s =
          target_qps > 0.0 ? readers / target_qps : 0.0;
      auto next_due = std::chrono::steady_clock::now();
      uint64_t n = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        if (interval_s > 0.0) {
          std::this_thread::sleep_until(next_due);
          next_due += std::chrono::duration_cast<
              std::chrono::steady_clock::duration>(
              std::chrono::duration<double>(interval_s));
        }
        auto row = data.Row(pick(rng));
        if (++n % 16 == 0) {
          auto knn = server->KNearestCentroids(row, 5);
          if (knn.ok()) {
            knns.fetch_add(1, std::memory_order_relaxed);
          } else {
            errors.fetch_add(1, std::memory_order_relaxed);
          }
        } else {
          auto got = server->Assign(row);
          if (got.ok() && got.value().cluster_id >= 0) {
            assigns.fetch_add(1, std::memory_order_relaxed);
          } else {
            errors.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : threads) t.join();
  LoadResult out;
  out.seconds = timer.Seconds();
  out.assign_queries = assigns.load();
  out.knn_queries = knns.load();
  out.errors = errors.load();
  return out;
}

/// The determinism gate: a pinned epoch answers bitwise-identically on
/// repeat. Returns false (after printing why) on any violation.
bool CheckDeterminism(const serving::BirchServer* server,
                      const Dataset& data) {
  auto epoch = server->Acquire();
  if (epoch == nullptr) {
    std::fprintf(stderr, "determinism: no epoch to check\n");
    return false;
  }
  kernel::Workspace ws;
  for (size_t i = 0; i < data.size(); i += 7) {
    auto row = data.Row(i);
    serving::AssignResult a = epoch->Assign(row, &ws);
    serving::AssignResult b = epoch->Assign(row, &ws);
    if (std::memcmp(&a.distance, &b.distance, sizeof(double)) != 0 ||
        a.leaf_entry != b.leaf_entry || a.cluster_id != b.cluster_id) {
      std::fprintf(stderr, "determinism: repeat query diverged (row %zu)\n",
                   i);
      return false;
    }
  }
  return true;
}

double HistQuantile(const obs::MetricsSnapshot& m, const std::string& name,
                    double q) {
  auto it = m.histograms.find(name);
  return it == m.histograms.end() ? 0.0 : it->second.Quantile(q);
}

int Run(int argc, char** argv) {
  const bool smoke = bench::HasFlagArg(argc, argv, "--smoke");
  int readers = smoke ? 2 : 8;
  double seconds = smoke ? 0.3 : 2.0;
  double target_qps = 0.0;
  double min_qps = 0.0;
  std::string report_path;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--readers") == 0) readers = std::atoi(argv[i + 1]);
    if (std::strcmp(argv[i], "--seconds") == 0) seconds = std::atof(argv[i + 1]);
    if (std::strcmp(argv[i], "--qps") == 0) target_qps = std::atof(argv[i + 1]);
    if (std::strcmp(argv[i], "--min-qps") == 0) min_qps = std::atof(argv[i + 1]);
    if (std::strcmp(argv[i], "--report") == 0) report_path = argv[i + 1];
  }
  if (readers < 1) readers = 1;

  std::printf(
      "serving tier: %d reader threads vs live ingest on DS1%s\n"
      "latency quantiles come from the serving/assign_us obs histogram "
      "delta.\n\n",
      readers, smoke ? " (smoke)" : "");

  const int k = smoke ? 25 : 100;
  auto gen = smoke ? GeneratePaperDataset(PaperDataset::kDS1, k,
                                          /*n_override=*/100)
                   : GeneratePaperDataset(PaperDataset::kDS1);
  if (!gen.ok()) {
    std::fprintf(stderr, "generate failed: %s\n",
                 gen.status().ToString().c_str());
    return 1;
  }
  const Dataset& data = gen.value().data;
  const uint64_t publish_every = smoke ? 50 : 2000;

  TablePrinter table({"scenario", "readers", "time(s)", "assign qps",
                      "knn qps", "p50(us)", "p99(us)", "p999(us)", "epochs",
                      "age(ms)"});
  CsvWriter csv({"scenario", "readers", "seconds", "assign_qps", "knn_qps",
                 "assign_p50_us", "assign_p99_us", "assign_p999_us",
                 "epochs", "snapshot_age_ms"});
  bench::JsonRows json("bench_serving");
  std::map<std::string, double> report_serving;

  struct Scenario {
    const char* name;
    int threads;  // BirchOptions::num_threads for the ingest side
  };
  const std::vector<Scenario> scenarios = {{"serial-ingest", 0},
                                           {"sharded-ingest", 2}};
  BirchOptions report_options;
  int exit_code = 0;

  for (const Scenario& sc : scenarios) {
    BirchOptions o = bench::PaperDefaults(k, data.size());
    o.exec.num_threads = sc.threads;
    o.serving.publish_every_n = publish_every;
    if (sc.threads == 0) report_options = o;
    auto c_or = BirchClusterer::Create(o);
    if (!c_or.ok()) {
      std::fprintf(stderr, "%s: %s\n", sc.name,
                   c_or.status().ToString().c_str());
      return 1;
    }
    BirchClusterer* c = c_or.value().get();

    obs::MetricsSnapshot before = obs::CaptureSnapshot();
    std::atomic<bool> stop_ingest{false};
    Status ingest_status;
    CyclingSource cycling(&data);
    std::thread ingest;
    if (sc.threads == 0) {
      // Prime one pass so the first epoch exists before readers start,
      // then keep cycling the stream on a dedicated thread.
      Status st = c->AddDataset(data);
      if (st.ok() && c->server()->epoch() == 0) st = c->PublishSnapshot();
      if (!st.ok()) {
        std::fprintf(stderr, "%s: %s\n", sc.name, st.ToString().c_str());
        return 1;
      }
      ingest = std::thread([&] {
        size_t i = 0;
        while (!stop_ingest.load(std::memory_order_relaxed)) {
          ingest_status = c->Add(data.Row(i));
          if (!ingest_status.ok()) return;
          i = (i + 1) % data.size();
        }
      });
    } else {
      // Sharded: Cluster() owns the whole pipeline; epochs appear via
      // the dealer's quiesce-and-publish hook. Wait for the first one.
      ingest = std::thread(
          [&] { ingest_status = c->Cluster(&cycling, nullptr).status(); });
      // Bounded wait: if the run dies before its first publish, the
      // readers will report the FailedPrecondition as query errors.
      auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(30);
      while (c->server()->epoch() == 0 &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::yield();
      }
    }

    LoadResult load =
        DriveReaders(c->server(), data, readers, seconds, target_qps);
    const bool deterministic = CheckDeterminism(c->server(), data);
    const double age_ms = c->server()->SnapshotAgeMs();
    const uint64_t epochs = c->server()->publishes();
    stop_ingest.store(true, std::memory_order_relaxed);
    cycling.Stop();
    ingest.join();
    if (!ingest_status.ok()) {
      std::fprintf(stderr, "%s ingest: %s\n", sc.name,
                   ingest_status.ToString().c_str());
      return 1;
    }
    if (!deterministic) return 1;

    obs::MetricsSnapshot delta = obs::CaptureSnapshot().DeltaSince(before);
    const double assign_qps =
        load.seconds > 0.0 ? load.assign_queries / load.seconds : 0.0;
    const double knn_qps =
        load.seconds > 0.0 ? load.knn_queries / load.seconds : 0.0;
    const double p50 = HistQuantile(delta, "serving/assign_us", 0.50);
    const double p99 = HistQuantile(delta, "serving/assign_us", 0.99);
    const double p999 = HistQuantile(delta, "serving/assign_us", 0.999);

    table.Row()
        .Add(sc.name)
        .Add(readers)
        .Add(load.seconds, 2)
        .Add(assign_qps, 0)
        .Add(knn_qps, 0)
        .Add(p50, 1)
        .Add(p99, 1)
        .Add(p999, 1)
        .Add(static_cast<int64_t>(epochs))
        .Add(age_ms, 1);
    csv.Row()
        .Add(sc.name)
        .Add(static_cast<int64_t>(readers))
        .Add(load.seconds)
        .Add(assign_qps)
        .Add(knn_qps)
        .Add(p50)
        .Add(p99)
        .Add(p999)
        .Add(static_cast<int64_t>(epochs))
        .Add(age_ms);
    json.Row()
        .Add("scenario", sc.name)
        .Add("readers", static_cast<int64_t>(readers))
        .Add("seconds", load.seconds)
        .Add("assign_qps", assign_qps)
        .Add("knn_qps", knn_qps)
        .Add("assign_p50_us", p50)
        .Add("assign_p99_us", p99)
        .Add("assign_p999_us", p999)
        .Add("epochs", static_cast<int64_t>(epochs))
        .Add("snapshot_age_ms", age_ms);

    if (load.errors > 0) {
      std::fprintf(stderr, "%s: %llu query errors\n", sc.name,
                   static_cast<unsigned long long>(load.errors));
      return 1;
    }
    if (smoke && epochs == 0) {
      std::fprintf(stderr, "%s: no epochs published\n", sc.name);
      return 1;
    }
    if (sc.threads == 0) {
      report_serving = {{"assign_qps", assign_qps},
                        {"knn_qps", knn_qps},
                        {"assign_p50_us", p50},
                        {"assign_p99_us", p99},
                        {"assign_p999_us", p999},
                        {"epochs", static_cast<double>(epochs)},
                        {"snapshot_age_ms", age_ms},
                        {"readers", static_cast<double>(readers)}};
      if (min_qps > 0.0 && assign_qps < min_qps) {
        std::fprintf(stderr, "serial-ingest: %.0f assign QPS < --min-qps %.0f\n",
                     assign_qps, min_qps);
        exit_code = 1;
      }
    }
  }

  table.Print();
  bench::MaybeWriteCsv(csv, bench::CsvPathFromArgs(argc, argv));
  bench::MaybeWriteJson(json, bench::JsonPathFromArgs(argc, argv));
  if (!report_path.empty()) {
    RunReportInputs in;
    in.options = &report_options;
    in.dataset_name = "DS1";
    in.dataset_points = data.size();
    in.dataset_dim = data.dim();
    in.status = Status::OK();
    in.serving = report_serving;
    Status st = WriteRunReport(report_path, in);
    if (!st.ok()) {
      std::fprintf(stderr, "report write failed: %s\n",
                   st.ToString().c_str());
      return 1;
    }
    std::printf("(run report written to %s)\n", report_path.c_str());
  }
  return exit_code;
}

}  // namespace
}  // namespace birch

int main(int argc, char** argv) { return birch::Run(argc, argv); }
