// E1 — Table 4 (base workload) and the numeric stand-in for Figs. 6-7.
//
// Runs BIRCH with the paper's default parameters on DS1, DS2 and DS3
// (100 clusters, ~100k points each) and prints, per dataset: running
// time, the quality measure D (weighted average cluster diameter), the
// number of leaf entries after Phase 1, rebuild count, and peak memory.
// The paper's visual claim (Figs. 6-7: BIRCH clusters ~= actual
// clusters) is reported as centroid displacement / count deviation /
// radius deviation from greedy cluster matching, plus an ASCII render
// of the DS1 clustering.
#include <cstdio>

#include "bench/bench_util.h"
#include "datagen/paper_datasets.h"
#include "eval/visualize.h"
#include "util/table.h"

namespace birch {
namespace {

int Run(int argc, char** argv) {
  // --smoke: scaled-down DS1 with metrics + trace export, fast enough
  // for `ctest -L smoke`. Exercises the full bench + obs pipeline.
  const bool smoke = bench::HasFlagArg(argc, argv, "--smoke");
  if (smoke) obs::Tracer::Default().StartRecording();
  std::printf(
      "E1 / Table 4: base workload (paper: BIRCH ~= 50s per dataset on "
      "1996 hardware,\nD within a few %% of the actual clusters, all 100 "
      "clusters recovered)\n\n");
  TablePrinter table({"dataset", "N", "time(s)", "ph1(s)", "ph4(s)", "D",
                      "D-actual", "entries", "rebuilds", "peak-mem(KB)",
                      "matched", "centroid-disp"});
  CsvWriter csv({"dataset", "n", "seconds", "d", "d_actual", "entries",
                 "rebuilds", "matched", "centroid_disp"});
  bench::JsonRows json("bench_base_workload");

  std::vector<PaperDataset> datasets =
      smoke ? std::vector<PaperDataset>{PaperDataset::kDS1}
            : std::vector<PaperDataset>{PaperDataset::kDS1,
                                        PaperDataset::kDS2,
                                        PaperDataset::kDS3};
  const int k = smoke ? 25 : 100;
  obs::MetricsSnapshot smoke_metrics;
  for (auto ds : datasets) {
    auto gen = smoke ? GeneratePaperDataset(ds, k, /*n_override=*/100)
                     : GeneratePaperDataset(ds);
    if (!gen.ok()) {
      std::fprintf(stderr, "generate failed: %s\n",
                   gen.status().ToString().c_str());
      return 1;
    }
    const auto& g = gen.value();
    BirchOptions opts = bench::PaperDefaults(k, g.data.size());
    auto row_or = bench::RunBirch(g, opts);
    if (!row_or.ok()) {
      std::fprintf(stderr, "run failed: %s\n",
                   row_or.status().ToString().c_str());
      return 1;
    }
    const auto& row = row_or.value();
    if (smoke) smoke_metrics = row.result.metrics;
    table.Row()
        .Add(PaperDatasetName(ds))
        .Add(g.data.size())
        .Add(row.seconds_total, 2)
        .Add(row.result.timings.phase1, 3)
        .Add(row.result.timings.phase4, 2)
        .Add(row.weighted_diameter, 2)
        .Add(row.actual_diameter, 2)
        .Add(row.result.leaf_entries_after_phase1)
        .Add(static_cast<int64_t>(row.result.phase1.rebuilds))
        .Add(static_cast<int64_t>(row.result.peak_memory_bytes / 1024))
        .Add(row.match.matched)
        .Add(row.match.mean_centroid_displacement, 3);
    csv.Row()
        .Add(PaperDatasetName(ds))
        .Add(static_cast<int64_t>(g.data.size()))
        .Add(row.seconds_total)
        .Add(row.weighted_diameter)
        .Add(row.actual_diameter)
        .Add(static_cast<int64_t>(row.result.leaf_entries_after_phase1))
        .Add(static_cast<int64_t>(row.result.phase1.rebuilds))
        .Add(static_cast<int64_t>(row.match.matched))
        .Add(row.match.mean_centroid_displacement);
    json.Row()
        .Add("dataset", PaperDatasetName(ds))
        .Add("n", static_cast<int64_t>(g.data.size()))
        .Add("seconds", row.seconds_total)
        .Add("d", row.weighted_diameter)
        .Add("d_actual", row.actual_diameter)
        .Add("entries",
             static_cast<int64_t>(row.result.leaf_entries_after_phase1))
        .Add("rebuilds", static_cast<int64_t>(row.result.phase1.rebuilds))
        .Add("matched", static_cast<int64_t>(row.match.matched))
        .Add("centroid_disp", row.match.mean_centroid_displacement);

    if (ds == PaperDataset::kDS1 && !smoke) {
      // Figs. 6-7 stand-in: actual vs BIRCH clusters for DS1.
      std::vector<CfVector> actual_cfs;
      for (const auto& a : g.actual) actual_cfs.push_back(a.cf);
      std::printf("DS1 actual clusters (Fig. 6 stand-in):\n%s\n",
                  RenderClusters(actual_cfs).c_str());
      std::printf("DS1 BIRCH clusters (Fig. 7 stand-in):\n%s\n",
                  RenderClusters(row.result.clusters).c_str());
    }
  }
  table.Print();
  bench::MaybeWriteCsv(csv, bench::CsvPathFromArgs(argc, argv));
  bench::MaybeWriteJson(json, bench::JsonPathFromArgs(argc, argv));
  if (smoke) {
    // The smoke run must prove the export pipeline end to end: a
    // metrics table with real counts, a CSV, and a loadable trace.
    if (smoke_metrics.empty()) {
      std::fprintf(stderr, "smoke: metrics snapshot is empty\n");
      return 1;
    }
    if (!bench::DumpMetrics(smoke_metrics, "smoke_metrics.csv",
                            "smoke_trace.json")) {
      return 1;
    }
  }
  return 0;
}

}  // namespace
}  // namespace birch

int main(int argc, char** argv) { return birch::Run(argc, argv); }
