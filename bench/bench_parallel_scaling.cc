// E14/E18 — parallel-scaling sweep for the src/exec subsystem.
//
// Runs the paper's base workload (DS1-DS3) at num_threads 0 (the
// serial pipeline), 1, 2, 4, 8 and 16 under affinity dealing, and
// prints per run: wall time, Phase-1 / Phase-3+4 split, quality D,
// matched clusters, the speedup over the serial run of the same
// dataset, and the parallel efficiency (speedup / threads). Threads = 1
// exposes the sharding overhead (block and batch hand-offs through the
// pool plus the merge pass) in isolation; the higher counts show
// scaling on multi-core hosts — on a
// single-core container every speedup sits near or below 1.0 by
// construction, while quality and determinism hold regardless.
#include <cstdio>

#include "bench/bench_util.h"
#include "datagen/paper_datasets.h"
#include "util/table.h"

namespace birch {
namespace {

int Run(int argc, char** argv) {
  // --smoke: scaled-down DS1 at two thread counts, fast enough for
  // `ctest -L smoke`; verifies the parallel pipeline end to end.
  const bool smoke = bench::HasFlagArg(argc, argv, "--smoke");
  std::printf(
      "E14/E18: parallel scaling (sharded Phase 1 + parallel Phases "
      "3/4).\nthreads=0 is the serial pipeline; speedup is serial time "
      "over parallel time;\nefficiency is speedup / threads.\n\n");

  std::vector<PaperDataset> datasets =
      smoke ? std::vector<PaperDataset>{PaperDataset::kDS1}
            : std::vector<PaperDataset>{PaperDataset::kDS1,
                                        PaperDataset::kDS2,
                                        PaperDataset::kDS3};
  std::vector<int> thread_counts =
      smoke ? std::vector<int>{0, 2} : std::vector<int>{0, 1, 2, 4, 8, 16};
  const int k = smoke ? 25 : 100;

  TablePrinter table({"dataset", "threads", "time(s)", "ph1(s)", "ph3+4(s)",
                      "D", "matched", "rebuilds", "speedup", "eff"});
  CsvWriter csv({"dataset", "threads", "seconds", "phase1_seconds",
                 "phase34_seconds", "d", "matched", "rebuilds", "speedup",
                 "efficiency"});
  bench::JsonRows json("bench_parallel_scaling");

  for (auto ds : datasets) {
    auto gen = smoke ? GeneratePaperDataset(ds, k, /*n_override=*/100)
                     : GeneratePaperDataset(ds);
    if (!gen.ok()) {
      std::fprintf(stderr, "generate failed: %s\n",
                   gen.status().ToString().c_str());
      return 1;
    }
    const auto& g = gen.value();
    double serial_seconds = 0.0;
    for (int threads : thread_counts) {
      BirchOptions o = bench::PaperDefaults(k, g.data.size());
      o.exec.num_threads = threads;
      auto row_or = bench::RunBirch(g, o);
      if (!row_or.ok()) {
        std::fprintf(stderr, "run failed (threads=%d): %s\n", threads,
                     row_or.status().ToString().c_str());
        return 1;
      }
      const auto& row = row_or.value();
      if (threads == 0) serial_seconds = row.seconds_total;
      double speedup =
          row.seconds_total > 0.0 ? serial_seconds / row.seconds_total : 0.0;
      double efficiency = threads > 0 ? speedup / threads : 1.0;
      double ph34 = row.result.timings.phase3 + row.result.timings.phase4;
      table.Row()
          .Add(PaperDatasetName(ds))
          .Add(threads)
          .Add(row.seconds_total, 3)
          .Add(row.result.timings.phase1, 3)
          .Add(ph34, 3)
          .Add(row.weighted_diameter, 2)
          .Add(row.match.matched)
          .Add(static_cast<int64_t>(row.result.phase1.rebuilds))
          .Add(speedup, 2)
          .Add(efficiency, 2);
      csv.Row()
          .Add(PaperDatasetName(ds))
          .Add(static_cast<int64_t>(threads))
          .Add(row.seconds_total)
          .Add(row.result.timings.phase1)
          .Add(ph34)
          .Add(row.weighted_diameter)
          .Add(static_cast<int64_t>(row.match.matched))
          .Add(static_cast<int64_t>(row.result.phase1.rebuilds))
          .Add(speedup)
          .Add(efficiency);
      json.Row()
          .Add("dataset", PaperDatasetName(ds))
          .Add("threads", static_cast<int64_t>(threads))
          .Add("seconds", row.seconds_total)
          .Add("phase1_seconds", row.result.timings.phase1)
          .Add("phase34_seconds", ph34)
          .Add("d", row.weighted_diameter)
          .Add("matched", static_cast<int64_t>(row.match.matched))
          .Add("rebuilds", static_cast<int64_t>(row.result.phase1.rebuilds))
          .Add("speedup", speedup)
          .Add("efficiency", efficiency);
      if (smoke && row.match.matched < k / 2) {
        std::fprintf(stderr,
                     "smoke: threads=%d matched only %d of %d clusters\n",
                     threads, row.match.matched, k);
        return 1;
      }
    }
  }
  table.Print();
  bench::MaybeWriteCsv(csv, bench::CsvPathFromArgs(argc, argv));
  bench::MaybeWriteJson(json, bench::JsonPathFromArgs(argc, argv));
  return 0;
}

}  // namespace
}  // namespace birch

int main(int argc, char** argv) { return birch::Run(argc, argv); }
