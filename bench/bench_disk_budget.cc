// E12 (extension of Sec. 5.1.4): behaviour of the outlier disk budget
// R. The paper fixes R = 20% of M and describes the control flow when
// the disk fills (re-absorb cycles, Fig. 2's "out of disk space"
// branch). This bench sweeps R on a noisy workload and reports the
// spill/re-absorb/forced-insert counters, the in-tree fallback's
// absorbed and dropped entries, and the resulting quality. R = 0 is no
// outlier disk at all (the in-tree fallback), and R = 1 KB is one page
// at P = 1 KB, the forced-insert regime.
// The committed --json output feeds the tools/bench_diff perf gates.
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "datagen/paper_datasets.h"
#include "util/table.h"

namespace birch {
namespace {

int Run(int argc, char** argv) {
  const bool smoke = bench::HasFlagArg(argc, argv, "--smoke");
  bench::JsonRows json("bench_disk_budget");
  CsvWriter csv({"r_kb", "seconds", "phase1_seconds", "d", "spilled",
                 "reabsorbed", "cycles", "forced", "delay_spilled",
                 "fallback_absorbed", "fallback_dropped", "matched"});

  GeneratorOptions go =
      smoke ? PaperDatasetOptions(PaperDataset::kDS1, 25, 5000, 0.05)
            : PaperDatasetOptions(PaperDataset::kDS1, 0, 0,
                                  /*noise_fraction=*/0.05);
  go.grid_spacing = 8.0;
  auto gen = Generate(go);
  if (!gen.ok()) return 1;
  const GeneratedData& g = gen.value();

  std::printf(
      "E12 / Sec. 5.1.4 extension: outlier-disk budget sweep on a "
      "noisy DS1 variant\n(graceful degradation as R shrinks; paper "
      "default R = 20%% of M)\n\n");
  TablePrinter table({"R(KB)", "time(s)", "p1(s)", "D", "spilled",
                      "reabsorbed", "cycles", "forced", "delay-spilled",
                      "fb-absorbed", "fb-dropped", "matched"});

  std::vector<size_t> r_kbs = smoke ? std::vector<size_t>{4, 16}
                                    : std::vector<size_t>{0, 1, 2, 4, 8,
                                                          16, 32, 64};
  for (size_t r_kb : r_kbs) {
    BirchOptions o = bench::PaperDefaults(smoke ? 25 : 100, g.data.size());
    o.resources.disk_bytes = r_kb * 1024;
    auto row_or = bench::RunBirch(g, o);
    if (!row_or.ok()) {
      std::fprintf(stderr, "R=%zuKB failed: %s\n", r_kb,
                   row_or.status().ToString().c_str());
      return 1;
    }
    const bench::RunRow& row = row_or.value();
    const BirchResult& res = row.result;
    const Phase1Stats& s = res.phase1;
    const RobustnessStats& rb = res.robustness;
    table.Row()
        .Add(r_kb)
        .Add(row.seconds_total, 2)
        .Add(res.timings.phase1, 2)
        .Add(row.weighted_diameter, 2)
        .Add(static_cast<int64_t>(s.outlier_entries_spilled))
        .Add(static_cast<int64_t>(s.outlier_entries_reabsorbed))
        .Add(static_cast<int64_t>(s.reabsorb_cycles))
        .Add(static_cast<int64_t>(s.forced_inserts))
        .Add(static_cast<int64_t>(s.points_delay_spilled))
        .Add(static_cast<int64_t>(rb.fallback_absorbed))
        .Add(static_cast<int64_t>(rb.fallback_dropped))
        .Add(row.match.matched);
    csv.Row()
        .Add(static_cast<int64_t>(r_kb))
        .Add(row.seconds_total)
        .Add(res.timings.phase1)
        .Add(row.weighted_diameter)
        .Add(static_cast<int64_t>(s.outlier_entries_spilled))
        .Add(static_cast<int64_t>(s.outlier_entries_reabsorbed))
        .Add(static_cast<int64_t>(s.reabsorb_cycles))
        .Add(static_cast<int64_t>(s.forced_inserts))
        .Add(static_cast<int64_t>(s.points_delay_spilled))
        .Add(static_cast<int64_t>(rb.fallback_absorbed))
        .Add(static_cast<int64_t>(rb.fallback_dropped))
        .Add(static_cast<int64_t>(row.match.matched));
    json.Row()
        .Add("scenario", "r-sweep")
        .Add("r_kb", static_cast<uint64_t>(r_kb))
        .Add("seconds", row.seconds_total)
        .Add("phase1_seconds", res.timings.phase1)
        .Add("d", row.weighted_diameter)
        .Add("spilled", s.outlier_entries_spilled)
        .Add("reabsorbed", s.outlier_entries_reabsorbed)
        .Add("fallback_absorbed", rb.fallback_absorbed)
        .Add("fallback_dropped", rb.fallback_dropped)
        .Add("matched", static_cast<int64_t>(row.match.matched));
  }
  table.Print();

  bench::MaybeWriteCsv(csv, bench::CsvPathFromArgs(argc, argv));
  bench::MaybeWriteJson(json, bench::JsonPathFromArgs(argc, argv));
  return 0;
}

}  // namespace
}  // namespace birch

int main(int argc, char** argv) { return birch::Run(argc, argv); }
