// E-numerics — classic (N, LS, SS) vs BETULA (N, mean, S) cluster
// features on ill-conditioned data.
//
// The workload is IllConditionedOptions: tight unit-radius clusters on
// a coarse grid, translated `offset` away from the origin. At offset 0
// both representations are exact. At offset 1e8 the classic CF's
// radius SS/N - ||LS/N||^2 subtracts two ~1e16 terms whose difference
// (the actual spread, ~1) is below double's resolution at that
// magnitude, so the cancellation guard clamps every radius to zero,
// the tree absorbs everything into a handful of entries, and quality
// collapses. BETULA stores the deviations directly and is unaffected.
//
// Quality is measured offset-invariantly: cluster CFs are rebuilt from
// the result labels over a *centered* copy of the data (offset
// subtracted), so "D" is comparable across offsets.
//
// --smoke shrinks the point count; --json <path> appends nothing but
// rewrites the whole trajectory record (used for BENCH_numerics.json).
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "eval/quality.h"
#include "util/table.h"

namespace birch {
namespace {

struct LegResult {
  std::string leg;
  double offset = 0.0;
  double seconds = 0.0;
  double d_centered = 0.0;       // result quality, offset-invariant
  double d_truth = 0.0;          // ground-truth quality, same measure
  double label_accuracy = 0.0;
  uint64_t entries = 0;
  uint64_t clamped = 0;          // cf/cancellation_clamped
};

/// Rebuilds cluster CFs from labels over an offset-subtracted copy of
/// the data so diameters are comparable across offsets.
double CenteredDiameter(const Dataset& data, std::span<const int> labels,
                        double offset) {
  Dataset centered(data.dim());
  centered.Reserve(data.size());
  std::vector<double> p(data.dim());
  for (size_t i = 0; i < data.size(); ++i) {
    auto row = data.Row(i);
    for (size_t t = 0; t < p.size(); ++t) p[t] = row[t] - offset;
    centered.Append(p);
  }
  std::vector<CfVector> cfs = ClustersFromLabels(centered, labels);
  return WeightedAverageDiameter(cfs);
}

int Run(int argc, char** argv) {
  const bool smoke = bench::HasFlagArg(argc, argv, "--smoke");
  std::printf(
      "E-numerics: classic vs BETULA CFs on ill-conditioned data\n"
      "(tight unit clusters translated `offset` from the origin; D is\n"
      "recomputed over centered data so rows are comparable)\n\n");

  const size_t dim = 2;
  const int k = 16;
  const int points_per_cluster = smoke ? 120 : 500;
  const double offsets[] = {0.0, 1e4, 1e8};

  TablePrinter table({"leg", "offset", "time(s)", "D", "D-truth",
                      "label-acc", "entries", "clamped"});
  CsvWriter csv({"leg", "offset", "seconds", "d", "d_truth",
                 "label_accuracy", "entries", "clamped"});
  std::vector<LegResult> results;

  auto run_leg = [&](const std::string& leg, CfRepresentation rep,
                     double offset) -> bool {
    GeneratorOptions g = IllConditionedOptions(dim, k, offset, /*seed=*/7);
    g.n_low = g.n_high = points_per_cluster;
    auto gen = Generate(g);
    if (!gen.ok()) {
      std::fprintf(stderr, "generate failed: %s\n",
                   gen.status().ToString().c_str());
      return false;
    }
    BirchOptions opts = bench::PaperDefaults(k, gen.value().data.size());
    opts.dim = dim;
    opts.tree.cf = rep;
    auto row_or = bench::RunBirch(gen.value(), opts);
    if (!row_or.ok()) {
      std::fprintf(stderr, "run failed (%s): %s\n", leg.c_str(),
                   row_or.status().ToString().c_str());
      return false;
    }
    const auto& row = row_or.value();
    LegResult r;
    r.leg = leg;
    r.offset = offset;
    r.seconds = row.seconds_total;
    r.d_centered =
        CenteredDiameter(gen.value().data, row.result.labels, offset);
    r.d_truth = CenteredDiameter(gen.value().data, gen.value().truth, offset);
    r.label_accuracy = row.label_accuracy;
    r.entries = row.result.leaf_entries_after_phase1;
    auto it = row.result.metrics.counters.find("cf/cancellation_clamped");
    r.clamped = it == row.result.metrics.counters.end() ? 0 : it->second;
    results.push_back(r);
    table.Row()
        .Add(leg)
        .Add(offset, 0)
        .Add(r.seconds, 3)
        .Add(r.d_centered, 3)
        .Add(r.d_truth, 3)
        .Add(r.label_accuracy, 3)
        .Add(static_cast<int64_t>(r.entries))
        .Add(static_cast<int64_t>(r.clamped));
    csv.Row()
        .Add(leg)
        .Add(r.offset)
        .Add(r.seconds)
        .Add(r.d_centered)
        .Add(r.d_truth)
        .Add(r.label_accuracy)
        .Add(static_cast<int64_t>(r.entries))
        .Add(static_cast<int64_t>(r.clamped));
    return true;
  };

  for (double offset : offsets) {
    if (!run_leg("classic", CfRepresentation::kClassic, offset) ||
        !run_leg("betula", CfRepresentation::kBetula, offset)) {
      return 1;
    }
  }
  table.Print();

  // Smoke acceptance: BETULA at the worst offset must stay within 5%
  // of its own zero-offset quality; classic must measurably degrade.
  double betula_base = 0.0, betula_worst = 0.0;
  double classic_base = 0.0, classic_worst = 0.0;
  for (const auto& r : results) {
    if (r.leg == "betula" && r.offset == 0.0) betula_base = r.d_centered;
    if (r.leg == "betula" && r.offset == 1e8) betula_worst = r.d_centered;
    if (r.leg == "classic" && r.offset == 0.0) classic_base = r.d_centered;
    if (r.leg == "classic" && r.offset == 1e8) classic_worst = r.d_centered;
  }
  std::printf(
      "\nbetula D at 1e8 vs 0: %.4f vs %.4f (%+.2f%%)\n"
      "classic D at 1e8 vs 0: %.4f vs %.4f (%+.2f%%)\n",
      betula_worst, betula_base,
      100.0 * (betula_worst - betula_base) / betula_base, classic_worst,
      classic_base, 100.0 * (classic_worst - classic_base) / classic_base);
  if (betula_worst > 1.05 * betula_base) {
    std::fprintf(stderr,
                 "FAIL: betula quality degraded >5%% at offset 1e8\n");
    return 1;
  }
  if (classic_worst < 1.5 * classic_base) {
    std::fprintf(stderr,
                 "FAIL: classic did not degrade at offset 1e8 — the "
                 "workload is no longer ill-conditioned enough\n");
    return 1;
  }

  bench::MaybeWriteCsv(csv, bench::CsvPathFromArgs(argc, argv));
  bench::JsonRows json("bench_numerics");
  for (const auto& r : results) {
    json.Row()
        .Add("leg", r.leg)
        .Add("offset", r.offset)
        .Add("seconds", r.seconds)
        .Add("d", r.d_centered)
        .Add("d_truth", r.d_truth)
        .Add("label_accuracy", r.label_accuracy)
        .Add("entries", r.entries)
        .Add("clamped", r.clamped);
  }
  bench::MaybeWriteJson(json, bench::JsonPathFromArgs(argc, argv));
  return 0;
}

}  // namespace
}  // namespace birch

int main(int argc, char** argv) { return birch::Run(argc, argv); }
