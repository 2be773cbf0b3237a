// Microbenchmarks (google-benchmark) for the hot primitives: CF point
// accumulation, the D0-D4 distances, CF-tree point insertion across
// page sizes and metrics, the point->center argmin, and tree
// rebuilding. These back the design decisions called out in DESIGN.md
// (entry layout, descent metric).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <span>
#include <string>

#include "birch/cf_tree.h"
#include "birch/cf_vector.h"
#include "birch/kernel/kernel.h"
#include "birch/metrics.h"
#include "birch/phase1.h"
#include "obs/metrics.h"
#include "pagestore/memory_tracker.h"
#include "util/random.h"

namespace birch {
namespace {

void BM_CfAddPoint(benchmark::State& state) {
  const size_t dim = static_cast<size_t>(state.range(0));
  const auto rep = static_cast<CfRepresentation>(state.range(1));
  Rng rng(1);
  std::vector<double> p(dim);
  for (auto& v : p) v = rng.NextDouble();
  CfVector cf(dim, rep);
  for (auto _ : state) {
    cf.AddPoint(p);
    benchmark::DoNotOptimize(cf);
  }
  state.SetLabel(CfRepresentationName(rep));
}
BENCHMARK(BM_CfAddPoint)->ArgsProduct({{2, 8, 32}, {0, 1}});

void BM_CfMerge(benchmark::State& state) {
  const size_t dim = static_cast<size_t>(state.range(0));
  const auto rep = static_cast<CfRepresentation>(state.range(1));
  Rng rng(2);
  CfVector a(dim, rep), b(dim, rep);
  std::vector<double> p(dim);
  for (int i = 0; i < 100; ++i) {
    for (auto& v : p) v = rng.NextDouble();
    a.AddPoint(p);
    for (auto& v : p) v = rng.NextDouble();
    b.AddPoint(p);
  }
  for (auto _ : state) {
    CfVector m = CfVector::Merged(a, b);
    benchmark::DoNotOptimize(m);
  }
  state.SetLabel(CfRepresentationName(rep));
}
BENCHMARK(BM_CfMerge)->ArgsProduct({{2, 32}, {0, 1}});

void BM_Distance(benchmark::State& state) {
  const auto metric = static_cast<DistanceMetric>(state.range(0));
  Rng rng(3);
  CfVector a(8), b(8);
  std::vector<double> p(8);
  for (int i = 0; i < 50; ++i) {
    for (auto& v : p) v = rng.NextDouble();
    a.AddPoint(p);
    for (auto& v : p) v = rng.NextDouble() + 2.0;
    b.AddPoint(p);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(Distance(metric, a, b));
  }
  state.SetLabel(MetricName(metric));
}
BENCHMARK(BM_Distance)->DenseRange(0, 4);

void BM_TreeInsert(benchmark::State& state) {
  const size_t page = static_cast<size_t>(state.range(0));
  CfTreeOptions o;
  o.dim = 2;
  o.page_size = page;
  o.threshold = 0.5;
  Rng rng(4);
  MemoryTracker mem;
  CfTree tree(o, &mem);
  std::vector<double> p(2);
  for (auto _ : state) {
    p[0] = rng.Uniform(0, 100);
    p[1] = rng.Uniform(0, 100);
    benchmark::DoNotOptimize(tree.InsertPoint(p));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TreeInsert)->Arg(256)->Arg(1024)->Arg(4096);

void BM_TreeInsertMetric(benchmark::State& state) {
  CfTreeOptions o;
  o.dim = 2;
  o.page_size = 1024;
  o.threshold = 0.5;
  o.metric = static_cast<DistanceMetric>(state.range(0));
  Rng rng(5);
  MemoryTracker mem;
  CfTree tree(o, &mem);
  std::vector<double> p(2);
  for (auto _ : state) {
    p[0] = rng.Uniform(0, 100);
    p[1] = rng.Uniform(0, 100);
    benchmark::DoNotOptimize(tree.InsertPoint(p));
  }
  state.SetLabel(MetricName(o.metric));
}
BENCHMARK(BM_TreeInsertMetric)->DenseRange(0, 4);

// Steady-state insert cost (warmed tree, fixed point set, pure
// absorb/descend traffic) so the measured time is the descent scan
// itself. The page size scales with dim so node fan-out stays in the
// paper's regime (~dozens of entries per node) instead of collapsing to
// B≈7 at dim=64, where there is little scan left to time.
void BM_TreeInsertKernel(benchmark::State& state) {
  const size_t dim = static_cast<size_t>(state.range(0));
  CfTreeOptions o;
  o.dim = dim;
  o.page_size = std::max<size_t>(4096, dim * 512);
  o.threshold = 0.5 * std::sqrt(static_cast<double>(dim));
  Rng rng(4);
  MemoryTracker mem;
  CfTree tree(o, &mem);
  constexpr size_t kPoints = 4096;
  std::vector<std::vector<double>> pts(kPoints, std::vector<double>(dim));
  for (auto& p : pts) {
    for (auto& v : p) v = rng.Uniform(0, 100);
  }
  for (const auto& p : pts) tree.InsertPoint(p);  // warm to steady state
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.InsertPoint(pts[i]));
    i = (i + 1) % kPoints;
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel("dim=" + std::to_string(dim) +
                 (kernel::Avx2Active() ? "/avx2" : ""));
}
BENCHMARK(BM_TreeInsertKernel)->Arg(2)->Arg(16)->Arg(64);

// The fused point->centroid argmin (CfBatch::NearestCentroidSqRows) over
// a block of k classic center CFs at dim d, called with one row (serving
// descent, the Phase-3 k-means sweep, the sharded splitter) or four (one
// Phase-4 tile). k = 12 is the splitter's center count at 3 shards;
// k = 100 is Phase 4's seed count in the end-to-end workloads. Items
// are points.
void BM_CenterNearest(benchmark::State& state) {
  const size_t k = static_cast<size_t>(state.range(0));
  const size_t dim = static_cast<size_t>(state.range(1));
  const size_t rows = static_cast<size_t>(state.range(2));
  Rng rng(5);
  kernel::CfBatch batch;
  batch.Init(dim, k, kernel::CfBatch::Needs::For(DistanceMetric::kD0));
  std::vector<double> center(dim);
  for (size_t c = 0; c < k; ++c) {
    for (auto& v : center) v = rng.Uniform(0, 100);
    batch.Append(CfVector::FromPoint(center));
  }
  constexpr size_t kPoints = 1024;  // a multiple of every row count
  std::vector<double> points(kPoints * dim);
  for (auto& v : points) v = rng.Uniform(0, 100);
  std::array<kernel::ScanResult, 4> out;
  size_t i = 0;
  for (auto _ : state) {
    batch.NearestCentroidSqRows(
        std::span<const double>(points).subspan(i * dim, rows * dim), rows,
        out.data());
    benchmark::DoNotOptimize(out);
    i = (i + rows) % kPoints;
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(rows));
  state.SetLabel("k=" + std::to_string(k) + "/dim=" + std::to_string(dim) +
                 "/rows=" + std::to_string(rows) +
                 (kernel::Avx2Active() ? "/avx2" : ""));
}
BENCHMARK(BM_CenterNearest)->ArgsProduct({{12, 100}, {2, 16, 64}, {1, 4}});

// Instrumentation overhead on the insert path, obs enabled vs
// disabled. The tree is warmed to steady state on a fixed point set
// first (repeat inserts are pure absorptions), so per-insert cost does
// not depend on the iteration count and the two columns are directly
// comparable. The obs-off column is the baseline; the delta documents
// the <3% insert-path overhead budget (DESIGN.md "Observability").
void BM_TreeInsertObs(benchmark::State& state) {
  const bool obs_on = state.range(0) != 0;
  const bool prev = obs::Enabled();
  obs::SetEnabled(obs_on);
  CfTreeOptions o;
  o.dim = 2;
  o.page_size = 1024;
  o.threshold = 0.5;
  Rng rng(4);
  MemoryTracker mem;
  CfTree tree(o, &mem);
  constexpr size_t kPoints = 4096;
  std::vector<std::array<double, 2>> pts(kPoints);
  for (auto& p : pts) {
    p[0] = rng.Uniform(0, 100);
    p[1] = rng.Uniform(0, 100);
  }
  for (const auto& p : pts) tree.InsertPoint(p);  // warm to steady state
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.InsertPoint(pts[i]));
    i = (i + 1) % kPoints;
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(obs_on ? "obs-on" : "obs-off");
  obs::SetEnabled(prev);
}
BENCHMARK(BM_TreeInsertObs)->Arg(0)->Arg(1);

// Representation A/B on the insert path: classic (N, LS, SS) vs
// BETULA (N, mean, S), steady-state absorb traffic (same harness as
// BM_TreeInsertKernel).
void BM_TreeInsertCf(benchmark::State& state) {
  const auto rep = static_cast<CfRepresentation>(state.range(0));
  const size_t dim = static_cast<size_t>(state.range(1));
  CfTreeOptions o;
  o.dim = dim;
  o.page_size = std::max<size_t>(4096, dim * 512);
  o.threshold = 0.5 * std::sqrt(static_cast<double>(dim));
  o.cf = rep;
  Rng rng(4);
  MemoryTracker mem;
  CfTree tree(o, &mem);
  constexpr size_t kPoints = 4096;
  std::vector<std::vector<double>> pts(kPoints, std::vector<double>(dim));
  for (auto& p : pts) {
    for (auto& v : p) v = rng.Uniform(0, 100);
  }
  for (const auto& p : pts) tree.InsertPoint(p);  // warm to steady state
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.InsertPoint(pts[i]));
    i = (i + 1) % kPoints;
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(std::string(CfRepresentationName(rep)) + "/dim=" +
                 std::to_string(dim));
}
BENCHMARK(BM_TreeInsertCf)
    ->Args({0, 2})
    ->Args({1, 2})
    ->Args({0, 16})
    ->Args({1, 16});

// Batch-first ingest A/B: the same steady-state stream through the
// per-point Add() loop vs one AddBatch() call over the whole block.
// The batch path validates once, keeps the CfPoint scratch and kernel
// workspace hot across points, and never re-enters the per-call
// precondition checks — the measured ratio is the batch-ingest
// speedup the AddBatch surface buys on the serial path.
void BM_AddBatch(benchmark::State& state) {
  const bool batched = state.range(0) != 0;
  const size_t dim = static_cast<size_t>(state.range(1));
  Phase1Options o;
  o.tree.dim = dim;
  o.tree.page_size = std::max<size_t>(4096, dim * 512);
  o.tree.threshold = 0.5 * std::sqrt(static_cast<double>(dim));
  o.memory_budget_bytes = 0;  // unbounded: no rebuilds mid-measurement
  o.disk_budget_bytes = 0;
  o.outlier_handling = false;
  o.delay_split = false;
  Phase1Builder builder(o);
  constexpr size_t kPoints = 4096;
  Rng rng(4);
  std::vector<double> xs(kPoints * dim);
  for (auto& v : xs) v = rng.Uniform(0, 100);
  // Warm to steady state: repeat ingest is pure absorb traffic.
  if (!builder.AddBatch(xs, kPoints).ok()) {
    state.SkipWithError("warmup AddBatch failed");
    return;
  }
  std::span<const double> all(xs);
  for (auto _ : state) {
    if (batched) {
      benchmark::DoNotOptimize(builder.AddBatch(all, kPoints));
    } else {
      for (size_t i = 0; i < kPoints; ++i) {
        benchmark::DoNotOptimize(builder.Add(all.subspan(i * dim, dim)));
      }
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kPoints));
  state.SetLabel(std::string(batched ? "add-batch" : "add-loop") +
                 "/dim=" + std::to_string(dim));
}
BENCHMARK(BM_AddBatch)->ArgsProduct({{0, 1}, {2, 16, 64}});

void BM_TreeRebuild(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    CfTreeOptions o;
    o.dim = 2;
    o.page_size = 1024;
    o.threshold = 0.1;
    MemoryTracker mem;
    CfTree tree(o, &mem);
    Rng rng(6);
    std::vector<double> p(2);
    for (int i = 0; i < n; ++i) {
      p[0] = rng.Uniform(0, 50);
      p[1] = rng.Uniform(0, 50);
      tree.InsertPoint(p);
    }
    state.ResumeTiming();
    tree.Rebuild(0.5);
    benchmark::DoNotOptimize(tree.leaf_entry_count());
  }
}
BENCHMARK(BM_TreeRebuild)->Arg(1000)->Arg(10000);

}  // namespace
}  // namespace birch

BENCHMARK_MAIN();
