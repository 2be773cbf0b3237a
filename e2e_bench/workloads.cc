#include "workloads.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>

#include "birch/dataset_io.h"
#include "birch/refine.h"
#include "datagen/paper_datasets.h"
#include "eval/matching.h"
#include "eval/quality.h"
#include "util/math.h"

namespace birch {
namespace e2e {

namespace {

constexpr struct {
  Workload w;
  const char* name;
} kWorkloads[] = {
    {Workload::kPaper2d, "paper_2d"},
    {Workload::kBlobs16d, "blobs_16d"},
    {Workload::kCsv2dT3, "csv_2d_t3"},
    {Workload::kServe2d, "serve_2d"},
};

constexpr struct {
  Corrupt c;
  const char* name;
} kCorruptions[] = {
    {Corrupt::kNone, "none"},        {Corrupt::kLabels, "labels"},
    {Corrupt::kCentroids, "centroids"}, {Corrupt::kTrace, "trace"},
    {Corrupt::kEpoch, "epoch"},      {Corrupt::kCsv, "csv"},
};

/// Points per cluster at scale 1: 2M points for the 2-D workloads, 1M
/// for 16-D, always 100 clusters.
int PointsPerCluster(Workload w, double scale) {
  const double full = w == Workload::kBlobs16d ? 10000.0 : 20000.0;
  return std::max(1, static_cast<int>(std::lround(full * scale)));
}

Status WriteCsv(const Dataset& data, const std::string& path) {
  std::unique_ptr<FILE, int (*)(FILE*)> f(std::fopen(path.c_str(), "wb"),
                                          &std::fclose);
  if (f == nullptr) return Status::IOError("cannot create " + path);
  std::vector<char> buf(1 << 20);
  size_t used = 0;
  const size_t dim = data.dim();
  for (size_t i = 0; i < data.size(); ++i) {
    if (buf.size() - used < dim * 32) {
      if (std::fwrite(buf.data(), 1, used, f.get()) != used) {
        return Status::IOError("short write to " + path);
      }
      used = 0;
    }
    auto row = data.Row(i);
    for (size_t t = 0; t < dim; ++t) {
      // Same digits as printf("%.17g"): enough to round-trip a double.
      auto r = std::to_chars(buf.data() + used, buf.data() + buf.size(),
                             row[t], std::chars_format::general, 17);
      used = static_cast<size_t>(r.ptr - buf.data());
      buf[used++] = t + 1 < dim ? ',' : '\n';
    }
  }
  if (std::fwrite(buf.data(), 1, used, f.get()) != used) {
    return Status::IOError("short write to " + path);
  }
  return Status::OK();
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool SameCf(const CfVector& a, const CfVector& b) {
  if (a.dim() != b.dim() || !SameBits(a.n(), b.n()) ||
      !SameBits(a.raw_scalar(), b.raw_scalar())) {
    return false;
  }
  return std::memcmp(a.raw_vec().data(), b.raw_vec().data(),
                     a.dim() * sizeof(double)) == 0;
}

}  // namespace

const char* WorkloadName(Workload w) {
  for (const auto& e : kWorkloads) {
    if (e.w == w) return e.name;
  }
  return "?";
}

bool ParseWorkload(const std::string& name, Workload* w) {
  for (const auto& e : kWorkloads) {
    if (name == e.name) {
      *w = e.w;
      return true;
    }
  }
  return false;
}

bool ParseCorrupt(const std::string& name, Corrupt* c) {
  for (const auto& e : kCorruptions) {
    if (name == e.name) {
      *c = e.c;
      return true;
    }
  }
  return false;
}

Status MakeInputs(Workload w, uint64_t seed, double scale,
                  const std::string& workdir, Inputs* out) {
  GeneratorOptions g;
  if (w == Workload::kBlobs16d) {
    g.dim = 16;
    g.k = 100;
    g.r_low = 1.0;
    g.r_high = 2.0;
    g.pattern = PlacementPattern::kRandom;
    g.random_range = 100.0;
    g.n_low = g.n_high = PointsPerCluster(w, scale);
    g.seed = seed;
  } else {
    // DS1 layout (grid, r = sqrt(2), kg = 4), 20x the paper's points.
    g = PaperDatasetOptions(PaperDataset::kDS1, 0,
                            PointsPerCluster(w, scale), 0.0, seed);
  }
  out->gen = GeneratedData();  // free the previous input first
  auto gen_or = Generate(g);
  if (!gen_or.ok()) return gen_or.status();
  out->gen = std::move(gen_or).ValueOrDie();
  out->csv_path.clear();
  if (w == Workload::kCsv2dT3) {
    out->csv_path = workdir + "/csv_2d_t3_input.csv";
    return WriteCsv(out->gen.data, out->csv_path);
  }
  return Status::OK();
}

Status CheckCsvRoundTrip(const Inputs& in, Corrupt corrupt) {
  auto src_or = CsvPointSource::Open(in.csv_path);
  if (!src_or.ok()) return src_or.status();
  CsvPointSource& src = *src_or.value();
  const Dataset& data = in.gen.data;
  if (src.dim() != data.dim()) {
    return Status::DataLoss("CSV parses back with the wrong dimension");
  }
  std::vector<double> p(data.dim());
  double w = 1.0;
  size_t i = 0;
  while (src.Next(p, &w)) {
    if (corrupt == Corrupt::kCsv && i == data.size() / 2) {
      p[0] = std::nextafter(p[0], 1e300);
    }
    if (i >= data.size()) {
      return Status::DataLoss("CSV holds more rows than were generated");
    }
    auto row = data.Row(i);
    for (size_t t = 0; t < data.dim(); ++t) {
      if (!SameBits(row[t], p[t])) {
        return Status::DataLoss("CSV row " + std::to_string(i) +
                                " does not parse back to the generated "
                                "value");
      }
    }
    ++i;
  }
  if (i != data.size()) {
    return Status::DataLoss("CSV holds " + std::to_string(i) + " of " +
                            std::to_string(data.size()) + " rows");
  }
  return Status::OK();
}

BirchOptions OptionsFor(Workload w, double scale,
                        const std::string& workdir) {
  // Defaults are the paper's Table 2: M = 80 KB, R = 16 KB, P = 1 KB,
  // T0 = 0, D2, diameter threshold, outlier handling and delay-split on,
  // one refinement pass.
  BirchOptions o;
  o.k = 100;
  switch (w) {
    case Workload::kPaper2d:
      break;
    case Workload::kBlobs16d:
      o.dim = 16;
      o.resources.memory_bytes = 1 << 20;
      o.resources.disk_bytes = 200 * 1024;
      break;
    case Workload::kCsv2dT3:
      o.exec.num_threads = 3;
      break;
    case Workload::kServe2d: {
      const uint64_t every = std::max<uint64_t>(
          1, static_cast<uint64_t>(std::llround(500000.0 * scale)));
      o.serving.publish_every_n = every;
      o.resources.checkpoint_every_n = every;
      o.resources.checkpoint_path = workdir + "/serve_2d_checkpoint.bin";
      break;
    }
  }
  return o;
}

Status CheckAnswer(Workload w, const Inputs& in, const Outcome& out) {
  const Dataset& data = in.gen.data;
  uint64_t clustered = 0;
  for (const auto& c : out.clusters) {
    clustered += static_cast<uint64_t>(std::llround(c.n()));
  }
  // Phase 4 assigns every point to a cluster; serve_2d stops at Phase 3,
  // so its Phase-1/2 outliers stay outside the clusters.
  const uint64_t expected =
      data.size() - (w == Workload::kServe2d ? out.outlier_points : 0);
  if (clustered != expected) {
    return Status::DataLoss("clusters hold " + std::to_string(clustered) +
                            " points, expected " + std::to_string(expected));
  }
  if (out.labels.empty()) return Status::OK();
  if (out.labels.size() != data.size()) {
    return Status::DataLoss("one label per point expected");
  }
  const std::vector<CfVector> rebuilt = ClustersFromLabels(
      data, out.labels, static_cast<int>(out.clusters.size()));
  for (size_t c = 0; c < out.clusters.size(); ++c) {
    const std::vector<double> a = out.clusters[c].Centroid();
    const std::vector<double> b = rebuilt[c].Centroid();
    if (out.clusters[c].n() != rebuilt[c].n() ||
        Distance(a, b) > 1e-9 * (1.0 + std::sqrt(SquaredNorm(a)))) {
      return Status::DataLoss("labels do not rebuild cluster " +
                              std::to_string(c));
    }
  }
  return Status::OK();
}

bool SameClustering(const Outcome& a, const Outcome& b) {
  if (a.labels != b.labels || a.clusters.size() != b.clusters.size()) {
    return false;
  }
  for (size_t c = 0; c < a.clusters.size(); ++c) {
    if (!SameCf(a.clusters[c], b.clusters[c])) return false;
  }
  return true;
}

Quality Evaluate(const Inputs& in, const Outcome& out) {
  Quality q;
  const GeneratedData& gen = in.gen;
  std::vector<CfVector> truth_cfs;
  truth_cfs.reserve(gen.actual.size());
  for (const auto& a : gen.actual) truth_cfs.push_back(a.cf);
  q.d_ratio = WeightedAverageDiameter(out.clusters) /
              WeightedAverageDiameter(truth_cfs);

  // Matched as the repository's benches count it (greedy centroid
  // pairing); the stricter count also wants the paired centroid within
  // the generating radius r of the true center.
  MatchReport report = MatchClusters(gen.actual, out.clusters);
  q.matched_clusters = report.matched;
  for (size_t a = 0; a < gen.actual.size(); ++a) {
    const int f = report.match[a];
    if (f < 0) continue;
    const double d = Distance(gen.actual[a].center,
                              out.clusters[static_cast<size_t>(f)].Centroid());
    if (d <= gen.actual[a].radius_param) ++q.clusters_within_r;
  }

  // Batch workloads report Phase-4 labels; the streaming ones return
  // none, so their points are labelled by nearest final centroid.
  std::vector<int> labels = out.labels;
  if (labels.empty() && !out.clusters.empty()) {
    auto l_or = LabelPoints(gen.data, out.clusters);
    if (l_or.ok()) labels = std::move(l_or.value().labels);
  }
  q.label_accuracy = LabelAccuracy(gen.truth, labels, report);
  q.outlier_share = static_cast<double>(out.outlier_points) /
                    static_cast<double>(gen.data.size());
  return q;
}

}  // namespace e2e
}  // namespace birch
