// Golden cross-variant tests for the CF representation policy
// (ctest -L numerics): classic (N, LS, SS) and BETULA (N, mean, S)
// must agree on well-conditioned data; on the ill-conditioned workload
// BETULA must hold its zero-offset quality while classic measurably
// degrades.
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "birch/birch.h"
#include "datagen/generator.h"
#include "datagen/paper_datasets.h"
#include "eval/quality.h"

namespace birch {
namespace {

BirchOptions BaseOpts(size_t dim, int k, CfRepresentation rep) {
  BirchOptions o;
  o.dim = dim;
  o.k = k;
  o.resources.memory_bytes = 80 * 1024;
  o.resources.disk_bytes = 16 * 1024;
  o.resources.page_size = 1024;
  o.tree.cf = rep;
  return o;
}

/// Weighted average diameter recomputed from result labels over an
/// offset-subtracted copy of the data — comparable across offsets.
double CenteredQuality(const Dataset& data, std::span<const int> labels,
                       double offset) {
  Dataset centered(data.dim());
  centered.Reserve(data.size());
  std::vector<double> p(data.dim());
  for (size_t i = 0; i < data.size(); ++i) {
    auto row = data.Row(i);
    for (size_t t = 0; t < p.size(); ++t) p[t] = row[t] - offset;
    centered.Append(p);
  }
  return WeightedAverageDiameter(ClustersFromLabels(centered, labels));
}

TEST(NumericsGoldenTest, ClassicAndBetulaMatchOnWellConditionedData) {
  // On the paper's DS1/DS2 (scaled down), the two representations
  // compute the same statistics up to rounding, so end-to-end cluster
  // quality must agree closely. (Bitwise scalar-vs-AVX2 equivalence
  // per variant is pinned separately in kernel_test.)
  for (PaperDataset ds : {PaperDataset::kDS1, PaperDataset::kDS2}) {
    auto gen = GeneratePaperDataset(ds, /*k=*/25, /*n_override=*/100);
    ASSERT_TRUE(gen.ok()) << gen.status().ToString();
    const auto& g = gen.value();

    double d[2] = {0.0, 0.0};
    for (CfRepresentation rep :
         {CfRepresentation::kClassic, CfRepresentation::kBetula}) {
      auto r = ClusterDataset(g.data, BaseOpts(g.data.dim(), 25, rep));
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      d[rep == CfRepresentation::kBetula] =
          CenteredQuality(g.data, r.value().labels, 0.0);
    }
    EXPECT_GT(d[0], 0.0);
    // Tree-construction decisions can differ by a rounding hair, so
    // demand agreement in quality, not bitwise-equal clusterings.
    EXPECT_NEAR(d[0], d[1], 0.05 * d[0]) << PaperDatasetName(ds);
  }
}

TEST(NumericsGoldenTest, BetulaHoldsWhereClassicCollapses) {
  // The acceptance claim: at offset 1e8, BETULA stays within 5% of its
  // zero-offset quality; classic measurably degrades (its guarded
  // radius clamps to zero, so the tree absorbs everything).
  const size_t dim = 2;
  const int k = 16;
  auto quality = [&](CfRepresentation rep, double offset) {
    GeneratorOptions g = IllConditionedOptions(dim, k, offset, /*seed=*/7);
    g.n_low = g.n_high = 120;
    auto gen = Generate(g);
    EXPECT_TRUE(gen.ok());
    auto r = ClusterDataset(gen.value().data, BaseOpts(dim, k, rep));
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return CenteredQuality(gen.value().data, r.value().labels, offset);
  };

  double betula_base = quality(CfRepresentation::kBetula, 0.0);
  double betula_far = quality(CfRepresentation::kBetula, 1e8);
  double classic_base = quality(CfRepresentation::kClassic, 0.0);
  double classic_far = quality(CfRepresentation::kClassic, 1e8);

  EXPECT_GT(betula_base, 0.0);
  EXPECT_LE(betula_far, 1.05 * betula_base)
      << "BETULA quality degraded at offset 1e8";
  EXPECT_GT(classic_far, 1.5 * classic_base)
      << "classic did not degrade — workload no longer ill-conditioned";
}

}  // namespace
}  // namespace birch
