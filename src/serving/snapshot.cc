#include "serving/snapshot.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>
#include <utility>

#include "obs/metrics.h"
#include "util/math.h"
#include "util/timer.h"

namespace birch {
namespace serving {

ServingSnapshot::ServingSnapshot() {
  // Balanced by the decrement in the destructor: the gauge counts
  // snapshots alive right now, and must return to zero when every
  // epoch has retired (tests/serving_test.cc holds this line).
  OBS_GAUGE_ADD("serving/snapshots_live", 1);
}

ServingSnapshot::~ServingSnapshot() {
  OBS_GAUGE_ADD("serving/snapshots_live", -1);
}

size_t ServingSnapshot::Flatten(const CfNode& node, CfVector* row) {
  const size_t index = nodes_.size();
  nodes_.emplace_back();
  // nodes_ may reallocate inside the recursive calls below, so `rows`
  // is used only before them, and the node afterwards only through the
  // index.
  nodes_[index].is_leaf = node.is_leaf;
  if (node.is_leaf) nodes_[index].first_entry = leaf_radius_.size();
  kernel::CfBatch& rows = nodes_[index].rows;
  rows.Init(dim_, node.size(),
            kernel::CfBatch::Needs::For(DistanceMetric::kD0, cf_rep_));
  for (size_t i = 0; i < node.size(); ++i) {
    node.rows.Load(i, row);
    rows.Append(*row);
    if (node.is_leaf) leaf_radius_.push_back(row->Radius());
  }
  if (!node.is_leaf) {
    nodes_[index].children.reserve(node.children.size());
    for (const CfNode* child : node.children) {
      const size_t c = Flatten(*child, row);
      nodes_[index].children.push_back(static_cast<uint32_t>(c));
    }
  }
  return index;
}

StatusOr<std::shared_ptr<ServingSnapshot>> ServingSnapshot::Build(
    const CfTree& tree, uint64_t points_ingested,
    const GlobalClusterOptions& global) {
  if (tree.leaf_entry_count() == 0) {
    return Status::FailedPrecondition(
        "no data to snapshot: the CF tree holds no leaf entries; ingest "
        "at least one point before building a serving snapshot");
  }
  Timer timer;
  std::shared_ptr<ServingSnapshot> snap(new ServingSnapshot());
  snap->dim_ = tree.options().dim;
  snap->threshold_ = tree.threshold();
  snap->cf_rep_ = tree.options().cf;
  snap->points_ingested_ = points_ingested;
  CfVector row(snap->dim_, snap->cf_rep_);
  snap->Flatten(*tree.root(), &row);

  // Publish-time cluster table over the leaf entries (descent order —
  // the order Flatten visited them, so entry_cluster_ lines up with
  // AssignResult::leaf_entry).
  auto clustering_or = GlobalCluster(snap->LeafEntries(), global);
  if (!clustering_or.ok()) return clustering_or.status();
  GlobalClustering& clustering = clustering_or.value();
  snap->entry_cluster_ = std::move(clustering.assignment);
  snap->clusters_ = std::move(clustering.clusters);
  snap->cluster_centroids_.reserve(snap->clusters_.size());
  for (const CfVector& c : snap->clusters_) {
    snap->cluster_centroids_.push_back(c.Centroid());
  }
  snap->built_at_ = std::chrono::steady_clock::now();
  OBS_HISTOGRAM_RECORD("serving/publish_us", timer.Seconds() * 1e6);
  OBS_GAUGE_SET("serving/snapshot_bytes", snap->MemoryBytes());
  return snap;
}

size_t ServingSnapshot::NearestRow(const Node& node,
                                   std::span<const double> point,
                                   double* best_sq) const {
  kernel::ScanResult r = node.rows.NearestCentroidSq(point);
  *best_sq = r.distance;
  return r.index == static_cast<size_t>(-1) ? 0 : r.index;
}

AssignResult ServingSnapshot::Assign(std::span<const double> point,
                                     kernel::Workspace* /*ws*/) const {
  assert(point.size() == dim_);
  double best_sq = 0.0;
  const Node* node = &nodes_[0];
  while (!node->is_leaf) {
    const size_t row = NearestRow(*node, point, &best_sq);
    node = &nodes_[node->children[row]];
  }
  const size_t row = NearestRow(*node, point, &best_sq);
  const size_t entry = node->first_entry + row;
  AssignResult r;
  r.cluster_id = entry_cluster_[entry];
  r.leaf_entry = entry;
  r.distance = std::sqrt(best_sq);
  r.radius = leaf_radius_[entry];
  r.epoch = epoch_;
  return r;
}

std::vector<CentroidNeighbor> ServingSnapshot::KNearestCentroids(
    std::span<const double> point, size_t k) const {
  assert(point.size() == dim_);
  const size_t m = cluster_centroids_.size();
  k = std::min(k, m);
  std::vector<std::pair<double, size_t>> dist(m);
  for (size_t c = 0; c < m; ++c) {
    dist[c] = {SquaredDistance(point, cluster_centroids_[c]), c};
  }
  std::partial_sort(dist.begin(), dist.begin() + static_cast<ptrdiff_t>(k),
                    dist.end());
  std::vector<CentroidNeighbor> out(k);
  for (size_t i = 0; i < k; ++i) {
    out[i].cluster_id = static_cast<int>(dist[i].second);
    out[i].distance = std::sqrt(dist[i].first);
  }
  return out;
}

std::vector<CfVector> ServingSnapshot::LeafEntries() const {
  std::vector<CfVector> out;
  out.reserve(leaf_radius_.size());
  for (const Node& node : nodes_) {
    if (!node.is_leaf) continue;
    for (size_t i = 0; i < node.rows.size(); ++i) {
      out.emplace_back(dim_, cf_rep_);
      node.rows.Load(i, &out.back());
    }
  }
  return out;
}

double ServingSnapshot::AgeMs() const {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - built_at_)
      .count();
}

size_t ServingSnapshot::MemoryBytes() const {
  size_t bytes = sizeof(*this);
  for (const Node& n : nodes_) {
    bytes += sizeof(Node) + n.children.capacity() * sizeof(uint32_t) +
             n.rows.block_doubles() * sizeof(double);
  }
  bytes += entry_cluster_.capacity() * sizeof(int) +
           leaf_radius_.capacity() * sizeof(double);
  for (const CfVector& c : clusters_) {
    bytes += sizeof(CfVector) + c.dim() * sizeof(double);
  }
  for (const auto& c : cluster_centroids_) {
    bytes += c.capacity() * sizeof(double);
  }
  return bytes;
}

}  // namespace serving
}  // namespace birch
