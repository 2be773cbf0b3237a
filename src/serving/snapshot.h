// Immutable, read-optimized snapshot of a CF tree — the unit the
// serving tier publishes and queries (DESIGN.md §13).
//
// A ServingSnapshot is built once (from a quiesced CfTree) and never
// mutated afterwards: the tree structure is flattened into contiguous
// node records, each holding a copy of its tree node's CF rows in a
// kernel::CfBatch column block together with their centroid column, so
// point->cluster descent is one fused point->centroid scan per level
// with zero pointer chasing into live tree pages. The leaf blocks hold
// the exact leaf-entry CFs, which lets a mid-stream Snapshot(k)
// re-cluster the published state at any k without touching the live
// tree.
//
// The publish-time cluster table is Phase 3 over those leaf entries
// under the GlobalClusterOptions the publisher hands to Build(): the
// serving tier sets no clustering policy of its own. BirchClusterer
// builds them with the same setup as Finish() and Snapshot(k).
//
// Sharing model: snapshots travel as std::shared_ptr<const
// ServingSnapshot> "epochs". Readers pin an epoch with one refcount
// bump and query it lock-free for as long as they like; ingest keeps
// publishing newer epochs underneath. When the last reader of a
// retired epoch drains, the snapshot frees and the
// "serving/snapshots_live" gauge returns to balance.
#ifndef BIRCH_SERVING_SNAPSHOT_H_
#define BIRCH_SERVING_SNAPSHOT_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "birch/cf_tree.h"
#include "birch/cf_vector.h"
#include "birch/global_cluster.h"
#include "birch/kernel/kernel.h"
#include "util/status.h"

namespace birch {
namespace serving {

/// Answer to Assign(point): the leaf entry the descent lands on, the
/// publish-time global cluster that entry belongs to, the Euclidean
/// distance from the point to the entry centroid, and the entry's
/// radius (how tight the match is).
struct AssignResult {
  int cluster_id = -1;
  size_t leaf_entry = 0;  // snapshot-global leaf entry index
  double distance = 0.0;
  double radius = 0.0;
  uint64_t epoch = 0;
};

/// One k-nearest-centroids hit: a publish-time global cluster and the
/// Euclidean distance from the query point to its centroid.
struct CentroidNeighbor {
  int cluster_id = -1;
  double distance = 0.0;
};

/// The immutable snapshot. Thread-safe for concurrent const queries:
/// all state is written once in Build() and only read afterwards.
class ServingSnapshot {
 public:
  /// Flattens `tree`, captured at stream position `points_ingested`
  /// (metadata only), and runs GlobalCluster over its leaf entries
  /// under `global` for the publish-time cluster table.
  /// FailedPrecondition when the tree holds no leaf entries; any
  /// global-clustering failure propagates. The returned snapshot is
  /// mutable only in the hands of the publisher (BirchServer stamps
  /// the epoch); readers always see it through a const pointer.
  static StatusOr<std::shared_ptr<ServingSnapshot>> Build(
      const CfTree& tree, uint64_t points_ingested,
      const GlobalClusterOptions& global);

  ~ServingSnapshot();

  ServingSnapshot(const ServingSnapshot&) = delete;
  ServingSnapshot& operator=(const ServingSnapshot&) = delete;

  /// Greedy CF-tree descent (the paper's insertion walk, read-only):
  /// at each level pick the child whose entry centroid is nearest in
  /// squared Euclidean distance, then argmin over the landing leaf's
  /// entry centroids. Each level is one fused scan of the node's
  /// centroid block, bitwise a SquaredDistance loop with first-wins
  /// ties and strict `<`. The scans keep no scratch: `ws` is unused and
  /// may be null (the parameter stays so existing callers compile).
  AssignResult Assign(std::span<const double> point,
                      kernel::Workspace* ws) const;

  /// The `k` publish-time cluster centroids nearest to `point`
  /// (exact flat scan, ascending distance, ties by cluster id).
  /// `k` is clamped to the table size.
  std::vector<CentroidNeighbor> KNearestCentroids(
      std::span<const double> point, size_t k) const;

  /// Exact CFs of every leaf entry at capture time (loaded from the
  /// leaf blocks in node order, index-aligned with
  /// AssignResult::leaf_entry). This is what a mid-stream Snapshot(k)
  /// re-clusters.
  std::vector<CfVector> LeafEntries() const;

  // --- Publish-time cluster table ---
  const std::vector<CfVector>& clusters() const { return clusters_; }
  const std::vector<std::vector<double>>& cluster_centroids() const {
    return cluster_centroids_;
  }
  /// Publish-time cluster of leaf entry `i`.
  int cluster_of(size_t i) const { return entry_cluster_[i]; }

  // --- Metadata ---
  uint64_t epoch() const { return epoch_; }
  void set_epoch(uint64_t e) { epoch_ = e; }
  uint64_t points_ingested() const { return points_ingested_; }
  size_t dim() const { return dim_; }
  size_t leaf_entry_count() const { return leaf_radius_.size(); }
  size_t node_count() const { return nodes_.size(); }
  double threshold() const { return threshold_; }
  CfRepresentation cf_rep() const { return cf_rep_; }
  /// Milliseconds since this snapshot was built (monotonic clock).
  double AgeMs() const;
  /// Heap bytes of the flattened structure (gauge fodder).
  size_t MemoryBytes() const;

 private:
  ServingSnapshot();

  /// One flattened tree node: a copy of its CF rows, with their
  /// centroids, as one column block. Non-leaf: children[i] is the node
  /// index under row i. Leaf: first_entry indexes the snapshot-global
  /// leaf arrays.
  struct Node {
    bool is_leaf = false;
    size_t first_entry = 0;          // leaf only
    std::vector<uint32_t> children;  // non-leaf only, parallel to rows
    kernel::CfBatch rows;
  };

  /// Appends `node` (and its subtree) to nodes_; `row` is a load buffer
  /// under the tree's CF representation.
  size_t Flatten(const CfNode& node, CfVector* row);
  /// Argmin over `node`'s row centroids. First-wins ties, row 0 when
  /// none compares below +inf; fills *best_sq with the winning squared
  /// distance.
  size_t NearestRow(const Node& node, std::span<const double> point,
                    double* best_sq) const;

  uint64_t epoch_ = 0;
  uint64_t points_ingested_ = 0;
  size_t dim_ = 0;
  double threshold_ = 0.0;
  CfRepresentation cf_rep_ = CfRepresentation::kClassic;
  std::chrono::steady_clock::time_point built_at_;

  std::vector<Node> nodes_;  // nodes_[0] is the root

  // Snapshot-global per-leaf-entry arrays (descent order).
  std::vector<int> entry_cluster_;
  std::vector<double> leaf_radius_;

  // Publish-time global clustering of the leaf entries.
  std::vector<CfVector> clusters_;
  std::vector<std::vector<double>> cluster_centroids_;
};

}  // namespace serving
}  // namespace birch

#endif  // BIRCH_SERVING_SNAPSHOT_H_
