// The CF tree (Sec. 4.2-4.3): a height-balanced tree of CF entries with
// branching factor B, leaf capacity L and absorption threshold T, built
// incrementally in a single scan under a byte-accounted memory budget.
//
// Insertion descends to the closest leaf entry by the configured metric,
// absorbs the new point into it if the merged cluster stays within the
// threshold condition (diameter or radius <= T), otherwise adds a new
// entry, splitting nodes upward with farthest-pair seeding when they
// overflow, followed by the paper's merging refinement. Rebuilding
// (Sec. 5.1) reinserts leaf entries under a larger threshold while
// freeing old pages before allocating new ones, so it runs inside the
// same memory budget (the Reducibility Theorem's "h extra pages").
#ifndef BIRCH_BIRCH_CF_TREE_H_
#define BIRCH_BIRCH_CF_TREE_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "birch/cf_node.h"
#include "birch/cf_vector.h"
#include "birch/metrics.h"
#include "pagestore/memory_tracker.h"

namespace birch {

/// Which cluster statistic the absorption threshold T bounds.
enum class ThresholdKind { kDiameter = 0, kRadius };

/// Has no effect: every CF component is stored as a double. Kept, with
/// its one value, only as the type of the option fields the end-to-end
/// benchmark still assigns.
enum class CfStorage { kF64 = 0 };

/// Static configuration of a CF tree.
struct CfTreeOptions {
  size_t dim = 2;
  size_t page_size = 1024;
  double threshold = 0.0;
  DistanceMetric metric = DistanceMetric::kD2;
  ThresholdKind threshold_kind = ThresholdKind::kDiameter;
  bool merging_refinement = true;
  /// CF algebra for every entry in the tree (see cf_vector.h). All CFs
  /// inserted via InsertEntry/AbsorbTree must carry the same policy.
  CfRepresentation cf = CfRepresentation::kClassic;
  /// Has no effect: CF components are always stored as doubles.
  CfStorage cf_storage = CfStorage::kF64;
  /// Has no effect: descent and absorption tests always scan each
  /// node's column block (kernel/kernel.h).
  KernelKind kernel = KernelKind::kBatch;
};

/// Operation counters (cost-model benchmarks read these).
struct CfTreeStats {
  uint64_t inserts = 0;
  uint64_t absorbed = 0;
  uint64_t new_entries = 0;
  uint64_t rejected = 0;
  uint64_t leaf_splits = 0;
  uint64_t nonleaf_splits = 0;
  uint64_t merge_refinements = 0;
  uint64_t resplits = 0;
  uint64_t rebuilds = 0;
  uint64_t distance_comparisons = 0;
};

/// What happened to an inserted entry.
enum class InsertOutcome {
  kAbsorbed,   // merged into an existing leaf entry
  kNewEntry,   // added as a fresh leaf entry, no split
  kSplit,      // added, one or more nodes split
  kRejected,   // the insert needed more than the mode allows
};

/// How much the tree may change to accommodate an insert.
enum class InsertMode {
  kNormal,      // absorb, add, or split as needed
  kNoSplit,     // absorb or add, but reject if a split is required
                // (delay-split option)
  kAbsorbOnly,  // only merge into an existing entry (outlier
                // re-absorption: a true outlier must not re-enter the
                // tree as a fresh entry)
};

/// The CF tree. Not copyable; owns its nodes and charges `mem` one page
/// per node (ForceAllocate — the caller polls over_budget() and
/// rebuilds, mirroring the paper's Phase 1 control flow).
class CfTree {
 public:
  /// `options.page_size` must be at least CfLayout::MinPageSize() at
  /// `options.dim` (asserted; BirchOptions::Validate refuses a smaller
  /// page).
  CfTree(const CfTreeOptions& options, MemoryTracker* mem);
  ~CfTree();

  CfTree(const CfTree&) = delete;
  CfTree& operator=(const CfTree&) = delete;

  /// Inserts a single (optionally weighted) data point.
  InsertOutcome InsertPoint(std::span<const double> x, double weight = 1.0,
                            InsertMode mode = InsertMode::kNormal);

  /// Inserts a subcluster CF ("Ent" in the paper). Under kNoSplit /
  /// kAbsorbOnly the tree is left untouched when the insert would need
  /// more than the mode allows (kRejected).
  InsertOutcome InsertEntry(const CfVector& entry,
                            InsertMode mode = InsertMode::kNormal);

  /// Absorbs every leaf entry of `other` into this tree (CF additivity
  /// makes the merge exact at subcluster granularity). `other` is left
  /// unchanged. This realizes the paper's parallelism sketch: partition
  /// the data, build independent CF trees, merge the summaries.
  void AbsorbTree(const CfTree& other);

  /// Rebuilds the tree in place with threshold `new_threshold`
  /// (Sec. 5.1): leaf entries are reinserted in chain order; old pages
  /// are freed before new ones are allocated. Entries with fewer than
  /// `outlier_n_threshold` points are appended to `*outliers` instead
  /// of being reinserted (pass 0 / nullptr to disable).
  void Rebuild(double new_threshold, double outlier_n_threshold = 0.0,
               std::vector<CfVector>* outliers = nullptr);

  // --- Introspection ---

  double threshold() const { return threshold_; }
  const CfLayout& layout() const { return layout_; }
  const CfTreeOptions& options() const { return options_; }
  const CfTreeStats& stats() const { return stats_; }
  MemoryTracker* memory() const { return mem_; }
  bool over_budget() const { return mem_->over_budget(); }

  size_t node_count() const { return node_count_; }
  /// Heap bytes the nodes hold (each node's struct, column block and
  /// reserved children array): what the "tree/heap_bytes" gauge adds
  /// up, kept with obs off too. The budget charges node_count() pages.
  size_t heap_bytes() const { return heap_bytes_; }
  size_t leaf_entry_count() const { return leaf_entries_; }
  size_t height() const { return height_; }
  const CfNode* root() const { return root_; }
  const CfNode* first_leaf() const { return first_leaf_; }

  /// CF of the entire tree contents.
  CfVector TreeSummary() const { return Summary(*root_); }

  /// Appends every leaf entry (chain order) to `out`.
  void CollectLeafEntries(std::vector<CfVector>* out) const;

  /// The threshold statistic (diameter or radius per options) the merge
  /// of `a` and `b` would have, computed without building the merged CF.
  /// Absorbing `b` into `a` needs a threshold >= this value.
  double MergedThresholdValue(const CfVector& a, const CfVector& b) const;

  /// d_min of Sec. 5.1.3: the smallest merged threshold value among
  /// entry pairs of the most crowded leaf. Returns 0 if no leaf has two
  /// entries.
  double MostCrowdedLeafMinMerge() const;

  /// Average radius over leaf entries (threshold heuristic input).
  double AverageLeafEntryRadius() const;

  /// Validates structural invariants (capacities, summaries match
  /// children, chain consistency, uniform leaf depth). Test support;
  /// returns false and fills `*why` on violation.
  bool CheckInvariants(std::string* why) const;

  /// Publishes per-level occupancy gauges ("tree/l<depth>/nodes",
  /// "tree/l<depth>/entries") plus height/leaf-entry/occupancy gauges
  /// to the default obs registry. Cold path — call at phase
  /// boundaries, not per insert. No-op when obs is disabled.
  void ExportOccupancy() const;

 private:
  friend class TreeIO;  // persistence needs the raw node structure

  struct PathStep {
    CfNode* node;
    size_t child;
  };

  /// Rows (and, for nonleaf nodes, children) loaded out of one or more
  /// nodes for a split to partition. Held only while a split runs.
  struct SplitRows {
    std::vector<CfVector> rows;
    std::vector<CfNode*> children;
  };

  /// Allocate and free one node, charging `mem_` its page and keeping
  /// the "tree/nodes" and "tree/heap_bytes" gauges.
  CfNode* AllocNode(bool leaf);
  void FreeNode(CfNode* node);
  /// Heap bytes `node` holds: the CfNode itself, its column block and
  /// its reserved children array.
  static size_t NodeHeapBytes(const CfNode& node);
  void FreeNonleafSkeleton(CfNode* node);

  size_t Capacity(bool leaf) const { return leaf ? layout_.L() : layout_.B(); }

  /// An empty CF under the tree's representation (a row buffer).
  CfVector EmptyCf() const { return CfVector(options_.dim, options_.cf); }

  /// Sum of every row of `node` = CF of everything beneath it.
  CfVector Summary(const CfNode& node) const;

  /// Index of the entry of `node` closest to the CF `query` was
  /// prepared from (metric distance), by one scan of the node's block.
  /// Returns SIZE_MAX if the node is empty or no distance compares
  /// below +inf. `query` is prepared once per insert and reused down the
  /// whole descent.
  size_t ClosestIndex(const CfNode& node, const kernel::CfQuery& query) const;

  bool CanAbsorb(const CfVector& existing, const CfVector& incoming) const;

  /// Appends every row (and child) of `node` to `out`.
  void Gather(const CfNode& node, SplitRows* out) const;

  /// Splits `split` between `node` (emptied first) and a new right
  /// sibling with farthest-pair seeding; returns the sibling and
  /// maintains the leaf chain.
  CfNode* SplitNode(CfNode* node, const SplitRows& split);

  /// Paper's merging refinement at `parent` after a split stopped
  /// there; `split_a`/`split_b` are the entry indices produced by the
  /// split.
  void MergingRefinement(CfNode* parent, size_t split_a, size_t split_b);

  void UnlinkLeaf(CfNode* leaf);

  CfTreeOptions options_;
  CfLayout layout_;
  double threshold_;
  MemoryTracker* mem_;
  /// Derived columns every node block keeps for the configured metric.
  kernel::CfBatch::Needs needs_;

  CfNode* root_ = nullptr;
  CfNode* first_leaf_ = nullptr;
  size_t node_count_ = 0;
  size_t heap_bytes_ = 0;
  size_t leaf_entries_ = 0;
  size_t height_ = 1;
  mutable CfTreeStats stats_;  // mutable: const lookups count comparisons
  /// Reusable batch-scan workspace (distance array, query centroid).
  /// The tree is externally synchronized (one writer), so sharing one
  /// workspace across const lookups is safe, like stats_.
  mutable kernel::Workspace ws_;
  /// Reused per-insert buffers (InsertEntry is not reentrant): the
  /// point's CF and the root-to-leaf descent path. Both would otherwise
  /// cost a malloc/free pair on every insert.
  CfVector point_cf_;
  std::vector<PathStep> path_;
  /// The one row an absorb test, move or summary loads (mutable for the
  /// const lookups, like ws_).
  mutable CfVector row_;
};

}  // namespace birch

#endif  // BIRCH_BIRCH_CF_TREE_H_
