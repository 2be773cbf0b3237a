// CF-tree persistence: write a CF tree into a PageStore one node per
// page — the paper's "each node occupies a page of size P" layout made
// literal — and read it back. The paper's summary points at exactly
// this use ("the clusters ... can be stored in the CF tree ... for data
// compression"); it also lets a Phase-1 pass checkpoint its summary and
// resume later, which is what "work with any given amount of memory"
// means operationally.
//
// Page format (framed in doubles):
//   [0] magic            (kNodeMagic)
//   [1] is_leaf          (0.0 / 1.0)
//   [2] entry count      (c)
//   then c entries of:
//     leaf:     CF payload
//     nonleaf:  CF payload, child PageId
// The CF payload is CfVector::SerializeTo's N, vec[0..d), scalar — d+2
// doubles (vec/scalar are LS/SS classic, mean/S betula).
#ifndef BIRCH_BIRCH_TREE_IO_H_
#define BIRCH_BIRCH_TREE_IO_H_

#include <memory>
#include <vector>

#include "birch/cf_tree.h"
#include "pagestore/page_store.h"
#include "util/status.h"

namespace birch {

/// Descriptor returned by Write and consumed by Read. Holds everything
/// needed to reopen the tree (the store holds the node pages).
struct TreeImage {
  PageId root = kInvalidPageId;
  size_t dim = 0;
  size_t page_size = 0;
  /// CF representation the pages were written under. Part of the
  /// persistent fingerprint: Read rejects an image whose representation
  /// differs from the caller's options (kInvalidArgument) — decoding
  /// classic pages as betula would silently misread every statistic.
  CfRepresentation cf = CfRepresentation::kClassic;
  double threshold = 0.0;
  size_t node_count = 0;
  size_t leaf_entries = 0;
  size_t height = 0;
  /// Page ids of the leaf nodes in chain order. Node splits append the
  /// new sibling at the end of the parent's child list, so traversal
  /// order and chain order diverge over time; Read relinks the chain
  /// from this list so a reopened tree iterates its leaves in exactly
  /// the original order (checkpoint resume depends on it — leaf order
  /// is Phase-3 input order). Empty = legacy image, traversal order.
  std::vector<PageId> leaf_chain;
};

class TreeIO {
 public:
  /// Serializes `tree` into `store` (whose page_size must be >=
  /// tree.options().page_size). Allocates node_count pages. On any
  /// mid-traversal failure every page allocated so far is freed before
  /// the error returns — a failed Write never leaks store capacity.
  static StatusOr<TreeImage> Write(const CfTree& tree, PageStore* store);

  /// Reconstructs a CF tree from `image`, charging `mem` one page per
  /// node. `options` supplies the runtime knobs (metric, threshold
  /// kind); dim/page_size/threshold are taken from the image.
  /// Structurally invalid pages (bad magic, impossible entry counts,
  /// a nonleaf page with no entries, out-of-range child ids, reference
  /// cycles, leaves at different depths, metadata that does not add up)
  /// surface as kCorruption — never undefined behavior.
  static StatusOr<std::unique_ptr<CfTree>> Read(const TreeImage& image,
                                                PageStore* store,
                                                const CfTreeOptions& options,
                                                MemoryTracker* mem);

  /// Frees every node page of a written image from the store.
  static Status Release(const TreeImage& image, PageStore* store);

 private:
  static constexpr double kNodeMagic = 5214.1996;  // SIGMOD '96 :-)
};

}  // namespace birch

#endif  // BIRCH_BIRCH_TREE_IO_H_
