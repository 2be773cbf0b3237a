// CF-tree persistence: serialize a CF tree as one record per node — the
// paper's "each node occupies a page of size P" layout, less the unused
// tail of each page — and rebuild it from those records. The paper's
// summary points at exactly this use ("the clusters ... can be stored
// in the CF tree ... for data compression"); it also lets a Phase-1
// pass checkpoint its summary and resume later, which is what "work
// with any given amount of memory" means operationally.
//
// Record format (framed in doubles):
//   [0] magic            (kNodeMagic)
//   [1] is_leaf          (0.0 / 1.0)
//   [2] entry count      (c)
//   then c entries of:
//     leaf:     CF payload
//     nonleaf:  CF payload, child id
// The CF payload is CfVector::SerializeTo's N, vec[0..d), scalar — d+2
// doubles (vec/scalar are LS/SS classic, mean/S betula). Records are
// numbered in post-order (a node's children before the node, so the
// root comes last); a child id is its record's index. A record never
// exceeds the page size P, and one zero-padded to P — the whole page
// earlier checkpoints stored — reads the same.
#ifndef BIRCH_BIRCH_TREE_IO_H_
#define BIRCH_BIRCH_TREE_IO_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "birch/cf_tree.h"
#include "pagestore/page.h"
#include "util/status.h"

namespace birch {

/// A serialized CF tree, returned by Write and consumed by Read: the
/// node records plus everything needed to reopen the tree.
struct TreeImage {
  /// Id of the root's record.
  PageId root = kInvalidPageId;
  size_t dim = 0;
  size_t page_size = 0;
  /// CF representation the records were written under. Part of the
  /// persistent fingerprint: Read rejects an image whose representation
  /// differs from the caller's options (kInvalidArgument) — decoding
  /// classic records as betula would silently misread every statistic.
  CfRepresentation cf = CfRepresentation::kClassic;
  double threshold = 0.0;
  size_t node_count = 0;
  size_t leaf_entries = 0;
  size_t height = 0;
  /// Record ids of the leaf nodes in chain order. Node splits append
  /// the new sibling at the end of the parent's child list, so traversal
  /// order and chain order diverge over time; Read relinks the chain
  /// from this list so a reopened tree iterates its leaves in exactly
  /// the original order (checkpoint resume depends on it — leaf order
  /// is Phase-3 input order). Empty = legacy image, traversal order.
  std::vector<PageId> leaf_chain;
  /// One record per node, in id order: records[i] is node i's bytes.
  std::vector<std::vector<uint8_t>> records;
};

class TreeIO {
 public:
  /// Serializes `tree` into one unpadded record per node. The tree's
  /// page holds two nonleaf entries (CfTree's constructor requires it),
  /// so every node's record fits its page and Write cannot fail.
  static TreeImage Write(const CfTree& tree);

  /// Reconstructs a CF tree from `image`, charging `mem` one page per
  /// node. `options` supplies the runtime knobs (metric, threshold
  /// kind); dim/page_size/threshold are taken from the image.
  /// A structurally invalid image (a page size that cannot hold two
  /// nonleaf entries, a root or child id that names no record, a record
  /// longer than the page, bad magic, impossible entry counts, a
  /// nonleaf record with no entries, reference cycles, leaves at
  /// different depths, metadata that does not add up) surfaces as
  /// kCorruption — never undefined behavior.
  static StatusOr<std::unique_ptr<CfTree>> Read(const TreeImage& image,
                                                const CfTreeOptions& options,
                                                MemoryTracker* mem);

 private:
  static constexpr double kNodeMagic = 5214.1996;  // SIGMOD '96 :-)
};

}  // namespace birch

#endif  // BIRCH_BIRCH_TREE_IO_H_
