// CF tree node and the page-derived layout (Sec. 4.2). A node occupies
// one "page" of P bytes; the branching factor B (nonleaf) and leaf
// capacity L are derived from P and the dimensionality d exactly as in
// the paper: a nonleaf entry is a CF plus a child pointer, a leaf entry
// is a CF, and leaves additionally carry prev/next chain pointers.
#ifndef BIRCH_BIRCH_CF_NODE_H_
#define BIRCH_BIRCH_CF_NODE_H_

#include <cstddef>
#include <vector>

#include "birch/cf_vector.h"
#include "birch/kernel/kernel.h"

namespace birch {

/// Derives node capacities from page size and dimension.
struct CfLayout {
  size_t page_size = 1024;
  size_t dim = 2;

  /// Bytes of a serialized CF: the on-page entry payload (tree_io.h).
  size_t CfBytes() const {
    return CfVector::SerializedDoubles(dim) * sizeof(double);
  }

  /// Fixed per-node overhead we account for: type/count + parent
  /// pointer + leaf chain pointers.
  static constexpr size_t kNodeHeaderBytes = 4 * sizeof(void*);

  /// Nonleaf entry: CF + child pointer.
  size_t NonleafEntryBytes() const { return CfBytes() + sizeof(void*); }

  /// Leaf entry: CF only.
  size_t LeafEntryBytes() const { return CfBytes(); }

  /// Branching factor B for nonleaf nodes (>= 2 so splits are possible).
  size_t B() const {
    size_t usable = page_size > kNodeHeaderBytes
                        ? page_size - kNodeHeaderBytes
                        : 0;
    size_t b = usable / NonleafEntryBytes();
    return b < 2 ? 2 : b;
  }

  /// Max entries L for leaf nodes.
  size_t L() const {
    size_t usable = page_size > kNodeHeaderBytes
                        ? page_size - kNodeHeaderBytes
                        : 0;
    size_t l = usable / LeafEntryBytes();
    return l < 2 ? 2 : l;
  }
};

/// A CF tree node: one column block of exactly the B (nonleaf) or L
/// (leaf) rows its page holds plus, for nonleaf nodes, `children[i]`
/// beneath row i. A full node splits its loaded rows together with the
/// entry that overflows it, so no spare row is kept. The block is the
/// node's only copy of its CFs — what descent scans read, what TreeIO
/// serializes, what a serving snapshot copies and what the memory
/// budget charges one page for. Leaf nodes live on a doubly linked
/// chain for cheap full scans (Phase 2/3 input, rebuilding).
struct CfNode {
  explicit CfNode(bool leaf) : is_leaf(leaf) {}

  bool is_leaf;
  kernel::CfBatch rows;
  std::vector<CfNode*> children;  // nonleaf only; parallel to rows

  CfNode* prev = nullptr;  // leaf chain
  CfNode* next = nullptr;  // leaf chain

  size_t size() const { return rows.size(); }
};

}  // namespace birch

#endif  // BIRCH_BIRCH_CF_NODE_H_
