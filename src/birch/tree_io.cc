#include "birch/tree_io.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <functional>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "obs/metrics.h"

namespace birch {

namespace {

std::vector<double> GetDoubles(const std::vector<uint8_t>& record) {
  std::vector<double> v(record.size() / sizeof(double));
  std::memcpy(v.data(), record.data(), v.size() * sizeof(double));
  return v;
}

/// True if `v` is an integer naming one of `count` records. The id is
/// returned through `*id`.
bool DecodeRecordId(double v, size_t count, PageId* id) {
  if (!(v >= 0.0 && v < static_cast<double>(count)) || v != std::floor(v)) {
    return false;
  }
  *id = static_cast<PageId>(v);
  return true;
}

}  // namespace

TreeImage TreeIO::Write(const CfTree& tree) {
  TreeImage image;
  std::unordered_map<const CfNode*, PageId> leaf_id;  // leaf-chain lookup
  CfVector row(tree.options().dim, tree.options().cf);
  std::function<PageId(const CfNode*)> write_node =
      [&](const CfNode* node) -> PageId {
    std::vector<double> buf;
    buf.push_back(kNodeMagic);
    buf.push_back(node->is_leaf ? 1.0 : 0.0);
    buf.push_back(static_cast<double>(node->size()));
    for (size_t i = 0; i < node->size(); ++i) {
      node->rows.Load(i, &row);
      row.SerializeTo(&buf);
      if (!node->is_leaf) {
        buf.push_back(static_cast<double>(write_node(node->children[i])));
      }
    }
    std::vector<uint8_t>& record = image.records.emplace_back(
        buf.size() * sizeof(double));
    assert(record.size() <= tree.options().page_size);
    std::memcpy(record.data(), buf.data(), record.size());
    const PageId id = image.records.size() - 1;
    if (node->is_leaf) leaf_id[node] = id;
    return id;
  };

  image.root = write_node(tree.root());
  // Record the leaf chain so Read can restore iteration order.
  for (const CfNode* leaf = tree.first_leaf(); leaf != nullptr;
       leaf = leaf->next) {
    image.leaf_chain.push_back(leaf_id.at(leaf));
  }
  image.dim = tree.options().dim;
  image.page_size = tree.options().page_size;
  image.cf = tree.options().cf;
  image.threshold = tree.threshold();
  image.node_count = tree.node_count();
  image.leaf_entries = tree.leaf_entry_count();
  image.height = tree.height();
  return image;
}

StatusOr<std::unique_ptr<CfTree>> TreeIO::Read(const TreeImage& image,
                                               const CfTreeOptions& options,
                                               MemoryTracker* mem) {
  if (options.cf != image.cf) {
    return Status::InvalidArgument(
        std::string("tree image was written with cf=") +
        CfRepresentationName(image.cf) + " but the caller configured cf=" +
        CfRepresentationName(options.cf));
  }
  const CfLayout layout{image.page_size, image.dim};
  if (image.page_size < layout.MinPageSize()) {
    return Status::Corruption(
        "tree image page size " + std::to_string(image.page_size) +
        " cannot hold two nonleaf entries at dim " +
        std::to_string(image.dim));
  }
  if (image.root >= image.records.size()) {
    return Status::Corruption("tree image root " + std::to_string(image.root) +
                              " names no stored record");
  }
  CfTreeOptions opts = options;
  opts.dim = image.dim;
  opts.page_size = image.page_size;
  opts.threshold = image.threshold;

  auto tree = std::make_unique<CfTree>(opts, mem);
  // Drop the fresh root; we rebuild the node set from the records.
  tree->FreeNode(tree->root_);
  tree->root_ = nullptr;
  tree->first_leaf_ = nullptr;
  tree->node_count_ = 0;
  tree->leaf_entries_ = 0;

  Status failure = Status::OK();
  CfNode* chain_tail = nullptr;
  size_t leaf_depth = 0;  // depth of the first leaf read; 0 before it
  std::vector<CfNode*> allocated;  // for cleanup on failure
  std::unordered_set<PageId> visited;  // cycle / duplicate-reference guard
  std::unordered_map<PageId, CfNode*> leaf_by_id;

  std::function<CfNode*(PageId, size_t)> read_node =
      [&](PageId id, size_t depth) -> CfNode* {
    if (!failure.ok()) return nullptr;
    if (!visited.insert(id).second) {
      failure = Status::Corruption("record " + std::to_string(id) +
                                   " referenced twice (cycle or shared "
                                   "child in tree image)");
      return nullptr;
    }
    const std::vector<uint8_t>& record = image.records[id];
    if (record.size() > image.page_size) {
      failure = Status::Corruption("record " + std::to_string(id) +
                                   " is longer than the image's page size");
      return nullptr;
    }
    std::vector<double> buf = GetDoubles(record);
    if (buf.size() < 3 || buf[0] != kNodeMagic) {
      failure = Status::Corruption("record " + std::to_string(id) +
                                   " is not a CF tree node");
      return nullptr;
    }
    const bool is_leaf = buf[1] != 0.0;
    const size_t cf_doubles = CfVector::SerializedDoubles(image.dim);
    const size_t per_entry = cf_doubles + (is_leaf ? 0 : 1);
    // Validate the entry count before casting: a corrupt double here
    // must not become an out-of-range size_t (UB) or an overflowing
    // multiply below, nor overrun the node's column block.
    const size_t max_count =
        std::min((buf.size() - 3) / per_entry, tree->Capacity(is_leaf));
    if (!std::isfinite(buf[2]) || buf[2] < 0.0 ||
        buf[2] != std::floor(buf[2]) ||
        buf[2] > static_cast<double>(max_count)) {
      failure = Status::Corruption(
          "record " + std::to_string(id) +
          " carries an impossible CF node entry count");
      return nullptr;
    }
    const size_t count = static_cast<size_t>(buf[2]);
    // A nonleaf node always has a child to descend to, and every leaf
    // sits at one depth (the tree is height-balanced).
    if (!is_leaf && count == 0) {
      failure = Status::Corruption("record " + std::to_string(id) +
                                   " is a nonleaf CF node with no entries");
      return nullptr;
    }
    if (is_leaf && leaf_depth != 0 && depth != leaf_depth) {
      failure = Status::Corruption("record " + std::to_string(id) +
                                   " is a leaf at depth " +
                                   std::to_string(depth) + ", not " +
                                   std::to_string(leaf_depth) +
                                   " like the first leaf");
      return nullptr;
    }

    CfNode* node = tree->AllocNode(is_leaf);
    allocated.push_back(node);
    size_t off = 3;
    for (size_t i = 0; i < count; ++i) {
      node->rows.Append(CfVector::Deserialize(
          std::span<const double>(buf.data() + off, cf_doubles), image.dim,
          image.cf));
      off += cf_doubles;
      if (!is_leaf) {
        PageId child;
        if (!DecodeRecordId(buf[off++], image.records.size(), &child)) {
          failure = Status::Corruption("record " + std::to_string(id) +
                                       " names a child that is not a "
                                       "stored record");
          return nullptr;
        }
        CfNode* child_node = read_node(child, depth + 1);
        if (!failure.ok()) return nullptr;
        node->children.push_back(child_node);
      }
    }
    if (is_leaf) {
      tree->leaf_entries_ += count;
      OBS_GAUGE_ADD("tree/leaf_entries", count);
      leaf_depth = depth;
      leaf_by_id[id] = node;
      // Leaves are visited left-to-right: append to the chain. (When
      // the image carries an explicit leaf_chain this order is
      // provisional and gets relinked below.)
      node->prev = chain_tail;
      if (chain_tail) chain_tail->next = node;
      if (tree->first_leaf_ == nullptr) tree->first_leaf_ = node;
      chain_tail = node;
    }
    return node;
  };

  tree->root_ = read_node(image.root, 1);
  tree->height_ = leaf_depth;
  if (failure.ok() && (tree->node_count_ != image.node_count ||
                       tree->leaf_entries_ != image.leaf_entries ||
                       tree->height_ != image.height)) {
    failure = Status::Corruption("tree image metadata mismatch after read");
  }
  if (failure.ok() && !image.leaf_chain.empty()) {
    // Relink the chain in the recorded order (the live tree's chain
    // order, which traversal order does not preserve).
    if (image.leaf_chain.size() != leaf_by_id.size()) {
      failure = Status::Corruption(
          "tree image leaf chain does not match the leaf set");
    } else {
      std::unordered_set<PageId> seen;
      CfNode* prev = nullptr;
      tree->first_leaf_ = nullptr;
      for (PageId id : image.leaf_chain) {
        auto it = leaf_by_id.find(id);
        if (it == leaf_by_id.end() || !seen.insert(id).second) {
          failure = Status::Corruption(
              "tree image leaf chain references a record that is not a "
              "distinct leaf");
          break;
        }
        CfNode* n = it->second;
        n->prev = prev;
        n->next = nullptr;
        if (prev != nullptr) {
          prev->next = n;
        } else {
          tree->first_leaf_ = n;
        }
        prev = n;
      }
    }
  }
  if (!failure.ok()) {
    // Leave the tree destructible: free everything read so far and
    // restore an empty root.
    for (CfNode* n : allocated) {
      n->children.clear();  // ownership is flat via `allocated`
      tree->FreeNode(n);
    }
    OBS_GAUGE_ADD("tree/leaf_entries",
                  -static_cast<double>(tree->leaf_entries_));
    tree->leaf_entries_ = 0;
    tree->root_ = tree->AllocNode(/*leaf=*/true);
    tree->first_leaf_ = tree->root_;
    tree->height_ = 1;
    return failure;
  }
  return tree;
}

}  // namespace birch
