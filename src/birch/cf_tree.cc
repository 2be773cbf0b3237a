#include "birch/cf_tree.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <unordered_set>

#include "obs/export.h"
#include "obs/trace.h"

namespace birch {

namespace {
constexpr size_t kNone = static_cast<size_t>(-1);
}  // namespace

CfTree::CfTree(const CfTreeOptions& options, MemoryTracker* mem)
    : options_(options),
      layout_{options.page_size, options.dim},
      threshold_(options.threshold),
      mem_(mem),
      needs_(kernel::CfBatch::Needs::For(options.metric, options.cf)),
      point_cf_(EmptyCf()),
      row_(EmptyCf()) {
  assert(mem_ != nullptr);
  root_ = AllocNode(/*leaf=*/true);
  first_leaf_ = root_;
}

CfTree::~CfTree() {
  // Post-order free of the whole tree.
  std::vector<CfNode*> stack = {root_};
  std::vector<CfNode*> order;
  while (!stack.empty()) {
    CfNode* n = stack.back();
    stack.pop_back();
    order.push_back(n);
    if (!n->is_leaf) {
      for (CfNode* c : n->children) stack.push_back(c);
    }
  }
  for (CfNode* n : order) FreeNode(n);
  OBS_GAUGE_ADD("tree/leaf_entries", -static_cast<double>(leaf_entries_));
}

CfNode* CfTree::AllocNode(bool leaf) {
  mem_->ForceAllocate(options_.page_size);
  ++node_count_;
  OBS_GAUGE_ADD("tree/nodes", 1);
  CfNode* node = new CfNode(leaf);
  node->rows.Init(options_.dim, Capacity(leaf), needs_);
  if (!leaf) node->children.reserve(Capacity(leaf));
  const size_t bytes = NodeHeapBytes(*node);
  heap_bytes_ += bytes;
  OBS_GAUGE_ADD("tree/heap_bytes", bytes);
  return node;
}

void CfTree::FreeNode(CfNode* node) {
  mem_->Free(options_.page_size);
  --node_count_;
  OBS_GAUGE_ADD("tree/nodes", -1);
  const size_t bytes = NodeHeapBytes(*node);
  heap_bytes_ -= bytes;
  OBS_GAUGE_ADD("tree/heap_bytes", -static_cast<double>(bytes));
  delete node;
}

size_t CfTree::NodeHeapBytes(const CfNode& node) {
  return sizeof(CfNode) + node.rows.block_doubles() * sizeof(double) +
         node.children.capacity() * sizeof(CfNode*);
}

void CfTree::FreeNonleafSkeleton(CfNode* node) {
  if (node->is_leaf) return;
  for (CfNode* c : node->children) FreeNonleafSkeleton(c);
  FreeNode(node);
}

void CfTree::UnlinkLeaf(CfNode* leaf) {
  if (leaf->prev) leaf->prev->next = leaf->next;
  if (leaf->next) leaf->next->prev = leaf->prev;
  if (first_leaf_ == leaf) first_leaf_ = leaf->next;
  leaf->prev = leaf->next = nullptr;
}

CfVector CfTree::Summary(const CfNode& node) const {
  CfVector sum;
  for (size_t i = 0; i < node.size(); ++i) {
    node.rows.Load(i, &row_);
    sum.Add(row_);
  }
  return sum;
}

size_t CfTree::ClosestIndex(const CfNode& node,
                            const kernel::CfQuery& query) const {
  stats_.distance_comparisons += node.size();
  OBS_COUNTER_ADD("tree/distance_comps", node.size());
  if (node.size() == 0) return kNone;
  return kernel::NearestEntry(node.rows, query, options_.metric, &ws_).index;
}

double CfTree::MergedThresholdValue(const CfVector& a,
                                    const CfVector& b) const {
  return options_.threshold_kind == ThresholdKind::kDiameter
             ? kernel::MergedDiameter(a, b)
             : kernel::MergedRadius(a, b);
}

bool CfTree::CanAbsorb(const CfVector& existing,
                       const CfVector& incoming) const {
  return MergedThresholdValue(existing, incoming) <= threshold_;
}

InsertOutcome CfTree::InsertPoint(std::span<const double> x, double weight,
                                  InsertMode mode) {
  point_cf_.AssignPoint(x, weight);
  return InsertEntry(point_cf_, mode);
}

InsertOutcome CfTree::InsertEntry(const CfVector& entry, InsertMode mode) {
  if (entry.empty()) return InsertOutcome::kAbsorbed;  // no-op
  assert(entry.dim() == options_.dim);
  ++stats_.inserts;
  OBS_COUNTER_INC("tree/inserts");

  // Query-side precomputations depend only on (entry, metric), so one
  // Prepare serves every scan of the descent — bitwise identical to
  // preparing per node, minus the repeated O(d) work.
  kernel::CfQuery query;
  query.Prepare(entry, options_.metric, &ws_.query_centroid);

  // Descend to the closest leaf, recording the path (reused member
  // buffer; InsertEntry is not reentrant).
  std::vector<PathStep>& path = path_;
  path.clear();
  CfNode* node = root_;
  while (!node->is_leaf) {
    // Child 0 when no row compares below +inf (CF sums that overflow).
    size_t ci = ClosestIndex(*node, query);
    if (ci == kNone) ci = 0;
    path.push_back({node, ci});
    node = node->children[ci];
  }

  // Try to absorb into the closest leaf entry; every path node then
  // gets the same CF addition, in place, on the row it descended through.
  size_t ei = ClosestIndex(*node, query);
  if (ei != kNone) {
    node->rows.Load(ei, &row_);
    if (CanAbsorb(row_, entry)) {
      node->rows.Add(ei, entry);
      for (auto& step : path) step.node->rows.Add(step.child, entry);
      ++stats_.absorbed;
      return InsertOutcome::kAbsorbed;
    }
  }

  if (mode == InsertMode::kAbsorbOnly) {
    ++stats_.rejected;
    return InsertOutcome::kRejected;
  }

  // Add as a new leaf entry if there is room.
  if (node->size() < layout_.L()) {
    node->rows.Append(entry);
    ++leaf_entries_;
    OBS_GAUGE_ADD("tree/leaf_entries", 1);
    for (auto& step : path) step.node->rows.Add(step.child, entry);
    ++stats_.new_entries;
    return InsertOutcome::kNewEntry;
  }

  if (mode != InsertMode::kNormal) {
    ++stats_.rejected;
    return InsertOutcome::kRejected;
  }

  // Split the full leaf: its rows, then the entry, are partitioned
  // between it and a new sibling. Then propagate upward.
  ++stats_.new_entries;
  ++leaf_entries_;
  OBS_GAUGE_ADD("tree/leaf_entries", 1);
  CfNode* left = node;
  SplitRows split;
  Gather(*node, &split);
  split.rows.push_back(entry);
  CfNode* right = SplitNode(node, split);

  for (int level = static_cast<int>(path.size()) - 1; level >= 0; --level) {
    CfNode* parent = path[level].node;
    size_t ci = path[level].child;
    parent->rows.Update(ci, Summary(*left));
    if (parent->size() < layout_.B()) {
      parent->rows.Append(Summary(*right));
      parent->children.push_back(right);
      // Split stopped here: apply merging refinement, then update the
      // remaining ancestors with the plain CF addition.
      if (options_.merging_refinement) {
        MergingRefinement(parent, ci, parent->size() - 1);
      }
      for (int j = level - 1; j >= 0; --j) {
        path[j].node->rows.Add(path[j].child, entry);
      }
      return InsertOutcome::kSplit;
    }
    // A full parent splits its rows plus the new sibling's summary.
    left = parent;
    split = SplitRows{};
    Gather(*parent, &split);
    split.rows.push_back(Summary(*right));
    split.children.push_back(right);
    right = SplitNode(parent, split);
  }

  // The split reached the root: grow the tree by one level.
  CfNode* new_root = AllocNode(/*leaf=*/false);
  new_root->rows.Append(Summary(*left));
  new_root->children.push_back(left);
  new_root->rows.Append(Summary(*right));
  new_root->children.push_back(right);
  root_ = new_root;
  ++height_;
  return InsertOutcome::kSplit;
}

void CfTree::Gather(const CfNode& node, SplitRows* out) const {
  for (size_t i = 0; i < node.size(); ++i) {
    out->rows.push_back(EmptyCf());
    node.rows.Load(i, &out->rows.back());
  }
  out->children.insert(out->children.end(), node.children.begin(),
                       node.children.end());
}

CfNode* CfTree::SplitNode(CfNode* node, const SplitRows& split) {
  const std::vector<CfVector>& rows = split.rows;
  const size_t m = rows.size();
  assert(m >= 2);
  const size_t cap = Capacity(node->is_leaf);

  // Farthest pair of entries become the seeds.
  size_t si = 0, sj = 1;
  double best = -1.0;
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = i + 1; j < m; ++j) {
      double d = Distance(options_.metric, rows[i], rows[j]);
      ++stats_.distance_comparisons;
      if (d > best) {
        best = d;
        si = i;
        sj = j;
      }
    }
  }

  // Partition every entry to its closer seed. Keep the signed margin
  // (d_left - d_right) so capacity rebalancing can move the entries
  // with the weakest preference.
  struct Placed {
    size_t idx;
    double margin;  // negative prefers left
  };
  std::vector<Placed> go_left, go_right;
  for (size_t k = 0; k < m; ++k) {
    if (k == si) {
      go_left.push_back({k, -std::numeric_limits<double>::infinity()});
      continue;
    }
    if (k == sj) {
      go_right.push_back({k, std::numeric_limits<double>::infinity()});
      continue;
    }
    double dl = Distance(options_.metric, rows[k], rows[si]);
    double dr = Distance(options_.metric, rows[k], rows[sj]);
    stats_.distance_comparisons += 2;
    if (dl <= dr) {
      go_left.push_back({k, dl - dr});
    } else {
      go_right.push_back({k, dl - dr});
    }
  }

  // Rebalance so neither side exceeds capacity (possible when the seed
  // attraction is lopsided). Entries with the weakest preference move.
  auto spill = [](std::vector<Placed>* from, std::vector<Placed>* to,
                  size_t capacity) {
    if (from->size() <= capacity) return;
    std::sort(from->begin(), from->end(),
              [](const Placed& a, const Placed& b) {
                return std::fabs(a.margin) < std::fabs(b.margin);
              });
    while (from->size() > capacity) {
      to->push_back(from->front());
      from->erase(from->begin());
    }
  };
  spill(&go_left, &go_right, cap);
  spill(&go_right, &go_left, cap);

  CfNode* right = AllocNode(node->is_leaf);
  auto place = [&](const std::vector<Placed>& side, CfNode* dst) {
    dst->rows.Clear();
    dst->children.clear();
    for (const Placed& p : side) {
      dst->rows.Append(rows[p.idx]);
      if (!dst->is_leaf) dst->children.push_back(split.children[p.idx]);
    }
  };
  place(go_left, node);
  place(go_right, right);

  if (node->is_leaf) {
    right->next = node->next;
    if (node->next) node->next->prev = right;
    node->next = right;
    right->prev = node;
    ++stats_.leaf_splits;
    OBS_COUNTER_INC("tree/leaf_splits");
  } else {
    ++stats_.nonleaf_splits;
    OBS_COUNTER_INC("tree/nonleaf_splits");
  }
  return right;
}

void CfTree::MergingRefinement(CfNode* parent, size_t split_a,
                               size_t split_b) {
  const size_t m = parent->size();
  if (m < 2) return;

  // Closest pair among the parent's rows.
  SplitRows loaded;
  Gather(*parent, &loaded);
  const std::vector<CfVector>& rows = loaded.rows;
  size_t a = kNone, b = kNone;
  double best = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = i + 1; j < m; ++j) {
      double d = Distance(options_.metric, rows[i], rows[j]);
      ++stats_.distance_comparisons;
      if (d < best) {
        best = d;
        a = i;
        b = j;
      }
    }
  }
  // If the closest pair is exactly the pair the split produced, the
  // split was "natural" and no refinement applies; neither does it when
  // no pair compares below +inf (CF sums that overflow).
  if (a == kNone || (a == split_a && b == split_b) ||
      (a == split_b && b == split_a)) {
    return;
  }

  CfNode* ca = parent->children[a];
  CfNode* cb = parent->children[b];
  // Pull everything from cb into ca: straight into ca's block when the
  // union fits one page (a plain merge that drops parent entry b),
  // otherwise into loaded rows to resplit the union, which holds up to
  // twice a node's capacity.
  const bool fits = ca->size() + cb->size() <= Capacity(ca->is_leaf);
  SplitRows split;
  if (fits) {
    for (size_t i = 0; i < cb->size(); ++i) {
      cb->rows.Load(i, &row_);
      ca->rows.Append(row_);
    }
    ca->children.insert(ca->children.end(), cb->children.begin(),
                        cb->children.end());
    parent->rows.Update(a, CfVector::Merged(rows[a], rows[b]));
    parent->rows.Erase(b);
    parent->children.erase(parent->children.begin() + static_cast<long>(b));
  } else {
    Gather(*ca, &split);
    Gather(*cb, &split);
  }
  if (cb->is_leaf) UnlinkLeaf(cb);
  cb->children.clear();
  FreeNode(cb);
  ++stats_.merge_refinements;
  OBS_COUNTER_INC("tree/merge_refinements");
  if (fits) return;

  CfNode* nb = SplitNode(ca, split);
  parent->rows.Update(a, Summary(*ca));
  parent->rows.Update(b, Summary(*nb));
  parent->children[b] = nb;
  ++stats_.resplits;
}

void CfTree::AbsorbTree(const CfTree& other) {
  assert(other.options().dim == options_.dim);
  CfVector e = EmptyCf();
  for (const CfNode* leaf = other.first_leaf(); leaf != nullptr;
       leaf = leaf->next) {
    for (size_t i = 0; i < leaf->size(); ++i) {
      leaf->rows.Load(i, &e);
      InsertEntry(e);
    }
  }
}

void CfTree::Rebuild(double new_threshold, double outlier_n_threshold,
                     std::vector<CfVector>* outliers) {
  TRACE_SPAN("tree/rebuild");
  TRACE_COUNTER("tree/threshold", new_threshold);
  ++stats_.rebuilds;
  OBS_COUNTER_INC("tree/rebuilds");
  OBS_GAUGE_SET("tree/threshold", new_threshold);
  CfNode* old_root = root_;
  CfNode* leaf = first_leaf_;

  // Free the old nonleaf skeleton first: reinsertion then runs with
  // maximal headroom and old pages are recycled into the new tree.
  if (!old_root->is_leaf) FreeNonleafSkeleton(old_root);

  root_ = AllocNode(/*leaf=*/true);
  first_leaf_ = root_;
  height_ = 1;
  // Reinsertion below re-increments the gauge entry by entry.
  OBS_GAUGE_ADD("tree/leaf_entries", -static_cast<double>(leaf_entries_));
  leaf_entries_ = 0;
  threshold_ = new_threshold;

  // Consume old leaves in chain order (the paper's path order),
  // freeing each page before reinserting its entries.
  std::vector<CfVector> entries(layout_.L(), EmptyCf());
  while (leaf) {
    CfNode* next = leaf->next;
    const size_t count = leaf->size();
    for (size_t i = 0; i < count; ++i) leaf->rows.Load(i, &entries[i]);
    FreeNode(leaf);
    for (size_t i = 0; i < count; ++i) {
      const CfVector& e = entries[i];
      if (outliers != nullptr && outlier_n_threshold > 0.0 &&
          e.n() < outlier_n_threshold) {
        outliers->push_back(e);
      } else {
        InsertEntry(e);
      }
    }
    leaf = next;
  }
}

void CfTree::CollectLeafEntries(std::vector<CfVector>* out) const {
  for (const CfNode* leaf = first_leaf_; leaf != nullptr;
       leaf = leaf->next) {
    for (size_t i = 0; i < leaf->size(); ++i) {
      out->push_back(EmptyCf());
      leaf->rows.Load(i, &out->back());
    }
  }
}

double CfTree::MostCrowdedLeafMinMerge() const {
  const CfNode* crowded = nullptr;
  for (const CfNode* leaf = first_leaf_; leaf != nullptr;
       leaf = leaf->next) {
    if (leaf->size() >= 2 &&
        (crowded == nullptr || leaf->size() > crowded->size())) {
      crowded = leaf;
    }
  }
  if (crowded == nullptr) return 0.0;
  std::vector<CfVector> rows(crowded->size(), EmptyCf());
  for (size_t i = 0; i < rows.size(); ++i) crowded->rows.Load(i, &rows[i]);
  double best = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < rows.size(); ++i) {
    for (size_t j = i + 1; j < rows.size(); ++j) {
      best = std::min(best, MergedThresholdValue(rows[i], rows[j]));
    }
  }
  return best;
}

double CfTree::AverageLeafEntryRadius() const {
  double sum = 0.0;
  size_t count = 0;
  for (const CfNode* leaf = first_leaf_; leaf != nullptr;
       leaf = leaf->next) {
    for (size_t i = 0; i < leaf->size(); ++i) {
      leaf->rows.Load(i, &row_);
      sum += row_.Radius();
      ++count;
    }
  }
  return count == 0 ? 0.0 : sum / static_cast<double>(count);
}

void CfTree::ExportOccupancy() const {
#ifndef BIRCH_NO_OBS
  if (!obs::Enabled()) return;
  obs::Registry& reg = obs::Registry::Default();
  // Per-level node/entry totals, level 1 = root.
  std::vector<std::pair<uint64_t, uint64_t>> levels;  // {nodes, entries}
  std::function<void(const CfNode*, size_t)> visit = [&](const CfNode* n,
                                                         size_t depth) {
    if (levels.size() < depth) levels.resize(depth, {0, 0});
    ++levels[depth - 1].first;
    levels[depth - 1].second += n->size();
    if (!n->is_leaf) {
      for (const CfNode* c : n->children) visit(c, depth + 1);
    }
  };
  visit(root_, 1);
  for (size_t d = 0; d < levels.size(); ++d) {
    std::string prefix = "tree/l" + std::to_string(d + 1);
    reg.GetGauge(prefix + "/nodes").Set(
        static_cast<double>(levels[d].first));
    reg.GetGauge(prefix + "/entries").Set(
        static_cast<double>(levels[d].second));
  }
  reg.GetGauge("tree/height").Set(static_cast<double>(height_));
  reg.GetGauge("tree/leaf_entries").Set(
      static_cast<double>(leaf_entries_));
  const auto& leaf_level = levels.back();
  reg.GetGauge("tree/avg_leaf_occupancy")
      .Set(leaf_level.first == 0
               ? 0.0
               : static_cast<double>(leaf_level.second) /
                     static_cast<double>(leaf_level.first) /
                     static_cast<double>(layout_.L()));
#endif  // BIRCH_NO_OBS
}

namespace {

bool NearlyEqual(double a, double b, double tol) {
  double scale = std::max({std::fabs(a), std::fabs(b), 1.0});
  return std::fabs(a - b) <= tol * scale;
}

bool CfNearlyEqual(const CfVector& a, const CfVector& b) {
  if (a.dim() != b.dim() || a.rep() != b.rep()) return false;
  // Incrementally-maintained parent CFs drift from recomputed child
  // summaries by accumulated rounding.
  const double tol = 1e-6;
  if (!NearlyEqual(a.n(), b.n(), tol)) return false;
  if (!NearlyEqual(a.raw_scalar(), b.raw_scalar(), tol)) return false;
  for (size_t i = 0; i < a.dim(); ++i) {
    if (!NearlyEqual(a.raw_vec()[i], b.raw_vec()[i], tol)) return false;
  }
  return true;
}

}  // namespace

bool CfTree::CheckInvariants(std::string* why) const {
  auto fail = [&](const std::string& msg) {
    if (why) *why = msg;
    return false;
  };

  // Recursive structural check: capacities, summaries, uniform depth.
  size_t leaf_depth = 0;
  size_t total_nodes = 0;
  size_t total_leaf_entries = 0;
  std::unordered_set<const CfNode*> leaves_in_tree;
  std::string error;

  CfVector row = EmptyCf();
  std::function<bool(const CfNode*, size_t)> visit =
      [&](const CfNode* node, size_t depth) -> bool {
    ++total_nodes;
    if (node->size() > Capacity(node->is_leaf)) {
      error = "node over capacity";
      return false;
    }
    if (node->is_leaf) {
      if (leaf_depth == 0) leaf_depth = depth;
      if (depth != leaf_depth) {
        error = "leaves at different depths";
        return false;
      }
      if (!node->children.empty()) {
        error = "leaf with children";
        return false;
      }
      total_leaf_entries += node->size();
      leaves_in_tree.insert(node);
      return true;
    }
    if (node->children.size() != node->size()) {
      error = "children/entries size mismatch";
      return false;
    }
    if (node->size() < 1) {
      error = "empty nonleaf node";
      return false;
    }
    for (size_t i = 0; i < node->size(); ++i) {
      node->rows.Load(i, &row);
      if (!CfNearlyEqual(row, Summary(*node->children[i]))) {
        error = "nonleaf entry CF != child summary";
        return false;
      }
      if (!visit(node->children[i], depth + 1)) return false;
    }
    return true;
  };
  if (!visit(root_, 1)) return fail(error);

  if (total_nodes != node_count_) return fail("node_count_ drift");
  if (total_leaf_entries != leaf_entries_) {
    return fail("leaf_entries_ drift");
  }
  if (leaf_depth != height_) return fail("height_ drift");

  // Chain check: visits every leaf exactly once.
  size_t chained = 0;
  const CfNode* prev = nullptr;
  for (const CfNode* leaf = first_leaf_; leaf != nullptr;
       leaf = leaf->next) {
    if (leaf->prev != prev) return fail("broken prev pointer in chain");
    if (leaves_in_tree.count(leaf) == 0) {
      return fail("chained leaf not in tree");
    }
    ++chained;
    if (chained > leaves_in_tree.size()) return fail("chain cycle");
    prev = leaf;
  }
  if (chained != leaves_in_tree.size()) {
    return fail("chain misses leaves");
  }
  return true;
}

}  // namespace birch
