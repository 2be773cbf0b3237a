// CF-tree persistence tests: write/read round trips must reproduce the
// exact tree (summaries, leaf entries, structure), charge memory
// correctly, surface store failures, and Release must return every
// page.
#include "birch/tree_io.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include <gtest/gtest.h>

#include "util/random.h"

namespace birch {
namespace {

std::unique_ptr<CfTree> BuildTree(MemoryTracker* mem, int n, uint64_t seed,
                                  size_t page = 512,
                                  CfRepresentation rep = CfRepresentation::kClassic) {
  CfTreeOptions o;
  o.dim = 2;
  o.page_size = page;
  o.threshold = 0.4;
  o.cf = rep;
  auto tree = std::make_unique<CfTree>(o, mem);
  Rng rng(seed);
  for (int i = 0; i < n; ++i) {
    std::vector<double> p = {rng.Uniform(0, 40), rng.Uniform(0, 40)};
    tree->InsertPoint(p);
  }
  return tree;
}

TEST(TreeIoTest, RoundTripPreservesEverything) {
  MemoryTracker mem;
  auto tree = BuildTree(&mem, 3000, 201);
  std::vector<CfVector> entries_before;
  tree->CollectLeafEntries(&entries_before);

  PageStore store(512);
  auto image_or = TreeIO::Write(*tree, &store);
  ASSERT_TRUE(image_or.ok()) << image_or.status().ToString();
  const TreeImage& image = image_or.value();
  EXPECT_EQ(image.node_count, tree->node_count());
  EXPECT_EQ(store.num_pages(), tree->node_count());

  MemoryTracker mem2;
  CfTreeOptions opts;  // runtime knobs; geometry comes from the image
  auto back_or = TreeIO::Read(image, &store, opts, &mem2);
  ASSERT_TRUE(back_or.ok()) << back_or.status().ToString();
  auto& back = back_or.value();

  EXPECT_EQ(back->node_count(), tree->node_count());
  EXPECT_EQ(back->leaf_entry_count(), tree->leaf_entry_count());
  EXPECT_EQ(back->height(), tree->height());
  EXPECT_DOUBLE_EQ(back->threshold(), tree->threshold());
  EXPECT_EQ(back->TreeSummary(), tree->TreeSummary());
  EXPECT_EQ(mem2.used(), back->node_count() * image.page_size);

  // The image records the leaf chain, so a reopened tree iterates its
  // leaf entries in exactly the original order — not just the same
  // multiset. (Splits append siblings at the end of the parent but link
  // them adjacently in the chain, so traversal order and chain order
  // genuinely diverge on a tree this size; checkpoint resume depends on
  // the chain order, it is Phase-3 input order.)
  std::vector<CfVector> entries_after;
  back->CollectLeafEntries(&entries_after);
  EXPECT_EQ(entries_after, entries_before);
  std::string why;
  EXPECT_TRUE(back->CheckInvariants(&why)) << why;
}

TEST(TreeIoTest, BetulaRoundTripPreservesEverything) {
  // BETULA pages carry the mean and S where classic ones carry LS and
  // SS; the round trip must be exact all the same.
  MemoryTracker mem;
  auto tree = BuildTree(&mem, 3000, 201, 512, CfRepresentation::kBetula);
  std::vector<CfVector> entries_before;
  tree->CollectLeafEntries(&entries_before);

  PageStore store(512);
  auto image_or = TreeIO::Write(*tree, &store);
  ASSERT_TRUE(image_or.ok()) << image_or.status().ToString();
  EXPECT_EQ(image_or.value().cf, CfRepresentation::kBetula);

  MemoryTracker mem2;
  CfTreeOptions opts;
  opts.cf = CfRepresentation::kBetula;
  auto back_or = TreeIO::Read(image_or.value(), &store, opts, &mem2);
  ASSERT_TRUE(back_or.ok()) << back_or.status().ToString();
  std::vector<CfVector> entries_after;
  back_or.value()->CollectLeafEntries(&entries_after);
  EXPECT_EQ(entries_after, entries_before);
  EXPECT_EQ(back_or.value()->TreeSummary(), tree->TreeSummary());
  std::string why;
  EXPECT_TRUE(back_or.value()->CheckInvariants(&why)) << why;
}

TEST(TreeIoTest, CfPolicyMismatchOnReadIsInvalidArgument) {
  // An image written under one CF representation must refuse to open
  // under the other: the pages would be silently misread as the wrong
  // statistics (classic SS vs BETULA S).
  MemoryTracker mem;
  auto tree = BuildTree(&mem, 500, 207, 512, CfRepresentation::kBetula);
  PageStore store(512);
  auto image = TreeIO::Write(*tree, &store);
  ASSERT_TRUE(image.ok());

  MemoryTracker mem2;
  CfTreeOptions wrong_rep;
  wrong_rep.cf = CfRepresentation::kClassic;
  auto r1 = TreeIO::Read(image.value(), &store, wrong_rep, &mem2);
  EXPECT_FALSE(r1.ok());
  EXPECT_EQ(r1.status().code(), StatusCode::kInvalidArgument);

  CfTreeOptions right;
  right.cf = CfRepresentation::kBetula;
  EXPECT_TRUE(TreeIO::Read(image.value(), &store, right, &mem2).ok());
}

TEST(TreeIoTest, ReopenedTreeAcceptsInserts) {
  MemoryTracker mem;
  auto tree = BuildTree(&mem, 1000, 202);
  PageStore store(512);
  auto image = TreeIO::Write(*tree, &store);
  ASSERT_TRUE(image.ok());

  MemoryTracker mem2;
  auto back = TreeIO::Read(image.value(), &store, CfTreeOptions{}, &mem2);
  ASSERT_TRUE(back.ok());
  double n0 = back.value()->TreeSummary().n();
  Rng rng(203);
  for (int i = 0; i < 500; ++i) {
    std::vector<double> p = {rng.Uniform(0, 40), rng.Uniform(0, 40)};
    back.value()->InsertPoint(p);
  }
  EXPECT_NEAR(back.value()->TreeSummary().n(), n0 + 500, 1e-6);
  std::string why;
  EXPECT_TRUE(back.value()->CheckInvariants(&why)) << why;
}

TEST(TreeIoTest, ReleaseFreesAllPages) {
  MemoryTracker mem;
  auto tree = BuildTree(&mem, 2000, 204);
  PageStore store(512);
  auto image = TreeIO::Write(*tree, &store);
  ASSERT_TRUE(image.ok());
  EXPECT_GT(store.num_pages(), 0u);
  ASSERT_TRUE(TreeIO::Release(image.value(), &store).ok());
  EXPECT_EQ(store.num_pages(), 0u);
}

TEST(TreeIoTest, StoreCapacitySurfacesAsError) {
  MemoryTracker mem;
  auto tree = BuildTree(&mem, 2000, 205);
  ASSERT_GT(tree->node_count(), 4u);
  PageStore tiny(512, 4 * 512);  // fewer pages than nodes
  auto image = TreeIO::Write(*tree, &tiny);
  EXPECT_FALSE(image.ok());
  EXPECT_EQ(image.status().code(), StatusCode::kOutOfDisk);
  // A failed Write must return every page it allocated: the partial
  // image is unreachable, so leaked pages would be lost capacity for
  // the life of the store.
  EXPECT_EQ(tiny.num_pages(), 0u);
}

TEST(TreeIoTest, SmallerStorePageRejected) {
  MemoryTracker mem;
  auto tree = BuildTree(&mem, 100, 206, /*page=*/1024);
  PageStore store(512);  // smaller than the tree's page
  auto image = TreeIO::Write(*tree, &store);
  EXPECT_FALSE(image.ok());
  EXPECT_EQ(image.status().code(), StatusCode::kInvalidArgument);
}

TEST(TreeIoTest, CorruptRootRejected) {
  PageStore store(512);
  auto id = store.Allocate();
  ASSERT_TRUE(id.ok());
  std::vector<uint8_t> junk(512, 0x5a);
  ASSERT_TRUE(store.Write(id.value(), junk).ok());
  TreeImage image;
  image.root = id.value();
  image.dim = 2;
  image.page_size = 512;
  MemoryTracker mem;
  auto back = TreeIO::Read(image, &store, CfTreeOptions{}, &mem);
  EXPECT_FALSE(back.ok());
  EXPECT_EQ(back.status().code(), StatusCode::kCorruption);
}

// --- Crafted-page hardening: every structurally invalid page must
// surface as kCorruption, never as undefined behavior. ---

constexpr double kMagic = 5214.1996;  // TreeIO::kNodeMagic

PageId PutRawPage(PageStore* store, const std::vector<double>& buf) {
  auto id = store->Allocate();
  EXPECT_TRUE(id.ok());
  std::vector<uint8_t> page(buf.size() * sizeof(double));
  std::memcpy(page.data(), buf.data(), page.size());
  EXPECT_TRUE(store->Write(id.value(), page).ok());
  return id.value();
}

/// Reads the crafted tree under `root`; the metadata defaults to none,
/// which fails the final check unless a page fails first.
Status ReadCrafted(PageStore* store, PageId root, size_t node_count = 0,
                   size_t leaf_entries = 0, size_t height = 0) {
  TreeImage image;
  image.root = root;
  image.dim = 2;
  image.page_size = 512;
  image.node_count = node_count;
  image.leaf_entries = leaf_entries;
  image.height = height;
  MemoryTracker mem;
  auto back = TreeIO::Read(image, store, CfTreeOptions{}, &mem);
  return back.ok() ? Status::OK() : back.status();
}

TEST(TreeIoTest, ImpossibleEntryCountIsCorruption) {
  // Counts that are too large for the page, negative, non-integral, or
  // non-finite must all be rejected before any size_t cast.
  for (double count : {1e18, -3.0, 1.5,
                       std::numeric_limits<double>::quiet_NaN(),
                       std::numeric_limits<double>::infinity()}) {
    PageStore store(512);
    PageId root = PutRawPage(&store, {kMagic, 1.0, count, 1.0, 1.0, 2.0, 5.0});
    Status st = ReadCrafted(&store, root);
    EXPECT_EQ(st.code(), StatusCode::kCorruption) << "count=" << count;
  }
}

TEST(TreeIoTest, OutOfRangeChildPageIdIsCorruption) {
  // Nonleaf entry layout: N, LS[0..2), SS, child. A child id outside
  // the exact-double range (2^53), negative, or fractional cannot name
  // a real page.
  for (double child : {9007199254740994.0 /* 2^53 + 2 */, -1.0, 0.5}) {
    PageStore store(512);
    PageId root =
        PutRawPage(&store, {kMagic, 0.0, 1.0, 1.0, 1.0, 2.0, 5.0, child});
    Status st = ReadCrafted(&store, root);
    EXPECT_EQ(st.code(), StatusCode::kCorruption) << "child=" << child;
  }
}

TEST(TreeIoTest, CyclicChildReferenceIsCorruption) {
  PageStore store(512);
  auto id = store.Allocate();
  ASSERT_TRUE(id.ok());
  // Nonleaf root whose only child is itself.
  std::vector<double> buf = {kMagic, 0.0, 1.0, 1.0, 1.0, 2.0, 5.0,
                             static_cast<double>(id.value())};
  std::vector<uint8_t> page(buf.size() * sizeof(double));
  std::memcpy(page.data(), buf.data(), page.size());
  ASSERT_TRUE(store.Write(id.value(), page).ok());
  Status st = ReadCrafted(&store, id.value());
  EXPECT_EQ(st.code(), StatusCode::kCorruption);
}

TEST(TreeIoTest, EmptyNonleafRootIsCorruption) {
  // A nonleaf root with no entries has no child to descend to. With
  // metadata that adds up (one node, no leaf entries, no leaf level)
  // only the page itself can reject it.
  PageStore store(512);
  PageId root = PutRawPage(&store, {kMagic, 0.0, 0.0});
  Status st = ReadCrafted(&store, root, /*node_count=*/1,
                          /*leaf_entries=*/0, /*height=*/0);
  EXPECT_EQ(st.code(), StatusCode::kCorruption) << st.ToString();
}

TEST(TreeIoTest, LeavesAtUnequalDepthsAreCorruption) {
  // Root -> {leaf A, nonleaf B -> leaf C}: A sits at depth 2, C at
  // depth 3. The metadata matches the deepest leaf, so only the
  // uniform-depth check can reject the image.
  PageStore store(512);
  PageId a = PutRawPage(&store, {kMagic, 1.0, 1.0, 1.0, 1.0, 2.0, 5.0});
  PageId c = PutRawPage(&store, {kMagic, 1.0, 1.0, 1.0, 3.0, 4.0, 25.0});
  PageId b = PutRawPage(&store, {kMagic, 0.0, 1.0, 1.0, 3.0, 4.0, 25.0,
                                 static_cast<double>(c)});
  PageId root = PutRawPage(
      &store, {kMagic, 0.0, 2.0, 1.0, 1.0, 2.0, 5.0, static_cast<double>(a),
               1.0, 3.0, 4.0, 25.0, static_cast<double>(b)});
  Status st = ReadCrafted(&store, root, /*node_count=*/4,
                          /*leaf_entries=*/2, /*height=*/3);
  EXPECT_EQ(st.code(), StatusCode::kCorruption) << st.ToString();
}

TEST(TreeIoTest, LeafChainMismatchIsCorruption) {
  MemoryTracker mem;
  auto tree = BuildTree(&mem, 500, 207);
  PageStore store(512);
  auto image_or = TreeIO::Write(*tree, &store);
  ASSERT_TRUE(image_or.ok());
  TreeImage image = image_or.value();
  ASSERT_GE(image.leaf_chain.size(), 2u);
  // A chain that names the same leaf twice (dropping another) cannot
  // be the original iteration order.
  image.leaf_chain[1] = image.leaf_chain[0];
  MemoryTracker mem2;
  auto back = TreeIO::Read(image, &store, CfTreeOptions{}, &mem2);
  EXPECT_FALSE(back.ok());
  EXPECT_EQ(back.status().code(), StatusCode::kCorruption);
}

TEST(TreeIoTest, SingleLeafTree) {
  MemoryTracker mem;
  CfTreeOptions o;
  o.dim = 3;
  o.page_size = 512;
  o.threshold = 1.0;
  CfTree tree(o, &mem);
  std::vector<double> p = {1, 2, 3};
  tree.InsertPoint(p);
  PageStore store(512);
  auto image = TreeIO::Write(tree, &store);
  ASSERT_TRUE(image.ok());
  MemoryTracker mem2;
  auto back = TreeIO::Read(image.value(), &store, CfTreeOptions{}, &mem2);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value()->leaf_entry_count(), 1u);
  EXPECT_EQ(back.value()->TreeSummary(), tree.TreeSummary());
}

}  // namespace
}  // namespace birch
