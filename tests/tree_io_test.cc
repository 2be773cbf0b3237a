// CF-tree persistence tests: write/read round trips must reproduce the
// exact tree (summaries, leaf entries, structure) and charge memory
// correctly; every node record fits its page, one zero-padded to the
// page reads the same, and every damaged image is Corruption.
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

  const TreeImage image = TreeIO::Write(*tree);
  EXPECT_EQ(image.node_count, tree->node_count());
  EXPECT_EQ(image.records.size(), tree->node_count());
  EXPECT_EQ(image.root, image.records.size() - 1);  // post-order: root last
  for (const auto& record : image.records) {
    EXPECT_LE(record.size(), image.page_size);
  }

  MemoryTracker mem2;
  CfTreeOptions opts;  // runtime knobs; geometry comes from the image
  auto back_or = TreeIO::Read(image, opts, &mem2);
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

  const TreeImage image = TreeIO::Write(*tree);
  EXPECT_EQ(image.cf, CfRepresentation::kBetula);

  MemoryTracker mem2;
  CfTreeOptions opts;
  opts.cf = CfRepresentation::kBetula;
  auto back_or = TreeIO::Read(image, opts, &mem2);
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
  const TreeImage image = TreeIO::Write(*tree);

  MemoryTracker mem2;
  CfTreeOptions wrong_rep;
  wrong_rep.cf = CfRepresentation::kClassic;
  auto r1 = TreeIO::Read(image, wrong_rep, &mem2);
  EXPECT_FALSE(r1.ok());
  EXPECT_EQ(r1.status().code(), StatusCode::kInvalidArgument);

  CfTreeOptions right;
  right.cf = CfRepresentation::kBetula;
  EXPECT_TRUE(TreeIO::Read(image, right, &mem2).ok());
}

TEST(TreeIoTest, ReopenedTreeAcceptsInserts) {
  MemoryTracker mem;
  auto tree = BuildTree(&mem, 1000, 202);
  const TreeImage image = TreeIO::Write(*tree);

  MemoryTracker mem2;
  auto back = TreeIO::Read(image, CfTreeOptions{}, &mem2);
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

TEST(TreeIoTest, PaddedRecordsReadLikeUnpadded) {
  // Earlier checkpoints stored each record zero-padded to the page
  // size; such an image must rebuild exactly the same tree.
  MemoryTracker mem;
  auto tree = BuildTree(&mem, 2000, 204);
  TreeImage image = TreeIO::Write(*tree);
  for (auto& record : image.records) record.resize(image.page_size, 0);

  MemoryTracker mem2;
  auto back = TreeIO::Read(image, CfTreeOptions{}, &mem2);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  std::vector<CfVector> want, got;
  tree->CollectLeafEntries(&want);
  back.value()->CollectLeafEntries(&got);
  EXPECT_EQ(got, want);
  EXPECT_EQ(back.value()->node_count(), tree->node_count());
}

TEST(TreeIoTest, CorruptRootRejected) {
  TreeImage image;
  image.records.push_back(std::vector<uint8_t>(512, 0x5a));
  image.root = 0;
  image.dim = 2;
  image.page_size = 512;
  MemoryTracker mem;
  auto back = TreeIO::Read(image, CfTreeOptions{}, &mem);
  EXPECT_FALSE(back.ok());
  EXPECT_EQ(back.status().code(), StatusCode::kCorruption);
}

// --- Crafted-record hardening: every structurally invalid record must
// surface as kCorruption, never as undefined behavior. ---

constexpr double kMagic = 5214.1996;  // TreeIO::kNodeMagic

/// Appends a record holding `buf` to `records`; returns its id.
PageId PutRecord(std::vector<std::vector<uint8_t>>* records,
                 const std::vector<double>& buf) {
  std::vector<uint8_t>& record =
      records->emplace_back(buf.size() * sizeof(double));
  std::memcpy(record.data(), buf.data(), record.size());
  return records->size() - 1;
}

/// Reads the crafted tree under `root`; the metadata defaults to none,
/// which fails the final check unless a record fails first.
Status ReadCrafted(std::vector<std::vector<uint8_t>> records, PageId root,
                   size_t node_count = 0, size_t leaf_entries = 0,
                   size_t height = 0) {
  TreeImage image;
  image.records = std::move(records);
  image.root = root;
  image.dim = 2;
  image.page_size = 512;
  image.node_count = node_count;
  image.leaf_entries = leaf_entries;
  image.height = height;
  MemoryTracker mem;
  auto back = TreeIO::Read(image, CfTreeOptions{}, &mem);
  return back.ok() ? Status::OK() : back.status();
}

TEST(TreeIoTest, ImpossibleEntryCountIsCorruption) {
  // Counts that are too large for the page, negative, non-integral, or
  // non-finite must all be rejected before any size_t cast.
  for (double count : {1e18, -3.0, 1.5,
                       std::numeric_limits<double>::quiet_NaN(),
                       std::numeric_limits<double>::infinity()}) {
    std::vector<std::vector<uint8_t>> records;
    PageId root = PutRecord(&records, {kMagic, 1.0, count, 1.0, 1.0, 2.0, 5.0});
    Status st = ReadCrafted(records, root);
    EXPECT_EQ(st.code(), StatusCode::kCorruption) << "count=" << count;
  }
}

TEST(TreeIoTest, OutOfRangeChildPageIdIsCorruption) {
  // Nonleaf entry layout: N, LS[0..2), SS, child. A child id outside
  // the exact-double range (2^53), negative, or fractional cannot name
  // a real record.
  for (double child : {9007199254740994.0 /* 2^53 + 2 */, -1.0, 0.5}) {
    std::vector<std::vector<uint8_t>> records;
    PageId root =
        PutRecord(&records, {kMagic, 0.0, 1.0, 1.0, 1.0, 2.0, 5.0, child});
    Status st = ReadCrafted(records, root);
    EXPECT_EQ(st.code(), StatusCode::kCorruption) << "child=" << child;
  }
}

TEST(TreeIoTest, CyclicChildReferenceIsCorruption) {
  // Nonleaf root (record 0) whose only child is itself.
  std::vector<std::vector<uint8_t>> records;
  PageId root =
      PutRecord(&records, {kMagic, 0.0, 1.0, 1.0, 1.0, 2.0, 5.0, 0.0});
  Status st = ReadCrafted(records, root);
  EXPECT_EQ(st.code(), StatusCode::kCorruption);
}

TEST(TreeIoTest, RootOrChildIdPastTheRecordsIsCorruption) {
  // Ids are record indexes: one at or past the record count names
  // nothing, whether it is the image's root or a nonleaf entry's child.
  std::vector<std::vector<uint8_t>> records;
  PageId leaf = PutRecord(&records, {kMagic, 1.0, 1.0, 1.0, 1.0, 2.0, 5.0});
  Status st = ReadCrafted(records, /*root=*/records.size(), 1, 1, 1);
  EXPECT_EQ(st.code(), StatusCode::kCorruption) << st.ToString();
  st = ReadCrafted(records, kInvalidPageId, 1, 1, 1);
  EXPECT_EQ(st.code(), StatusCode::kCorruption) << st.ToString();
  EXPECT_TRUE(ReadCrafted(records, leaf, 1, 1, 1).ok());

  // A nonleaf root (record 1) whose child id, 2, is past both records.
  PageId root =
      PutRecord(&records, {kMagic, 0.0, 1.0, 1.0, 1.0, 2.0, 5.0, 2.0});
  ASSERT_EQ(records.size(), 2u);
  st = ReadCrafted(records, root, 2, 1, 2);
  EXPECT_EQ(st.code(), StatusCode::kCorruption) << st.ToString();
}

TEST(TreeIoTest, RecordLongerThanThePageIsCorruption) {
  // A record never exceeds the page it was written from; a longer one
  // (even a valid node with a nonzero tail) is damage.
  MemoryTracker mem;
  auto tree = BuildTree(&mem, 500, 208);
  TreeImage image = TreeIO::Write(*tree);
  image.records[image.root].resize(image.page_size + sizeof(double), 0);
  MemoryTracker mem2;
  auto back = TreeIO::Read(image, CfTreeOptions{}, &mem2);
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.status().code(), StatusCode::kCorruption)
      << back.status().ToString();
}

TEST(TreeIoTest, PageTooSmallForTwoEntriesIsCorruption) {
  // No writer produces an image whose page cannot hold two nonleaf
  // entries (CfTree requires it), so one that claims such a page is
  // damage, refused before a tree is built on it.
  std::vector<std::vector<uint8_t>> records;
  PageId root = PutRecord(&records, {kMagic, 1.0, 1.0, 1.0, 1.0, 2.0, 5.0});
  TreeImage image;
  image.records = records;
  image.root = root;
  image.dim = 2;
  image.page_size = CfLayout{512, 2}.MinPageSize() - 1;
  image.node_count = image.leaf_entries = image.height = 1;
  MemoryTracker mem;
  auto back = TreeIO::Read(image, CfTreeOptions{}, &mem);
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.status().code(), StatusCode::kCorruption)
      << back.status().ToString();
  image.page_size = CfLayout{512, 2}.MinPageSize();
  EXPECT_TRUE(TreeIO::Read(image, CfTreeOptions{}, &mem).ok());
}

TEST(TreeIoTest, EmptyNonleafRootIsCorruption) {
  // A nonleaf root with no entries has no child to descend to. With
  // metadata that adds up (one node, no leaf entries, no leaf level)
  // only the page itself can reject it.
  std::vector<std::vector<uint8_t>> records;
  PageId root = PutRecord(&records, {kMagic, 0.0, 0.0});
  Status st = ReadCrafted(records, root, /*node_count=*/1,
                          /*leaf_entries=*/0, /*height=*/0);
  EXPECT_EQ(st.code(), StatusCode::kCorruption) << st.ToString();
}

TEST(TreeIoTest, LeavesAtUnequalDepthsAreCorruption) {
  // Root -> {leaf A, nonleaf B -> leaf C}: A sits at depth 2, C at
  // depth 3. The metadata matches the deepest leaf, so only the
  // uniform-depth check can reject the image.
  std::vector<std::vector<uint8_t>> records;
  PageId a = PutRecord(&records, {kMagic, 1.0, 1.0, 1.0, 1.0, 2.0, 5.0});
  PageId c = PutRecord(&records, {kMagic, 1.0, 1.0, 1.0, 3.0, 4.0, 25.0});
  PageId b = PutRecord(&records, {kMagic, 0.0, 1.0, 1.0, 3.0, 4.0, 25.0,
                                  static_cast<double>(c)});
  PageId root = PutRecord(
      &records, {kMagic, 0.0, 2.0, 1.0, 1.0, 2.0, 5.0, static_cast<double>(a),
                 1.0, 3.0, 4.0, 25.0, static_cast<double>(b)});
  Status st = ReadCrafted(records, root, /*node_count=*/4,
                          /*leaf_entries=*/2, /*height=*/3);
  EXPECT_EQ(st.code(), StatusCode::kCorruption) << st.ToString();
}

TEST(TreeIoTest, LeafChainMismatchIsCorruption) {
  MemoryTracker mem;
  auto tree = BuildTree(&mem, 500, 207);
  TreeImage image = TreeIO::Write(*tree);
  ASSERT_GE(image.leaf_chain.size(), 2u);
  // A chain that names the same leaf twice (dropping another) cannot
  // be the original iteration order.
  image.leaf_chain[1] = image.leaf_chain[0];
  MemoryTracker mem2;
  auto back = TreeIO::Read(image, CfTreeOptions{}, &mem2);
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
  const TreeImage image = TreeIO::Write(tree);
  MemoryTracker mem2;
  auto back = TreeIO::Read(image, CfTreeOptions{}, &mem2);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value()->leaf_entry_count(), 1u);
  EXPECT_EQ(back.value()->TreeSummary(), tree.TreeSummary());
}

}  // namespace
}  // namespace birch
