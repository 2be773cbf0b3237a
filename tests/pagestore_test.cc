// Tests for the simulated disk substrate: page store capacity/IO
// accounting, per-page checksum verification, fault injection, spill
// file round trips with retry/loss handling, and the memory tracker.
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "pagestore/crc32c.h"
#include "pagestore/fault_injector.h"
#include "pagestore/memory_tracker.h"
#include "pagestore/page_store.h"
#include "pagestore/spill_file.h"
#include "util/random.h"

namespace birch {
namespace {

TEST(MemoryTrackerTest, BudgetEnforced) {
  MemoryTracker mem(1000);
  EXPECT_TRUE(mem.Allocate(600));
  EXPECT_FALSE(mem.Allocate(500));
  EXPECT_EQ(mem.used(), 600u);
  EXPECT_TRUE(mem.Allocate(400));
  EXPECT_EQ(mem.available(), 0u);
  mem.Free(1000);
  EXPECT_EQ(mem.used(), 0u);
}

TEST(MemoryTrackerTest, UnlimitedWhenZeroBudget) {
  MemoryTracker mem;
  EXPECT_TRUE(mem.Allocate(1u << 30));
  EXPECT_FALSE(mem.over_budget());
}

TEST(MemoryTrackerTest, ForceAllocateOverdraft) {
  MemoryTracker mem(100);
  mem.ForceAllocate(150);
  EXPECT_TRUE(mem.over_budget());
  EXPECT_EQ(mem.peak(), 150u);
  mem.Free(100);
  EXPECT_FALSE(mem.over_budget());
}

// Regression: the budget check and the reservation must be one atomic
// step. With a read-check-add implementation, 8 threads racing on the
// last slots of the budget would jointly overshoot it; the CAS-loop
// Allocate() makes that impossible. (Run under TSan as
// pagestore_test.tsan.)
TEST(MemoryTrackerTest, ConcurrentAllocateNeverOvershootsBudget) {
  constexpr size_t kBudget = 8000;
  constexpr size_t kChunk = 10;
  constexpr int kThreads = 8;
  MemoryTracker mem(kBudget);
  std::vector<size_t> granted(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&mem, &granted, t] {
      // Everyone hammers until the budget is exhausted.
      while (mem.Allocate(kChunk)) granted[static_cast<size_t>(t)] += kChunk;
    });
  }
  for (auto& th : threads) th.join();
  size_t total = 0;
  for (size_t g : granted) total += g;
  EXPECT_EQ(total, kBudget);  // fully handed out...
  EXPECT_EQ(mem.used(), kBudget);
  EXPECT_LE(mem.peak(), kBudget);  // ...and never jointly exceeded
  EXPECT_FALSE(mem.over_budget());
  EXPECT_FALSE(mem.Allocate(1));
  mem.Free(kBudget);
  EXPECT_EQ(mem.used(), 0u);
}

TEST(MemoryTrackerTest, ConcurrentForceAllocateTracksPeakExactly) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 1000;
  MemoryTracker mem(0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&mem] {
      for (int i = 0; i < kPerThread; ++i) {
        mem.ForceAllocate(3);
        mem.Free(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mem.used(), size_t(kThreads) * kPerThread * 2);
  EXPECT_GE(mem.peak(), mem.used());
  EXPECT_EQ(mem.allocations(), uint64_t(kThreads) * kPerThread);
  EXPECT_EQ(mem.frees(), uint64_t(kThreads) * kPerThread);
}

TEST(PageStoreTest, AllocateWriteReadFree) {
  PageStore store(64, /*capacity=*/256);
  auto id = store.Allocate();
  ASSERT_TRUE(id.ok());
  std::vector<uint8_t> data(64);
  for (size_t i = 0; i < data.size(); ++i) data[i] = uint8_t(i);
  ASSERT_TRUE(store.Write(id.value(), data).ok());
  std::vector<uint8_t> back;
  ASSERT_TRUE(store.Read(id.value(), &back).ok());
  EXPECT_EQ(back, data);
  EXPECT_EQ(store.io_stats().pages_written, 1u);
  EXPECT_EQ(store.io_stats().pages_read, 1u);
  ASSERT_TRUE(store.Free(id.value()).ok());
  EXPECT_EQ(store.num_pages(), 0u);
}

TEST(PageStoreTest, CapacityEnforced) {
  PageStore store(64, 128);  // two pages max
  ASSERT_TRUE(store.Allocate().ok());
  ASSERT_TRUE(store.Allocate().ok());
  auto third = store.Allocate();
  EXPECT_FALSE(third.ok());
  EXPECT_EQ(third.status().code(), StatusCode::kOutOfDisk);
}

TEST(PageStoreTest, MissingPageIsNotFound) {
  PageStore store(64);
  std::vector<uint8_t> out;
  EXPECT_EQ(store.Read(42, &out).code(), StatusCode::kNotFound);
  EXPECT_EQ(store.Free(42).code(), StatusCode::kNotFound);
}

TEST(PageStoreTest, OversizeWriteRejected) {
  PageStore store(16);
  auto id = store.Allocate();
  ASSERT_TRUE(id.ok());
  std::vector<uint8_t> big(17);
  EXPECT_EQ(store.Write(id.value(), big).code(),
            StatusCode::kInvalidArgument);
}

TEST(SpillFileTest, AppendDrainRoundTrip) {
  PageStore store(1024);
  SpillFile spill(&store, /*record_doubles=*/4);
  Rng rng(5);
  std::vector<double> expect;
  for (int i = 0; i < 1000; ++i) {
    std::vector<double> rec = {rng.NextDouble(), rng.NextDouble(),
                               rng.NextDouble(), rng.NextDouble()};
    ASSERT_TRUE(spill.Append(rec).ok());
    expect.insert(expect.end(), rec.begin(), rec.end());
  }
  EXPECT_EQ(spill.size(), 1000u);
  std::vector<double> got;
  ASSERT_TRUE(spill.DrainAll(&got).ok());
  EXPECT_EQ(got, expect);
  EXPECT_TRUE(spill.empty());
  // All pages returned to the store.
  EXPECT_EQ(store.num_pages(), 0u);
}

TEST(SpillFileTest, ArityMismatchRejected) {
  PageStore store(1024);
  SpillFile spill(&store, 4);
  std::vector<double> rec3 = {1, 2, 3};
  EXPECT_EQ(spill.Append(rec3).code(), StatusCode::kInvalidArgument);
}

TEST(SpillFileTest, OutOfDiskSurfaces) {
  PageStore store(64, /*capacity=*/64);  // exactly one page
  SpillFile spill(&store, 4);            // 2 records per page
  std::vector<double> rec = {1, 2, 3, 4};
  ASSERT_TRUE(spill.Append(rec).ok());
  ASSERT_TRUE(spill.Append(rec).ok());
  // Third record forces a flush of the staging page -> allocates page 1.
  ASSERT_TRUE(spill.Append(rec).ok());
  ASSERT_TRUE(spill.Append(rec).ok());
  // Fifth record needs a second page: out of disk.
  EXPECT_EQ(spill.Append(rec).code(), StatusCode::kOutOfDisk);
  // Draining recovers everything that was accepted.
  std::vector<double> got;
  ASSERT_TRUE(spill.DrainAll(&got).ok());
  EXPECT_EQ(got.size(), 16u);
}

TEST(Crc32cTest, KnownVectors) {
  // RFC 3720 test vector: CRC32C("123456789") = 0xE3069283.
  const char* digits = "123456789";
  std::vector<uint8_t> data(digits, digits + 9);
  EXPECT_EQ(Crc32c(data), 0xe3069283u);
  EXPECT_EQ(Crc32c(std::span<const uint8_t>{}), 0u);
}

TEST(PageStoreTest, ChecksumCatchesEverySingleBitCorruption) {
  // CRC32C must detect 100% of single-bit errors: flip each of the
  // page's bits in turn and require DataLoss on every read.
  const size_t kPageSize = 64;
  PageStore store(kPageSize);
  auto id = store.Allocate();
  ASSERT_TRUE(id.ok());
  std::vector<uint8_t> data(kPageSize);
  for (size_t i = 0; i < data.size(); ++i) data[i] = uint8_t(i * 37 + 11);
  ASSERT_TRUE(store.Write(id.value(), data).ok());
  std::vector<uint8_t> out;
  for (size_t bit = 0; bit < kPageSize * 8; ++bit) {
    ASSERT_TRUE(store.CorruptBitForTesting(id.value(), bit).ok());
    EXPECT_EQ(store.Read(id.value(), &out).code(), StatusCode::kDataLoss)
        << "bit " << bit << " slipped through";
    // Un-flip: the page must verify again (the corruption, not the
    // checksum state, caused the failure).
    ASSERT_TRUE(store.CorruptBitForTesting(id.value(), bit).ok());
    EXPECT_TRUE(store.Read(id.value(), &out).ok());
  }
  EXPECT_EQ(store.io_stats().checksum_failures, kPageSize * 8);
}

TEST(PageStoreTest, InjectedBitRotSurfacesAsDataLoss) {
  FaultOptions f;
  f.bit_flip_rate = 1.0;
  f.seed = 99;
  PageStore store(64, 0, f);
  auto id = store.Allocate();
  ASSERT_TRUE(id.ok());
  std::vector<uint8_t> data(64, 0xab);
  ASSERT_TRUE(store.Write(id.value(), data).ok());  // write "succeeds"
  std::vector<uint8_t> out;
  EXPECT_EQ(store.Read(id.value(), &out).code(), StatusCode::kDataLoss);
  EXPECT_EQ(store.fault_stats().bits_flipped, 1u);
  EXPECT_EQ(store.io_stats().checksum_failures, 1u);
}

TEST(PageStoreTest, InjectedPageLossSurvivesRewriteAndFree) {
  FaultOptions f;
  f.page_loss_rate = 1.0;
  PageStore store(64, 0, f);
  auto id = store.Allocate();
  ASSERT_TRUE(id.ok());
  std::vector<uint8_t> data(64, 1);
  ASSERT_TRUE(store.Write(id.value(), data).ok());
  std::vector<uint8_t> out;
  EXPECT_EQ(store.Read(id.value(), &out).code(), StatusCode::kDataLoss);
  EXPECT_EQ(store.io_stats().lost_page_reads, 1u);
  // Freeing a lost page still reclaims the capacity.
  EXPECT_TRUE(store.Free(id.value()).ok());
  EXPECT_EQ(store.num_pages(), 0u);
}

TEST(PageStoreTest, TransientFaultsAreRetryableAndLeavePageIntact) {
  FaultOptions f;
  f.read_transient_rate = 0.5;
  f.write_transient_rate = 0.5;
  f.seed = 7;
  PageStore store(64, 0, f);
  auto id = store.Allocate();
  ASSERT_TRUE(id.ok());
  std::vector<uint8_t> data(64, 0x5c);
  // Deterministically seeded: some ops fail with IOError, and a plain
  // retry loop always gets through eventually.
  int write_failures = 0;
  Status st;
  do {
    st = store.Write(id.value(), data);
    if (!st.ok()) {
      ASSERT_EQ(st.code(), StatusCode::kIOError);
      ++write_failures;
      ASSERT_LT(write_failures, 64) << "transient faults never clear";
    }
  } while (!st.ok());
  std::vector<uint8_t> out;
  do {
    st = store.Read(id.value(), &out);
    if (!st.ok()) {
      ASSERT_EQ(st.code(), StatusCode::kIOError);
    }
  } while (!st.ok());
  EXPECT_EQ(out, data);
  EXPECT_EQ(store.io_stats().transient_write_errors,
            store.fault_stats().transient_writes);
}

TEST(SpillFileTest, RetriesAbsorbTransientFaults) {
  FaultOptions f;
  f.read_transient_rate = 0.3;
  f.write_transient_rate = 0.3;
  f.seed = 11;
  PageStore store(256, 0, f);
  RetryPolicy retry;
  retry.max_attempts = 16;  // 0.3^16 ~ 4e-9: retries always win
  SpillFile spill(&store, 4, retry);
  std::vector<double> expect;
  for (int i = 0; i < 200; ++i) {
    std::vector<double> rec = {double(i), double(i) + 0.5, 0.0, 1.0};
    ASSERT_TRUE(spill.Append(rec).ok());
    expect.insert(expect.end(), rec.begin(), rec.end());
  }
  std::vector<double> got;
  DrainReport rep;
  ASSERT_TRUE(spill.DrainAll(&got, &rep).ok());
  EXPECT_EQ(got, expect);
  EXPECT_EQ(rep.records_lost, 0u);
  EXPECT_GT(spill.stats().io_retries, 0u);
  EXPECT_GT(spill.stats().backoff_us, 0u);
}

TEST(SpillFileTest, FailedFlushLeavesStagingIntactAndLeaksNoPage) {
  // Append staging-buffer semantics on OutOfDisk: a failed flush must
  // keep every previously-accepted record drainable exactly once.
  PageStore store(64, /*capacity=*/64);  // one page; 2 records per page
  SpillFile spill(&store, 4);
  std::vector<double> rec = {1, 2, 3, 4};
  for (int i = 0; i < 4; ++i) {
    rec[0] = i;
    ASSERT_TRUE(spill.Append(rec).ok());  // fills page 0 + staging
  }
  size_t pages_before = store.num_pages();
  rec[0] = 99;
  EXPECT_EQ(spill.Append(rec).code(), StatusCode::kOutOfDisk);
  EXPECT_EQ(spill.Append(rec).code(), StatusCode::kOutOfDisk);  // again
  EXPECT_EQ(store.num_pages(), pages_before);  // no page leaked
  EXPECT_EQ(spill.size(), 4u);  // the rejected record was not counted
  std::vector<double> got;
  ASSERT_TRUE(spill.DrainAll(&got).ok());
  ASSERT_EQ(got.size(), 16u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(got[size_t(i) * 4], double(i));  // exactly once, in order
  }
  EXPECT_TRUE(spill.empty());
}

TEST(SpillFileTest, FailedFlushWriteFreesAllocatedPage) {
  FaultOptions f;
  f.write_transient_rate = 1.0;  // every write fails, even with retries
  PageStore store(64, /*capacity=*/128, f);
  RetryPolicy retry;
  retry.max_attempts = 3;
  SpillFile spill(&store, 4, retry);
  std::vector<double> rec = {5, 6, 7, 8};
  ASSERT_TRUE(spill.Append(rec).ok());
  ASSERT_TRUE(spill.Append(rec).ok());
  // Third append needs a flush; the write fails past the retry budget
  // and the allocated page must be given back.
  EXPECT_EQ(spill.Append(rec).code(), StatusCode::kIOError);
  EXPECT_EQ(store.num_pages(), 0u);
  EXPECT_EQ(spill.stats().io_retries, 2u);
  // The two accepted records are still in staging and drain cleanly.
  std::vector<double> got;
  ASSERT_TRUE(spill.DrainAll(&got).ok());
  EXPECT_EQ(got.size(), 8u);
}

TEST(SpillFileTest, DrainSkipsLostPagesAndReportsExactLoss) {
  FaultOptions f;
  f.page_loss_rate = 1.0;  // every flushed page is silently lost
  PageStore store(64, 0, f);
  SpillFile spill(&store, 4);  // 2 records per page
  std::vector<double> rec = {1, 1, 1, 1};
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(spill.Append(rec).ok());
  // 2 full pages flushed (4 records) + 1 record staged.
  std::vector<double> got;
  DrainReport rep;
  ASSERT_TRUE(spill.DrainAll(&got, &rep).ok());
  EXPECT_EQ(rep.records_lost, 4u);
  EXPECT_EQ(rep.pages_lost, 2u);
  EXPECT_EQ(rep.pages_total, 2u);
  EXPECT_EQ(rep.records_returned, 1u);  // the staged record survives
  EXPECT_EQ(got.size(), 4u);
  EXPECT_EQ(spill.stats().records_lost, 4u);
  EXPECT_EQ(store.num_pages(), 0u);  // lost pages still freed
}

TEST(SpillFileTest, DrainWithoutReportNeverLosesDataSilently) {
  FaultOptions f;
  f.bit_flip_rate = 1.0;  // every flushed page is corrupt
  PageStore store(64, 0, f);
  SpillFile spill(&store, 4);
  std::vector<double> rec = {2, 2, 2, 2};
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(spill.Append(rec).ok());
  std::vector<double> got;
  Status st = spill.DrainAll(&got);
  // No report passed: the loss must surface as a DataLoss status, and
  // the corrupt page must not be decoded into records — only the two
  // staged (never-flushed) records come back.
  EXPECT_EQ(st.code(), StatusCode::kDataLoss);
  EXPECT_EQ(got.size(), 8u);
}

TEST(SpillFileTest, DrainEmpty) {
  PageStore store(256);
  SpillFile spill(&store, 3);
  std::vector<double> got = {9, 9};
  ASSERT_TRUE(spill.DrainAll(&got).ok());
  EXPECT_TRUE(got.empty());
}

// Regression (short-write stale tail): Write used to copy only
// data.size() bytes over the previous contents, so a short write after
// a full write left the old tail bytes visible. The page past the
// written prefix must read back as zeroes.
TEST(PageStoreTest, ShortWriteZeroesTheTail) {
  PageStore store(64);
  auto id = store.Allocate();
  ASSERT_TRUE(id.ok());
  std::vector<uint8_t> full(64, 0xff);
  ASSERT_TRUE(store.Write(id.value(), full).ok());
  std::vector<uint8_t> shorter(10, 0xaa);
  ASSERT_TRUE(store.Write(id.value(), shorter).ok());
  std::vector<uint8_t> out;
  ASSERT_TRUE(store.Read(id.value(), &out).ok());
  ASSERT_EQ(out.size(), 64u);
  for (size_t i = 0; i < 10; ++i) EXPECT_EQ(out[i], 0xaa) << "byte " << i;
  for (size_t i = 10; i < 64; ++i) {
    EXPECT_EQ(out[i], 0x00) << "stale tail byte " << i;
  }
}

// Regression (DrainAll early return left stale state): a page that
// vanished from the store mid-drain used to early-return NotFound
// without trimming pages_/count_, so a retried drain re-read freed
// pages and double-counted records. Now a vanished page is accounted
// as lost and the drain stays state-consistent: a second drain returns
// only what is actually left.
TEST(SpillFileTest, DrainSurvivesExternallyFreedPageWithoutDoubleCount) {
  PageStore store(64);  // ids are sequential from 0
  SpillFile spill(&store, 4);  // 2 records per page
  std::vector<double> rec = {3, 3, 3, 3};
  // 6 appends: pages 0 and 1 flushed (2 records each), 2 staged.
  for (int i = 0; i < 6; ++i) ASSERT_TRUE(spill.Append(rec).ok());
  ASSERT_EQ(store.num_pages(), 2u);
  // Yank a page out from under the spill file.
  ASSERT_TRUE(store.Free(0).ok());
  std::vector<double> got;
  DrainReport rep;
  ASSERT_TRUE(spill.DrainAll(&got, &rep).ok());
  EXPECT_EQ(rep.pages_lost, 1u);
  EXPECT_EQ(rep.records_lost, 2u);
  // Page 1's two records + the two staged records, exactly once.
  EXPECT_EQ(got.size(), 16u);
  EXPECT_TRUE(spill.empty());
  EXPECT_EQ(store.num_pages(), 0u);
  // A retried drain finds nothing — no double count, no NotFound spray.
  std::vector<double> again;
  ASSERT_TRUE(spill.DrainAll(&again).ok());
  EXPECT_TRUE(again.empty());
}

TEST(SpillFileTest, DrainUnderInjectedFaultsIsRetryConsistent) {
  // Fault-injected drain: every flushed page is corrupt, so the drain
  // reports total loss — and a second drain must see a fully trimmed
  // spill file, not re-account the same pages.
  FaultOptions f;
  f.bit_flip_rate = 1.0;
  PageStore store(64, 0, f);
  SpillFile spill(&store, 4);
  std::vector<double> rec = {4, 4, 4, 4};
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(spill.Append(rec).ok());
  std::vector<double> got;
  DrainReport rep;
  ASSERT_TRUE(spill.DrainAll(&got, &rep).ok());
  EXPECT_EQ(rep.pages_lost, 2u);
  EXPECT_EQ(rep.records_lost, 4u);
  EXPECT_EQ(got.size(), 4u);  // the staged record
  EXPECT_EQ(store.num_pages(), 0u);  // lost pages still freed
  EXPECT_TRUE(spill.empty());
  std::vector<double> again = {7};
  DrainReport rep2;
  ASSERT_TRUE(spill.DrainAll(&again, &rep2).ok());
  EXPECT_TRUE(again.empty());
  EXPECT_EQ(rep2.pages_lost, 0u);
  EXPECT_EQ(spill.stats().records_lost, 4u);  // not double-counted
}

// Regression (PeekAll mutated SpillStats): a read-only peek used to
// funnel through the same retry helper as DrainAll and bump
// io_retries/transient_errors, so peeking changed the robustness
// accounting a later drain reports. Stats must be byte-identical
// across a peek, under retries and under loss.
TEST(SpillFileTest, PeekIsStatsNeutral) {
  FaultOptions f;
  f.read_transient_rate = 0.4;
  f.seed = 17;
  PageStore store(64, 0, f);
  RetryPolicy retry;
  retry.max_attempts = 16;
  SpillFile spill(&store, 4, retry);
  std::vector<double> rec = {6, 6, 6, 6};
  for (int i = 0; i < 6; ++i) ASSERT_TRUE(spill.Append(rec).ok());
  const SpillStats before = spill.stats();
  std::vector<double> peeked;
  DrainReport rep;
  ASSERT_TRUE(spill.PeekAll(&peeked, &rep).ok());
  EXPECT_EQ(peeked.size(), 24u);
  const SpillStats& after = spill.stats();
  EXPECT_EQ(after.io_retries, before.io_retries);
  EXPECT_EQ(after.transient_errors, before.transient_errors);
  EXPECT_EQ(after.backoff_us, before.backoff_us);
  EXPECT_EQ(after.pages_lost, before.pages_lost);
  EXPECT_EQ(after.records_lost, before.records_lost);
  // The spill file is untouched: everything still drains.
  std::vector<double> got;
  ASSERT_TRUE(spill.DrainAll(&got).ok());
  EXPECT_EQ(got.size(), 24u);
}

TEST(SpillFileTest, PeekSkipsLostPagesWithoutTouchingLossAccounting) {
  FaultOptions f;
  f.page_loss_rate = 1.0;
  PageStore store(64, 0, f);
  SpillFile spill(&store, 4);
  std::vector<double> rec = {8, 8, 8, 8};
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(spill.Append(rec).ok());
  std::vector<double> peeked;
  DrainReport rep;
  ASSERT_TRUE(spill.PeekAll(&peeked, &rep).ok());
  EXPECT_EQ(rep.pages_lost, 1u);
  EXPECT_EQ(peeked.size(), 4u);  // only the staged record
  // Loss accounting belongs to DrainAll: the peek recorded nothing.
  EXPECT_EQ(spill.stats().pages_lost, 0u);
  EXPECT_EQ(spill.stats().records_lost, 0u);
  // The lost page is still allocated — the drain owns the Free.
  EXPECT_EQ(store.num_pages(), 1u);
}

}  // namespace
}  // namespace birch
