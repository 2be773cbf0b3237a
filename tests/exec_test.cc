// src/exec primitives: ThreadPool and ParallelFor chunking. These are
// the foundation of the sharded Phase-1 / parallel Phase-3/4 paths, so
// the tests pin down exactly the properties those paths rely on: every
// submitted task runs, chunks tile [0, n) with deterministic
// boundaries, and the serial (nullptr pool) path is one inline call.
// The same file runs under TSan (exec_test.tsan).
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <thread>
#include <vector>

#include "exec/parallel_for.h"
#include "exec/thread_pool.h"

namespace birch {
namespace exec {
namespace {

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(4);
    EXPECT_EQ(pool.size(), 4);
    for (int i = 0; i < 100; ++i) {
      pool.Submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
    }
    // Destructor drains the queue before joining.
  }
  EXPECT_EQ(ran.load(), 100);
}

TEST(ThreadPoolTest, SizeClampedToAtLeastOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1);
  std::atomic<bool> ran{false};
  pool.Submit([&ran] { ran = true; });
  // Give the single worker a chance; the destructor drains anyway.
}

TEST(ThreadPoolTest, TasksFromManySubmittersAllRun) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(3);
    std::vector<std::thread> submitters;
    for (int t = 0; t < 4; ++t) {
      submitters.emplace_back([&pool, &ran] {
        for (int i = 0; i < 50; ++i) {
          pool.Submit(
              [&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
        }
      });
    }
    for (auto& s : submitters) s.join();
  }
  EXPECT_EQ(ran.load(), 200);
}

TEST(ParallelForTest, NullPoolIsOneInlineChunk) {
  EXPECT_EQ(ParallelForNumChunks(nullptr, 1000, 1), 1u);
  size_t calls = 0;
  ParallelFor(nullptr, 17, [&](size_t begin, size_t end, size_t chunk) {
    ++calls;
    EXPECT_EQ(begin, 0u);
    EXPECT_EQ(end, 17u);
    EXPECT_EQ(chunk, 0u);
  });
  EXPECT_EQ(calls, 1u);
}

TEST(ParallelForTest, ChunkCountRespectsMinPerChunk) {
  ThreadPool pool(8);
  // 100 items at >= 64 per chunk: 2 chunks, not 8.
  EXPECT_EQ(ParallelForNumChunks(&pool, 100, 64), 2u);
  // Plenty of items: one chunk per worker.
  EXPECT_EQ(ParallelForNumChunks(&pool, 10000, 64), 8u);
  // Fewer items than workers: never more chunks than items.
  EXPECT_EQ(ParallelForNumChunks(&pool, 3, 1), 3u);
  EXPECT_EQ(ParallelForNumChunks(&pool, 0, 1), 1u);
}

TEST(ParallelForTest, ChunksTileTheRangeExactlyOnce) {
  ThreadPool pool(4);
  const size_t n = 10001;
  std::vector<std::atomic<int>> hits(n);
  for (auto& h : hits) h.store(0);
  ParallelFor(
      &pool, n,
      [&](size_t begin, size_t end, size_t) {
        for (size_t i = begin; i < end; ++i) {
          hits[i].fetch_add(1, std::memory_order_relaxed);
        }
      },
      /*min_per_chunk=*/16);
  for (size_t i = 0; i < n; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelForTest, ChunkBoundariesAreDeterministic) {
  ThreadPool pool(4);
  const size_t n = 1003;
  const size_t nc = ParallelForNumChunks(&pool, n, 1);
  ASSERT_EQ(nc, 4u);
  std::vector<std::pair<size_t, size_t>> a(nc), b(nc);
  auto record = [](std::vector<std::pair<size_t, size_t>>* out) {
    return [out](size_t begin, size_t end, size_t chunk) {
      (*out)[chunk] = {begin, end};
    };
  };
  ParallelFor(&pool, n, record(&a), 1);
  ParallelFor(&pool, n, record(&b), 1);
  EXPECT_EQ(a, b);
  // Chunks are contiguous, ordered, and cover [0, n).
  EXPECT_EQ(a.front().first, 0u);
  EXPECT_EQ(a.back().second, n);
  for (size_t c = 1; c < nc; ++c) EXPECT_EQ(a[c - 1].second, a[c].first);
}

TEST(ParallelForTest, PerChunkPartialsFoldDeterministically) {
  ThreadPool pool(4);
  const size_t n = 5000;
  std::vector<double> xs(n);
  std::iota(xs.begin(), xs.end(), 1.0);
  auto chunked_sum = [&] {
    const size_t nc = ParallelForNumChunks(&pool, n, 16);
    std::vector<double> partial(nc, 0.0);
    ParallelFor(
        &pool, n,
        [&](size_t begin, size_t end, size_t chunk) {
          for (size_t i = begin; i < end; ++i) partial[chunk] += xs[i];
        },
        16);
    double total = 0.0;
    for (double p : partial) total += p;
    return total;
  };
  double first = chunked_sum();
  for (int rep = 0; rep < 5; ++rep) {
    ASSERT_EQ(chunked_sum(), first);  // bitwise: same chunking, same fold
  }
}

}  // namespace
}  // namespace exec
}  // namespace birch
