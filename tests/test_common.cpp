// common/ substrate: thread pool semantics, deterministic RNG, error macros,
// logging levels.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <numeric>
#include <set>
#include <thread>

#include "common/check.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "common/stopwatch.hpp"
#include "common/thread_pool.hpp"

namespace weipipe {
namespace {

// ---- check macros -------------------------------------------------------------

TEST(Check, ThrowsWithExpressionAndLocation) {
  try {
    WEIPIPE_CHECK(1 == 2);
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("test_common.cpp"), std::string::npos);
  }
}

TEST(Check, MessageVariantStreamsValues) {
  try {
    const int x = 41;
    WEIPIPE_CHECK_MSG(x == 42, "x=" << x);
    FAIL();
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("x=41"), std::string::npos);
  }
}

TEST(Check, PassingCheckIsSilent) {
  EXPECT_NO_THROW(WEIPIPE_CHECK(true));
  EXPECT_NO_THROW(WEIPIPE_CHECK_MSG(2 + 2 == 4, "math"));
}

// ---- logging --------------------------------------------------------------------

TEST(Log, LevelGate) {
  const LogLevel prev = log_level();
  set_log_level(LogLevel::Error);
  EXPECT_EQ(log_level(), LogLevel::Error);
  // These must not crash (output goes to stderr when enabled).
  WEIPIPE_DEBUG("invisible " << 1);
  WEIPIPE_ERROR("visible " << 2);
  set_log_level(prev);
}

// ---- RNG -------------------------------------------------------------------------

TEST(Rng, DeterministicPerSeed) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(a.next_u64(), b.next_u64());
  }
  Rng c(8);
  EXPECT_NE(Rng(7).next_u64(), c.next_u64());
}

TEST(Rng, ForkProducesIndependentStreams) {
  Rng root(42);
  Rng s0 = root.fork(0);
  Rng s1 = root.fork(1);
  EXPECT_NE(s0.next_u64(), s1.next_u64());
  // Forking is const: root unchanged by forking.
  Rng root2(42);
  EXPECT_EQ(root.next_u64(), root2.next_u64());
}

TEST(Rng, UniformInRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.next_double();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    const float v = rng.uniform(-2.0f, 5.0f);
    EXPECT_GE(v, -2.0f);
    EXPECT_LT(v, 5.0f);
  }
}

TEST(Rng, NormalMomentsApproximatelyStandard) {
  Rng rng(11);
  const int n = 20000;
  double sum = 0.0;
  double sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.03);
  EXPECT_NEAR(var, 1.0, 0.05);
}

TEST(Rng, NextBelowBounded) {
  Rng rng(5);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t v = rng.next_below(10);
    EXPECT_LT(v, 10u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u);  // all buckets hit over 1000 draws
}

// ---- thread pool -------------------------------------------------------------------

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(0, 1000, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPool, EmptyAndTinyRanges) {
  std::atomic<int> count{0};
  parallel_for(5, 5, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 0);
  parallel_for(0, 1, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPool, ExceptionPropagates) {
  EXPECT_THROW(
      parallel_for(0, 256,
                   [&](std::size_t i) {
                     if (i == 77) {
                       WEIPIPE_CHECK_MSG(false, "boom at " << i);
                     }
                   }),
      Error);
}

TEST(ThreadPool, NestedCallsRunSerially) {
  // A parallel_for from inside a pool task must not deadlock.
  std::atomic<int> total{0};
  parallel_for(0, 8, [&](std::size_t) {
    parallel_for(0, 8, [&](std::size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 64);
}

TEST(ThreadPool, ConcurrentCallersFromManyThreads) {
  // Simulates the fabric situation: P rank threads all using the global pool.
  std::atomic<int> total{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 6; ++t) {
    threads.emplace_back([&] {
      for (int rep = 0; rep < 5; ++rep) {
        parallel_for(0, 100, [&](std::size_t) { total.fetch_add(1); });
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(total.load(), 6 * 5 * 100);
}

TEST(ThreadPool, ManyTinyConcurrentDispatchesStayOnTheCallersFrame) {
  // Each dispatch's record and body live on the caller's stack and die when
  // the call returns. A worker that joins a dispatch after the caller has
  // stopped waiting for it would run on a dead frame; with thousands of
  // two-index dispatches racing from several threads, that window gets hit
  // (ASan/TSan report it; a plain build sees a miscount or a crash).
  ThreadPool pool(3);
  constexpr int kThreads = 4;
  constexpr int kDispatches = 3000;
  std::atomic<int> bad{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int rep = 0; rep < kDispatches; ++rep) {
        std::atomic<int> covered{0};
        pool.for_range(
            0, 2,
            [&covered](std::size_t lo, std::size_t hi) {
              covered.fetch_add(static_cast<int>(hi - lo));
            },
            /*grain=*/1);
        if (covered.load() != 2) {
          bad.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(bad.load(), 0);
  // Every call went through the arena (4 callers never fill 32 slots).
  EXPECT_EQ(pool.stats().dispatches,
            static_cast<std::uint64_t>(kThreads) * kDispatches);
}

TEST(ThreadPool, DedicatedPoolRunsWork) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
  std::atomic<int> sum{0};
  pool.parallel_for(0, 50, [&](std::size_t i) {
    sum.fetch_add(static_cast<int>(i));
  });
  EXPECT_EQ(sum.load(), 49 * 50 / 2);
}

TEST(ThreadPool, GrainIsAFloorOnChunkSize) {
  // Every claimed block must span at least `grain` indices (except the final
  // remainder) — a matmul_bt with tiny n must not fan out into per-row tasks.
  ThreadPool pool(3);
  std::mutex mu;
  std::vector<std::size_t> block_sizes;
  const std::size_t grain = 17;
  pool.for_range(
      0, 100,
      [&](std::size_t lo, std::size_t hi) {
        std::lock_guard<std::mutex> lk(mu);
        block_sizes.push_back(hi - lo);
      },
      grain);
  std::size_t total = 0;
  std::size_t small_blocks = 0;
  for (std::size_t s : block_sizes) {
    total += s;
    if (s < grain) {
      ++small_blocks;
    }
  }
  EXPECT_EQ(total, 100u);
  EXPECT_LE(small_blocks, 1u);  // only the remainder may be short
}

TEST(ThreadPool, RangeAtOrBelowGrainRunsInOneBlock) {
  ThreadPool pool(3);
  std::atomic<int> blocks{0};
  pool.for_range(
      0, 64, [&](std::size_t, std::size_t) { blocks.fetch_add(1); },
      /*grain=*/64);
  EXPECT_EQ(blocks.load(), 1);
}

TEST(ThreadPool, StatsCountDispatchesAndItems) {
  ThreadPool pool(2);
  const ThreadPoolStats before = pool.stats();
  // Small range with grain >= n runs serially.
  pool.for_range(0, 4, [](std::size_t, std::size_t) {}, /*grain=*/8);
  // Large range with grain 1 dispatches through the arena.
  std::atomic<int> count{0};
  pool.for_range(
      0, 1000, [&](std::size_t lo, std::size_t hi) {
        count.fetch_add(static_cast<int>(hi - lo));
      },
      /*grain=*/1);
  const ThreadPoolStats after = pool.stats();
  EXPECT_EQ(count.load(), 1000);
  EXPECT_EQ(after.serial_runs - before.serial_runs, 1u);
  EXPECT_EQ(after.dispatches - before.dispatches, 1u);
  EXPECT_EQ(after.items - before.items, 1000u);
  EXPECT_GE(after.chunks - before.chunks, 1u);
  EXPECT_LE(after.steals, after.chunks);
}

TEST(ThreadPool, FreeParallelForHonorsGrainSerially) {
  // The free function must run serially (no pool hand-off) when the whole
  // range fits one grain-sized chunk.
  const ThreadPoolStats before = ThreadPool::global().stats();
  int count = 0;  // non-atomic: safe only if truly serial
  parallel_for(0, 32, [&](std::size_t) { ++count; }, /*grain=*/32);
  const ThreadPoolStats after = ThreadPool::global().stats();
  EXPECT_EQ(count, 32);
  EXPECT_EQ(after.dispatches - before.dispatches, 0u);
}

// ---- stopwatch ------------------------------------------------------------------------

TEST(Stopwatch, MeasuresElapsedTime) {
  Stopwatch sw;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_GE(sw.milliseconds(), 15.0);
  EXPECT_LT(sw.seconds(), 5.0);
  sw.reset();
  EXPECT_LT(sw.milliseconds(), 15.0);
}

}  // namespace
}  // namespace weipipe
