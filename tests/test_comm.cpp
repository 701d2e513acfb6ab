// Fabric + wire + collectives: P2P semantics (ordering, tags, async),
// ring collectives vs reference reductions, link-model delays, byte counters.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "comm/collectives.hpp"
#include "comm/fabric.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/stopwatch.hpp"

// Sanitizer instrumentation inflates wall time ~10x, so timing assertions
// need proportionally larger modeled delays to stay margins rather than
// races against scheduler noise.
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#define WEIPIPE_TEST_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define WEIPIPE_TEST_SANITIZED 1
#endif
#endif

namespace weipipe::comm {
namespace {

TEST(Wire, PackUnpackRoundTripFp32) {
  std::vector<float> values = {1.0f, -2.5f, 3.14159f, 0.0f};
  const auto bytes = pack_floats(values, WirePrecision::Fp32);
  EXPECT_EQ(bytes.size(), 16u);
  std::vector<float> out(4);
  unpack_floats(bytes, WirePrecision::Fp32, out);
  EXPECT_EQ(out, values);
}

TEST(Wire, PackFp16QuantizesOnce) {
  std::vector<float> values = {1.0009766f};  // needs rounding in fp16
  const auto bytes = pack_floats(values, WirePrecision::Fp16);
  EXPECT_EQ(bytes.size(), 2u);
  std::vector<float> out(1);
  unpack_floats(bytes, WirePrecision::Fp16, out);
  EXPECT_EQ(out[0], quantize_f16(values[0]));
}

TEST(Wire, SizeMismatchThrows) {
  std::vector<std::uint8_t> bytes(6);
  std::vector<float> out(2);  // needs 8 bytes in fp32
  EXPECT_THROW(unpack_floats(bytes, WirePrecision::Fp32, out), Error);
}

TEST(Fabric, BasicSendRecv) {
  Fabric fabric(2);
  std::thread t([&] {
    fabric.endpoint(1).send(0, 7, {1, 2, 3});
  });
  const auto msg = fabric.endpoint(0).recv(1, 7);
  t.join();
  EXPECT_EQ(msg, (std::vector<std::uint8_t>{1, 2, 3}));
}

TEST(Fabric, FifoOrderPerTag) {
  Fabric fabric(2);
  Endpoint& sender = fabric.endpoint(1);
  for (std::uint8_t i = 0; i < 10; ++i) {
    sender.send(0, 1, {i});
  }
  for (std::uint8_t i = 0; i < 10; ++i) {
    EXPECT_EQ(fabric.endpoint(0).recv(1, 1)[0], i);
  }
}

TEST(Fabric, TagsIsolateStreams) {
  Fabric fabric(2);
  Endpoint& sender = fabric.endpoint(1);
  sender.send(0, 2, {22});
  sender.send(0, 1, {11});
  // Receive in the opposite order of sending: tags keep streams apart.
  EXPECT_EQ(fabric.endpoint(0).recv(1, 1)[0], 11);
  EXPECT_EQ(fabric.endpoint(0).recv(1, 2)[0], 22);
}

TEST(Fabric, SelfSendRejected) {
  Fabric fabric(2);
  EXPECT_THROW(fabric.endpoint(0).send(0, 1, {1}), Error);
  EXPECT_THROW(fabric.endpoint(0).send(5, 1, {1}), Error);
}

TEST(Fabric, RecvTimeoutDetectsDeadlock) {
  Fabric fabric(2);
  fabric.set_recv_timeout(std::chrono::milliseconds(50));
  EXPECT_THROW(fabric.endpoint(0).recv(1, 9), Error);
}

TEST(Fabric, ByteCountersTrackTraffic) {
  Fabric fabric(3);
  fabric.endpoint(0).send(1, 1, std::vector<std::uint8_t>(100));
  fabric.endpoint(0).send(2, 1, std::vector<std::uint8_t>(50));
  fabric.endpoint(2).send(1, 1, std::vector<std::uint8_t>(7));
  EXPECT_EQ(fabric.bytes_sent(0, 1), 100u);
  EXPECT_EQ(fabric.bytes_sent(0, 2), 50u);
  EXPECT_EQ(fabric.bytes_sent(2, 1), 7u);
  EXPECT_EQ(fabric.total_bytes(), 157u);
  EXPECT_EQ(fabric.total_messages(), 3u);
  fabric.reset_stats();
  EXPECT_EQ(fabric.total_bytes(), 0u);
}

TEST(Fabric, LinkModelDelaysDelivery) {
#ifdef WEIPIPE_TEST_SANITIZED
  // 1 MB at 2 MB/s => ~500 ms in flight: same invariant, wider margins.
  const double bandwidth = 2e6;
  const double eager_bound = 0.25, delivery_floor = 0.4;
#else
  // 1 MB at 10 MB/s => ~100 ms in flight; sender must not block.
  const double bandwidth = 10e6;
  const double eager_bound = 0.05, delivery_floor = 0.08;
#endif
  Fabric fabric(2, uniform_link(bandwidth, 0.0));
  Stopwatch sw;
  fabric.endpoint(0).send(1, 1, std::vector<std::uint8_t>(1 << 20));
  EXPECT_LT(sw.seconds(), eager_bound);  // eager send returns immediately
  (void)fabric.endpoint(1).recv(0, 1);
  EXPECT_GE(sw.seconds(), delivery_floor);  // delivery honors the bandwidth
}

TEST(Fabric, SendFloatsQuantizesOnWire) {
  Fabric fabric(2);
  std::vector<float> values = {1.0009766f, -3.3333f};
  fabric.endpoint(0).send_floats(1, 1, values, WirePrecision::Fp16);
  std::vector<float> out(2);
  fabric.endpoint(1).recv_floats(0, 1, out, WirePrecision::Fp16);
  EXPECT_EQ(out[0], quantize_f16(values[0]));
  EXPECT_EQ(out[1], quantize_f16(values[1]));
  EXPECT_EQ(fabric.bytes_sent(0, 1), 4u);  // 2 elements x 2 bytes
}

TEST(RunWorkers, PropagatesFirstException) {
  Fabric fabric(3);
  fabric.set_recv_timeout(std::chrono::milliseconds(100));
  EXPECT_THROW(run_workers(fabric,
                           [](int rank, Endpoint&) {
                             if (rank == 1) {
                               WEIPIPE_CHECK_MSG(false, "rank 1 fails");
                             }
                           }),
               Error);
}

TEST(Collectives, ScalarAllReduceSumsDeterministically) {
  for (int p : {1, 2, 3, 5, 8}) {
    Fabric fabric(p);
    std::vector<double> results(static_cast<std::size_t>(p), 0.0);
    run_workers(fabric, [&](int rank, Endpoint& ep) {
      results[static_cast<std::size_t>(rank)] =
          ring_all_reduce_scalar(ep, static_cast<double>(rank) + 0.5);
    });
    const double expected = p * (p - 1) / 2.0 + 0.5 * p;
    for (double r : results) {
      EXPECT_DOUBLE_EQ(r, expected) << "p=" << p;
    }
  }
}

// ---- Collectives -----------------------------------------------------------------

class CollectiveWorlds : public ::testing::TestWithParam<int> {};

TEST_P(CollectiveWorlds, AllGatherCollectsEveryShard) {
  const int p = GetParam();
  Fabric fabric(p);
  const std::size_t n = 5;
  std::vector<std::vector<float>> results(static_cast<std::size_t>(p));
  run_workers(fabric, [&](int rank, Endpoint& ep) {
    std::vector<float> shard(n, static_cast<float>(rank + 1));
    std::vector<float> full(n * static_cast<std::size_t>(p), -1.0f);
    ring_all_gather(ep, shard, full, WirePrecision::Fp32);
    results[static_cast<std::size_t>(rank)] = full;
  });
  for (int r = 0; r < p; ++r) {
    for (int owner = 0; owner < p; ++owner) {
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(results[static_cast<std::size_t>(r)]
                         [static_cast<std::size_t>(owner) * n + i],
                  static_cast<float>(owner + 1))
            << "rank " << r << " owner " << owner;
      }
    }
  }
}

TEST_P(CollectiveWorlds, ReduceScatterSumsShards) {
  const int p = GetParam();
  Fabric fabric(p);
  const std::size_t n = 4;
  // full[owner*n + i] contributed by rank r = r*100 + owner*10 + i.
  std::vector<std::vector<float>> results(static_cast<std::size_t>(p));
  run_workers(fabric, [&](int rank, Endpoint& ep) {
    std::vector<float> full(n * static_cast<std::size_t>(p));
    for (int owner = 0; owner < p; ++owner) {
      for (std::size_t i = 0; i < n; ++i) {
        full[static_cast<std::size_t>(owner) * n + i] =
            static_cast<float>(rank * 100 + owner * 10 + static_cast<int>(i));
      }
    }
    std::vector<float> shard(n);
    ring_reduce_scatter(ep, full, shard, WirePrecision::Fp32);
    results[static_cast<std::size_t>(rank)] = shard;
  });
  const int rank_sum = p * (p - 1) / 2;
  for (int r = 0; r < p; ++r) {
    for (std::size_t i = 0; i < n; ++i) {
      const float expected =
          static_cast<float>(100 * rank_sum + p * (r * 10 + static_cast<int>(i)));
      EXPECT_EQ(results[static_cast<std::size_t>(r)][i], expected)
          << "rank " << r << " i " << i;
    }
  }
}

TEST_P(CollectiveWorlds, AllReduceSumsEverywhere) {
  const int p = GetParam();
  Fabric fabric(p);
  const std::size_t n = static_cast<std::size_t>(4 * p);
  std::vector<std::vector<float>> results(static_cast<std::size_t>(p));
  run_workers(fabric, [&](int rank, Endpoint& ep) {
    std::vector<float> buf(n);
    for (std::size_t i = 0; i < n; ++i) {
      buf[i] = static_cast<float>(rank) + static_cast<float>(i) * 0.5f;
    }
    ring_all_reduce(ep, std::span<float>(buf.data(), buf.size()),
                    WirePrecision::Fp32);
    results[static_cast<std::size_t>(rank)] = buf;
  });
  const float rank_sum = static_cast<float>(p * (p - 1) / 2);
  for (int r = 0; r < p; ++r) {
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(results[static_cast<std::size_t>(r)][i],
                  rank_sum + static_cast<float>(p) * static_cast<float>(i) *
                                 0.5f,
                  1e-4f);
    }
  }
}

TEST_P(CollectiveWorlds, BroadcastFromEveryRoot) {
  const int p = GetParam();
  for (int root = 0; root < p; ++root) {
    Fabric fabric(p);
    std::vector<std::vector<float>> results(static_cast<std::size_t>(p));
    run_workers(fabric, [&](int rank, Endpoint& ep) {
      std::vector<float> buf(3, rank == root ? 99.0f : 0.0f);
      ring_broadcast(ep, root, std::span<float>(buf.data(), buf.size()),
                     WirePrecision::Fp32);
      results[static_cast<std::size_t>(rank)] = buf;
    });
    for (int r = 0; r < p; ++r) {
      EXPECT_EQ(results[static_cast<std::size_t>(r)][0], 99.0f)
          << "root " << root << " rank " << r;
    }
  }
}

TEST_P(CollectiveWorlds, ReduceToRootSumsAtRootOnly) {
  const int p = GetParam();
  for (int root = 0; root < p; ++root) {
    Fabric fabric(p);
    std::vector<float> result(2, -1.0f);
    run_workers(fabric, [&](int rank, Endpoint& ep) {
      std::vector<float> contribution = {static_cast<float>(rank),
                                         static_cast<float>(2 * rank)};
      std::vector<float> out(2, -1.0f);
      ring_reduce_to_root(ep, root, contribution,
                          std::span<float>(out.data(), out.size()),
                          WirePrecision::Fp32);
      if (rank == root) {
        result = out;
      }
    });
    EXPECT_EQ(result[0], static_cast<float>(p * (p - 1) / 2)) << root;
    EXPECT_EQ(result[1], static_cast<float>(p * (p - 1))) << root;
  }
}

TEST_P(CollectiveWorlds, BarrierCompletes) {
  const int p = GetParam();
  Fabric fabric(p);
  std::atomic<int> after{0};
  run_workers(fabric, [&](int, Endpoint& ep) {
    barrier(ep);
    after.fetch_add(1);
  });
  EXPECT_EQ(after.load(), p);
}

INSTANTIATE_TEST_SUITE_P(Worlds, CollectiveWorlds,
                         ::testing::Values(1, 2, 3, 4, 7, 8));

TEST(FabricStats, PairCountsAndMaxInFlight) {
  Fabric fabric(3);
  run_workers(fabric, [](int rank, Endpoint& ep) {
    if (rank == 0) {
      // Three eager sends queue up before rank 1 receives any of them.
      for (std::int64_t t = 0; t < 3; ++t) {
        ep.send(1, /*tag=*/t, std::vector<std::uint8_t>(16, 0xAB));
      }
      ep.send(2, /*tag=*/9, std::vector<std::uint8_t>(8, 0xCD));
    } else if (rank == 1) {
      // Receive in reverse tag order so all three are in flight first.
      (void)ep.recv(0, 2);
      (void)ep.recv(0, 1);
      (void)ep.recv(0, 0);
    } else {
      (void)ep.recv(0, 9);
    }
  });

  const FabricStats pair01 = fabric.pair_stats(0, 1);
  EXPECT_EQ(pair01.messages, 3u);
  EXPECT_EQ(pair01.bytes, 48u);
  EXPECT_EQ(pair01.in_flight, 0u);  // everything was consumed
  // The tag-2 recv can only match after all three sends are queued.
  EXPECT_EQ(pair01.max_in_flight, 3u);

  const FabricStats pair02 = fabric.pair_stats(0, 2);
  EXPECT_EQ(pair02.messages, 1u);
  EXPECT_EQ(pair02.bytes, 8u);
  EXPECT_EQ(pair02.max_in_flight, 1u);

  // Untouched pairs stay zero; the matrix covers all src x dst.
  const std::vector<FabricStats> matrix = fabric.stats_matrix();
  ASSERT_EQ(matrix.size(), 9u);
  EXPECT_EQ(matrix[1 * 3 + 0].messages, 0u);
  EXPECT_EQ(fabric.max_in_flight(), 3u);
  EXPECT_EQ(fabric.total_messages(), 4u);
  EXPECT_EQ(fabric.total_bytes(), 56u);

  fabric.reset_stats();
  EXPECT_EQ(fabric.total_messages(), 0u);
  EXPECT_EQ(fabric.max_in_flight(), 0u);
  EXPECT_EQ(fabric.pair_stats(0, 1).max_in_flight, 0u);
  EXPECT_EQ(fabric.pair_stats(0, 1).bytes, 0u);
}

TEST(Collectives, AllReduceRequiresDivisibleBuffer) {
  Fabric fabric(3);
  fabric.set_recv_timeout(std::chrono::milliseconds(200));
  EXPECT_THROW(run_workers(fabric,
                           [](int, Endpoint& ep) {
                             std::vector<float> buf(4);  // not divisible by 3
                             ring_all_reduce(
                                 ep, std::span<float>(buf.data(), buf.size()),
                                 WirePrecision::Fp32);
                           }),
               Error);
}

// ---- fault injection (comm/fault.hpp) ---------------------------------------

TEST(FaultPlan, SpecRoundTrips) {
  const std::string spec =
      "nodedup,retries:4,delay:p=0.1:src=1:dst=2:tag=3:ns=500,"
      "drop:p=0.02:ns=1000000,dup:p=0.5:tag=3:ns=2000000,"
      "reorder:p=0.25:ns=2000000,stall:rank=2:op=40";
  const FaultPlan plan = parse_fault_plan(spec, 77);
  EXPECT_FALSE(plan.dedup);
  EXPECT_EQ(plan.max_retries, 4);
  ASSERT_EQ(plan.rules.size(), 5u);
  EXPECT_EQ(plan.rules[0].kind, FaultKind::kDelay);
  EXPECT_EQ(plan.rules[0].src, 1);
  EXPECT_EQ(plan.rules[0].dst, 2);
  EXPECT_EQ(plan.rules[0].tag, 3);
  EXPECT_EQ(plan.rules[4].kind, FaultKind::kStall);
  EXPECT_EQ(plan.rules[4].stall_rank, 2);
  EXPECT_EQ(plan.rules[4].stall_op, 40);
  EXPECT_TRUE(plan.has_stalls());
  // Canonical form re-parses to the same canonical form.
  const std::string canon = to_spec(plan);
  EXPECT_EQ(to_spec(parse_fault_plan(canon, 77)), canon);
}

TEST(FaultPlan, MalformedSpecsThrow) {
  EXPECT_THROW(parse_fault_plan("explode:p=1", 0), Error);
  EXPECT_THROW(parse_fault_plan("delay:p=1.5", 0), Error);
  EXPECT_THROW(parse_fault_plan("delay:p", 0), Error);
  EXPECT_THROW(parse_fault_plan("drop:p=abc", 0), Error);
  EXPECT_THROW(parse_fault_plan("delay:frequency=2", 0), Error);
  EXPECT_THROW(parse_fault_plan("retries", 0), Error);
  EXPECT_TRUE(parse_fault_plan("", 0).empty());
}

TEST(FaultPlan, HitIsDeterministicAndSeedSensitive) {
  FaultPlan a = parse_fault_plan("drop:p=0.3", 1);
  FaultPlan b = parse_fault_plan("drop:p=0.3", 1);
  FaultPlan c = parse_fault_plan("drop:p=0.3", 2);
  int diffs = 0;
  int hits = 0;
  for (std::uint64_t seq = 0; seq < 2000; ++seq) {
    const bool ha = a.hit(0, 0, 1, 3, seq, 0);
    EXPECT_EQ(ha, b.hit(0, 0, 1, 3, seq, 0)) << seq;
    hits += ha ? 1 : 0;
    diffs += ha != c.hit(0, 0, 1, 3, seq, 0) ? 1 : 0;
  }
  // p=0.3 over 2000 trials: comfortably inside [400, 800].
  EXPECT_GT(hits, 400);
  EXPECT_LT(hits, 800);
  // A different seed gives a genuinely different schedule.
  EXPECT_GT(diffs, 100);
}

TEST(FaultPlan, EdgeAndTagFiltersApply) {
  const FaultPlan plan = parse_fault_plan("drop:p=1:src=0:dst=1:tag=7", 0);
  EXPECT_TRUE(plan.hit(0, 0, 1, 7, 0, 0));
  EXPECT_FALSE(plan.hit(0, 1, 0, 7, 0, 0));
  EXPECT_FALSE(plan.hit(0, 0, 2, 7, 0, 0));
  EXPECT_FALSE(plan.hit(0, 0, 1, 8, 0, 0));
}

TEST(Fault, DuplicatesAreDiscardedByTheReceiver) {
  Fabric fabric(2);
  fabric.install_fault_plan(parse_fault_plan("dup:p=1:ns=0", 9));
  std::thread t([&] {
    for (std::uint8_t i = 0; i < 3; ++i) {
      fabric.endpoint(1).send(0, 5, {i});
    }
  });
  for (std::uint8_t i = 0; i < 3; ++i) {
    EXPECT_EQ(fabric.endpoint(0).recv(1, 5), std::vector<std::uint8_t>{i});
  }
  t.join();
  const FaultStats stats = fabric.fault_stats();
  EXPECT_EQ(stats.duplicates, 3u);
  // The copy of the last message is still queued (nothing consumed after
  // it); the first two copies were skipped by the reassembly cursor.
  EXPECT_EQ(stats.duplicates_discarded, 2u);
  // Logical (deduplicated) message count only.
  EXPECT_EQ(fabric.pair_stats(1, 0).messages, 3u);
}

TEST(Fault, DroppedMessagesAreRetransmittedNotLost) {
  Fabric fabric(2);
  // p=1 drops every attempt up to retries, then force-delivers: the recv
  // below must succeed after ~retries backoffs rather than deadlock.
  fabric.install_fault_plan(parse_fault_plan("retries:3,drop:p=1:us=200", 9));
  std::thread t([&] { fabric.endpoint(1).send(0, 5, {42}); });
  EXPECT_EQ(fabric.endpoint(0).recv(1, 5), std::vector<std::uint8_t>{42});
  t.join();
  const FaultStats stats = fabric.fault_stats();
  EXPECT_EQ(stats.drops, 3u);
  EXPECT_EQ(stats.retries, 3u);
}

TEST(Fault, ReorderedStreamIsReassembledInOrder) {
  Fabric fabric(2);
  fabric.install_fault_plan(parse_fault_plan("reorder:p=0.5:us=300", 9));
  constexpr std::uint8_t kN = 16;
  std::thread t([&] {
    for (std::uint8_t i = 0; i < kN; ++i) {
      fabric.endpoint(1).send(0, 5, {i});
    }
  });
  for (std::uint8_t i = 0; i < kN; ++i) {
    EXPECT_EQ(fabric.endpoint(0).recv(1, 5), std::vector<std::uint8_t>{i});
  }
  t.join();
  EXPECT_GT(fabric.fault_stats().reorders, 0u);
}

TEST(Fault, EventLogIsDeterministicAcrossRuns) {
  const auto run = [] {
    Fabric fabric(2);
    fabric.install_fault_plan(
        parse_fault_plan("drop:p=0.4:us=100,dup:p=0.4:ns=0", 123));
    std::thread t([&] {
      for (std::uint8_t i = 0; i < 32; ++i) {
        fabric.endpoint(1).send(0, 5, {i});
      }
    });
    for (std::uint8_t i = 0; i < 32; ++i) {
      (void)fabric.endpoint(0).recv(1, 5);
    }
    t.join();
    return fabric.fault_events();
  };
  const std::vector<FaultEvent> first = run();
  const std::vector<FaultEvent> second = run();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

TEST(Fault, RecvTimeoutThrowsStructuredCommError) {
  Fabric fabric(2);
  fabric.set_recv_timeout(std::chrono::milliseconds(50));
  // An unrelated pending message shows up in the in-flight count.
  fabric.endpoint(1).send(0, /*tag=*/9, {1, 2, 3});
  try {
    (void)fabric.endpoint(0).recv(1, /*tag=*/7);
    FAIL() << "recv should have timed out";
  } catch (const CommError& e) {
    EXPECT_EQ(e.info().kind, CommErrorKind::kRecvTimeout);
    EXPECT_EQ(e.info().rank, 0);
    EXPECT_EQ(e.info().peer, 1);
    EXPECT_EQ(e.info().tag, 7);
    EXPECT_EQ(e.info().expected_seq, 0u);
    EXPECT_EQ(e.info().pending_messages, 1u);
    EXPECT_NE(std::string(e.what()).find("rank 0"), std::string::npos);
    EXPECT_TRUE(e.recoverable());
  }
}

TEST(Fault, StallAbortsEveryRankAndRecovers) {
  Fabric fabric(2);
  fabric.set_recv_timeout(std::chrono::milliseconds(5000));
  fabric.install_fault_plan(parse_fault_plan("stall:rank=0:op=2", 0));
  try {
    run_workers(fabric, [](int rank, Endpoint& ep) {
      if (rank == 0) {
        for (std::int64_t i = 0; i < 4; ++i) {
          ep.send(1, i, {7});  // third fabric op trips the stall
        }
      } else {
        for (std::int64_t i = 0; i < 4; ++i) {
          (void)ep.recv(0, i);
        }
      }
    });
    FAIL() << "stall should have aborted the step";
  } catch (const CommError& e) {
    EXPECT_TRUE(e.info().kind == CommErrorKind::kStall ||
                e.info().kind == CommErrorKind::kAborted);
  }
  EXPECT_TRUE(fabric.aborted());
  EXPECT_EQ(fabric.fault_stats().stalls, 1u);

  fabric.recover();
  EXPECT_FALSE(fabric.aborted());
  EXPECT_EQ(fabric.fault_stats().recoveries, 1u);

  // The stall is transient (one-shot): the re-run completes.
  std::vector<std::uint8_t> got;
  run_workers(fabric, [&](int rank, Endpoint& ep) {
    if (rank == 0) {
      for (std::int64_t i = 0; i < 4; ++i) {
        ep.send(1, i, {static_cast<std::uint8_t>(i)});
      }
    } else {
      for (std::int64_t i = 0; i < 4; ++i) {
        got.push_back(ep.recv(0, i)[0]);
      }
    }
  });
  EXPECT_EQ(got, (std::vector<std::uint8_t>{0, 1, 2, 3}));
  EXPECT_EQ(fabric.fault_stats().stalls, 1u);  // did not re-fire
}

TEST(Fault, AbortWakesBlockedReceivers) {
  Fabric fabric(2);
  std::exception_ptr thrown;
  std::thread t([&] {
    try {
      (void)fabric.endpoint(0).recv(1, 3);
    } catch (...) {
      thrown = std::current_exception();
    }
  });
  // Give the receiver a moment to block, then fail the fabric.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  fabric.abort_all();
  t.join();
  ASSERT_TRUE(thrown != nullptr);
  try {
    std::rethrow_exception(thrown);
  } catch (const CommError& e) {
    EXPECT_EQ(e.info().kind, CommErrorKind::kAborted);
    EXPECT_EQ(e.info().rank, 0);
  }
}

// Collectives at degenerate world sizes must produce bit-identical results
// under message-level fault injection: the reliability layer may only cost
// latency, never numerics.
TEST_P(CollectiveWorlds, AllReduceBitwiseEqualUnderFaults) {
  const int p = GetParam();
  const std::size_t n = static_cast<std::size_t>(4 * std::max(p, 1));
  const auto run = [&](const char* spec) {
    Fabric fabric(p);
    if (spec != nullptr) {
      fabric.install_fault_plan(parse_fault_plan(spec, 42));
    }
    std::vector<std::vector<float>> results(static_cast<std::size_t>(p));
    run_workers(fabric, [&](int rank, Endpoint& ep) {
      std::vector<float> buf(n);
      for (std::size_t i = 0; i < n; ++i) {
        buf[i] = static_cast<float>(rank + 1) * 0.25f +
                 static_cast<float>(i) * 0.5f;
      }
      ring_all_reduce(ep, std::span<float>(buf.data(), buf.size()),
                      WirePrecision::Fp32);
      results[static_cast<std::size_t>(rank)] = buf;
    });
    return results;
  };
  const auto clean = run(nullptr);
  const auto faulty =
      run("delay:p=0.3:us=50,drop:p=0.2:us=100,dup:p=0.2:ns=0,"
          "reorder:p=0.2:us=100");
  EXPECT_EQ(clean, faulty);
}

TEST_P(CollectiveWorlds, GatherAndReduceScatterBitwiseEqualUnderFaults) {
  const int p = GetParam();
  const std::size_t n = 6;
  const auto run = [&](const char* spec) {
    Fabric fabric(p);
    if (spec != nullptr) {
      fabric.install_fault_plan(parse_fault_plan(spec, 7));
    }
    std::vector<std::vector<float>> gathered(static_cast<std::size_t>(p));
    std::vector<std::vector<float>> scattered(static_cast<std::size_t>(p));
    run_workers(fabric, [&](int rank, Endpoint& ep) {
      std::vector<float> shard(n, static_cast<float>(rank) * 1.5f + 0.125f);
      std::vector<float> full(n * static_cast<std::size_t>(p), -1.0f);
      ring_all_gather(ep, shard, full, WirePrecision::Fp32);
      gathered[static_cast<std::size_t>(rank)] = full;
      std::vector<float> out(n);
      ring_reduce_scatter(ep, full, out, WirePrecision::Fp32);
      scattered[static_cast<std::size_t>(rank)] = out;
    });
    return std::pair(gathered, scattered);
  };
  const auto clean = run(nullptr);
  const auto faulty = run("drop:p=0.25:us=100,dup:p=0.25:ns=0");
  EXPECT_EQ(clean.first, faulty.first);
  EXPECT_EQ(clean.second, faulty.second);
}

TEST(ZeroCopy, BufferSendDeliversTheSameBytesWithoutCopying) {
  // The tentpole property: an in-process send of a tracked Buffer moves the
  // handle, never the payload. The receiver observes the sender's storage
  // pointer — zero payload copies end to end.
  Fabric fabric(2);
  Buffer payload = Buffer::allocate(1 << 20);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload.mutable_data()[i] = static_cast<std::uint8_t>(i * 131u);
  }
  const std::uint8_t* sent_storage = payload.data();

  fabric.endpoint(0).send(1, 7, std::move(payload));
  Buffer got = fabric.endpoint(1).recv_buffer(0, 7);
  ASSERT_EQ(got.size(), std::size_t{1} << 20);
  EXPECT_EQ(got.data(), sent_storage);  // same storage, not a copy
  EXPECT_TRUE(got.unique());            // and the fabric dropped its ref
  for (std::size_t i = 0; i < got.size(); i += 4097) {
    ASSERT_EQ(got.data()[i], static_cast<std::uint8_t>(i * 131u));
  }
}

TEST(ZeroCopy, DuplicateFaultSharesThePayloadStorage) {
  // A dup fault enqueues a second *handle*, not a second payload: both
  // copies alias the same bytes, and the dedup layer discards one.
  Fabric fabric(2);
  fabric.install_fault_plan(parse_fault_plan("dup:p=1:ns=0", 42));
  Buffer payload = Buffer::allocate(1024);
  const std::uint8_t* sent_storage = payload.data();
  fabric.endpoint(0).send(1, 5, std::move(payload));
  Buffer got = fabric.endpoint(1).recv_buffer(0, 5);
  EXPECT_EQ(got.data(), sent_storage);
}

TEST(ZeroCopy, RingStatsSeeTrafficAndOverflowSpill) {
  // kRingCapacity is 256 per edge: a 300-message eager burst overflows into
  // the spillover deque but arrives complete and in order.
  Fabric fabric(2);
  for (int i = 0; i < 300; ++i) {
    fabric.endpoint(0).send(1, 7, std::vector<std::uint8_t>{
                                      static_cast<std::uint8_t>(i),
                                      static_cast<std::uint8_t>(i >> 8)});
  }
  for (int i = 0; i < 300; ++i) {
    const std::vector<std::uint8_t> got = fabric.endpoint(1).recv(0, 7);
    ASSERT_EQ(got[0], static_cast<std::uint8_t>(i));
    ASSERT_EQ(got[1], static_cast<std::uint8_t>(i >> 8));
  }
  const RingStats rs = fabric.ring_stats();
  EXPECT_GE(rs.overflow, 300u - 256u);  // at least the burst's excess spilled
}

TEST(ZeroCopy, ParkAndNotifyWhenReceiverOutpacesSender) {
  // A receiver that blocks before the send must park (spin budget exhausted)
  // and be woken by the producer-side notify.
  Fabric fabric(2);
  std::vector<std::uint8_t> got;
  std::thread receiver(
      [&] { got = fabric.endpoint(1).recv(0, 9); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  fabric.endpoint(0).send(1, 9, std::vector<std::uint8_t>{42});
  receiver.join();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], 42);
  const RingStats rs = fabric.ring_stats();
  EXPECT_GE(rs.parks, 1u);
  EXPECT_GE(rs.notifies, 1u);
  // The spin budget is bypassed on single-CPU hosts (spinning would only
  // starve the producer), so spins are expected only with real concurrency.
  if (std::thread::hardware_concurrency() > 1) {
    EXPECT_GT(rs.spins, 0u);
  } else {
    EXPECT_EQ(rs.spins, 0u);
  }
}

}  // namespace
}  // namespace weipipe::comm
