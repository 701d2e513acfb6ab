// Transport conformance battery: every wire backend (inproc mailbox, POSIX
// shared memory, TCP sockets) must present identical message semantics to
// the fabric — FIFO per (src,tag) stream, collectives at every world size,
// timeout/abort behavior, and reliability under injected faults. The final
// cross-backend test is the PR's core claim: a weipipe training run is
// bitwise identical on all three backends, with per-kind wire volumes that
// agree exactly with each other and with the paper-style closed forms.
//
// All-local mode (every rank a thread of this process) exercises the same
// backend code paths the forked rank processes use — the shm segment and the
// TCP sockets are real; only the process boundary is absent. The forked
// multi-process paths are exercised end-to-end by the weipipe_cli chaos
// launcher (tests registered in tests/CMakeLists.txt).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "baselines/factory.hpp"
#include "comm/collectives.hpp"
#include "comm/fabric.hpp"
#include "comm/transport.hpp"
#include "core/accounting.hpp"
#include "core/shard_store.hpp"

namespace weipipe {
namespace {

using comm::Endpoint;
using comm::Fabric;
using comm::TransportSpec;

// Restores the process-default transport spec on scope exit (the trainers
// construct their fabrics through it).
class SpecGuard {
 public:
  explicit SpecGuard(const TransportSpec& s)
      : saved_(comm::default_transport_spec()) {
    comm::set_default_transport_spec(s);
  }
  ~SpecGuard() { comm::set_default_transport_spec(saved_); }
  SpecGuard(const SpecGuard&) = delete;
  SpecGuard& operator=(const SpecGuard&) = delete;

 private:
  TransportSpec saved_;
};

std::vector<std::uint8_t> pattern_payload(std::size_t size,
                                          std::uint32_t seed) {
  std::vector<std::uint8_t> p(size);
  std::uint32_t x = seed * 2654435761u + 12345u;
  for (std::size_t i = 0; i < size; ++i) {
    x = x * 1664525u + 1013904223u;
    p[i] = static_cast<std::uint8_t>(x >> 24);
  }
  return p;
}

// ---- spec parsing ------------------------------------------------------------

TEST(TransportSpec, ParseAndRoundTrip) {
  TransportSpec s = comm::parse_transport_spec("inproc");
  EXPECT_EQ(s.kind, comm::TransportKind::kInproc);
  EXPECT_TRUE(s.all_local());
  EXPECT_EQ(to_string(s), "inproc");

  s = comm::parse_transport_spec("shm:name=conf:rank=2");
  EXPECT_EQ(s.kind, comm::TransportKind::kShm);
  EXPECT_EQ(s.shm_name, "conf");
  EXPECT_EQ(s.local_rank, 2);
  EXPECT_EQ(comm::parse_transport_spec(to_string(s)).shm_name, "conf");

  s = comm::parse_transport_spec("tcp:host=10.0.0.7:port=9100:rank=1");
  EXPECT_EQ(s.kind, comm::TransportKind::kTcp);
  EXPECT_EQ(s.host, "10.0.0.7");
  EXPECT_EQ(s.base_port, 9100);
  EXPECT_EQ(s.local_rank, 1);
  const TransportSpec r = comm::parse_transport_spec(to_string(s));
  EXPECT_EQ(r.host, s.host);
  EXPECT_EQ(r.base_port, s.base_port);
  EXPECT_EQ(r.local_rank, s.local_rank);

  EXPECT_THROW(comm::parse_transport_spec("carrier-pigeon"), Error);
  EXPECT_THROW(comm::parse_transport_spec("tcp:port=notanumber"), Error);
  EXPECT_THROW(comm::parse_transport_spec("shm:rank="), Error);
}

// ---- the parameterized battery -----------------------------------------------

class TransportSuite : public ::testing::TestWithParam<const char*> {
 protected:
  TransportSpec spec() const { return comm::parse_transport_spec(GetParam()); }
};

INSTANTIATE_TEST_SUITE_P(Backends, TransportSuite,
                         ::testing::Values("inproc", "shm", "tcp"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

TEST_P(TransportSuite, P2pFifoOrderingPerTagStream) {
  Fabric fabric(2, nullptr, spec());
  EXPECT_STREQ(fabric.transport_name(), GetParam());
  constexpr int kMessages = 200;
  run_workers(fabric, [&](int rank, Endpoint& ep) {
    if (rank == 0) {
      for (int i = 0; i < kMessages; ++i) {
        // Two interleaved tag streams; FIFO must hold within each.
        const std::int64_t tag = 7 + (i % 2);
        std::vector<std::uint8_t> payload(sizeof(int));
        std::memcpy(payload.data(), &i, sizeof(int));
        ep.send(1, tag, std::move(payload));
      }
    } else {
      int expect_even = 0;
      int expect_odd = 1;
      for (int i = 0; i < kMessages; ++i) {
        const std::int64_t tag = 7 + (i % 2);
        const std::vector<std::uint8_t> got = ep.recv(0, tag);
        ASSERT_EQ(got.size(), sizeof(int));
        int value = -1;
        std::memcpy(&value, got.data(), sizeof(int));
        int& expect = (i % 2 == 0) ? expect_even : expect_odd;
        EXPECT_EQ(value, expect);
        expect += 2;
      }
    }
  });
  // Sender-side accounting is transport-independent.
  EXPECT_EQ(fabric.pair_stats(0, 1).messages,
            static_cast<std::uint64_t>(kMessages));
}

TEST_P(TransportSuite, LargePayloadsStreamThroughBoundedWires) {
  // 1 MiB frames exceed the shm edge ring (256 KiB) and any default socket
  // buffer: they must stream across in multiple pumps, bit-exact.
  Fabric fabric(2, nullptr, spec());
  constexpr std::size_t kBytes = 1 << 20;
  constexpr int kFrames = 3;
  run_workers(fabric, [&](int rank, Endpoint& ep) {
    if (rank == 0) {
      for (int i = 0; i < kFrames; ++i) {
        ep.send(1, 42, pattern_payload(kBytes, static_cast<std::uint32_t>(i)));
      }
    } else {
      for (int i = 0; i < kFrames; ++i) {
        const std::vector<std::uint8_t> got = ep.recv(0, 42);
        ASSERT_EQ(got.size(), kBytes);
        EXPECT_EQ(got, pattern_payload(kBytes, static_cast<std::uint32_t>(i)));
      }
    }
  });
  EXPECT_EQ(fabric.bytes_sent(0, 1),
            static_cast<std::uint64_t>(kFrames) * kBytes);
}

TEST_P(TransportSuite, CollectivesAgreeAtEveryWorldSize) {
  for (const int world : {1, 2, 3, 4, 7, 8}) {
    SCOPED_TRACE("world=" + std::to_string(world));
    Fabric fabric(world, nullptr, spec());
    const std::size_t n = 3;  // shard size
    run_workers(fabric, [&](int rank, Endpoint& ep) {
      const int p = world;
      const float rank_sum = static_cast<float>(p * (p + 1) / 2);
      // scalar all-reduce, deterministic association.
      const double total = ring_all_reduce_scalar(ep, rank + 1.0);
      ASSERT_EQ(total, static_cast<double>(p * (p + 1) / 2));
      // broadcast from the highest rank.
      std::vector<float> bc(n);
      const int root = p - 1;
      if (rank == root) {
        for (std::size_t k = 0; k < n; ++k) {
          bc[k] = static_cast<float>(2 * k + 1);
        }
      }
      ring_broadcast(ep, root, bc, WirePrecision::Fp32);
      for (std::size_t k = 0; k < n; ++k) {
        ASSERT_EQ(bc[k], static_cast<float>(2 * k + 1));
      }
      // reduce_to_root onto rank 0.
      std::vector<float> one(n, static_cast<float>(rank + 1));
      std::vector<float> root_out(n);
      ring_reduce_to_root(ep, 0, one, root_out, WirePrecision::Fp32);
      if (rank == 0) {
        for (std::size_t k = 0; k < n; ++k) {
          ASSERT_EQ(root_out[k], rank_sum);
        }
      }
    });
  }
}

TEST_P(TransportSuite, ZeroCopyPointerIdentityWhereSupported) {
  Fabric fabric(2, nullptr, spec());
  std::atomic<const std::uint8_t*> sent_ptr{nullptr};
  // Rank 0 holds the sent storage until the test ends, so the receiver's
  // own allocation can never land on its (otherwise freed) address.
  comm::Buffer sent_keepalive;
  const std::vector<std::uint8_t> expect = pattern_payload(64, 9);
  run_workers(fabric, [&](int rank, Endpoint& ep) {
    if (rank == 0) {
      comm::Buffer buf = comm::Buffer::allocate(expect.size());
      std::memcpy(buf.mutable_data(), expect.data(), expect.size());
      sent_ptr.store(buf.data(), std::memory_order_release);
      sent_keepalive = buf;
      ep.send(1, 3, std::move(buf));
    } else {
      const comm::Buffer got = ep.recv_buffer(0, 3);
      ASSERT_EQ(got.size(), expect.size());
      EXPECT_EQ(0, std::memcmp(got.data(), expect.data(), expect.size()));
      if (fabric.transport_zero_copy()) {
        // Inproc: the receiver holds the sender's storage — same bytes, no
        // copy ever happened.
        EXPECT_EQ(got.data(), sent_ptr.load(std::memory_order_acquire));
      } else {
        // Multi-process wires rematerialize into receiver-owned storage.
        EXPECT_NE(got.data(), sent_ptr.load(std::memory_order_acquire));
        EXPECT_TRUE(got.tracked());
      }
    }
  });
}

TEST_P(TransportSuite, RecvTimeoutSurfacesStructuredError) {
  Fabric fabric(2, nullptr, spec());
  fabric.set_recv_timeout(std::chrono::milliseconds(250));
  bool threw = false;
  try {
    run_workers(fabric, [&](int rank, Endpoint& ep) {
      if (rank == 1) {
        ep.recv(0, 11);  // rank 0 never sends
      }
    });
  } catch (const comm::CommError& e) {
    threw = true;
    EXPECT_EQ(e.info().kind, comm::CommErrorKind::kRecvTimeout);
    EXPECT_EQ(e.info().rank, 1);
    EXPECT_EQ(e.info().peer, 0);
    EXPECT_EQ(e.info().tag, 11);
  }
  EXPECT_TRUE(threw);
}

TEST_P(TransportSuite, AbortWakesParkedReceiver) {
  Fabric fabric(2, nullptr, spec());
  fabric.set_recv_timeout(std::chrono::milliseconds(30000));
  bool aborted = false;
  try {
    run_workers(fabric, [&](int rank, Endpoint& ep) {
      if (rank == 1) {
        ep.recv(0, 5);  // parks; only the abort can release it promptly
      } else {
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        fabric.abort_all();
      }
    });
  } catch (const comm::CommError& e) {
    aborted = true;
    EXPECT_EQ(e.info().kind, comm::CommErrorKind::kAborted);
  }
  EXPECT_TRUE(aborted);
  EXPECT_TRUE(fabric.aborted());
}

TEST_P(TransportSuite, ReliabilityHoldsUnderDupDropReorder) {
  Fabric fabric(2, nullptr, spec());
  fabric.install_fault_plan(comm::parse_fault_plan(
      "drop:p=0.3:ms=1,dup:p=0.3,reorder:p=0.3,delay:p=0.5:ms=1", 2024));
  constexpr int kMessages = 120;
  run_workers(fabric, [&](int rank, Endpoint& ep) {
    if (rank == 0) {
      for (int i = 0; i < kMessages; ++i) {
        std::vector<std::uint8_t> payload(sizeof(int));
        std::memcpy(payload.data(), &i, sizeof(int));
        ep.send(1, 13, std::move(payload));
      }
    } else {
      for (int i = 0; i < kMessages; ++i) {
        const std::vector<std::uint8_t> got = ep.recv(0, 13);
        ASSERT_EQ(got.size(), sizeof(int));
        int value = -1;
        std::memcpy(&value, got.data(), sizeof(int));
        ASSERT_EQ(value, i);  // exactly once, in order, despite the chaos
      }
    }
  });
  const comm::FaultStats stats = fabric.fault_stats();
  EXPECT_GT(stats.drops, 0u);
  EXPECT_EQ(stats.retries, stats.drops);  // every drop retransmitted
  EXPECT_GT(stats.duplicates, 0u);
  EXPECT_EQ(stats.duplicates_discarded, stats.duplicates);
  EXPECT_GT(stats.reorders, 0u);
  // Logical-message accounting excludes retransmits and duplicate copies.
  EXPECT_EQ(fabric.pair_stats(0, 1).messages,
            static_cast<std::uint64_t>(kMessages));
}

// ---- the cross-backend differ ------------------------------------------------

struct BackendRun {
  std::vector<std::uint8_t> state;  // ShardStore::serialize() of all shards
  acct::KindVolumes volumes;  // final iteration (trainers reset per iter)
  std::uint64_t wire_bytes = 0;
};

BackendRun run_weipipe_on(const std::string& spec_text, const TrainConfig& cfg,
                          int world, int iterations) {
  SpecGuard guard(comm::parse_transport_spec(spec_text));
  std::unique_ptr<Trainer> trainer = make_trainer("weipipe", cfg, world);
  SyntheticDataset data(cfg.model.vocab_size, cfg.seed);
  BackendRun run;
  for (int it = 0; it < iterations; ++it) {
    run.wire_bytes = trainer->train_iteration(data, it).wire_bytes;
  }
  run.volumes = acct::measured_kind_volumes(*trainer->fabric());
  run.state = trainer->state().serialize();
  return run;
}

TEST(TransportCrossBackend, WeiPipeBitwiseIdenticalAndVolumesMatch) {
  TrainConfig cfg;
  cfg.model.vocab_size = 32;
  cfg.model.dim = 16;
  cfg.model.n_layers = 4;
  cfg.model.n_heads = 2;
  cfg.model.seq_len = 8;
  cfg.num_microbatches = 8;
  cfg.microbatch_size = 1;
  cfg.seq_len = 8;
  cfg.seed = 606;
  const int world = 4;
  const int iterations = 2;

  const BackendRun inproc = run_weipipe_on("inproc", cfg, world, iterations);
  const BackendRun shm = run_weipipe_on("shm", cfg, world, iterations);
  const BackendRun tcp = run_weipipe_on("tcp", cfg, world, iterations);

  // Weights, Adam moments and step counters, byte for byte.
  EXPECT_TRUE(inproc.state == shm.state) << "shm vs inproc state diverged";
  EXPECT_TRUE(inproc.state == tcp.state) << "tcp vs inproc state diverged";

  // Wire accounting is sender-side per logical message: byte counts must
  // agree exactly across backends...
  EXPECT_EQ(inproc.wire_bytes, shm.wire_bytes);
  EXPECT_EQ(inproc.wire_bytes, tcp.wire_bytes);
  ASSERT_EQ(inproc.volumes.size(), shm.volumes.size());
  ASSERT_EQ(inproc.volumes.size(), tcp.volumes.size());
  for (const auto& [kind, kv] : inproc.volumes) {
    for (const BackendRun* other : {&shm, &tcp}) {
      const auto it = other->volumes.find(kind);
      ASSERT_NE(it, other->volumes.end());
      EXPECT_EQ(it->second.bytes, kv.bytes) << sched::to_string(kind);
      EXPECT_EQ(it->second.messages, kv.messages) << sched::to_string(kind);
    }
  }
  // ...and with the paper-style closed forms (PR 4), backend-independently.
  ASSERT_TRUE(acct::has_predicted_kind_volumes("weipipe", cfg));
  const acct::KindVolumes predicted =
      acct::predicted_kind_volumes("weipipe", cfg, world);
  for (const auto& [kind, kv] : predicted) {
    const auto it = inproc.volumes.find(kind);
    ASSERT_NE(it, inproc.volumes.end()) << sched::to_string(kind);
    EXPECT_EQ(it->second.bytes, kv.bytes) << sched::to_string(kind);
    EXPECT_EQ(it->second.messages, kv.messages) << sched::to_string(kind);
  }
  EXPECT_EQ(predicted.size(), inproc.volumes.size());
}

}  // namespace
}  // namespace weipipe
