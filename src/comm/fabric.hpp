// The message-passing fabric: our stand-in for NCCL P2P.
//
// One Endpoint per rank; local ranks run on their own std::thread (see
// run_workers). Semantics mirror what the paper's implementation relies on:
//  * eager, buffered sends — a send never blocks (NCCL P2P with send
//    buffers), which is what lets a rank ship weight chunks ahead of its
//    compute and overlap the transfer with it;
//  * tagged matching by (source, tag) with FIFO order per pair;
//  * an optional LinkModel that delays *delivery* (not the sender), so
//    emulated bandwidth overlaps with compute exactly like an async DMA.
//
// Transport (docs/FABRIC.md, docs/TRANSPORT.md): byte movement is pluggable
// behind comm::Transport — the in-process lock-free SPSC mailbox (default),
// POSIX shared memory for co-located rank processes, or TCP sockets. The
// fabric layers everything message-semantic on top, identically for every
// backend:
//  * payloads are refcounted zero-copy Buffers (comm/buffer.hpp): over the
//    inproc backend a weight shard moves as a handle, never the bytes;
//  * the PR 5 reliability layer (per-(src,dst,tag) stream seq numbers,
//    receiver-side reassembly + dedup, drop-as-retransmission) sits on top
//    of the transport unchanged: seqs are assigned producer-side, reassembly
//    happens consumer-side in a thread-owned inbox — which is what makes the
//    chaos differ hold bitwise across backends;
//  * a blocked receiver spins briefly (budget set by the backend), then
//    parks in the transport — it keeps feeding the PR 6 health board while
//    blocked, and abort_all() still wakes it.
//
// Thread contract: at any moment at most ONE thread acts as a given rank
// (calls its Endpoint methods). The acting thread may change only across a
// happens-before edge; run_workers provides one via thread join at every
// call boundary. Driver-side maintenance (recover, reset_stats, fault plan
// install, destruction) requires the fabric quiescent — no rank threads
// running — which the same join edges guarantee.
//
// Every byte crossing the fabric is counted per (src,dst) pair at the
// SENDING rank (exactly once per logical message, retransmits and dup-fault
// copies excluded): tests assert the paper's central claim — WeiPipe's
// communication volume is independent of microbatch size G and sequence
// length S — directly on these counters. In multi-process mode each process
// holds the counters for its own ranks' sends; summing over processes
// reconstructs the full matrix.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "comm/buffer.hpp"
#include "comm/fault.hpp"
#include "comm/transport.hpp"
#include "comm/wire.hpp"
#include "common/thread_annotations.hpp"

namespace weipipe::comm {

// Returns the transfer delay for a message of `bytes` from src to dst.
// Used only when attached to a Fabric; nullptr = infinitely fast links.
using LinkModel =
    std::function<std::chrono::nanoseconds(int src, int dst, std::size_t bytes)>;

// Simple uniform link: latency + bytes/bandwidth.
LinkModel uniform_link(double bandwidth_bytes_per_sec, double latency_sec);

struct FabricStats {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  // Messages delivered but not yet received (mailbox depth), and its
  // high-water mark since the last reset_stats(). A growing max_in_flight on
  // one pair is the signature of a receiver pacing the ring.
  std::uint64_t in_flight = 0;
  std::uint64_t max_in_flight = 0;
};

class Fabric;

class Endpoint {
 public:
  int rank() const { return rank_; }
  int world_size() const;

  // Eager buffered send: enqueues and returns immediately.
  void send(int dst, std::int64_t tag, std::vector<std::uint8_t> payload);
  // Zero-copy send: the fabric takes a reference; over the inproc backend
  // the bytes never move. Treat the buffer contents as frozen once sent
  // (other ranks — and dup-fault copies — read the same storage).
  void send(int dst, std::int64_t tag, Buffer payload);

  // Blocks until a matching message arrives (and its modeled delivery time
  // passes). Throws weipipe::CommError after `recv_timeout`.
  std::vector<std::uint8_t> recv(int src, std::int64_t tag);
  // Buffer receive: over the inproc backend this is the sender's storage
  // (same bytes, no copy); multi-process backends rematerialize the bytes.
  Buffer recv_buffer(int src, std::int64_t tag);

  // -- float-span conveniences (quantize on send, widen on receive) ----------
  void send_floats(int dst, std::int64_t tag, std::span<const float> values,
                   WirePrecision precision);
  void recv_floats(int src, std::int64_t tag, std::span<float> out,
                   WirePrecision precision);

 private:
  friend class Fabric;
  Endpoint(Fabric* fabric, int rank) : fabric_(fabric), rank_(rank) {}

  Fabric* fabric_;
  int rank_;
};

class Fabric {
 public:
  // Rides the process-default transport spec (comm/transport.hpp), which is
  // inproc unless retargeted (weipipe_cli --transport, forked rank mode).
  explicit Fabric(int world_size, LinkModel link_model = nullptr);
  Fabric(int world_size, LinkModel link_model, const TransportSpec& spec);
  ~Fabric();

  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  int world_size() const { return static_cast<int>(endpoints_.size()); }
  Endpoint& endpoint(int rank);

  // ---- transport introspection ---------------------------------------------
  const char* transport_name() const { return transport_->name(); }
  // True when `rank` is hosted by this process; run_workers spawns threads
  // only for local ranks.
  bool is_local(int rank) const { return transport_->is_local(rank); }
  bool transport_zero_copy() const { return transport_->zero_copy(); }
  // Pushes rank's buffered transport output (tcp pending queues). Called by
  // run_workers when a worker body returns; callable from the driver while
  // quiescent.
  void flush(int rank) { transport_->flush(rank); }

  // Aggregate traffic matrix entry: bytes sent src -> dst.
  std::uint64_t bytes_sent(int src, int dst) const;
  // Full per-pair stats entry (messages, bytes, in-flight high-water mark).
  FabricStats pair_stats(int src, int dst) const;
  // Copy of the whole [src * P + dst] stats matrix, for metrics snapshots.
  std::vector<FabricStats> stats_matrix() const;
  // Per-tag traffic since the last reset. Tags carry the message semantics
  // (wire_tags / collective bases), so this is the wire ledger's raw feed:
  // classify tags into MsgKinds and compare against the paper's closed-form
  // per-iteration volumes (core/accounting.hpp).
  std::map<std::int64_t, FabricStats> tag_stats() const;
  std::uint64_t total_bytes() const;
  std::uint64_t total_messages() const;
  // Maximum over pairs of max_in_flight since the last reset.
  std::uint64_t max_in_flight() const;
  void reset_stats();

  // Aggregate lock-free transport counters (spin/park/notify/overflow).
  RingStats ring_stats() const;

  // Maximum time recv() blocks before declaring the schedule deadlocked.
  // Atomic because rank threads read it inside recv() while the driving
  // thread may still be adjusting it.
  void set_recv_timeout(std::chrono::milliseconds timeout) {
    recv_timeout_.store(timeout, std::memory_order_relaxed);
  }

  // ---- fault injection (comm/fault.hpp) ------------------------------------
  //
  // Install/clear only while the fabric is quiescent (no rank threads
  // running): worker threads read the plan without locks, relying on the
  // happens-before edges of thread creation/join.
  void install_fault_plan(const FaultPlan& plan);
  bool has_fault_plan() const { return faults_ != nullptr; }
  FaultStats fault_stats() const;
  // All injected faults so far, in the deterministic fault_event_less order.
  std::vector<FaultEvent> fault_events() const;

  // Marks the fabric failed and wakes every blocked receiver; they throw
  // CommError(kAborted). Used by injected stalls and available to tests.
  // Process-local: peers in other rank processes observe the failure as a
  // recv timeout, not an abort (docs/TRANSPORT.md).
  void abort_all();
  bool aborted() const { return aborted_.load(std::memory_order_acquire); }
  // Step-boundary repair after an abort: clears the failed flag, drains all
  // undelivered messages (crediting the memory ledger), resets per-stream
  // sequence numbers and re-arms one-shot stall rules' epoch. The trainer
  // restores its own state (core/resilience.hpp) and re-runs the iteration.
  // Single-process only — remote peers' streams cannot be rewound from here.
  void recover();

 private:
  friend class Endpoint;

  // One directed (src,dst) edge's fabric-side bookkeeping: producer-owned
  // per-tag send seqs, the pair/tag stats, and the receiver's spin tally.
  // Byte movement lives in the transport.
  struct Edge {
    // Producer-owned per-tag next sequence number (single producer per
    // edge, so no lock).
    std::map<std::int64_t, std::uint64_t> send_seq;

    struct PairCounters {
      std::atomic<std::uint64_t> messages{0};
      std::atomic<std::uint64_t> bytes{0};
      std::atomic<std::uint64_t> in_flight{0};
      std::atomic<std::uint64_t> max_in_flight{0};
    } pair;
    mutable std::mutex tag_mu;
    std::map<std::int64_t, FabricStats> tags WEIPIPE_GUARDED_BY(tag_mu);

    std::atomic<std::uint64_t> spins{0};
  };

  struct MailKey {
    int src;
    std::int64_t tag;
    bool operator<(const MailKey& o) const {
      return src != o.src ? src < o.src : tag < o.tag;
    }
  };
  // One (src,tag) reassembly stream, owned by the receiving rank's thread.
  // With dedup on (the default), q is kept sorted by seq and next_take_seq
  // is the reassembly cursor; with dedup off (FaultPlan mutation knob) q is
  // raw arrival order.
  struct Stream {
    std::deque<WireFrame> q;
    std::uint64_t next_take_seq = 0;
  };
  // Per-rank inbox: drained-but-unconsumed messages. Touched only by the
  // rank's acting thread (or the driver while quiescent) — no lock.
  struct Inbox {
    std::map<MailKey, Stream> streams;
    std::vector<WireFrame> scratch;  // drain staging, reused per call
  };

  struct Taken {
    Buffer payload;
    std::int64_t flow_id = -1;
  };

  // Mutable fault-injection state; allocated only while a plan is installed.
  struct FaultRuntime {
    explicit FaultRuntime(const FaultPlan& p, int world)
        : plan(p),
          any_stalls(p.has_stalls()),
          op_counts(static_cast<std::size_t>(world)) {}
    FaultPlan plan;
    bool any_stalls = false;
    // Per-rank count of fabric operations (deliver by src, take by dst);
    // advances in program order of that rank's thread, so stall:op=N is
    // deterministic. Atomics: a rank's sends touch its own counter from its
    // own thread, but recover() resets them from the driver thread.
    std::vector<std::atomic<std::int64_t>> op_counts;
    // One-shot latches, one per rule (only stall rules use theirs).
    std::vector<std::unique_ptr<std::atomic<bool>>> fired;
    std::atomic<std::uint32_t> epoch{0};
    mutable std::mutex mu;
    FaultStats stats WEIPIPE_GUARDED_BY(mu);
    std::vector<FaultEvent> events WEIPIPE_GUARDED_BY(mu);
  };

  Edge& edge(int src, int dst) {
    return *edges_[static_cast<std::size_t>(src) *
                       static_cast<std::size_t>(world_size()) +
                   static_cast<std::size_t>(dst)];
  }
  const Edge& edge(int src, int dst) const {
    return *edges_[static_cast<std::size_t>(src) *
                       static_cast<std::size_t>(world_size()) +
                   static_cast<std::size_t>(dst)];
  }

  // Returns the delivered message's flow id.
  std::int64_t deliver(int src, int dst, std::int64_t tag, Buffer payload);
  Taken take(int dst, int src, std::int64_t tag);

  // Consumer side: move everything available on the transport edge into
  // dst's inbox. Returns the number of messages drained.
  std::size_t drain_edge(int src, int dst, Inbox& inbox, bool reliable);
  void inbox_insert(Inbox& inbox, int src, WireFrame frame, bool reliable);
  // Credits the ledger for an undelivered/duplicate message being destroyed.
  static void credit_frame(const WireFrame& frame, int dst);
  // Drains transport + inboxes for every local rank, crediting the ledger
  // (teardown and recover share this).
  void drain_all_local();

  // Fires any matching stall rule for `rank` (throws CommError(kStall) after
  // aborting the fabric); otherwise just advances the rank's op counter.
  void maybe_stall(int rank);
  void record_fault(const FaultEvent& event);

  std::vector<std::unique_ptr<Endpoint>> endpoints_;
  std::unique_ptr<Transport> transport_;
  std::vector<std::unique_ptr<Edge>> edges_;      // [src * P + dst]
  std::vector<std::unique_ptr<Inbox>> inboxes_;   // [dst]
  LinkModel link_model_;
  std::unique_ptr<FaultRuntime> faults_;
  std::atomic<bool> aborted_{false};
  std::atomic<std::int64_t> next_flow_id_{0};
  std::atomic<std::chrono::milliseconds> recv_timeout_{
      std::chrono::milliseconds(60000)};
};

// Runs fn(rank, endpoint) on one thread per LOCAL rank and joins them all
// (in single-process mode that is every rank; a forked rank process runs
// just its own). When a body returns cleanly its transport output is
// flushed from the same thread. The first exception (if any) is rethrown on
// the caller after every thread has exited, so a failing rank cannot leave
// the fabric with dangling threads.
void run_workers(Fabric& fabric,
                 const std::function<void(int rank, Endpoint& ep)>& fn);

}  // namespace weipipe::comm
