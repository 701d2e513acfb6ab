// Strategy-neutral schedule IR.
//
// A Program is one ordered op list per rank. The discrete-event engine
// (sim/engine.hpp) executes it against a cost model + topology; the
// interpreter (core/execute.hpp) runs it on the fabric, with real math or
// timed busy-waits; the trace module renders it as a timeline. Builders in
// sched/builders.hpp emit programs for every strategy in the paper
// (WeiPipe-Naive/-Interleave, WZB1/WZB2, GPipe, 1F1B, ZB1, ZB2, FSDP), on
// the tags of sched/wire_tags.hpp.
//
// Semantics:
//  * ops on a rank execute in list order;
//  * Compute occupies the rank's compute resource for its duration;
//  * Send is asynchronous (DMA): the message is handed to the (src->dst) link
//    the moment the op executes; the op itself costs no compute time;
//  * Recv blocks until the matching message (FIFO per (src,dst,tag)) has
//    fully arrived through the link;
//  * CollectiveStart posts an asynchronous bulk transfer of a given duration
//    on the rank's communication channel; CollectiveWait joins it. This
//    models NCCL collectives that overlap compute (FSDP prefetch).
//  * mem_delta tracks activation bytes acquired/released by compute ops; the
//    engine reports the running peak per rank.
#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

namespace weipipe::sched {

enum class ComputeKind {
  kForward,
  kBackward,      // full backward (B+W fused), as in 1F1B/GPipe/WeiPipe
  kBackwardActs,  // B pass: gradients w.r.t. activations (zero-bubble split)
  kBackwardWeights,  // W pass: gradients w.r.t. weights
  kOptimizer,
  kLoss,
};

const char* to_string(ComputeKind kind);

// What a point-to-point message carries. Builders annotate their sends (and
// the expectation on their recvs) so static analysis (analysis/analysis.hpp)
// can track weight-shard circulation without executing the program. kOpaque
// marks payloads the analyzer should not interpret; the engine ignores the
// field entirely — it only affects static checking and trace rendering.
enum class MsgKind {
  kOpaque,      // unannotated: matching/deadlock analysis only
  kWeightF,     // F-flow weight chunk (consumed by forward computes)
  kWeightB,     // B-flow weight chunk (consumed by backward computes)
  kGradD,       // circulating weight-gradient chunk D
  kActivation,  // stage-boundary activations
  kActGrad,     // stage-boundary activation gradients
  kVocabGrad,   // replicated embedding || head gradient (vocab chain)
  kNorm,        // squared gradient norm: one raw 8-byte double (clip chain)
};

const char* to_string(MsgKind kind);

struct ComputeOp {
  ComputeKind kind = ComputeKind::kForward;
  std::int64_t microbatch = -1;
  // Forward/backward: the chunk computed. Optimizer: the chunk the rank
  // owns (master weights and Adam state), or -1 when the program does not
  // say (the bare turn programs the simulator evaluates).
  std::int64_t chunk = -1;
  double seconds = 0.0;
  // Bytes of activation/gradient state acquired (+) or released (-).
  double mem_delta = 0.0;
};

struct SendOp {
  int dst = 0;
  double bytes = 0.0;
  std::int64_t tag = 0;
  // Blocking sends hold the sender until the transfer drains. Activation-
  // passing pipelines behave this way in practice (Megatron's stage-boundary
  // exchanges sit on the same-microbatch critical path); WeiPipe's weight
  // sends are prefetchable a full turn ahead and stay asynchronous.
  bool blocking = false;
  // Payload annotation for static analysis: what rides the wire, and which
  // chunk it is (for weight/gradient kinds; -1 = not chunk-identified).
  MsgKind kind = MsgKind::kOpaque;
  std::int64_t chunk = -1;
  // Activation kinds: the microbatch whose activations (or gradients) ride
  // the wire; -1 for every other kind.
  std::int64_t microbatch = -1;
  // Weight kinds: ships the sender's fp32 master of `chunk`, packed at the
  // flow precision, instead of a held flow. This is the redistribution that
  // seeds a flow; only the chunk's owner (the rank whose optimizer op names
  // it) may send it.
  bool master = false;
};

struct RecvOp {
  int src = 0;
  std::int64_t tag = 0;
  // What the receiver will interpret the payload as. A tag bug that makes a
  // B-flow weight land in the F buffer is invisible at runtime (the bytes
  // fit) but is exactly what the static weight-version check catches by
  // comparing this against the matched send's annotation.
  MsgKind kind = MsgKind::kOpaque;
  // Activation kinds: the microbatch the receiver files the payload under;
  // the analyzer checks it against the matched send's.
  std::int64_t microbatch = -1;
  // Adds the payload into what the rank holds (its D chunk, vocab gradient
  // or norm) instead of overwriting it: the up leg of a chain all-reduce.
  bool accumulate = false;
};

// Asynchronous bulk transfer on the rank's comm channel (collective share).
struct CollectiveStartOp {
  std::int64_t id = 0;  // joined by CollectiveWaitOp with the same id
  double seconds = 0.0;
  double bytes = 0.0;  // accounted to the rank's collective traffic
};

struct CollectiveWaitOp {
  std::int64_t id = 0;
};

using Op = std::variant<ComputeOp, SendOp, RecvOp, CollectiveStartOp,
                        CollectiveWaitOp>;

struct Program {
  std::string name;
  std::vector<std::vector<Op>> rank_ops;  // [rank] -> ordered ops

  int num_ranks() const { return static_cast<int>(rank_ops.size()); }
  std::size_t total_ops() const {
    std::size_t n = 0;
    for (const auto& v : rank_ops) {
      n += v.size();
    }
    return n;
  }
};

}  // namespace weipipe::sched
