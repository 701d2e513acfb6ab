// The schedule interpreter: one rank's op list of a sched::Program, run on
// a comm::Endpoint. 1F1B, GPipe and WeiPipe train by interpreting the
// programs their builders emit (sched/builders.hpp), and each trainer
// refuses a program the analyzer (analysis/analysis.hpp) has not proven, so
// the schedule that is checked is the schedule that runs.
//
// The interpreter owns the fabric calls: each SendOp and RecvOp becomes one
// send or receive on op.tag, in program order. A backend owns the rest:
//  * RealMath runs the nn forward, backward and loss on the held weight
//    chunk and the microbatch's activations, and calls the trainer's update
//    at the optimizer op;
//  * TimedBackend busy-waits each compute op's modeled duration and ships
//    filler payloads of the modeled size (weipipe_cli profile's
//    schedule-only strategies).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <span>
#include <vector>

#include "comm/fabric.hpp"
#include "core/trainer.hpp"
#include "nn/model.hpp"
#include "obs/ledger.hpp"
#include "sched/builders.hpp"

namespace weipipe::exec {

// What a SendOp ships: a wire buffer relayed as is, or floats packed at
// `precision` inside the send. `values` may point into `owned`, which the
// send consumes.
struct Payload {
  comm::Buffer wire{};
  std::span<const float> values{};
  WirePrecision precision = WirePrecision::Fp32;
  Tensor owned{};
};

// Where a RecvOp's floats land. Empty `values`: the payload is taken whole
// and handed to Backend::incoming.
struct Landing {
  std::span<float> values;
  WirePrecision precision = WirePrecision::Fp32;
};

class Backend {
 public:
  virtual ~Backend() = default;
  virtual void compute(const sched::ComputeOp& op) = 0;
  virtual Payload outgoing(const sched::SendOp& op) = 0;
  virtual Landing landing(const sched::RecvOp& /*op*/) { return {}; }
  virtual void incoming(const sched::RecvOp& op, comm::Buffer payload) = 0;
};

// Runs program.rank_ops[rank] in order. Program rank q is world rank
// peer_base + q (WeiPipe's data-parallel replicas each run the ring
// program on their own block of ranks). Collective ops have no executor
// here and are rejected.
void execute(const sched::Program& program, int rank, comm::Endpoint& ep,
             Backend& backend, int peer_base = 0);

// Throws weipipe::Error carrying the analyzer's report unless
// analysis::analyze finds nothing wrong with `program`.
void require_proven(const sched::Program& program);

// Placeholder costs for a program only RealMath runs: its durations and
// bytes are measured, not modeled.
sched::StrategyCosts unit_costs(std::int64_t chunks);

// One training step on `fabric`, shared by every fabric-backed trainer: the
// step span, the step.index counter, the health heartbeat, fresh fabric
// stats, one thread per local rank running `body`, and the mean of the
// per-microbatch losses the bodies write.
using RankBody = std::function<void(int rank, comm::Endpoint& ep,
                                    std::vector<double>& losses)>;
IterationResult run_step(comm::Fabric& fabric, std::int64_t iter_index,
                         std::int64_t num_microbatches, const RankBody& body);

// Busy-waits compute ops and ships filler payloads of SendOp::bytes.
class TimedBackend final : public Backend {
 public:
  void compute(const sched::ComputeOp& op) override;
  Payload outgoing(const sched::SendOp& op) override;
  void incoming(const sched::RecvOp&, comm::Buffer) override {}

 private:
  double act_bytes_ = 0.0;  // running sum of ComputeOp::mem_delta
};

// Real math for one rank's step. The trainer fills the held flows (and the
// replicated vocab blocks, if any) and the update before execute().
class RealMath final : public Backend {
 public:
  // One held flow: fp32 working values, and for a circulating weight chunk
  // the wire buffer they were unpacked from. A rank relays that buffer
  // unchanged (unpack-then-repack is bit-identical for the flow
  // precisions), so the owner's one pack serves a whole ring pass.
  struct Held {
    std::vector<float> values;
    comm::Buffer wire;
    obs::MemCharge charge;
  };

  // Program microbatch m is global microbatch mb_offset + m.
  RealMath(const Model& model, const std::vector<ChunkSpec>& chunks,
           const TrainConfig& cfg, const Dataset& data,
           std::int64_t iter_index, std::vector<double>& losses,
           std::int64_t mb_offset = 0);

  // F: the chunk forward computes with. B: the chunk backward computes
  // with, when a separate flow brings it (weight passing); otherwise F.
  // D: the gradient accumulator backward adds into.
  Held f;
  std::optional<Held> b;
  Held d;
  // Replicated embedding || head weights and their local gradients; empty
  // unless the vocab blocks stay off the ring.
  std::span<const float> vocab_weights;
  std::span<float> vocab_grads;
  // Called at the optimizer op with the accumulated gradient (D).
  std::function<void(std::vector<float>& grads)> update;

  void compute(const sched::ComputeOp& op) override;
  Payload outgoing(const sched::SendOp& op) override;
  Landing landing(const sched::RecvOp& op) override;
  void incoming(const sched::RecvOp& op, comm::Buffer payload) override;

 private:
  // One in-flight microbatch on this rank.
  struct InFlight {
    Microbatch mb;
    std::vector<std::vector<BlockCtx>> ctxs;  // [chunk] one per block
    Tensor act;   // forward cursor: output of the last computed chunk
    Tensor grad;  // backward cursor: gradient w.r.t. that output
    BlockCtx emb_ctx;   // replicated vocab: embedding forward state
    BlockCtx head_ctx;  // replicated vocab: head forward state
  };

  InFlight& state(std::int64_t m);
  std::map<std::int64_t, InFlight>::iterator find(std::int64_t m);
  const ChunkSpec& chunk(std::int64_t c, const Held& held) const;
  void forward(const sched::ComputeOp& op);
  void backward(const sched::ComputeOp& op);

  const Model& model_;
  const std::vector<ChunkSpec>& chunks_;
  const TrainConfig& cfg_;
  const Dataset& data_;
  std::int64_t iter_index_;
  std::vector<double>& losses_;
  std::int64_t mb_offset_;
  std::map<std::int64_t, InFlight> inflight_;
  // Resident bytes of saved activations (BlockCtx state), tracked while
  // tracing: compute spans carry it so measured peaks can be checked
  // against the analyzer's bound. The replicated vocab blocks' state is
  // excluded, as in the schedule's memory algebra.
  std::int64_t act_resident_bytes_ = 0;
};

// Fills `held` with the compute copy of fp32 master weights at
// `precision` (identity in fp32 mode), charged to the ledger as weights.
void hold_quantized(RealMath::Held& held, std::span<const float> master,
                    WirePrecision precision);

}  // namespace weipipe::exec
