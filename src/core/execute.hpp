// The schedule interpreter: one rank's op list of a sched::Program, run on
// a comm::Endpoint. 1F1B, GPipe and WeiPipe train by interpreting the
// programs their builders emit (sched/builders.hpp), and each trainer
// refuses a program the analyzer (analysis/analysis.hpp) has not proven, so
// the schedule that is checked is the schedule that runs.
//
// The interpreter owns the fabric calls: each SendOp and RecvOp becomes one
// send or receive on op.tag, in program order. A backend owns the rest:
//  * RealMath runs the nn forward, backward and loss on the held weight
//    chunk and the microbatch's activations, packs and adds the epilogue's
//    chain payloads, and clips and steps Adam on the rank's own shard at
//    the optimizer op;
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

// Runs program.rank_ops[rank] in order; program ranks are world ranks.
// Collective ops have no executor here and are rejected.
void execute(const sched::Program& program, int rank, comm::Endpoint& ep,
             Backend& backend);

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

// Real math for one rank's step, on the trainer's training state.
class RealMath final : public Backend {
 public:
  struct Owned {
    // The chunk whose fp32 master and Adam state the rank keeps: a flow the
    // program uses before receiving it starts from it (the analyzer proves
    // this), master injections pack it and the optimizer op steps it.
    std::int64_t chunk = -1;
    Shard* shard = nullptr;
    // Replicated embedding || head master (null unless the vocab blocks
    // stay off the ring), updated by the rank with `steps_vocab`.
    Shard* vocab = nullptr;
    bool steps_vocab = false;
    // Clipping: every DP replica adds its (identical) reduced gradients to
    // the norm chain, so the total is divided by `replicas`; the vocab
    // gradient counts once, times `replicas`, on `counts_vocab_norm`'s rank.
    std::int64_t replicas = 1;
    bool counts_vocab_norm = false;
  };

  RealMath(const Model& model, const std::vector<ChunkSpec>& chunks,
           const TrainConfig& cfg, const Dataset& data,
           std::int64_t iter_index, std::vector<double>& losses,
           const Owned& owned);

  void compute(const sched::ComputeOp& op) override;
  Payload outgoing(const sched::SendOp& op) override;
  Landing landing(const sched::RecvOp& op) override;
  void incoming(const sched::RecvOp& op, comm::Buffer payload) override;

 private:
  // One held flow: fp32 working values, and for a circulating weight chunk
  // the wire buffer they were unpacked from. A rank relays that buffer
  // unchanged (unpack-then-repack is bit-identical for the flow
  // precisions), so the owner's one pack serves a whole ring pass.
  struct Held {
    std::vector<float> values;
    comm::Buffer wire;
    obs::MemCharge charge;
  };

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
  // The weight flow of `kind` (F, or B once a separate flow brought it),
  // filled from the rank's own master on first use.
  Held& weights(sched::MsgKind kind, std::int64_t c);
  // D, zeroed at chunk c's size on first use.
  Held& grads(std::int64_t c);
  double local_sq_norm() const;
  void forward(const sched::ComputeOp& op);
  void backward(const sched::ComputeOp& op);
  void update(const sched::ComputeOp& op);

  const Model& model_;
  const std::vector<ChunkSpec>& chunks_;
  const TrainConfig& cfg_;
  const Dataset& data_;
  std::int64_t iter_index_;
  std::vector<double>& losses_;
  Owned owned_;
  // F: the chunk forward computes with. B: the chunk backward computes
  // with, when a separate flow brings it (weight passing); otherwise F.
  // D: the gradient accumulator backward adds into.
  Held f_;
  std::optional<Held> b_;
  Held d_;
  comm::Buffer master_wire_;  // the owned master, packed once
  // Replicated vocab blocks: compute copy and local gradient.
  Held vocab_w_;
  Held vocab_g_;
  std::optional<double> norm_;  // clip chain: partial or global sq. norm
  std::map<std::int64_t, InFlight> inflight_;
  // Resident bytes of saved activations (BlockCtx state), tracked while
  // tracing: compute spans carry it so measured peaks can be checked
  // against the analyzer's bound. The replicated vocab blocks' state is
  // excluded, as in the schedule's memory algebra.
  std::int64_t act_resident_bytes_ = 0;
};

}  // namespace weipipe::exec
