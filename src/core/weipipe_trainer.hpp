// WeiPipe executor: weight-passing pipeline training over the fabric
// (paper §4.2.1 Naive, §4.2.2 Interleave, §5 implementation details).
//
// Each of the P worker threads processes its own microbatches end to end;
// weight chunks (and gradient-of-weight chunks) circulate the ring according
// to WeiPipeSchedule. Activations and their gradients never cross the wire —
// the defining property this reproduces.
//
// The whole step is the program sched::build_weipipe_step emits: the
// owners' weight redistribution, the turns, the DP, vocab and clip chains
// and the update. The analyzer proves it when the trainer is built and the
// schedule interpreter (core/execute.hpp) runs it; the trainer only holds
// the shards.
//
// Mixed precision follows the paper: circulated W and D in
// cfg.precision.weights / .weight_grads (fp16 in paper mode), fp32 Adam
// masters sharded across owners. Communication/computation overlap comes
// from sending each turn's weight chunks before computing, so the eager
// transfer runs under the compute; async_prefetch = false moves the sends
// after the compute for the overlap ablation.
#pragma once

#include <memory>

#include "comm/fabric.hpp"
#include "core/trainer.hpp"
#include "sched/weipipe_schedule.hpp"
#include "nn/model.hpp"
#include "sched/program.hpp"

namespace weipipe {

struct WeiPipeOptions {
  WeiPipeMode mode = WeiPipeMode::kInterleave;
  // Send weight chunks before compute (paper §5 "Communication
  // Overlap"); false = send after compute (ablation).
  bool async_prefetch = true;
  // Hybrid WeiPipe x data parallelism: dp_degree independent rings, each
  // training N/dp_degree microbatches; chunk gradients are chain-reduced
  // across replicas before the (replicated) owners step Adam. World size
  // becomes num_workers * dp_degree.
  std::int64_t dp_degree = 1;
  // Production vocabulary handling: replicate the embedding and LM-head
  // matrices on every worker instead of circulating their V*H bytes each
  // turn; their gradients are all-reduced once per iteration. This is the
  // behaviour the cost model assumes (see DESIGN.md §7.2). Off by default to
  // keep the bitwise-equivalence mode byte-exact.
  bool replicate_vocab = false;
  // Optional link emulation (bandwidth/latency) for in-situ experiments.
  comm::LinkModel link_model = nullptr;
};

class WeiPipeTrainer final : public Trainer {
 public:
  WeiPipeTrainer(const TrainConfig& cfg, std::int64_t num_workers,
                 WeiPipeOptions options = {});

  std::string name() const override;
  IterationResult train_iteration(const Dataset& data,
                                  std::int64_t iter_index) override;

  const WeiPipeSchedule& schedule() const { return sched_; }
  // The step program every rank interprets (sched::build_weipipe_step).
  const sched::Program& program() const { return program_; }
  comm::Fabric* fabric() override { return fabric_.get(); }

 private:
  TrainConfig cfg_;
  std::int64_t p_;   // ring size (pipeline chunks)
  std::int64_t dp_;  // data-parallel replicas
  WeiPipeOptions opts_;
  Model model_;
  WeiPipeSchedule sched_;
  std::vector<ChunkSpec> chunks_;
  std::unique_ptr<comm::Fabric> fabric_;
  sched::Program program_;  // the whole step, analyzed at construction
};

}  // namespace weipipe
