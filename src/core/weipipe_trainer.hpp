// WeiPipe executor: weight-passing pipeline training over the fabric
// (paper §4.2.1 Naive, §4.2.2 Interleave, §5 implementation details).
//
// Each of the P worker threads processes its own microbatches end to end;
// weight chunks (and gradient-of-weight chunks) circulate the ring according
// to WeiPipeSchedule. Activations and their gradients never cross the wire —
// the defining property this reproduces.
//
// Mixed precision follows the paper: circulated W and D in
// cfg.precision.weights / .weight_grads (fp16 in paper mode), fp32 Adam
// masters sharded across owners. Communication/computation overlap uses
// isend/irecv prefetch (the paper's batch_isend_irecv), toggleable for the
// overlap ablation.
#pragma once

#include <memory>

#include "comm/fabric.hpp"
#include "core/trainer.hpp"
#include "sched/weipipe_schedule.hpp"
#include "nn/model.hpp"

namespace weipipe {

struct WeiPipeOptions {
  WeiPipeMode mode = WeiPipeMode::kInterleave;
  // Post weight sends before compute / receive asynchronously (paper §5
  // "Communication Overlap"); false = strictly blocking phases (ablation).
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
  comm::Fabric* fabric() override { return fabric_.get(); }

 private:
  void worker_body(int rank, comm::Endpoint& ep, const Dataset& data,
                   std::int64_t iter_index, std::vector<double>& losses);
  // Replica `replica`'s shard of chunk c / of embedding||head. Only the
  // owning worker thread touches a shard during an iteration (asserted by
  // the schedule algebra).
  Shard& chunk_shard(std::int64_t replica, std::int64_t c);
  Shard& vocab_shard(std::int64_t replica);

  TrainConfig cfg_;
  std::int64_t p_;   // ring size (pipeline chunks)
  std::int64_t dp_;  // data-parallel replicas
  WeiPipeOptions opts_;
  Model model_;
  WeiPipeSchedule sched_;
  std::vector<ChunkSpec> chunks_;
  std::unique_ptr<comm::Fabric> fabric_;
};

}  // namespace weipipe
