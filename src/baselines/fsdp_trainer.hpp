// FSDP / ZeRO-3-style baseline: fully sharded data parallelism over the same
// fabric (the paper's DeepSpeed ZeRO-3 comparator).
//
// Rank r owns chunk r's fp32 master + Adam state. Every rank runs the full
// model on its own microbatches; non-owned chunk weights are materialized on
// demand by a ring broadcast from the owner (same total bytes as NCCL's ring
// all-gather of a sharded parameter) for the forward AND again for the
// backward, then freed. Weight gradients are chain-reduced to the owner at
// iteration end. Collective traffic therefore scales with total parameter
// bytes * 3 * (P-1)/P per microbatch-round — the cost WeiPipe's P2P
// circulation undercuts in communication-constrained settings.
#pragma once

#include <memory>

#include "comm/fabric.hpp"
#include "core/trainer.hpp"
#include "nn/model.hpp"

namespace weipipe {

struct FsdpOptions {
  comm::LinkModel link_model = nullptr;
};

class FsdpTrainer final : public Trainer {
 public:
  FsdpTrainer(const TrainConfig& cfg, std::int64_t num_ranks,
              FsdpOptions options = {});

  std::string name() const override { return "fsdp"; }
  IterationResult train_iteration(const Dataset& data,
                                  std::int64_t iter_index) override;

  comm::Fabric* fabric() override { return fabric_.get(); }

 private:
  void rank_body(int rank, comm::Endpoint& ep, const Dataset& data,
                 std::int64_t iter_index, std::vector<double>& losses);

  TrainConfig cfg_;
  std::int64_t p_;
  FsdpOptions opts_;
  Model model_;
  std::vector<ChunkSpec> chunks_;
  std::unique_ptr<comm::Fabric> fabric_;
};

}  // namespace weipipe
