// Activation-passing pipeline parallelism baselines: GPipe and 1F1B (Dapple),
// the schedules the paper compares against (its Megatron-LM baselines).
//
// Stage s permanently owns chunk s (weights + Adam state); microbatches flow
// through stages; activations (wire precision cfg.precision.activations) and
// activation gradients (.activation_grads) cross the fabric — the volumes
// that blow up with G*S*H and motivate WeiPipe. Each stage runs its rank of
// sched::build_gpipe / build_1f1b on the schedule interpreter
// (core/execute.hpp), after the analyzer has proven the program.
#pragma once

#include <memory>

#include "comm/fabric.hpp"
#include "core/trainer.hpp"
#include "nn/model.hpp"
#include "sched/program.hpp"

namespace weipipe {

enum class PipelineMode {
  kGPipe,  // all forwards, then all backwards
  k1F1B,   // warmup + steady one-forward-one-backward + drain
};

const char* to_string(PipelineMode mode);

struct PipelineOptions {
  PipelineMode mode = PipelineMode::k1F1B;
  comm::LinkModel link_model = nullptr;
};

class PipelineTrainer final : public Trainer {
 public:
  PipelineTrainer(const TrainConfig& cfg, std::int64_t num_stages,
                  PipelineOptions options = {});

  std::string name() const override { return to_string(opts_.mode); }
  IterationResult train_iteration(const Dataset& data,
                                  std::int64_t iter_index) override;

  comm::Fabric* fabric() override { return fabric_.get(); }

 private:
  TrainConfig cfg_;
  std::int64_t p_;
  PipelineOptions opts_;
  Model model_;
  std::vector<ChunkSpec> chunks_;
  std::unique_ptr<comm::Fabric> fabric_;
  sched::Program program_;  // analyzed at construction
};

}  // namespace weipipe
