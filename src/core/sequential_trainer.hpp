// Ground-truth trainer: one process, no parallelism, microbatches processed
// in index order with gradient accumulation — the semantics every distributed
// strategy must reproduce.
#pragma once

#include "core/trainer.hpp"
#include "nn/model.hpp"

namespace weipipe {

class SequentialTrainer final : public Trainer {
 public:
  explicit SequentialTrainer(const TrainConfig& cfg);

  std::string name() const override { return "sequential"; }
  IterationResult train_iteration(const Dataset& data,
                                  std::int64_t iter_index) override;

 private:
  TrainConfig cfg_;
  Model model_;
};

}  // namespace weipipe
