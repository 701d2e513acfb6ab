#include "baselines/pipeline_trainer.hpp"

#include "core/execute.hpp"

namespace weipipe {

const char* to_string(PipelineMode mode) {
  switch (mode) {
    case PipelineMode::kGPipe: return "gpipe";
    case PipelineMode::k1F1B: return "1f1b";
  }
  return "?";
}

PipelineTrainer::PipelineTrainer(const TrainConfig& cfg,
                                 std::int64_t num_stages,
                                 PipelineOptions options)
    : cfg_(cfg), p_(num_stages), opts_(options), model_(cfg.model) {
  cfg_.validate();
  WEIPIPE_CHECK_MSG(p_ >= 2, "pipeline needs >= 2 stages (use sequential)");
  chunks_ = model_.make_chunks(p_);
  fabric_ = std::make_unique<comm::Fabric>(static_cast<int>(p_),
                                           opts_.link_model);
  program_ = opts_.mode == PipelineMode::kGPipe
                 ? sched::build_gpipe(p_, cfg_.num_microbatches,
                                      exec::unit_costs(p_))
                 : sched::build_1f1b(p_, cfg_.num_microbatches,
                                     exec::unit_costs(p_));
  if (cfg_.clip.enabled()) {
    sched::append_clip_chain(program_);
  }
  exec::require_proven(program_);
  // Stage s owns chunk s: its weights and Adam state never move.
  state_ = ShardStore(model_);
  for (std::size_t c = 0; c < chunks_.size(); ++c) {
    const auto blocks = chunks_[c].blocks();
    state_.add(static_cast<int>(c), blocks,
               model_.init_params(blocks, cfg_.seed));
  }
}

IterationResult PipelineTrainer::train_iteration(const Dataset& data,
                                                 std::int64_t iter_index) {
  return exec::run_step(
      *fabric_, iter_index, cfg_.num_microbatches,
      [&](int rank, comm::Endpoint& ep, std::vector<double>& losses) {
        // The stage computes both passes with a quantized copy of its fp32
        // master (mixed precision emulation; identity in fp32 mode).
        exec::RealMath math(
            model_, chunks_, cfg_, data, iter_index, losses,
            {.chunk = rank,
             .shard = &state_.shard(static_cast<std::size_t>(rank))});
        exec::execute(program_, rank, ep, math);
      });
}

}  // namespace weipipe
