#include "core/weipipe_trainer.hpp"

#include "core/execute.hpp"

namespace weipipe {

WeiPipeTrainer::WeiPipeTrainer(const TrainConfig& cfg, std::int64_t num_workers,
                               WeiPipeOptions options)
    : cfg_(cfg),
      p_(num_workers),
      dp_(std::max<std::int64_t>(1, options.dp_degree)),
      opts_(options),
      model_(cfg.model),
      sched_(num_workers,
             cfg.num_microbatches / (num_workers *
                                     std::max<std::int64_t>(
                                         1, options.dp_degree)),
             options.mode) {
  cfg_.validate();
  WEIPIPE_CHECK_MSG(p_ >= 2, "WeiPipe needs >= 2 workers (use sequential)");
  WEIPIPE_CHECK_MSG(cfg_.num_microbatches % (p_ * dp_) == 0,
                    "N=" << cfg_.num_microbatches
                         << " must divide by ring*dp=" << p_ * dp_);
  chunks_ = opts_.replicate_vocab ? model_.make_layer_chunks(p_)
                                  : model_.make_chunks(p_);
  fabric_ = std::make_unique<comm::Fabric>(static_cast<int>(p_ * dp_),
                                           opts_.link_model);
  program_ = sched::build_weipipe_step(
      sched_, exec::unit_costs(p_),
      {.prefetch = opts_.async_prefetch,
       .dp_degree = dp_,
       .replicate_vocab = opts_.replicate_vocab,
       .clip = cfg_.clip.enabled()});
  exec::require_proven(program_);
  // Every replica starts from (and maintains) an identical shard set:
  // chunk c of replica d at index d * P + c, stepped by the worker the
  // schedule makes its owner; with replicate_vocab, replica d's
  // embedding||head shard follows all chunk shards, stepped by the
  // replica's first worker.
  state_ = ShardStore(model_);
  for (std::int64_t d = 0; d < dp_; ++d) {
    for (std::int64_t c = 0; c < p_; ++c) {
      const auto blocks = chunks_[static_cast<std::size_t>(c)].blocks();
      state_.add(static_cast<int>(d * p_ + sched_.owner(c)), blocks,
                 model_.init_params(blocks, cfg_.seed));
    }
  }
  if (opts_.replicate_vocab) {
    const std::vector<std::int64_t> vocab = {0, model_.num_blocks() - 1};
    for (std::int64_t d = 0; d < dp_; ++d) {
      state_.add(static_cast<int>(d * p_), vocab,
                 model_.init_params(vocab, cfg_.seed));
    }
  }
}

std::string WeiPipeTrainer::name() const {
  std::string n = to_string(opts_.mode);
  if (dp_ > 1) {
    n += "-dp" + std::to_string(dp_);
  }
  return n;
}

IterationResult WeiPipeTrainer::train_iteration(const Dataset& data,
                                                std::int64_t iter_index) {
  return exec::run_step(
      *fabric_, iter_index, cfg_.num_microbatches,
      [&](int rank, comm::Endpoint& ep, std::vector<double>& losses) {
        const std::int64_t d = rank / p_;  // data-parallel replica
        // The program's closing optimizer op names the chunk the rank owns;
        // the shard layout is the constructor's.
        const auto& ops = program_.rank_ops[static_cast<std::size_t>(rank)];
        const std::int64_t own = std::get<sched::ComputeOp>(ops.back()).chunk;
        const auto shard = [&](std::int64_t i) {
          return &state_.shard(static_cast<std::size_t>(i));
        };
        exec::RealMath math(
            model_, chunks_, cfg_, data, iter_index, losses,
            {.chunk = own,
             .shard = shard(d * p_ + own),
             .vocab = opts_.replicate_vocab ? shard(dp_ * p_ + d) : nullptr,
             .steps_vocab = opts_.replicate_vocab && rank % p_ == 0,
             .replicas = dp_,
             .counts_vocab_norm = opts_.replicate_vocab && rank == 0});
        exec::execute(program_, rank, ep, math);
      });
}

}  // namespace weipipe
