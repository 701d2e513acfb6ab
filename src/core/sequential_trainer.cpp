#include "core/sequential_trainer.hpp"

#include "common/check.hpp"

#include "common/stopwatch.hpp"
#include "nn/loss.hpp"
#include "obs/health.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"

namespace weipipe {

SequentialTrainer::SequentialTrainer(const TrainConfig& cfg)
    : cfg_(cfg), model_(cfg.model) {
  cfg_.validate();
  // One shard per block, all stepped by the single worker.
  state_ = ShardStore(model_);
  for (std::int64_t b = 0; b < model_.num_blocks(); ++b) {
    const std::vector<std::int64_t> blocks = {b};
    state_.add(0, blocks, model_.init_params(blocks, cfg_.seed));
  }
}

IterationResult SequentialTrainer::train_iteration(
    const Dataset& data, std::int64_t iter_index) {
  Stopwatch sw;
  obs::SpanScope step_span(obs::SpanKind::kStep, iter_index);
  // Uniform step cadence signal: every strategy bumps the same counter at
  // the same point, so telemetry windows align across strategies.
  obs::runtime_metrics().counter("step.index").increment();
  // Single-process reference: every span lands on a "rank 0" track.
  obs::RankScope rank_scope(0);
  // Step-cadence heartbeat plus the rank-0 worker heartbeat run_workers
  // would provide in the distributed trainers (obs/health.hpp).
  obs::HealthStepScope health_step(iter_index);
  obs::HealthWorkerScope health_worker(0);
  const std::int64_t n = cfg_.num_microbatches;

  // Compute copies: emulate the wire precision the distributed runs compute
  // with (weights quantized once before use; identity for fp32).
  std::vector<std::vector<float>> compute = state_.block_params();
  if (cfg_.precision.weights != WirePrecision::Fp32) {
    for (auto& w : compute) {
      for (float& v : w) {
        v = quantize(v, cfg_.precision.weights);
      }
    }
  }

  std::vector<std::vector<float>> grads;
  grads.reserve(compute.size());
  std::int64_t grad_floats = 0;
  for (const auto& w : compute) {
    grads.emplace_back(w.size(), 0.0f);
    grad_floats += static_cast<std::int64_t>(w.size());
  }
  obs::MemCharge compute_charge(obs::MemKind::kWeights, 4 * grad_floats);
  obs::MemCharge grads_charge(obs::MemKind::kWeightGrads, 4 * grad_floats);

  double loss_sum = 0.0;
  for (std::int64_t j = 0; j < n; ++j) {
    // Saved forward state + logits allocated below are activation memory.
    obs::MemScope act_scope(obs::MemKind::kActivations);
    const Microbatch mb =
        data.make(iter_index * n + j, cfg_.microbatch_size, cfg_.seq_len);
    std::vector<BlockCtx> ctxs;
    Tensor logits;
    {
      obs::SpanScope fwd_span(obs::SpanKind::kForward, j);
      logits = model_.forward_all(compute, mb, ctxs);
      if (fwd_span.armed()) {
        std::int64_t act = 0;
        for (const BlockCtx& ctx : ctxs) {
          act += ctx.bytes();
        }
        fwd_span.set_bytes(act);
        fwd_span.set_act_bytes_after(static_cast<double>(act));
      }
    }
    obs::SpanScope bwd_span(obs::SpanKind::kBackward, j);
    LossResult lr;
    {
      obs::SpanScope loss_span(obs::SpanKind::kLoss, j);
      lr = cross_entropy_loss(logits, mb);
    }
    loss_sum += lr.loss;
    // Mean over the N microbatches.
    lr.dlogits.scale_(1.0f / static_cast<float>(n));
    model_.backward_all(compute, mb, ctxs, lr.dlogits, grads);
    if (bwd_span.armed()) {
      std::int64_t act = 0;
      for (const BlockCtx& ctx : ctxs) {
        act += ctx.bytes();
      }
      bwd_span.set_bytes(-act);
      bwd_span.set_act_bytes_after(0.0);
    }
  }

  if (cfg_.clip.enabled()) {
    double total_sq = 0.0;
    for (const auto& g : grads) {
      total_sq += grad_sq_norm(std::span<const float>(g.data(), g.size()));
    }
    const float scale = clip_scale(cfg_.clip, total_sq);
    if (scale != 1.0f) {
      for (auto& g : grads) {
        for (float& v : g) {
          v *= scale;
        }
      }
    }
  }
  const AdamConfig adam_cfg = cfg_.adam_for_iteration(iter_index);
  obs::SpanScope opt_span(obs::SpanKind::kOptimizer);
  for (std::size_t b = 0; b < state_.size(); ++b) {
    Shard& s = state_.shard(b);
    s.adam.step(s.params, grads[b], adam_cfg);
  }

  IterationResult res;
  res.mean_loss = static_cast<float>(loss_sum / static_cast<double>(n));
  res.wall_seconds = sw.seconds();
  health_worker.complete();
  return res;
}

}  // namespace weipipe
