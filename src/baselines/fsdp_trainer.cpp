#include "baselines/fsdp_trainer.hpp"

#include "comm/collectives.hpp"
#include "common/stopwatch.hpp"
#include "nn/loss.hpp"
#include "obs/health.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"

namespace weipipe {

FsdpTrainer::FsdpTrainer(const TrainConfig& cfg, std::int64_t num_ranks,
                         FsdpOptions options)
    : cfg_(cfg), p_(num_ranks), opts_(options), model_(cfg.model) {
  cfg_.validate();
  WEIPIPE_CHECK_MSG(p_ >= 2, "FSDP needs >= 2 ranks (use sequential)");
  WEIPIPE_CHECK_MSG(cfg_.num_microbatches % p_ == 0,
                    "N=" << cfg_.num_microbatches
                         << " must divide by P=" << p_);
  chunks_ = model_.make_chunks(p_);
  fabric_ = std::make_unique<comm::Fabric>(static_cast<int>(p_),
                                           opts_.link_model);
  // ZeRO-3 ownership: rank r keeps chunk r's master and Adam state.
  state_ = ShardStore(model_);
  for (std::size_t c = 0; c < chunks_.size(); ++c) {
    const auto blocks = chunks_[c].blocks();
    state_.add(static_cast<int>(c), blocks,
               model_.init_params(blocks, cfg_.seed));
  }
}

IterationResult FsdpTrainer::train_iteration(const Dataset& data,
                                             std::int64_t iter_index) {
  Stopwatch sw;
  obs::SpanScope step_span(obs::SpanKind::kStep, iter_index);
  // Uniform step cadence signal: every strategy bumps the same counter at
  // the same point, so telemetry windows align across strategies.
  obs::runtime_metrics().counter("step.index").increment();
  // Step-cadence heartbeat for the live health plane (obs/health.hpp).
  obs::HealthStepScope health_step(iter_index);
  fabric_->reset_stats();
  std::vector<double> losses(
      static_cast<std::size_t>(cfg_.num_microbatches), 0.0);
  comm::run_workers(*fabric_, [&](int rank, comm::Endpoint& ep) {
    rank_body(rank, ep, data, iter_index, losses);
  });
  IterationResult res;
  double sum = 0.0;
  for (double l : losses) {
    sum += l;
  }
  res.mean_loss =
      static_cast<float>(sum / static_cast<double>(cfg_.num_microbatches));
  res.wall_seconds = sw.seconds();
  res.wire_bytes = fabric_->total_bytes();
  res.wire_messages = fabric_->total_messages();
  return res;
}

void FsdpTrainer::rank_body(int rank, comm::Endpoint& ep,
                            const Dataset& data,
                            std::int64_t iter_index,
                            std::vector<double>& losses) {
  const std::int64_t r = rank;
  const std::int64_t n = cfg_.num_microbatches;
  const std::int64_t local_rounds = n / p_;
  const WirePrecision wp = cfg_.precision.weights;
  const WirePrecision dp = cfg_.precision.weight_grads;

  // Materialize chunk c's (quantized) weights into `buf`, via ring broadcast
  // from the owner. All ranks call this in lockstep.
  obs::MemCharge wbuf_charge;
  auto gather_chunk = [&](std::int64_t c, std::vector<float>& buf) {
    const ChunkSpec& spec = chunks_[static_cast<std::size_t>(c)];
    buf.resize(static_cast<std::size_t>(spec.param_count));
    wbuf_charge.set(obs::MemKind::kWeights,
                    4 * static_cast<std::int64_t>(buf.size()));
    if (c == r) {
      const std::vector<float>& m =
          state_.shard(static_cast<std::size_t>(c)).params;
      for (std::size_t i = 0; i < m.size(); ++i) {
        buf[i] = quantize(m[i], wp);
      }
    }
    comm::ring_broadcast(ep, static_cast<int>(c),
                         std::span<float>(buf.data(), buf.size()), wp);
  };

  // Per-chunk local gradient accumulators (partial sums over local mbs).
  std::vector<std::vector<float>> grads(static_cast<std::size_t>(p_));
  std::int64_t grad_floats = 0;
  for (std::int64_t c = 0; c < p_; ++c) {
    grads[static_cast<std::size_t>(c)].assign(
        static_cast<std::size_t>(
            chunks_[static_cast<std::size_t>(c)].param_count),
        0.0f);
    grad_floats += chunks_[static_cast<std::size_t>(c)].param_count;
  }
  obs::MemCharge grads_charge(obs::MemKind::kWeightGrads, 4 * grad_floats);

  std::vector<float> wbuf;
  for (std::int64_t k = 0; k < local_rounds; ++k) {
    const std::int64_t j = k * p_ + r;  // global microbatch index
    const Microbatch mb =
        data.make(iter_index * n + j, cfg_.microbatch_size, cfg_.seq_len);

    // Forward sweep: gather -> compute -> free, chunk by chunk (ZeRO-3).
    obs::MemScope act_scope(obs::MemKind::kActivations);
    std::vector<std::vector<BlockCtx>> ctxs(static_cast<std::size_t>(p_));
    std::int64_t act_resident_bytes = 0;
    Tensor x;
    for (std::int64_t c = 0; c < p_; ++c) {
      gather_chunk(c, wbuf);
      obs::SpanScope fwd_span(obs::SpanKind::kForward, j, c);
      const ChunkSpec& spec = chunks_[static_cast<std::size_t>(c)];
      std::int64_t off = 0;
      for (std::int64_t b = spec.begin; b < spec.end; ++b) {
        const std::int64_t np = model_.block_param_count(b);
        ctxs[static_cast<std::size_t>(c)].emplace_back();
        x = model_.block(b).forward(
            std::span<const float>(wbuf.data() + off,
                                   static_cast<std::size_t>(np)),
            mb, x, ctxs[static_cast<std::size_t>(c)].back(),
            !cfg_.model.recompute);
        off += np;
      }
      if (fwd_span.armed()) {
        std::int64_t delta = 0;
        for (const BlockCtx& ctx : ctxs[static_cast<std::size_t>(c)]) {
          delta += ctx.bytes();
        }
        act_resident_bytes += delta;
        fwd_span.set_bytes(delta);
        fwd_span.set_act_bytes_after(static_cast<double>(act_resident_bytes));
      }
    }
    Tensor d;
    {
      obs::SpanScope loss_span(obs::SpanKind::kLoss, j);
      LossResult lr = cross_entropy_loss(x, mb);
      losses[static_cast<std::size_t>(j)] = lr.loss;
      lr.dlogits.scale_(1.0f / static_cast<float>(n));
      d = std::move(lr.dlogits);
    }

    // Backward sweep: ZeRO-3 gathers every chunk a second time.
    for (std::int64_t c = p_ - 1; c >= 0; --c) {
      gather_chunk(c, wbuf);
      obs::SpanScope bwd_span(obs::SpanKind::kBackward, j, c);
      const ChunkSpec& spec = chunks_[static_cast<std::size_t>(c)];
      std::vector<float>& g = grads[static_cast<std::size_t>(c)];
      for (std::int64_t b = spec.end - 1; b >= spec.begin; --b) {
        const std::int64_t off = model_.block_offset_in_chunk(spec, b);
        const std::int64_t np = model_.block_param_count(b);
        d = model_.block(b).backward(
            std::span<const float>(wbuf.data() + off,
                                   static_cast<std::size_t>(np)),
            mb, ctxs[static_cast<std::size_t>(c)]
                    [static_cast<std::size_t>(b - spec.begin)],
            d,
            std::span<float>(g.data() + off, static_cast<std::size_t>(np)));
      }
      if (bwd_span.armed()) {
        std::int64_t freed = 0;
        for (const BlockCtx& ctx : ctxs[static_cast<std::size_t>(c)]) {
          freed += ctx.bytes();
        }
        act_resident_bytes -= freed;
        bwd_span.set_bytes(-freed);
        bwd_span.set_act_bytes_after(static_cast<double>(act_resident_bytes));
      }
    }
  }

  // Reduce each chunk's gradient to its owner; the owner keeps its shard.
  std::vector<float> own_grad;
  std::vector<float> reduced;
  obs::MemCharge own_grad_charge;
  obs::MemCharge reduced_charge;
  for (std::int64_t c = 0; c < p_; ++c) {
    const std::vector<float>& g = grads[static_cast<std::size_t>(c)];
    reduced.assign(g.size(), 0.0f);
    reduced_charge.set(obs::MemKind::kWeightGrads,
                       4 * static_cast<std::int64_t>(reduced.size()));
    comm::ring_reduce_to_root(
        ep, static_cast<int>(c), std::span<const float>(g.data(), g.size()),
        std::span<float>(reduced.data(), reduced.size()), dp);
    if (c == r) {
      own_grad = reduced;
      own_grad_charge.set(obs::MemKind::kWeightGrads,
                          4 * static_cast<std::int64_t>(own_grad.size()));
    }
  }
  // Global-norm clipping over the *reduced* gradients (what Adam consumes).
  if (cfg_.clip.enabled()) {
    const double local_sq =
        grad_sq_norm(std::span<const float>(own_grad.data(), own_grad.size()));
    const double total_sq = comm::ring_all_reduce_scalar(ep, local_sq);
    const float scale = clip_scale(cfg_.clip, total_sq);
    if (scale != 1.0f) {
      for (float& v : own_grad) {
        v *= scale;
      }
    }
  }
  obs::SpanScope opt_span(obs::SpanKind::kOptimizer, -1, r);
  Shard& own = state_.shard(static_cast<std::size_t>(r));
  own.adam.step(own.params, own_grad, cfg_.adam_for_iteration(iter_index));
}

}  // namespace weipipe
