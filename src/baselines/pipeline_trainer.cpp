#include "baselines/pipeline_trainer.hpp"

#include <algorithm>
#include <map>

#include "comm/collectives.hpp"
#include "common/stopwatch.hpp"
#include "core/wire_tags.hpp"
#include "nn/loss.hpp"
#include "obs/health.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"

namespace weipipe {

using wire_tags::kTagAct;
using wire_tags::kTagGrad;

namespace {
struct MbCtx {
  Microbatch mb;
  std::vector<BlockCtx> ctxs;  // one per block in this stage's chunk
  Tensor grad_seed;            // last stage only: scaled dlogits
};
}  // namespace

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
    stage_body(rank, ep, data, iter_index, losses);
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

void PipelineTrainer::stage_body(int rank, comm::Endpoint& ep,
                                 const Dataset& data,
                                 std::int64_t iter_index,
                                 std::vector<double>& losses) {
  const std::int64_t s = rank;
  const std::int64_t n = cfg_.num_microbatches;
  const ChunkSpec& spec = chunks_[static_cast<std::size_t>(s)];
  const bool first = s == 0;
  const bool last = s == p_ - 1;
  const std::int64_t rows = cfg_.microbatch_size * cfg_.seq_len;
  const std::int64_t H = cfg_.model.dim;

  // Stage compute weights: quantized copy of the fp32 master (mixed
  // precision emulation; identity in fp32 mode).
  Shard& own = state_.shard(static_cast<std::size_t>(s));
  const std::vector<float>& m = own.params;
  std::vector<float> w(m.size());
  for (std::size_t i = 0; i < m.size(); ++i) {
    w[i] = quantize(m[i], cfg_.precision.weights);
  }
  std::vector<float> grads(m.size(), 0.0f);
  obs::MemCharge w_charge(obs::MemKind::kWeights,
                          4 * static_cast<std::int64_t>(w.size()));
  obs::MemCharge grads_charge(obs::MemKind::kWeightGrads,
                              4 * static_cast<std::int64_t>(grads.size()));

  std::map<std::int64_t, MbCtx> inflight;
  // Resident saved-activation bytes on this stage (tracked while tracing).
  std::int64_t act_resident_bytes = 0;

  auto forward_mb = [&](std::int64_t j) {
    obs::MemScope act_scope(obs::MemKind::kActivations);
    MbCtx st;
    st.mb = data.make(iter_index * n + j, cfg_.microbatch_size, cfg_.seq_len);
    Tensor x;
    if (!first) {
      x = Tensor({rows, H});
      ep.recv_floats(static_cast<int>(s - 1), kTagAct, x.span(),
                     cfg_.precision.activations);
    }
    st.ctxs.clear();
    std::int64_t off = 0;
    {
      obs::SpanScope fwd_span(obs::SpanKind::kForward, j, s);
      for (std::int64_t b = spec.begin; b < spec.end; ++b) {
        const std::int64_t np = model_.block_param_count(b);
        st.ctxs.emplace_back();
        x = model_.block(b).forward(
            std::span<const float>(w.data() + off,
                                   static_cast<std::size_t>(np)),
            st.mb, x, st.ctxs.back(), !cfg_.model.recompute);
        off += np;
      }
      if (fwd_span.armed()) {
        std::int64_t delta = 0;
        for (const BlockCtx& ctx : st.ctxs) {
          delta += ctx.bytes();
        }
        act_resident_bytes += delta;
        fwd_span.set_bytes(delta);
        fwd_span.set_act_bytes_after(static_cast<double>(act_resident_bytes));
      }
    }
    if (last) {
      obs::SpanScope loss_span(obs::SpanKind::kLoss, j, s);
      LossResult lr = cross_entropy_loss(x, st.mb);
      losses[static_cast<std::size_t>(j)] = lr.loss;
      lr.dlogits.scale_(1.0f / static_cast<float>(n));
      st.grad_seed = std::move(lr.dlogits);
    } else {
      ep.send_floats(static_cast<int>(s + 1), kTagAct, x.span(),
                     cfg_.precision.activations);
    }
    inflight.emplace(j, std::move(st));
  };

  auto backward_mb = [&](std::int64_t j) {
    obs::MemScope act_scope(obs::MemKind::kActivations);
    auto it = inflight.find(j);
    WEIPIPE_CHECK(it != inflight.end());
    MbCtx& st = it->second;
    Tensor d;
    if (last) {
      d = std::move(st.grad_seed);
    } else {
      d = Tensor({rows, H});
      ep.recv_floats(static_cast<int>(s + 1), kTagGrad, d.span(),
                     cfg_.precision.activation_grads);
    }
    {
      obs::SpanScope bwd_span(obs::SpanKind::kBackward, j, s);
      for (std::int64_t b = spec.end - 1; b >= spec.begin; --b) {
        const std::int64_t off = model_.block_offset_in_chunk(spec, b);
        const std::int64_t np = model_.block_param_count(b);
        d = model_.block(b).backward(
            std::span<const float>(w.data() + off,
                                   static_cast<std::size_t>(np)),
            st.mb, st.ctxs[static_cast<std::size_t>(b - spec.begin)], d,
            std::span<float>(grads.data() + off,
                             static_cast<std::size_t>(np)));
      }
      if (bwd_span.armed()) {
        std::int64_t freed = 0;
        for (const BlockCtx& ctx : st.ctxs) {
          freed += ctx.bytes();
        }
        act_resident_bytes -= freed;
        bwd_span.set_bytes(-freed);
        bwd_span.set_act_bytes_after(static_cast<double>(act_resident_bytes));
      }
    }
    if (!first) {
      ep.send_floats(static_cast<int>(s - 1), kTagGrad, d.span(),
                     cfg_.precision.activation_grads);
    }
    inflight.erase(it);
  };

  if (opts_.mode == PipelineMode::kGPipe) {
    for (std::int64_t j = 0; j < n; ++j) {
      forward_mb(j);
    }
    for (std::int64_t j = 0; j < n; ++j) {
      backward_mb(j);
    }
  } else {
    // 1F1B: stage s runs (P-1-s) warmup forwards, then alternates.
    const std::int64_t warmup = std::min(p_ - 1 - s, n);
    std::int64_t f = 0;
    std::int64_t b = 0;
    for (std::int64_t i = 0; i < warmup; ++i) {
      forward_mb(f++);
    }
    while (f < n) {
      forward_mb(f++);
      backward_mb(b++);
    }
    while (b < n) {
      backward_mb(b++);
    }
  }
  WEIPIPE_CHECK(inflight.empty());

  if (cfg_.clip.enabled()) {
    const double local_sq =
        grad_sq_norm(std::span<const float>(grads.data(), grads.size()));
    const double total_sq = comm::ring_all_reduce_scalar(ep, local_sq);
    const float scale = clip_scale(cfg_.clip, total_sq);
    if (scale != 1.0f) {
      for (float& v : grads) {
        v *= scale;
      }
    }
  }
  obs::SpanScope opt_span(obs::SpanKind::kOptimizer, -1, s);
  own.adam.step(own.params, grads, cfg_.adam_for_iteration(iter_index));
}

}  // namespace weipipe
