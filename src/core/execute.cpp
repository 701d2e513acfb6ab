#include "core/execute.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <thread>
#include <variant>

#include "analysis/analysis.hpp"
#include "common/check.hpp"
#include "common/stopwatch.hpp"
#include "nn/loss.hpp"
#include "obs/health.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "sched/span_map.hpp"

namespace weipipe::exec {

namespace {

// Occupies the calling thread for `seconds` wall time: sleeps the bulk,
// spins the tail so short modeled ops (tens of microseconds) keep realistic
// durations instead of collapsing into scheduler quanta.
void busy_wait(double seconds) {
  if (seconds <= 0.0) {
    return;
  }
  const auto until =
      std::chrono::steady_clock::now() +
      std::chrono::nanoseconds(static_cast<std::int64_t>(seconds * 1e9));
  const auto sleep_until = until - std::chrono::milliseconds(1);
  if (std::chrono::steady_clock::now() < sleep_until) {
    std::this_thread::sleep_until(sleep_until);
  }
  while (std::chrono::steady_clock::now() < until) {
    // spin
  }
}

std::int64_t ctx_bytes(const std::vector<BlockCtx>& ctxs) {
  std::int64_t bytes = 0;
  for (const BlockCtx& ctx : ctxs) {
    bytes += ctx.bytes();
  }
  return bytes;
}

}  // namespace

void execute(const sched::Program& program, int rank, comm::Endpoint& ep,
             Backend& backend) {
  for (const sched::Op& op :
       program.rank_ops[static_cast<std::size_t>(rank)]) {
    if (const auto* c = std::get_if<sched::ComputeOp>(&op)) {
      backend.compute(*c);
    } else if (const auto* s = std::get_if<sched::SendOp>(&op)) {
      Payload out = backend.outgoing(*s);
      if (out.wire) {
        ep.send(s->dst, s->tag, std::move(out.wire));
      } else {
        ep.send_floats(s->dst, s->tag, out.values, out.precision);
      }
    } else if (const auto* r = std::get_if<sched::RecvOp>(&op)) {
      const Landing in = backend.landing(*r);
      if (!in.values.empty()) {
        ep.recv_floats(r->src, r->tag, in.values, in.precision);
      } else {
        backend.incoming(*r, ep.recv_buffer(r->src, r->tag));
      }
    } else {
      WEIPIPE_CHECK_MSG(false, "program '" << program.name
                                           << "': collective ops have no "
                                              "executor");
    }
  }
}

void require_proven(const sched::Program& program) {
  const analysis::AnalysisReport report = analysis::analyze(program);
  WEIPIPE_CHECK_MSG(report.ok(), "refusing to run a schedule the analyzer "
                                 "did not prove:\n"
                                     << report.summary());
}

sched::StrategyCosts unit_costs(std::int64_t chunks) {
  const auto n = static_cast<std::size_t>(chunks);
  sched::StrategyCosts c;
  c.fwd_seconds.assign(n, 1.0);
  c.bwd_seconds.assign(n, 1.0);
  c.bwd_acts_seconds.assign(n, 1.0);
  c.bwd_weights_seconds.assign(n, 1.0);
  c.chunk_weight_bytes.assign(n, 1.0);
  c.act_mem_bytes.assign(n, 1.0);
  c.act_bytes = 1.0;
  c.act_grad_bytes = 1.0;
  return c;
}

IterationResult run_step(comm::Fabric& fabric, std::int64_t iter_index,
                         std::int64_t num_microbatches, const RankBody& body) {
  Stopwatch sw;
  // Whole-iteration span; recorded on the driving thread's track.
  obs::SpanScope step_span(obs::SpanKind::kStep, iter_index);
  // Uniform step cadence signal: every strategy bumps the same counter at
  // the same point, so telemetry windows align across strategies.
  obs::runtime_metrics().counter("step.index").increment();
  // Step-cadence heartbeat for the live health plane (obs/health.hpp).
  obs::HealthStepScope health_step(iter_index);
  fabric.reset_stats();
  std::vector<double> losses(static_cast<std::size_t>(num_microbatches),
                             0.0);
  comm::run_workers(fabric, [&](int rank, comm::Endpoint& ep) {
    body(rank, ep, losses);
  });
  IterationResult res;
  double sum = 0.0;
  for (double l : losses) {
    sum += l;
  }
  res.mean_loss =
      static_cast<float>(sum / static_cast<double>(num_microbatches));
  res.wall_seconds = sw.seconds();
  res.wire_bytes = fabric.total_bytes();
  res.wire_messages = fabric.total_messages();
  return res;
}

// ---- timed backend ----------------------------------------------------------

void TimedBackend::compute(const sched::ComputeOp& op) {
  obs::SpanScope span(sched::to_span_kind(op.kind), op.microbatch, op.chunk);
  busy_wait(op.seconds);
  act_bytes_ += op.mem_delta;
  if (span.armed()) {
    span.set_bytes(static_cast<std::int64_t>(op.mem_delta));
    span.set_act_bytes_after(act_bytes_);
  }
}

Payload TimedBackend::outgoing(const sched::SendOp& op) {
  // At least one byte, so every message physically exists on the wire.
  const auto bytes = static_cast<std::size_t>(
      std::max<long long>(1, std::llround(std::max(0.0, op.bytes))));
  return {.wire = comm::Buffer::adopt(std::vector<std::uint8_t>(bytes, 0xCD))};
}

// ---- real math ----------------------------------------------------------------

namespace {

// The compute copy of fp32 master weights at `precision` (identity in fp32
// mode), charged to the ledger as weights.
template <typename Held>
void hold_quantized(Held& held, std::span<const float> master,
                    WirePrecision precision) {
  held.values.resize(master.size());
  for (std::size_t i = 0; i < master.size(); ++i) {
    held.values[i] = quantize(master[i], precision);
  }
  held.charge.set(obs::MemKind::kWeights,
                  4 * static_cast<std::int64_t>(held.values.size()));
}

// Unpacks `payload` into `into`, or adds it there element-wise.
void land(std::span<float> into, const comm::Buffer& payload,
          WirePrecision precision, bool accumulate) {
  std::vector<float> in(accumulate ? into.size() : 0);
  comm::unpack_floats(payload.span(), precision, accumulate ? in : into);
  for (std::size_t i = 0; i < in.size(); ++i) {
    into[i] += in[i];
  }
}

}  // namespace

RealMath::RealMath(const Model& model, const std::vector<ChunkSpec>& chunks,
                   const TrainConfig& cfg, const Dataset& data,
                   std::int64_t iter_index, std::vector<double>& losses,
                   const Owned& owned)
    : model_(model),
      chunks_(chunks),
      cfg_(cfg),
      data_(data),
      iter_index_(iter_index),
      losses_(losses),
      owned_(owned) {
  WEIPIPE_CHECK(owned_.shard != nullptr);
  if (owned_.vocab != nullptr) {
    hold_quantized(vocab_w_, owned_.vocab->params, cfg_.precision.weights);
    vocab_g_.values.assign(vocab_w_.values.size(), 0.0f);
    vocab_g_.charge.set(obs::MemKind::kWeightGrads,
                        4 * static_cast<std::int64_t>(vocab_g_.values.size()));
  }
}

RealMath::InFlight& RealMath::state(std::int64_t m) {
  auto [it, fresh] = inflight_.try_emplace(m);
  if (fresh) {
    it->second.mb = data_.make(iter_index_ * cfg_.num_microbatches + m,
                               cfg_.microbatch_size, cfg_.seq_len);
    it->second.ctxs.resize(chunks_.size());
  }
  return it->second;
}

std::map<std::int64_t, RealMath::InFlight>::iterator RealMath::find(
    std::int64_t m) {
  auto it = inflight_.find(m);
  WEIPIPE_CHECK_MSG(it != inflight_.end(),
                    "missing in-flight state for microbatch " << m);
  return it;
}

const ChunkSpec& RealMath::chunk(std::int64_t c, const Held& held) const {
  const ChunkSpec& spec = chunks_.at(static_cast<std::size_t>(c));
  WEIPIPE_CHECK_MSG(
      static_cast<std::int64_t>(held.values.size()) == spec.param_count,
      "chunk " << c << " needs " << spec.param_count
               << " weights, the held flow has " << held.values.size());
  return spec;
}

RealMath::Held& RealMath::weights(sched::MsgKind kind, std::int64_t c) {
  Held& h = kind == sched::MsgKind::kWeightB ? (b_ ? *b_ : b_.emplace()) : f_;
  if (h.values.empty()) {
    WEIPIPE_CHECK_MSG(c == owned_.chunk,
                      "chunk " << c << " was never received and this rank "
                               << "owns chunk " << owned_.chunk);
    hold_quantized(h, owned_.shard->params, cfg_.precision.weights);
  }
  return h;
}

RealMath::Held& RealMath::grads(std::int64_t c) {
  if (d_.values.empty()) {
    const std::int64_t n = chunks_.at(static_cast<std::size_t>(c)).param_count;
    d_.values.assign(static_cast<std::size_t>(n), 0.0f);
    d_.charge.set(obs::MemKind::kWeightGrads, 4 * n);
  }
  return d_;
}

double RealMath::local_sq_norm() const {
  double sq = grad_sq_norm(d_.values);
  if (owned_.counts_vocab_norm) {
    sq += static_cast<double>(owned_.replicas) *
          grad_sq_norm(vocab_g_.values);
  }
  return sq;
}

void RealMath::compute(const sched::ComputeOp& op) {
  switch (op.kind) {
    case sched::ComputeKind::kForward:
      forward(op);
      return;
    case sched::ComputeKind::kBackward:
      backward(op);
      return;
    case sched::ComputeKind::kOptimizer:
      update(op);
      return;
    default:
      WEIPIPE_CHECK_MSG(false, "no real-math executor for "
                                   << sched::to_string(op.kind)
                                   << " ops (nn has no B/W backward split)");
  }
}

void RealMath::forward(const sched::ComputeOp& op) {
  obs::MemScope act_scope(obs::MemKind::kActivations);
  const std::int64_t mb = op.microbatch;
  const bool last = op.chunk == static_cast<std::int64_t>(chunks_.size()) - 1;
  const bool vocab = owned_.vocab != nullptr;
  const std::span<const float> vocab_w = vocab_w_.values;
  const std::int64_t emb_n = model_.block_param_count(0);
  const std::int64_t head_n =
      model_.block_param_count(model_.num_blocks() - 1);
  InFlight& st = state(mb);
  {
    obs::SpanScope span(obs::SpanKind::kForward, mb, op.chunk);
    const Held& f = weights(sched::MsgKind::kWeightF, op.chunk);
    const ChunkSpec& spec = chunk(op.chunk, f);
    if (op.chunk == 0 && vocab) {
      st.act = model_.block(0).forward(vocab_w.first(emb_n), st.mb, Tensor(),
                                       st.emb_ctx, !cfg_.model.recompute);
    }
    auto& ctxs = st.ctxs[static_cast<std::size_t>(op.chunk)];
    ctxs.clear();
    std::int64_t off = 0;
    for (std::int64_t blk = spec.begin; blk < spec.end; ++blk) {
      const std::int64_t n = model_.block_param_count(blk);
      ctxs.emplace_back();
      st.act = model_.block(blk).forward(
          std::span<const float>(f.values).subspan(off, n), st.mb, st.act,
          ctxs.back(), !cfg_.model.recompute);
      off += n;
    }
    if (last && vocab) {
      st.act = model_.block(model_.num_blocks() - 1)
                   .forward(vocab_w.subspan(emb_n, head_n), st.mb, st.act,
                            st.head_ctx, !cfg_.model.recompute);
    }
    if (span.armed()) {
      const std::int64_t delta = ctx_bytes(ctxs);
      act_resident_bytes_ += delta;
      span.set_bytes(delta);
      span.set_act_bytes_after(static_cast<double>(act_resident_bytes_));
    }
  }
  if (last) {
    // End of the model: loss -> backward seed (scaled for the N-mean).
    obs::SpanScope loss_span(obs::SpanKind::kLoss, mb, op.chunk);
    LossResult lr = cross_entropy_loss(st.act, st.mb);
    losses_[static_cast<std::size_t>(mb)] = lr.loss;
    lr.dlogits.scale_(1.0f / static_cast<float>(cfg_.num_microbatches));
    st.grad = std::move(lr.dlogits);
    st.act = Tensor();
  }
}

void RealMath::backward(const sched::ComputeOp& op) {
  obs::MemScope act_scope(obs::MemKind::kActivations);
  auto it = find(op.microbatch);
  InFlight& st = it->second;
  const Held& w = b_ ? *b_ : f_;
  Held& d = grads(op.chunk);
  const bool vocab = owned_.vocab != nullptr;
  const std::span<const float> vocab_w = vocab_w_.values;
  const std::span<float> vocab_g = vocab_g_.values;
  const std::int64_t emb_n = model_.block_param_count(0);
  const std::int64_t head_n =
      model_.block_param_count(model_.num_blocks() - 1);
  obs::SpanScope span(obs::SpanKind::kBackward, op.microbatch, op.chunk);
  const ChunkSpec& spec = chunk(op.chunk, w);
  WEIPIPE_CHECK(d.values.size() == w.values.size());
  if (vocab && op.chunk == static_cast<std::int64_t>(chunks_.size()) - 1) {
    st.grad = model_.block(model_.num_blocks() - 1)
                  .backward(vocab_w.subspan(emb_n, head_n), st.mb,
                            st.head_ctx, st.grad,
                            vocab_g.subspan(emb_n, head_n));
    st.head_ctx = BlockCtx();
  }
  auto& ctxs = st.ctxs[static_cast<std::size_t>(op.chunk)];
  WEIPIPE_CHECK(static_cast<std::int64_t>(ctxs.size()) ==
                spec.end - spec.begin);
  for (std::int64_t blk = spec.end - 1; blk >= spec.begin; --blk) {
    const std::int64_t off = model_.block_offset_in_chunk(spec, blk);
    const std::int64_t n = model_.block_param_count(blk);
    st.grad = model_.block(blk).backward(
        std::span<const float>(w.values).subspan(off, n), st.mb,
        ctxs[static_cast<std::size_t>(blk - spec.begin)], st.grad,
        std::span<float>(d.values).subspan(off, n));
  }
  if (span.armed()) {
    const std::int64_t freed = ctx_bytes(ctxs);
    act_resident_bytes_ -= freed;
    span.set_bytes(-freed);
    span.set_act_bytes_after(static_cast<double>(act_resident_bytes_));
  }
  ctxs.clear();  // this chunk's activations are spent
  if (op.chunk == 0) {
    if (vocab) {
      (void)model_.block(0).backward(vocab_w.first(emb_n), st.mb, st.emb_ctx,
                                     st.grad, vocab_g.first(emb_n));
    }
    inflight_.erase(it);  // microbatch fully processed
  }
}

void RealMath::update(const sched::ComputeOp& op) {
  WEIPIPE_CHECK_MSG(inflight_.empty(),
                    inflight_.size() << " microbatch(es) unfinished");
  WEIPIPE_CHECK(op.chunk < 0 || op.chunk == owned_.chunk);
  Shard& own = *owned_.shard;
  WEIPIPE_CHECK(own.params.size() == d_.values.size());
  if (cfg_.clip.enabled()) {
    const double total_sq = (norm_ ? *norm_ : local_sq_norm()) /
                            static_cast<double>(owned_.replicas);
    const float scale = clip_scale(cfg_.clip, total_sq);
    if (scale != 1.0f) {
      for (float& v : d_.values) {
        v *= scale;
      }
      for (float& v : vocab_g_.values) {
        v *= scale;
      }
    }
  }
  obs::SpanScope opt_span(obs::SpanKind::kOptimizer, -1, owned_.chunk);
  const AdamConfig adam = cfg_.adam_for_iteration(iter_index_);
  own.adam.step(own.params, d_.values, adam);
  if (owned_.steps_vocab) {
    owned_.vocab->adam.step(owned_.vocab->params, vocab_g_.values, adam);
  }
}

Payload RealMath::outgoing(const sched::SendOp& op) {
  const PrecisionConfig& pc = cfg_.precision;
  switch (op.kind) {
    case sched::MsgKind::kWeightF:
    case sched::MsgKind::kWeightB: {
      if (op.master) {
        WEIPIPE_CHECK(op.chunk == owned_.chunk);
        if (!master_wire_) {
          master_wire_ =
              comm::pack_floats_to_buffer(owned_.shard->params, pc.weights);
        }
        return {.wire = master_wire_};
      }
      Held& h = weights(op.kind, op.chunk);
      if (!h.wire) {
        h.wire = comm::pack_floats_to_buffer(h.values, pc.weights);
      }
      return {.wire = std::move(h.wire)};
    }
    case sched::MsgKind::kGradD:
      // D leaves after backward added this rank's contribution.
      return {.values = grads(op.chunk).values,
              .precision = pc.weight_grads};
    case sched::MsgKind::kVocabGrad:
      return {.values = vocab_g_.values, .precision = pc.weight_grads};
    case sched::MsgKind::kNorm: {
      if (!norm_) {
        norm_ = local_sq_norm();
      }
      std::vector<std::uint8_t> raw(sizeof(double));
      std::memcpy(raw.data(), &*norm_, sizeof(double));
      return {.wire = comm::Buffer::adopt(std::move(raw))};
    }
    case sched::MsgKind::kActivation: {
      Payload out{.precision = pc.activations,
                  .owned = std::move(find(op.microbatch)->second.act)};
      out.values = out.owned.span();
      return out;
    }
    case sched::MsgKind::kActGrad: {
      auto it = find(op.microbatch);
      Payload out{.precision = pc.activation_grads,
                  .owned = std::move(it->second.grad)};
      out.values = out.owned.span();
      inflight_.erase(it);  // the gradient was the stage's last use of it
      return out;
    }
    default:
      WEIPIPE_CHECK_MSG(false, "no real-math payload for "
                                   << sched::to_string(op.kind)
                                   << " messages");
      return {};
  }
}

Landing RealMath::landing(const sched::RecvOp& op) {
  const std::int64_t rows = cfg_.microbatch_size * cfg_.seq_len;
  obs::MemScope act_scope(obs::MemKind::kActivations);
  switch (op.kind) {
    case sched::MsgKind::kActivation: {
      Tensor& act = state(op.microbatch).act;
      act = Tensor({rows, cfg_.model.dim});
      return {act.span(), cfg_.precision.activations};
    }
    case sched::MsgKind::kActGrad: {
      Tensor& grad = find(op.microbatch)->second.grad;
      grad = Tensor({rows, cfg_.model.dim});
      return {grad.span(), cfg_.precision.activation_grads};
    }
    default:
      return {};
  }
}

void RealMath::incoming(const sched::RecvOp& op, comm::Buffer payload) {
  const WirePrecision wg = cfg_.precision.weight_grads;
  if (op.kind == sched::MsgKind::kNorm) {
    double v = 0.0;
    WEIPIPE_CHECK(payload.size() == sizeof(double));
    WEIPIPE_CHECK(!op.accumulate || !norm_);
    std::memcpy(&v, payload.data(), sizeof(double));
    norm_ = op.accumulate ? v + local_sq_norm() : v;
    return;
  }
  if (op.kind == sched::MsgKind::kVocabGrad || op.accumulate) {
    WEIPIPE_CHECK(op.kind == sched::MsgKind::kGradD ||
                  op.kind == sched::MsgKind::kVocabGrad);
    land(op.kind == sched::MsgKind::kGradD ? d_.values : vocab_g_.values,
         payload, wg, op.accumulate);
    return;
  }
  // A whole flow chunk overwrites the held one.
  const bool grads = op.kind == sched::MsgKind::kGradD;
  WEIPIPE_CHECK_MSG(grads || op.kind == sched::MsgKind::kWeightF ||
                        op.kind == sched::MsgKind::kWeightB,
                    "no real-math receiver for " << sched::to_string(op.kind)
                                                 << " messages");
  Held& h = grads ? d_
            : op.kind == sched::MsgKind::kWeightF ? f_
                                                  : (b_ ? *b_ : b_.emplace());
  const WirePrecision precision = grads ? wg : cfg_.precision.weights;
  // packed_size grows strictly with the element count, so exactly one
  // chunk size fits the payload.
  const auto fits = std::find_if(
      chunks_.begin(), chunks_.end(), [&](const ChunkSpec& c) {
        return comm::packed_size(static_cast<std::size_t>(c.param_count),
                                 precision) == payload.size();
      });
  WEIPIPE_CHECK_MSG(fits != chunks_.end(),
                    "no chunk packs to " << payload.size() << " bytes");
  h.values.resize(static_cast<std::size_t>(fits->param_count));
  h.charge.set(grads ? obs::MemKind::kWeightGrads : obs::MemKind::kWeights,
               4 * fits->param_count);
  comm::unpack_floats(payload.span(), precision, h.values);
  if (!grads) {
    h.wire = std::move(payload);  // relayed unchanged next turn
  }
}

}  // namespace weipipe::exec
