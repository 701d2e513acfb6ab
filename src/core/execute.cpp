#include "core/execute.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
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
             Backend& backend, int peer_base) {
  for (const sched::Op& op :
       program.rank_ops[static_cast<std::size_t>(rank)]) {
    if (const auto* c = std::get_if<sched::ComputeOp>(&op)) {
      backend.compute(*c);
    } else if (const auto* s = std::get_if<sched::SendOp>(&op)) {
      Payload out = backend.outgoing(*s);
      if (out.wire) {
        ep.send(peer_base + s->dst, s->tag, std::move(out.wire));
      } else {
        ep.send_floats(peer_base + s->dst, s->tag, out.values,
                       out.precision);
      }
    } else if (const auto* r = std::get_if<sched::RecvOp>(&op)) {
      const Landing in = backend.landing(*r);
      if (!in.values.empty()) {
        ep.recv_floats(peer_base + r->src, r->tag, in.values, in.precision);
      } else {
        backend.incoming(*r, ep.recv_buffer(peer_base + r->src, r->tag));
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

void hold_quantized(RealMath::Held& held, std::span<const float> master,
                    WirePrecision precision) {
  held.values.resize(master.size());
  for (std::size_t i = 0; i < master.size(); ++i) {
    held.values[i] = quantize(master[i], precision);
  }
  held.charge.set(obs::MemKind::kWeights,
                  4 * static_cast<std::int64_t>(held.values.size()));
}

RealMath::RealMath(const Model& model, const std::vector<ChunkSpec>& chunks,
                   const TrainConfig& cfg, const Dataset& data,
                   std::int64_t iter_index, std::vector<double>& losses,
                   std::int64_t mb_offset)
    : model_(model),
      chunks_(chunks),
      cfg_(cfg),
      data_(data),
      iter_index_(iter_index),
      losses_(losses),
      mb_offset_(mb_offset) {}

RealMath::InFlight& RealMath::state(std::int64_t m) {
  auto [it, fresh] = inflight_.try_emplace(m);
  if (fresh) {
    it->second.mb = data_.make(
        iter_index_ * cfg_.num_microbatches + mb_offset_ + m,
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

void RealMath::compute(const sched::ComputeOp& op) {
  switch (op.kind) {
    case sched::ComputeKind::kForward:
      forward(op);
      return;
    case sched::ComputeKind::kBackward:
      backward(op);
      return;
    case sched::ComputeKind::kOptimizer:
      WEIPIPE_CHECK_MSG(inflight_.empty(),
                        inflight_.size() << " microbatch(es) unfinished");
      update(d.values);
      return;
    default:
      WEIPIPE_CHECK_MSG(false, "no real-math executor for "
                                   << sched::to_string(op.kind)
                                   << " ops (nn has no B/W backward split)");
  }
}

void RealMath::forward(const sched::ComputeOp& op) {
  obs::MemScope act_scope(obs::MemKind::kActivations);
  const std::int64_t mb = mb_offset_ + op.microbatch;
  const bool last = op.chunk == static_cast<std::int64_t>(chunks_.size()) - 1;
  const bool vocab = !vocab_weights.empty();
  const std::int64_t emb_n = model_.block_param_count(0);
  const std::int64_t head_n =
      model_.block_param_count(model_.num_blocks() - 1);
  InFlight& st = state(op.microbatch);
  {
    obs::SpanScope span(obs::SpanKind::kForward, mb, op.chunk);
    const ChunkSpec& spec = chunk(op.chunk, f);
    if (op.chunk == 0 && vocab) {
      st.act = model_.block(0).forward(vocab_weights.first(emb_n), st.mb,
                                       Tensor(), st.emb_ctx,
                                       !cfg_.model.recompute);
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
                   .forward(vocab_weights.subspan(emb_n, head_n), st.mb,
                            st.act, st.head_ctx, !cfg_.model.recompute);
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
  Held& w = b ? *b : f;
  const bool vocab = !vocab_weights.empty();
  const std::int64_t emb_n = model_.block_param_count(0);
  const std::int64_t head_n =
      model_.block_param_count(model_.num_blocks() - 1);
  obs::SpanScope span(obs::SpanKind::kBackward, mb_offset_ + op.microbatch,
                      op.chunk);
  const ChunkSpec& spec = chunk(op.chunk, w);
  WEIPIPE_CHECK(d.values.size() == w.values.size());
  if (vocab && op.chunk == static_cast<std::int64_t>(chunks_.size()) - 1) {
    st.grad = model_.block(model_.num_blocks() - 1)
                  .backward(vocab_weights.subspan(emb_n, head_n), st.mb,
                            st.head_ctx, st.grad,
                            vocab_grads.subspan(emb_n, head_n));
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
      (void)model_.block(0).backward(vocab_weights.first(emb_n), st.mb,
                                     st.emb_ctx, st.grad,
                                     vocab_grads.first(emb_n));
    }
    inflight_.erase(it);  // microbatch fully processed
  }
}

Payload RealMath::outgoing(const sched::SendOp& op) {
  const PrecisionConfig& pc = cfg_.precision;
  switch (op.kind) {
    case sched::MsgKind::kWeightF:
    case sched::MsgKind::kWeightB: {
      Held& h = op.kind == sched::MsgKind::kWeightF ? f : b.value();
      WEIPIPE_CHECK_MSG(h.wire, "no wire buffer held for a weight relay");
      return {.wire = std::move(h.wire)};
    }
    case sched::MsgKind::kGradD:
      // D leaves after backward added this rank's contribution.
      return {.values = d.values, .precision = pc.weight_grads};
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
  const bool grads = op.kind == sched::MsgKind::kGradD;
  WEIPIPE_CHECK_MSG(grads || op.kind == sched::MsgKind::kWeightF ||
                        op.kind == sched::MsgKind::kWeightB,
                    "no real-math receiver for " << sched::to_string(op.kind)
                                                 << " messages");
  Held& h = grads ? d : op.kind == sched::MsgKind::kWeightF ? f : b.value();
  const WirePrecision precision =
      grads ? cfg_.precision.weight_grads : cfg_.precision.weights;
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
  h.charge.resize(4 * fits->param_count);
  comm::unpack_floats(payload.span(), precision, h.values);
  if (!grads) {
    h.wire = std::move(payload);  // relayed unchanged next turn
  }
}

}  // namespace weipipe::exec
