#include "core/weipipe_trainer.hpp"

#include <map>

#include "comm/collectives.hpp"
#include "common/stopwatch.hpp"
#include "core/wire_tags.hpp"
#include "nn/loss.hpp"
#include "obs/health.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"

namespace weipipe {

// Flow message tags live in core/wire_tags.hpp (FIFO per (src,tag) gives
// turn ordering for free).
using namespace wire_tags;

namespace {
// Per-in-flight-microbatch state local to one worker.
struct InFlight {
  Microbatch mb;
  // ctxs[chunk] holds one BlockCtx per block of that chunk.
  std::vector<std::vector<BlockCtx>> ctxs;
  Tensor act;   // forward cursor (output of the last computed chunk)
  Tensor grad;  // backward cursor (gradient w.r.t. next chunk's output)
  BlockCtx emb_ctx;   // replicate_vocab: local embedding forward state
  BlockCtx head_ctx;  // replicate_vocab: local head forward state
  float loss = 0.0f;
};
}  // namespace

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

Shard& WeiPipeTrainer::chunk_shard(std::int64_t replica, std::int64_t c) {
  return state_.shard(static_cast<std::size_t>(replica * p_ + c));
}

Shard& WeiPipeTrainer::vocab_shard(std::int64_t replica) {
  return state_.shard(static_cast<std::size_t>(dp_ * p_ + replica));
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
  Stopwatch sw;
  // Whole-iteration span; recorded on the driving thread's track.
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
    worker_body(rank, ep, data, iter_index, losses);
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

void WeiPipeTrainer::worker_body(int rank, comm::Endpoint& ep,
                                 const Dataset& data,
                                 std::int64_t iter_index,
                                 std::vector<double>& losses) {
  const std::int64_t d = rank / p_;  // data-parallel replica index
  const std::int64_t p = rank % p_;  // position within this replica's ring
  const std::int64_t base = d * p_;  // first rank of this replica
  const int next = static_cast<int>(base + (p + 1) % p_);
  const int prev = static_cast<int>(base + (p + p_ - 1) % p_);
  const WirePrecision wp = cfg_.precision.weights;
  const WirePrecision dp = cfg_.precision.weight_grads;
  const std::int64_t n_total = cfg_.num_microbatches;
  const std::int64_t n_local = n_total / dp_;  // microbatches per replica
  const std::int64_t turns = sched_.total_turns();

  auto chunk_size = [&](std::int64_t c) {
    return static_cast<std::size_t>(
        chunks_[static_cast<std::size_t>(c)].param_count);
  };

  // Resident bytes of saved circulated-chunk activations (BlockCtx state) on
  // this worker; maintained only while tracing, feeds act_bytes_after on
  // compute spans so measured peaks can be checked against the static
  // analyzer's bound. Vocab-replica ctxs and flow cursors are excluded: they
  // are O(1) per worker and not part of the schedule's memory algebra.
  std::int64_t act_resident_bytes = 0;

  // replicate_vocab: per-worker compute copies of the embedding/head weights
  // and a local gradient accumulator (all-reduced once at iteration end).
  const std::int64_t emb_n = model_.block_param_count(0);
  const std::int64_t head_n = model_.block_param_count(model_.num_blocks() - 1);
  std::vector<float> vocab_w;
  std::vector<float> vocab_g;
  obs::MemCharge vocab_w_charge;
  obs::MemCharge vocab_g_charge;
  if (opts_.replicate_vocab) {
    const std::vector<float>& vm = vocab_shard(d).params;
    vocab_w.resize(vm.size());
    for (std::size_t i = 0; i < vm.size(); ++i) {
      vocab_w[i] = quantize(vm[i], wp);
    }
    vocab_g.assign(vm.size(), 0.0f);
    vocab_w_charge.set(obs::MemKind::kWeights,
                       4 * static_cast<std::int64_t>(vocab_w.size()));
    vocab_g_charge.set(obs::MemKind::kWeightGrads,
                       4 * static_cast<std::int64_t>(vocab_g.size()));
  }

  // ---- Redistribution: owners inject current weights into both flows. -----
  // (Owner-held masters are authoritative; everyone else's copy is stale.)
  for (std::int64_t c = 0; c < p_; ++c) {
    if (sched_.owner(c) != p) {
      continue;
    }
    const std::vector<float>& m = chunk_shard(d, c).params;
    const auto targets_and_tags = {
        std::pair<std::int64_t, std::int64_t>{sched_.f_start_holder(c),
                                              kTagRedistF},
        std::pair<std::int64_t, std::int64_t>{sched_.b_start_holder(c),
                                              kTagRedistB}};
    comm::Buffer wire;  // packed lazily, once; both flow injections share it
    for (const auto& [holder, tag] : targets_and_tags) {
      if (holder == p) {
        continue;  // handled locally below
      }
      if (!wire) {
        wire = comm::pack_floats_to_buffer(
            std::span<const float>(m.data(), m.size()), wp);
      }
      ep.send(static_cast<int>(base + holder), tag, wire);
    }
  }

  // Current flow buffers (fp32 working copies of wire values).
  const std::int64_t cf0 = sched_.f_chunk_at(p, 0);
  const std::int64_t cb0 = sched_.b_chunk_at(p, 0);
  std::vector<float> fw(chunk_size(cf0));
  std::vector<float> bw(chunk_size(cb0));
  std::vector<float> bd(chunk_size(cb0), 0.0f);  // D starts at zero
  obs::MemCharge fw_charge(obs::MemKind::kWeights,
                           4 * static_cast<std::int64_t>(fw.size()));
  obs::MemCharge bw_charge(obs::MemKind::kWeights,
                           4 * static_cast<std::int64_t>(bw.size()));
  obs::MemCharge bd_charge(obs::MemKind::kWeightGrads,
                           4 * static_cast<std::int64_t>(bd.size()));

  auto fill_from_master_quantized = [&](std::vector<float>& dst,
                                        std::int64_t c) {
    const std::vector<float>& m = chunk_shard(d, c).params;
    dst.resize(m.size());
    for (std::size_t i = 0; i < m.size(); ++i) {
      dst[i] = quantize(m[i], wp);
    }
  };

  // Wire-format handles for the W and BW flows. Because unpack-then-repack
  // is bit-identical for the flow precisions (fp32/fp16/bf16 idempotence,
  // see test_wire), a rank relays the *received* buffer to its neighbor
  // unchanged: the owner's single pack serves the whole ring pass, and each
  // hop moves a refcounted handle instead of re-encoding the chunk.
  comm::Buffer fw_wire;
  comm::Buffer bw_wire;
  if (sched_.owner(cf0) == p) {
    fill_from_master_quantized(fw, cf0);
    fw_wire = comm::pack_floats_to_buffer(
        std::span<const float>(fw.data(), fw.size()), wp);
  } else {
    fw_wire = ep.recv_buffer(static_cast<int>(base + sched_.owner(cf0)),
                             kTagRedistF);
    comm::unpack_floats(fw_wire.span(), wp,
                        std::span<float>(fw.data(), fw.size()));
  }
  if (sched_.owner(cb0) == p) {
    fill_from_master_quantized(bw, cb0);
    bw_wire = comm::pack_floats_to_buffer(
        std::span<const float>(bw.data(), bw.size()), wp);
  } else {
    bw_wire = ep.recv_buffer(static_cast<int>(base + sched_.owner(cb0)),
                             kTagRedistB);
    comm::unpack_floats(bw_wire.span(), wp,
                        std::span<float>(bw.data(), bw.size()));
  }

  // ---- Turn loop -----------------------------------------------------------
  std::map<std::int64_t, InFlight> inflight;  // keyed by round

  for (std::int64_t t = 0; t < turns; ++t) {
    const TurnActions acts = sched_.actions(p, t);
    const std::int64_t cf = sched_.f_chunk_at(p, t);
    const std::int64_t cb = sched_.b_chunk_at(p, t);

    // Weight chunks are read-only for this turn's compute: with prefetch on,
    // ship them to the neighbor before computing so the transfer overlaps.
    if (opts_.async_prefetch) {
      // Relay the wire buffers: zero-copy handle moves, no re-pack.
      ep.send(next, kTagF, std::move(fw_wire));
      ep.send(next, kTagBW, std::move(bw_wire));
    }

    // Post receives for the next turn's chunks up front.
    comm::Buffer in_f;
    comm::Buffer in_bw;
    comm::Buffer in_bd;
    comm::Request rq_f;
    comm::Request rq_bw;
    comm::Request rq_bd;
    const bool receiving = t + 1 <= turns;  // final state counts as turn T
    if (receiving && opts_.async_prefetch) {
      rq_f = ep.irecv_buffer(prev, kTagF, &in_f);
      rq_bw = ep.irecv_buffer(prev, kTagBW, &in_bw);
      rq_bd = ep.irecv_buffer(prev, kTagBD, &in_bd);
    }

    // -- forward compute (new microbatch, chunk cf) --
    if (acts.fwd) {
      obs::MemScope act_scope(obs::MemKind::kActivations);
      WEIPIPE_CHECK(acts.fwd->chunk == cf);
      const std::int64_t round = acts.fwd->round;
      const std::int64_t mb_id = d * n_local + round * p_ + p;
      obs::SpanScope fwd_span(obs::SpanKind::kForward, mb_id, cf);
      InFlight* st = nullptr;
      if (cf == 0) {
        InFlight fresh;
        fresh.mb = data.make(
            iter_index * n_total + d * n_local + round * p_ + p,
            cfg_.microbatch_size, cfg_.seq_len);
        fresh.ctxs.resize(static_cast<std::size_t>(p_));
        st = &inflight.emplace(round, std::move(fresh)).first->second;
        if (opts_.replicate_vocab) {
          // Local embedding lookup feeds the first circulated chunk.
          st->act = model_.block(0).forward(
              std::span<const float>(vocab_w.data(),
                                     static_cast<std::size_t>(emb_n)),
              st->mb, Tensor(), st->emb_ctx, !cfg_.model.recompute);
        }
      } else {
        auto it = inflight.find(round);
        WEIPIPE_CHECK_MSG(it != inflight.end(),
                          "missing in-flight state for round " << round);
        st = &it->second;
      }
      const ChunkSpec& spec = chunks_[static_cast<std::size_t>(cf)];
      auto& ctxs = st->ctxs[static_cast<std::size_t>(cf)];
      ctxs.clear();
      std::int64_t off = 0;
      for (std::int64_t b = spec.begin; b < spec.end; ++b) {
        const std::int64_t nparams = model_.block_param_count(b);
        ctxs.emplace_back();
        st->act = model_.block(b).forward(
            std::span<const float>(fw.data() + off,
                                   static_cast<std::size_t>(nparams)),
            st->mb, st->act, ctxs.back(), !cfg_.model.recompute);
        off += nparams;
      }
      if (cf == p_ - 1) {
        if (opts_.replicate_vocab) {
          // Local head projection completes the model.
          st->act = model_.block(model_.num_blocks() - 1)
                        .forward(std::span<const float>(
                                     vocab_w.data() + emb_n,
                                     static_cast<std::size_t>(head_n)),
                                 st->mb, st->act, st->head_ctx,
                                 !cfg_.model.recompute);
        }
        // End of the model: loss -> backward seed (scaled for the N-mean).
        obs::SpanScope loss_span(obs::SpanKind::kLoss, mb_id, cf);
        LossResult lr = cross_entropy_loss(st->act, st->mb);
        st->loss = lr.loss;
        losses[static_cast<std::size_t>(d * n_local + round * p_ + p)] =
            lr.loss;
        lr.dlogits.scale_(1.0f / static_cast<float>(n_total));
        st->grad = std::move(lr.dlogits);
        st->act = Tensor();
      }
      if (fwd_span.armed()) {
        std::int64_t delta = 0;
        for (const BlockCtx& ctx : st->ctxs[static_cast<std::size_t>(cf)]) {
          delta += ctx.bytes();
        }
        act_resident_bytes += delta;
        fwd_span.set_bytes(delta);
        fwd_span.set_act_bytes_after(
            static_cast<double>(act_resident_bytes));
      }
    }

    // -- backward compute (old microbatch, chunk cb); accumulates into bd --
    if (acts.bwd) {
      obs::MemScope act_scope(obs::MemKind::kActivations);
      WEIPIPE_CHECK(acts.bwd->chunk == cb);
      auto it = inflight.find(acts.bwd->round);
      WEIPIPE_CHECK_MSG(it != inflight.end(),
                        "missing in-flight state for backward round "
                            << acts.bwd->round);
      obs::SpanScope bwd_span(obs::SpanKind::kBackward,
                              d * n_local + acts.bwd->round * p_ + p, cb);
      InFlight& st = it->second;
      if (opts_.replicate_vocab && cb == p_ - 1) {
        st.grad = model_.block(model_.num_blocks() - 1)
                      .backward(std::span<const float>(
                                    vocab_w.data() + emb_n,
                                    static_cast<std::size_t>(head_n)),
                                st.mb, st.head_ctx, st.grad,
                                std::span<float>(
                                    vocab_g.data() + emb_n,
                                    static_cast<std::size_t>(head_n)));
        st.head_ctx = BlockCtx();
      }
      const ChunkSpec& spec = chunks_[static_cast<std::size_t>(cb)];
      auto& ctxs = st.ctxs[static_cast<std::size_t>(cb)];
      WEIPIPE_CHECK(static_cast<std::int64_t>(ctxs.size()) ==
                    spec.end - spec.begin);
      for (std::int64_t b = spec.end - 1; b >= spec.begin; --b) {
        const std::int64_t off = model_.block_offset_in_chunk(spec, b);
        const std::int64_t nparams = model_.block_param_count(b);
        st.grad = model_.block(b).backward(
            std::span<const float>(bw.data() + off,
                                   static_cast<std::size_t>(nparams)),
            st.mb, ctxs[static_cast<std::size_t>(b - spec.begin)], st.grad,
            std::span<float>(bd.data() + off,
                             static_cast<std::size_t>(nparams)));
      }
      if (bwd_span.armed()) {
        std::int64_t freed = 0;
        for (const BlockCtx& ctx : ctxs) {
          freed += ctx.bytes();
        }
        act_resident_bytes -= freed;
        bwd_span.set_bytes(-freed);
        bwd_span.set_act_bytes_after(
            static_cast<double>(act_resident_bytes));
      }
      ctxs.clear();  // activations for this chunk are spent
      if (cb == 0) {
        if (opts_.replicate_vocab) {
          (void)model_.block(0).backward(
              std::span<const float>(vocab_w.data(),
                                     static_cast<std::size_t>(emb_n)),
              st.mb, st.emb_ctx, st.grad,
              std::span<float>(vocab_g.data(),
                               static_cast<std::size_t>(emb_n)));
        }
        inflight.erase(it);  // microbatch fully processed
      }
    }

    // Without prefetch the weight sends happen only now (blocking ablation).
    if (!opts_.async_prefetch) {
      ep.send(next, kTagF, std::move(fw_wire));
      ep.send(next, kTagBW, std::move(bw_wire));
    }
    // D leaves after backward added this worker's contribution.
    ep.send_floats(next, kTagBD, std::span<const float>(bd.data(), bd.size()),
                   dp);

    // Advance flows to turn t+1 state.
    const std::int64_t cf_next = sched_.f_chunk_at(p, t + 1);
    const std::int64_t cb_next = sched_.b_chunk_at(p, t + 1);
    fw.resize(chunk_size(cf_next));
    bw.resize(chunk_size(cb_next));
    bd.resize(chunk_size(cb_next));
    fw_charge.resize(4 * static_cast<std::int64_t>(fw.size()));
    bw_charge.resize(4 * static_cast<std::int64_t>(bw.size()));
    bd_charge.resize(4 * static_cast<std::int64_t>(bd.size()));
    if (opts_.async_prefetch) {
      rq_f.wait();
      rq_bw.wait();
      rq_bd.wait();
      fw_wire = std::move(in_f);
      bw_wire = std::move(in_bw);
    } else {
      fw_wire = ep.recv_buffer(prev, kTagF);
      bw_wire = ep.recv_buffer(prev, kTagBW);
      in_bd = ep.recv_buffer(prev, kTagBD);
    }
    // Unpack into the fp32 working copies; the wire handles are kept so the
    // next turn's send relays the same bytes. D is consumed (accumulated
    // into fresh fp32 sums), so its wire buffer is dropped here.
    comm::unpack_floats(fw_wire.span(), wp,
                        std::span<float>(fw.data(), fw.size()));
    comm::unpack_floats(bw_wire.span(), wp,
                        std::span<float>(bw.data(), bw.size()));
    comm::unpack_floats(in_bd.span(), dp,
                        std::span<float>(bd.data(), bd.size()));
  }

  WEIPIPE_CHECK_MSG(inflight.empty(),
                    "worker " << p << " finished with unfinished microbatches");

  // ---- Update: this worker now holds its replica's completed (W, D) pair
  // for the chunk it owns.
  const std::int64_t c_own = sched_.b_chunk_at(p, turns);
  WEIPIPE_CHECK(sched_.owner(c_own) == p);

  // Hybrid data parallelism: chain-reduce this chunk's gradient across the
  // DP group (ranks {e*P + p}), in replica order, then broadcast back so
  // every replica's owner applies the identical update.
  if (dp_ > 1) {
    std::vector<float> incoming(bd.size());
    if (d > 0) {
      ep.recv_floats(static_cast<int>((d - 1) * p_ + p), kTagDpReduce,
                     std::span<float>(incoming.data(), incoming.size()), dp);
      for (std::size_t i = 0; i < bd.size(); ++i) {
        bd[i] += incoming[i];
      }
    }
    if (d < dp_ - 1) {
      ep.send_floats(static_cast<int>((d + 1) * p_ + p), kTagDpReduce,
                     std::span<const float>(bd.data(), bd.size()), dp);
      ep.recv_floats(static_cast<int>((d + 1) * p_ + p), kTagDpBcast,
                     std::span<float>(bd.data(), bd.size()), dp);
    }
    if (d > 0) {
      ep.send_floats(static_cast<int>((d - 1) * p_ + p), kTagDpBcast,
                     std::span<const float>(bd.data(), bd.size()), dp);
    }
  }

  // replicate_vocab: chain all-reduce the local vocab gradients across the
  // whole world (their contributions span every microbatch), rank order for
  // determinism, then broadcast back.
  if (opts_.replicate_vocab) {
    const int world = static_cast<int>(p_ * dp_);
    std::vector<float> incoming(vocab_g.size());
    if (rank > 0) {
      ep.recv_floats(rank - 1, kTagVocabUp,
                     std::span<float>(incoming.data(), incoming.size()), dp);
      for (std::size_t i = 0; i < vocab_g.size(); ++i) {
        vocab_g[i] += incoming[i];
      }
    }
    if (rank < world - 1) {
      ep.send_floats(rank + 1, kTagVocabUp,
                     std::span<const float>(vocab_g.data(), vocab_g.size()),
                     dp);
      ep.recv_floats(rank + 1, kTagVocabDown,
                     std::span<float>(vocab_g.data(), vocab_g.size()), dp);
    }
    if (rank > 0) {
      ep.send_floats(rank - 1, kTagVocabDown,
                     std::span<const float>(vocab_g.data(), vocab_g.size()),
                     dp);
    }
  }

  if (cfg_.clip.enabled()) {
    double local_sq =
        grad_sq_norm(std::span<const float>(bd.data(), bd.size()));
    if (opts_.replicate_vocab && rank == 0) {
      // Count the (world-replicated) vocab gradient exactly once: the world
      // sum below is divided by dp, so pre-multiply by dp here.
      local_sq += static_cast<double>(dp_) *
                  grad_sq_norm(std::span<const float>(vocab_g.data(),
                                                      vocab_g.size()));
    }
    // The scalar all-reduce spans the whole world; after the DP reduction
    // every replica holds identical chunk gradients, so divide the counted
    // total by dp to get the true global norm.
    const double total_sq =
        comm::ring_all_reduce_scalar(ep, local_sq) / static_cast<double>(dp_);
    const float scale = clip_scale(cfg_.clip, total_sq);
    if (scale != 1.0f) {
      for (float& v : bd) {
        v *= scale;
      }
      if (opts_.replicate_vocab) {
        for (float& v : vocab_g) {
          v *= scale;
        }
      }
    }
  }
  obs::SpanScope opt_span(obs::SpanKind::kOptimizer, -1, c_own);
  Shard& own = chunk_shard(d, c_own);
  WEIPIPE_CHECK(own.params.size() == bd.size());
  own.adam.step(own.params, bd, cfg_.adam_for_iteration(iter_index));
  if (opts_.replicate_vocab && p == 0) {
    // The replica's first worker applies the (identical) vocab update.
    Shard& vocab = vocab_shard(d);
    vocab.adam.step(vocab.params, vocab_g,
                    cfg_.adam_for_iteration(iter_index));
  }
}

}  // namespace weipipe
