#include "core/weipipe_trainer.hpp"

#include "comm/collectives.hpp"
#include "core/execute.hpp"
#include "obs/recorder.hpp"
#include "sched/wire_tags.hpp"

namespace weipipe {

using namespace wire_tags;

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
  program_ = sched::build_weipipe(sched_, exec::unit_costs(p_),
                                  opts_.async_prefetch);
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
  return exec::run_step(
      *fabric_, iter_index, cfg_.num_microbatches,
      [&](int rank, comm::Endpoint& ep, std::vector<double>& losses) {
        worker_body(rank, ep, data, iter_index, losses);
      });
}

void WeiPipeTrainer::worker_body(int rank, comm::Endpoint& ep,
                                 const Dataset& data,
                                 std::int64_t iter_index,
                                 std::vector<double>& losses) {
  const std::int64_t d = rank / p_;  // data-parallel replica index
  const std::int64_t p = rank % p_;  // position within this replica's ring
  const std::int64_t base = d * p_;  // first rank of this replica
  const WirePrecision wp = cfg_.precision.weights;
  const WirePrecision dp = cfg_.precision.weight_grads;
  const std::int64_t n_local = cfg_.num_microbatches / dp_;
  exec::RealMath math(model_, chunks_, cfg_, data, iter_index, losses,
                      d * n_local);

  // replicate_vocab: per-worker compute copies of the embedding/head weights
  // and a local gradient accumulator (all-reduced once at iteration end).
  exec::RealMath::Held vocab_w;
  std::vector<float> vocab_g;
  obs::MemCharge vocab_g_charge;
  if (opts_.replicate_vocab) {
    exec::hold_quantized(vocab_w, vocab_shard(d).params, wp);
    vocab_g.assign(vocab_w.values.size(), 0.0f);
    vocab_g_charge.set(obs::MemKind::kWeightGrads,
                       4 * static_cast<std::int64_t>(vocab_g.size()));
    math.vocab_weights = vocab_w.values;
    math.vocab_grads = vocab_g;
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

  // Turn-0 flows: the held chunk from its owner (packed here, or received
  // from the redistribution above), and D starting at zero.
  const auto load_flow = [&](exec::RealMath::Held& h, std::int64_t c,
                             std::int64_t tag) {
    if (sched_.owner(c) == p) {
      exec::hold_quantized(h, chunk_shard(d, c).params, wp);
      h.wire = comm::pack_floats_to_buffer(h.values, wp);
      return;
    }
    const std::int64_t n = chunks_[static_cast<std::size_t>(c)].param_count;
    h.wire = ep.recv_buffer(static_cast<int>(base + sched_.owner(c)), tag);
    h.values.resize(static_cast<std::size_t>(n));
    h.charge.set(obs::MemKind::kWeights, 4 * n);
    comm::unpack_floats(h.wire.span(), wp, h.values);
  };
  const std::int64_t cb0 = sched_.b_chunk_at(p, 0);
  load_flow(math.f, sched_.f_chunk_at(p, 0), kTagRedistF);
  load_flow(math.b.emplace(), cb0, kTagRedistB);
  math.d.values.assign(static_cast<std::size_t>(
                           chunks_[static_cast<std::size_t>(cb0)].param_count),
                       0.0f);
  math.d.charge.set(obs::MemKind::kWeightGrads,
                    4 * static_cast<std::int64_t>(math.d.values.size()));

  // ---- Update: this worker now holds its replica's completed (W, D) pair
  // for the chunk it owns.
  math.update = [&](std::vector<float>& bd) {
    const std::int64_t c_own = sched_.b_chunk_at(p, sched_.total_turns());
    WEIPIPE_CHECK(sched_.owner(c_own) == p);

    // Hybrid data parallelism: chain-reduce this chunk's gradient across
    // the DP group (ranks {e*P + p}), in replica order, then broadcast back
    // so every replica's owner applies the identical update.
    if (dp_ > 1) {
      std::vector<float> incoming(bd.size());
      if (d > 0) {
        ep.recv_floats(static_cast<int>((d - 1) * p_ + p), kTagDpReduce,
                       std::span<float>(incoming.data(), incoming.size()),
                       dp);
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
    // whole world (their contributions span every microbatch), rank order
    // for determinism, then broadcast back.
    if (opts_.replicate_vocab) {
      const int world = static_cast<int>(p_ * dp_);
      std::vector<float> incoming(vocab_g.size());
      if (rank > 0) {
        ep.recv_floats(rank - 1, kTagVocabUp,
                       std::span<float>(incoming.data(), incoming.size()),
                       dp);
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
        // Count the (world-replicated) vocab gradient exactly once: the
        // world sum below is divided by dp, so pre-multiply by dp here.
        local_sq += static_cast<double>(dp_) *
                    grad_sq_norm(std::span<const float>(vocab_g.data(),
                                                        vocab_g.size()));
      }
      // The scalar all-reduce spans the whole world; after the DP reduction
      // every replica holds identical chunk gradients, so divide the
      // counted total by dp to get the true global norm.
      const double total_sq = comm::ring_all_reduce_scalar(ep, local_sq) /
                              static_cast<double>(dp_);
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
  };

  // ---- The turns: the analyzed program, interpreted. ----------------------
  exec::execute(program_, static_cast<int>(p), ep, math,
                static_cast<int>(base));
}

}  // namespace weipipe
