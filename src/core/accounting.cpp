#include "core/accounting.hpp"

#include <algorithm>

#include "comm/collectives.hpp"
#include "comm/wire.hpp"
#include "common/check.hpp"
#include "sched/wire_tags.hpp"
#include "nn/model.hpp"
#include "sched/weipipe_schedule.hpp"

namespace weipipe::acct {

namespace {

// Strategies whose closed forms we can state (must match prof's trainer set).
bool known_strategy(const std::string& s) {
  return s == "sequential" || s == "weipipe" || s == "weipipe-naive" ||
         s == "1f1b" || s == "gpipe" || s == "fsdp";
}

void add(KindVolumes& v, sched::MsgKind kind, std::uint64_t bytes,
         std::uint64_t messages) {
  if (bytes == 0 && messages == 0) return;
  KindVolume& kv = v[kind];
  kv.bytes += bytes;
  kv.messages += messages;
}

std::uint64_t packed_w(const ChunkSpec& spec, const PrecisionConfig& prec) {
  return comm::packed_size(static_cast<std::size_t>(spec.param_count),
                           prec.weights);
}

std::uint64_t packed_g(const ChunkSpec& spec, const PrecisionConfig& prec) {
  return comm::packed_size(static_cast<std::size_t>(spec.param_count),
                           prec.weight_grads);
}

}  // namespace

// The programs' clip chain and FSDP's ring_all_reduce_scalar share tags.
static_assert(wire_tags::kTagClipUp == comm::kCollectiveTagBase + 6'000);

sched::MsgKind classify_tag(std::int64_t tag) {
  const sched::MsgKind kind = wire_tags::msg_kind(tag);
  if (kind != sched::MsgKind::kOpaque || tag < comm::kCollectiveTagBase) {
    return kind;
  }
  const std::int64_t offset = tag - comm::kCollectiveTagBase;
  // ring_broadcast (FSDP weight gather) and ring_reduce_to_root (FSDP
  // gradient reduce) default bases; see comm/collectives.hpp.
  if (offset >= 4'000 && offset < 5'000) return sched::MsgKind::kWeightF;
  if (offset >= 5'000 && offset < 6'000) return sched::MsgKind::kGradD;
  return sched::MsgKind::kOpaque;
}

KindVolumes measured_kind_volumes(const comm::Fabric& fabric) {
  KindVolumes out;
  for (const auto& [tag, stats] : fabric.tag_stats()) {
    add(out, classify_tag(tag), stats.bytes, stats.messages);
  }
  return out;
}

bool has_predicted_kind_volumes(const std::string& strategy,
                                const TrainConfig& cfg) {
  return known_strategy(strategy) && !cfg.clip.enabled();
}

KindVolumes predicted_kind_volumes(const std::string& strategy,
                                   const TrainConfig& cfg,
                                   std::int64_t workers) {
  WEIPIPE_CHECK_MSG(known_strategy(strategy),
                    "no closed-form volumes for strategy " << strategy);
  KindVolumes out;
  if (strategy == "sequential") {
    return out;  // no fabric
  }

  const std::int64_t p = workers;
  const std::int64_t n = cfg.num_microbatches;
  const Model model(cfg.model);
  const std::vector<ChunkSpec> chunks = model.make_chunks(p);

  std::uint64_t sum_w = 0;  // sum over chunks of packed weight bytes
  std::uint64_t sum_g = 0;  // ... packed weight-grad bytes
  for (const ChunkSpec& spec : chunks) {
    sum_w += packed_w(spec, cfg.precision);
    sum_g += packed_g(spec, cfg.precision);
  }

  if (strategy == "weipipe" || strategy == "weipipe-naive") {
    // Two weight flows + one gradient flow advance one hop per turn; at any
    // turn each chunk sits on exactly one worker, so each turn moves every
    // chunk once per flow. Redistribution re-seeds the flows from the
    // owners' masters when the start holder differs.
    const WeiPipeMode mode = strategy == "weipipe" ? WeiPipeMode::kInterleave
                                                   : WeiPipeMode::kNaive;
    const WeiPipeSchedule sched(p, n / p, mode);
    const auto turns = static_cast<std::uint64_t>(sched.total_turns());
    std::uint64_t redist_f_bytes = 0;
    std::uint64_t redist_f_msgs = 0;
    std::uint64_t redist_b_bytes = 0;
    std::uint64_t redist_b_msgs = 0;
    for (std::int64_t c = 0; c < p; ++c) {
      const ChunkSpec& spec = chunks[static_cast<std::size_t>(c)];
      if (sched.f_start_holder(c) != sched.owner(c)) {
        redist_f_bytes += packed_w(spec, cfg.precision);
        ++redist_f_msgs;
      }
      if (sched.b_start_holder(c) != sched.owner(c)) {
        redist_b_bytes += packed_w(spec, cfg.precision);
        ++redist_b_msgs;
      }
    }
    add(out, sched::MsgKind::kWeightF, turns * sum_w + redist_f_bytes,
        turns * static_cast<std::uint64_t>(p) + redist_f_msgs);
    add(out, sched::MsgKind::kWeightB, turns * sum_w + redist_b_bytes,
        turns * static_cast<std::uint64_t>(p) + redist_b_msgs);
    add(out, sched::MsgKind::kGradD, turns * sum_g,
        turns * static_cast<std::uint64_t>(p));
    return out;
  }

  if (strategy == "1f1b" || strategy == "gpipe") {
    // Each microbatch crosses every stage boundary once per direction; the
    // boundary tensor is [G*S, H] regardless of schedule, so GPipe and 1F1B
    // ship identical volume (they differ only in when).
    const auto boundary = static_cast<std::size_t>(
        cfg.microbatch_size * cfg.seq_len * cfg.model.dim);
    const auto crossings = static_cast<std::uint64_t>(n * (p - 1));
    add(out, sched::MsgKind::kActivation,
        crossings * comm::packed_size(boundary, cfg.precision.activations),
        crossings);
    add(out, sched::MsgKind::kActGrad,
        crossings *
            comm::packed_size(boundary, cfg.precision.activation_grads),
        crossings);
    return out;
  }

  // fsdp: ZeRO-3 gathers every chunk twice per local round (forward and
  // backward sweep), each gather a (P-1)-message ring broadcast; gradients
  // reduce to their owner once per chunk via a (P-1)-message chain.
  const auto local_rounds = static_cast<std::uint64_t>(n / p);
  const auto hops = static_cast<std::uint64_t>(p - 1);
  add(out, sched::MsgKind::kWeightF, 2 * local_rounds * hops * sum_w,
      2 * local_rounds * hops * static_cast<std::uint64_t>(p));
  add(out, sched::MsgKind::kGradD, hops * sum_g,
      hops * static_cast<std::uint64_t>(p));
  return out;
}

FootprintBounds static_footprint_bounds(const std::string& strategy,
                                        const TrainConfig& cfg,
                                        std::int64_t workers) {
  WEIPIPE_CHECK_MSG(known_strategy(strategy),
                    "no static footprint bounds for strategy " << strategy);
  const Model model(cfg.model);
  const std::int64_t total = model.total_param_count();
  constexpr std::int64_t kF32 = 4;
  FootprintBounds b;
  // Adam: first + second moment, fp32, over every parameter (all strategies
  // shard the optimizer, but the global sum is the full state either way).
  b.optimizer_bytes = 2 * kF32 * total;

  if (strategy == "sequential") {
    // fp32 master + one working compute copy, full-model gradient buffer.
    b.weights_bytes = 2 * kF32 * total;
    b.weight_grads_bytes = kF32 * total;
    return b;
  }

  const std::int64_t p = workers;
  std::int64_t max_chunk = 0;
  for (const ChunkSpec& spec : model.make_chunks(p)) {
    max_chunk = std::max(max_chunk, spec.param_count);
  }

  if (strategy == "weipipe" || strategy == "weipipe-naive") {
    // Owners keep fp32 masters (sums to the full model); each worker holds
    // at most two circulating weight chunks (F and B cursors) and one
    // circulating gradient chunk.
    b.weights_bytes = kF32 * total + 2 * kF32 * p * max_chunk;
    b.weight_grads_bytes = kF32 * p * max_chunk;
    return b;
  }
  if (strategy == "1f1b" || strategy == "gpipe") {
    // Stage masters (full model) + per-stage quantized compute copies and
    // per-stage gradient accumulators (each the stage's own shard).
    b.weights_bytes = 2 * kF32 * total;
    b.weight_grads_bytes = kF32 * total;
    return b;
  }
  // fsdp: sharded masters + one gathered chunk buffer per rank; every rank
  // accumulates gradients for the whole model (ZeRO-3 without gradient
  // sharding) plus its reduce scratch and owned shard.
  b.weights_bytes = kF32 * total + kF32 * p * max_chunk;
  b.weight_grads_bytes = kF32 * p * total + 2 * kF32 * p * max_chunk;
  return b;
}

}  // namespace weipipe::acct
