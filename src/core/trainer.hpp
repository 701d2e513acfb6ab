// Trainer: the strategy-agnostic training-run interface.
//
// Every strategy (sequential ground truth, WeiPipe variants, 1F1B, GPipe,
// FSDP) implements this; the equivalence tests and the in-situ benchmark
// drive them identically.
#pragma once

#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/shard_store.hpp"
#include "nn/config.hpp"
#include "nn/microbatch.hpp"

namespace weipipe {

namespace comm {
class Fabric;
}  // namespace comm

struct TrainConfig {
  ModelConfig model;
  PrecisionConfig precision;  // wire/compute emulation precisions
  AdamConfig adam;
  LrSchedule lr_schedule;  // warmup + cosine decay (off by default)
  ClipConfig clip;         // global-norm gradient clipping (off by default)
  std::int64_t num_microbatches = 4;  // N per iteration (global)
  std::int64_t microbatch_size = 2;   // G
  std::int64_t seq_len = 16;          // S actually used (<= model.seq_len)
  std::uint64_t seed = 1234;          // weights + data

  // Optimizer config with the schedule applied for this iteration.
  AdamConfig adam_for_iteration(std::int64_t iter) const {
    AdamConfig a = adam;
    a.lr *= lr_schedule.scale(iter);
    return a;
  }

  void validate() const {
    model.validate();
    WEIPIPE_CHECK(num_microbatches >= 1);
    WEIPIPE_CHECK(microbatch_size >= 1);
    WEIPIPE_CHECK(seq_len >= 2 && seq_len <= model.seq_len);
  }
};

struct IterationResult {
  float mean_loss = 0.0f;           // mean over the N microbatches
  double wall_seconds = 0.0;        // wall time of the iteration
  std::uint64_t wire_bytes = 0;     // fabric bytes moved this iteration
  std::uint64_t wire_messages = 0;  // fabric messages this iteration
};

// Squared L2 norm accumulated in double (shared by the clipping paths; the
// double accumulation keeps distributed and sequential results aligned).
inline double grad_sq_norm(std::span<const float> g) {
  double s = 0.0;
  for (float v : g) {
    s += static_cast<double>(v) * static_cast<double>(v);
  }
  return s;
}

// Scale factor min(1, max_norm/||g||); 1 when clipping is disabled.
inline float clip_scale(const ClipConfig& clip, double total_sq_norm) {
  if (!clip.enabled()) {
    return 1.0f;
  }
  const double norm = std::sqrt(total_sq_norm);
  if (norm <= clip.max_norm || norm == 0.0) {
    return 1.0f;
  }
  return static_cast<float>(static_cast<double>(clip.max_norm) / norm);
}

class Trainer {
 public:
  virtual ~Trainer() = default;

  virtual std::string name() const = 0;

  // Runs one full iteration (N microbatches + optimizer step). The
  // microbatch stream is data.make(iter_index * N + j).
  virtual IterationResult train_iteration(const Dataset& data,
                                          std::int64_t iter_index) = 0;

  // Full fp32 master weights, one flat vector per model block (embedding,
  // layers..., head) — the common currency of the equivalence tests.
  std::vector<std::vector<float>> gather_block_params() const {
    return state_.block_params();
  }

  // All state the optimizer owns (fp32 masters, Adam moments, step
  // counters) as shards; checkpoints, recovery snapshots and the forked
  // differ's per-rank blobs all derive from it (core/shard_store.hpp).
  const ShardStore& state() const { return state_; }
  // Restores from a store of any sharding of the same model. Throws
  // weipipe::Error if the state does not fit the model.
  void load_state(const ShardStore& src) { state_.assign(src); }

  // The communication fabric this trainer runs on; nullptr for strategies
  // with no wire (sequential). Lets harnesses install fault plans and read
  // stats without knowing the concrete trainer type.
  virtual comm::Fabric* fabric() { return nullptr; }

 protected:
  ShardStore state_;
};

}  // namespace weipipe
