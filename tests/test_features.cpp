// Trainer features: LR schedules, distributed global-norm gradient clipping,
// checkpoint round-trips (including cross-sharding restore), and generation.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "baselines/fsdp_trainer.hpp"
#include "baselines/pipeline_trainer.hpp"
#include "core/sequential_trainer.hpp"
#include "core/weipipe_trainer.hpp"
#include "nn/decode.hpp"
#include "nn/generate.hpp"

namespace weipipe {
namespace {

TrainConfig tiny_config() {
  TrainConfig cfg;
  cfg.model.vocab_size = 64;
  cfg.model.dim = 32;
  cfg.model.n_layers = 4;
  cfg.model.n_heads = 4;
  cfg.model.seq_len = 16;
  cfg.num_microbatches = 8;
  cfg.microbatch_size = 2;
  cfg.seq_len = 16;
  cfg.seed = 5150;
  return cfg;
}

float params_max_diff(const std::vector<std::vector<float>>& a,
                      const std::vector<std::vector<float>>& b) {
  EXPECT_EQ(a.size(), b.size());
  float m = 0.0f;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].size(), b[i].size());
    for (std::size_t j = 0; j < a[i].size(); ++j) {
      m = std::max(m, std::fabs(a[i][j] - b[i][j]));
    }
  }
  return m;
}

// ---- LR schedule -----------------------------------------------------------------

TEST(LrSchedule, DisabledIsConstant) {
  LrSchedule sched;  // total_iters == 0
  EXPECT_EQ(sched.scale(0), 1.0f);
  EXPECT_EQ(sched.scale(1000), 1.0f);
}

TEST(LrSchedule, WarmupRampsLinearly) {
  LrSchedule sched;
  sched.warmup_iters = 10;
  sched.total_iters = 100;
  EXPECT_NEAR(sched.scale(0), 0.1f, 1e-6f);
  EXPECT_NEAR(sched.scale(4), 0.5f, 1e-6f);
  EXPECT_NEAR(sched.scale(9), 1.0f, 1e-6f);
}

TEST(LrSchedule, CosineDecaysToFloor) {
  LrSchedule sched;
  sched.warmup_iters = 0;
  sched.total_iters = 100;
  sched.min_lr_fraction = 0.1f;
  EXPECT_NEAR(sched.scale(0), 1.0f, 1e-6f);
  EXPECT_NEAR(sched.scale(50), 0.55f, 1e-3f);  // halfway through cosine
  EXPECT_NEAR(sched.scale(99), 0.1f, 1e-2f);
  EXPECT_EQ(sched.scale(100), 0.1f);
  EXPECT_EQ(sched.scale(10000), 0.1f);  // constant after total_iters
}

TEST(LrSchedule, MonotoneDuringDecay) {
  LrSchedule sched;
  sched.warmup_iters = 5;
  sched.total_iters = 50;
  for (std::int64_t i = 5; i + 1 < 50; ++i) {
    EXPECT_GE(sched.scale(i), sched.scale(i + 1));
  }
}

// ---- Gradient clipping ---------------------------------------------------------------

TEST(ClipScale, IdentityBelowThreshold) {
  ClipConfig clip{10.0f};
  EXPECT_EQ(clip_scale(clip, 4.0), 1.0f);  // norm 2 < 10
  EXPECT_EQ(clip_scale(ClipConfig{}, 1e12), 1.0f);  // disabled
}

TEST(ClipScale, ScalesAboveThreshold) {
  ClipConfig clip{1.0f};
  EXPECT_NEAR(clip_scale(clip, 4.0), 0.5f, 1e-6f);  // norm 2 -> scale 1/2
}

TEST(Clipping, SequentialClipChangesTrajectory) {
  TrainConfig cfg = tiny_config();
  SequentialTrainer plain(cfg);
  cfg.clip.max_norm = 1e-3f;  // aggressive, definitely binds
  SequentialTrainer clipped(cfg);
  SyntheticDataset data(cfg.model.vocab_size, cfg.seed);
  (void)plain.train_iteration(data, 0);
  (void)clipped.train_iteration(data, 0);
  EXPECT_GT(params_max_diff(plain.gather_block_params(),
                            clipped.gather_block_params()),
            0.0f);
}

TEST(Clipping, WeiPipeMatchesSequentialWithClip) {
  TrainConfig cfg = tiny_config();
  cfg.clip.max_norm = 0.05f;  // binds for this model
  SequentialTrainer ref(cfg);
  WeiPipeTrainer wp(cfg, 4);
  SyntheticDataset data(cfg.model.vocab_size, cfg.seed);
  for (int it = 0; it < 3; ++it) {
    (void)ref.train_iteration(data, it);
    (void)wp.train_iteration(data, it);
  }
  // The global-norm reduction sums per-shard doubles in a slightly different
  // association than sequential; allow a vanishing tolerance.
  EXPECT_LT(params_max_diff(ref.gather_block_params(),
                            wp.gather_block_params()),
            1e-6f);
}

TEST(Clipping, PipelineAndFsdpMatchSequentialWithClip) {
  TrainConfig cfg = tiny_config();
  cfg.clip.max_norm = 0.05f;
  SequentialTrainer ref(cfg);
  PipelineTrainer pipe(cfg, 4);
  FsdpTrainer fsdp(cfg, 4);
  SyntheticDataset data(cfg.model.vocab_size, cfg.seed);
  for (int it = 0; it < 2; ++it) {
    (void)ref.train_iteration(data, it);
    (void)pipe.train_iteration(data, it);
    (void)fsdp.train_iteration(data, it);
  }
  EXPECT_LT(params_max_diff(ref.gather_block_params(),
                            pipe.gather_block_params()),
            1e-6f);
  EXPECT_LT(params_max_diff(ref.gather_block_params(),
                            fsdp.gather_block_params()),
            3e-5f);  // FSDP's partial sums already carry float tolerance
}

TEST(Clipping, ReplicatedVocabClipMatchesSequential) {
  TrainConfig cfg = tiny_config();
  cfg.clip.max_norm = 0.05f;
  SequentialTrainer ref(cfg);
  WeiPipeTrainer wp(cfg, 4, {.replicate_vocab = true});
  SyntheticDataset data(cfg.model.vocab_size, cfg.seed);
  for (int it = 0; it < 2; ++it) {
    (void)ref.train_iteration(data, it);
    (void)wp.train_iteration(data, it);
  }
  // The replicated-vocab gradient reduction rounds differently from the
  // sequential trainer; the bound tracks observed drift with a margin
  // (~5.9e-6 with the tiled K-blocked GEMM's accumulation order).
  EXPECT_LT(params_max_diff(ref.gather_block_params(),
                            wp.gather_block_params()),
            1e-5f);
}

TEST(Scheduling, WeiPipeMatchesSequentialWithLrSchedule) {
  TrainConfig cfg = tiny_config();
  cfg.lr_schedule.warmup_iters = 2;
  cfg.lr_schedule.total_iters = 10;
  SequentialTrainer ref(cfg);
  WeiPipeTrainer wp(cfg, 4);
  SyntheticDataset data(cfg.model.vocab_size, cfg.seed);
  for (int it = 0; it < 4; ++it) {
    (void)ref.train_iteration(data, it);
    (void)wp.train_iteration(data, it);
  }
  EXPECT_EQ(params_max_diff(ref.gather_block_params(),
                            wp.gather_block_params()),
            0.0f);  // schedule is evaluated locally: still bitwise
}

// ---- Checkpointing ----------------------------------------------------------------------

class TempCheckpoint {
 public:
  TempCheckpoint() {
    path_ = (std::filesystem::temp_directory_path() /
             ("weipipe_ckpt_" + std::to_string(::getpid()) + "_" +
              std::to_string(counter_++)))
                .string();
  }
  ~TempCheckpoint() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  static inline int counter_ = 0;
  std::string path_;
};

TEST(Checkpoint, FileRoundTripIsExact) {
  const TrainConfig cfg = tiny_config();
  SequentialTrainer t(cfg);
  SyntheticDataset data(cfg.model.vocab_size, cfg.seed);
  (void)t.train_iteration(data, 0);

  TempCheckpoint ckpt;
  save_checkpoint(ckpt.path(), t.state());
  const ShardStore loaded = load_checkpoint(ckpt.path());

  EXPECT_TRUE(loaded.serialize() == t.state().serialize());
  EXPECT_EQ(loaded.shard(0).adam.step_count(), 1);
}

TEST(Checkpoint, RejectsGarbageFiles) {
  TempCheckpoint ckpt;
  {
    std::FILE* f = std::fopen(ckpt.path().c_str(), "wb");
    std::fputs("definitely not a checkpoint", f);
    std::fclose(f);
  }
  EXPECT_THROW(load_checkpoint(ckpt.path()), Error);
  EXPECT_THROW(load_checkpoint("/nonexistent/dir/ckpt.bin"), Error);
}

TEST(Checkpoint, ResumeMatchesUninterruptedRun) {
  // Train 4 iterations straight vs 2 + checkpoint + restore + 2.
  const TrainConfig cfg = tiny_config();
  SyntheticDataset data(cfg.model.vocab_size, cfg.seed);

  SequentialTrainer straight(cfg);
  for (int it = 0; it < 4; ++it) {
    (void)straight.train_iteration(data, it);
  }

  TempCheckpoint ckpt;
  {
    SequentialTrainer first_half(cfg);
    (void)first_half.train_iteration(data, 0);
    (void)first_half.train_iteration(data, 1);
    save_checkpoint(ckpt.path(), first_half.state());
  }
  SequentialTrainer second_half(cfg);
  second_half.load_state(load_checkpoint(ckpt.path()));
  (void)second_half.train_iteration(data, 2);
  (void)second_half.train_iteration(data, 3);

  EXPECT_EQ(params_max_diff(straight.gather_block_params(),
                            second_half.gather_block_params()),
            0.0f);
}

TEST(Checkpoint, CrossShardingRestore) {
  // WeiPipe on 4 workers -> checkpoint -> restore into sequential AND into a
  // 2-worker ring; all three continue identically.
  const TrainConfig cfg = tiny_config();
  SyntheticDataset data(cfg.model.vocab_size, cfg.seed);

  WeiPipeTrainer origin(cfg, 4);
  (void)origin.train_iteration(data, 0);
  (void)origin.train_iteration(data, 1);
  const ShardStore& state = origin.state();

  SequentialTrainer seq(cfg);
  seq.load_state(state);
  WeiPipeTrainer ring2(cfg, 2);
  ring2.load_state(state);

  (void)origin.train_iteration(data, 2);
  (void)seq.train_iteration(data, 2);
  (void)ring2.train_iteration(data, 2);

  EXPECT_EQ(params_max_diff(origin.gather_block_params(),
                            seq.gather_block_params()),
            0.0f);
  EXPECT_EQ(params_max_diff(origin.gather_block_params(),
                            ring2.gather_block_params()),
            0.0f);
}

TEST(Checkpoint, ReplicatedVocabRoundTrip) {
  // replicate_vocab trainers checkpoint/restore interchangeably with the
  // circulating layout and with sequential training.
  const TrainConfig cfg = tiny_config();
  SyntheticDataset data(cfg.model.vocab_size, cfg.seed);
  WeiPipeTrainer origin(cfg, 4, {.replicate_vocab = true});
  (void)origin.train_iteration(data, 0);
  const ShardStore state = origin.state();

  SequentialTrainer seq(cfg);
  seq.load_state(state);
  WeiPipeTrainer clone(cfg, 4, {.replicate_vocab = true});
  clone.load_state(state);

  (void)origin.train_iteration(data, 1);
  (void)seq.train_iteration(data, 1);
  (void)clone.train_iteration(data, 1);
  EXPECT_EQ(params_max_diff(origin.gather_block_params(),
                            clone.gather_block_params()),
            0.0f);
  EXPECT_LT(params_max_diff(origin.gather_block_params(),
                            seq.gather_block_params()),
            5e-6f);
}

TEST(Checkpoint, ImportRejectsWrongModel) {
  const TrainConfig cfg = tiny_config();
  TrainConfig deeper = cfg;
  deeper.model.n_layers += 2;
  SequentialTrainer t(deeper);
  SequentialTrainer other(cfg);
  EXPECT_THROW(other.load_state(t.state()), Error);
  TrainConfig wider = cfg;
  wider.model.dim *= 2;
  EXPECT_THROW(other.load_state(SequentialTrainer(wider).state()), Error);
}

// ---- Generation --------------------------------------------------------------------------

TEST(Generate, ProducesRequestedLengthInVocab) {
  const TrainConfig cfg = tiny_config();
  Model model(cfg.model);
  const auto params = model.init_block_params(cfg.seed);
  const std::vector<std::int32_t> prompt = {1, 2, 3};
  GenerateOptions opts;
  opts.max_new_tokens = 10;
  const auto out = generate(model, params, prompt, opts);
  ASSERT_EQ(out.size(), 13u);
  for (std::int32_t t : out) {
    EXPECT_GE(t, 0);
    EXPECT_LT(t, cfg.model.vocab_size);
  }
  EXPECT_EQ(out[0], 1);
  EXPECT_EQ(out[2], 3);
}

TEST(Generate, GreedyIsDeterministicSamplingIsSeeded) {
  const TrainConfig cfg = tiny_config();
  Model model(cfg.model);
  const auto params = model.init_block_params(cfg.seed);
  const std::vector<std::int32_t> prompt = {5};
  GenerateOptions greedy;
  greedy.max_new_tokens = 8;
  EXPECT_EQ(generate(model, params, prompt, greedy),
            generate(model, params, prompt, greedy));
  GenerateOptions sampled;
  sampled.max_new_tokens = 8;
  sampled.temperature = 1.0f;
  sampled.seed = 1;
  const auto a = generate(model, params, prompt, sampled);
  EXPECT_EQ(a, generate(model, params, prompt, sampled));
  sampled.seed = 2;
  // Different seed very likely differs at some position (untrained model,
  // near-uniform logits).
  EXPECT_NE(a, generate(model, params, prompt, sampled));
}

TEST(Generate, TrainedModelContinuesTheAffineLanguage) {
  // Train to (near-)memorize next = (a*cur + b) % V, then check that greedy
  // generation follows the recurrence from a seen context.
  TrainConfig cfg = tiny_config();
  cfg.model.vocab_size = 16;
  cfg.adam.lr = 5e-3f;
  cfg.num_microbatches = 8;
  WeiPipeTrainer trainer(cfg, 4);
  SyntheticDataset data(cfg.model.vocab_size, cfg.seed);
  for (int it = 0; it < 150; ++it) {
    (void)trainer.train_iteration(data, it);
  }
  Model model(cfg.model);
  const auto params = trainer.gather_block_params();

  // Take a training sequence prefix and ask the model to continue it.
  const Microbatch mb = data.make(0, 1, cfg.seq_len);
  const std::vector<std::int32_t> prompt(mb.tokens.begin(),
                                         mb.tokens.begin() + 8);
  GenerateOptions opts;
  opts.max_new_tokens = 6;
  const auto out = generate(model, params, prompt, opts);
  int correct = 0;
  for (std::size_t i = 8; i < out.size(); ++i) {
    if (out[i] == mb.tokens[i]) {
      ++correct;
    }
  }
  // Each sequence draws its own (a, b); a short context under-determines
  // them, so demand a clear majority rather than perfection.
  EXPECT_GE(correct, 3) << "model failed to learn the synthetic recurrence";
}

TEST(Decode, LogitsMatchFullForwardAtEveryPosition) {
  const TrainConfig cfg = tiny_config();
  Model model(cfg.model);
  const auto params = model.init_block_params(cfg.seed);
  SyntheticDataset data(cfg.model.vocab_size, cfg.seed);
  const Microbatch mb = data.make(0, 1, 8);

  // Reference: full-batch forward over the 8 tokens.
  std::vector<BlockCtx> ctxs;
  const Tensor full = model.forward_all(params, mb, ctxs);

  // Cached decoder fed token by token.
  Decoder decoder(model, params);
  for (std::int64_t i = 0; i < 8; ++i) {
    decoder.step(mb.tokens[static_cast<std::size_t>(i)]);
    const auto lg = decoder.logits();
    for (std::int64_t v = 0; v < cfg.model.vocab_size; ++v) {
      ASSERT_NEAR(lg[static_cast<std::size_t>(v)], full(i, v), 1e-4f)
          << "pos " << i << " vocab " << v;
    }
  }
}

TEST(Decode, CachedGenerateMatchesUncached) {
  const TrainConfig cfg = tiny_config();
  Model model(cfg.model);
  const auto params = model.init_block_params(cfg.seed);
  const std::vector<std::int32_t> prompt = {3, 1, 4};
  GenerateOptions opts;
  opts.max_new_tokens = 8;
  const auto slow = generate(model, params, prompt, opts);
  const auto fast = generate_cached(model, params, prompt, 8);
  EXPECT_EQ(slow, fast);  // greedy: identical token choices
}

TEST(Decode, CapacityEnforced) {
  const TrainConfig cfg = tiny_config();  // seq_len 16
  Model model(cfg.model);
  const auto params = model.init_block_params(cfg.seed);
  Decoder decoder(model, params);
  for (int i = 0; i < 16; ++i) {
    decoder.step(1);
  }
  EXPECT_THROW(decoder.step(1), Error);
  const std::vector<std::int32_t> prompt = {1, 2};
  EXPECT_THROW(generate_cached(model, params, prompt, 20), Error);
}

TEST(Decode, GqaModelDecodes) {
  TrainConfig cfg = tiny_config();
  cfg.model.n_kv_heads = 2;
  Model model(cfg.model);
  const auto params = model.init_block_params(cfg.seed);
  SyntheticDataset data(cfg.model.vocab_size, cfg.seed);
  const Microbatch mb = data.make(0, 1, 6);
  std::vector<BlockCtx> ctxs;
  const Tensor full = model.forward_all(params, mb, ctxs);
  Decoder decoder(model, params);
  for (std::int64_t i = 0; i < 6; ++i) {
    decoder.step(mb.tokens[static_cast<std::size_t>(i)]);
  }
  const auto lg = decoder.logits();
  for (std::int64_t v = 0; v < cfg.model.vocab_size; ++v) {
    ASSERT_NEAR(lg[static_cast<std::size_t>(v)], full(5, v), 1e-4f);
  }
}

TEST(Generate, RejectsBadPrompt) {
  const TrainConfig cfg = tiny_config();
  Model model(cfg.model);
  const auto params = model.init_block_params(cfg.seed);
  EXPECT_THROW(
      generate(model, params, std::vector<std::int32_t>{}, GenerateOptions{}),
      Error);
  EXPECT_THROW(generate(model, params, std::vector<std::int32_t>{999},
                        GenerateOptions{}),
               Error);
}

}  // namespace
}  // namespace weipipe
