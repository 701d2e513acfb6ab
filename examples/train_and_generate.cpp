// End-to-end workflow: train a small model with WeiPipe (LR schedule +
// gradient clipping), checkpoint mid-run, resume on a *different* ring size,
// and finally sample from the trained model to show it learned the synthetic
// language's affine recurrence.
//
//   ./examples/train_and_generate [total_iters] [checkpoint_path]
#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/shard_store.hpp"
#include "core/weipipe_trainer.hpp"
#include "nn/generate.hpp"

using namespace weipipe;

int main(int argc, char** argv) {
  const int total_iters = argc > 1 ? std::atoi(argv[1]) : 240;
  const std::string ckpt_path =
      argc > 2 ? argv[2] : "/tmp/weipipe_example.ckpt";

  TrainConfig cfg;
  cfg.model.vocab_size = 16;
  cfg.model.dim = 48;
  cfg.model.n_layers = 4;
  cfg.model.n_heads = 4;
  cfg.model.seq_len = 16;
  cfg.num_microbatches = 8;
  cfg.microbatch_size = 2;
  cfg.seq_len = 16;
  cfg.seed = 7777;
  cfg.adam.lr = 5e-3f;
  cfg.lr_schedule.warmup_iters = 10;
  // Decay gently: keep a healthy LR through the end of this short run.
  cfg.lr_schedule.total_iters = 4 * total_iters;
  cfg.lr_schedule.min_lr_fraction = 0.5f;
  cfg.clip.max_norm = 1.0f;

  SyntheticDataset data(cfg.model.vocab_size, cfg.seed);
  const int half = total_iters / 2;

  std::printf("phase 1: %d iterations on a 4-worker WeiPipe ring\n", half);
  {
    WeiPipeTrainer trainer(cfg, 4);
    for (int it = 0; it < half; ++it) {
      const IterationResult r = trainer.train_iteration(data, it);
      if (it % 20 == 0) {
        std::printf("  iter %3d  loss %.4f\n", it, r.mean_loss);
      }
    }
    save_checkpoint(ckpt_path, trainer.state());
    std::printf("checkpoint written to %s\n\n", ckpt_path.c_str());
  }

  std::printf("phase 2: resume on a 2-worker ring from the checkpoint\n");
  WeiPipeTrainer trainer(cfg, 2);
  trainer.load_state(load_checkpoint(ckpt_path));
  float final_loss = 0.0f;
  for (int it = half; it < total_iters; ++it) {
    const IterationResult r = trainer.train_iteration(data, it);
    final_loss = r.mean_loss;
    if (it % 20 == 0) {
      std::printf("  iter %3d  loss %.4f\n", it, r.mean_loss);
    }
  }
  std::printf("final loss %.4f\n\n", final_loss);

  // Sample: feed a prefix of a training sequence and continue it greedily.
  Model model(cfg.model);
  const auto params = trainer.gather_block_params();
  const Microbatch mb = data.make(0, 1, cfg.seq_len);
  std::vector<std::int32_t> prompt(mb.tokens.begin(), mb.tokens.begin() + 8);
  GenerateOptions opts;
  opts.max_new_tokens = 6;
  const auto out = generate(model, params, prompt, opts);

  std::printf("prompt    : ");
  for (std::size_t i = 0; i < 8; ++i) {
    std::printf("%2d ", prompt[i]);
  }
  std::printf("\ngenerated : ");
  int correct = 0;
  for (std::size_t i = 8; i < out.size(); ++i) {
    std::printf("%2d ", out[i]);
    if (out[i] == mb.tokens[i]) {
      ++correct;
    }
  }
  std::printf("\nexpected  : ");
  for (std::size_t i = 8; i < 14; ++i) {
    std::printf("%2d ", mb.tokens[i]);
  }
  std::printf("\n%d/6 tokens follow the language's recurrence\n", correct);
  return 0;
}
