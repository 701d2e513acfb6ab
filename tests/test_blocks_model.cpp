// Block-level gradient checks (through the full transformer layer), model
// chunking invariants, recompute-vs-saved parity, Adam, and the synthetic
// dataset / loss plumbing.
#include <gtest/gtest.h>

#include "common/check.hpp"
#include "gradcheck.hpp"
#include "nn/adam.hpp"
#include "nn/loss.hpp"
#include "nn/model.hpp"

namespace weipipe {
namespace {

using testing::gradient_max_rel_error;
using testing::numeric_gradient;

ModelConfig tiny_cfg() {
  ModelConfig cfg;
  cfg.vocab_size = 16;
  cfg.dim = 8;
  cfg.n_layers = 2;
  cfg.n_heads = 2;
  cfg.seq_len = 6;
  cfg.ffn_hidden = 12;
  return cfg;
}

Microbatch tiny_mb(const ModelConfig& cfg, std::int64_t g = 2) {
  SyntheticDataset data(cfg.vocab_size, 321);
  return data.make(0, g, cfg.seq_len);
}

// ---- TransformerLayerBlock -----------------------------------------------------

TEST(TransformerLayer, ParamCountMatchesOffsets) {
  const ModelConfig cfg = tiny_cfg();
  TransformerLayerBlock block(cfg);
  const auto off = TransformerLayerBlock::offsets(cfg);
  EXPECT_EQ(block.param_count(), off.total);
  // 2 norms + 4 attention mats + 3 FFN mats.
  const std::int64_t H = cfg.dim;
  const std::int64_t F = cfg.effective_ffn_hidden();
  EXPECT_EQ(off.total, 2 * H + 4 * H * H + 3 * H * F);
}

TEST(TransformerLayer, FullLayerGradCheck) {
  const ModelConfig cfg = tiny_cfg();
  TransformerLayerBlock block(cfg);
  const Microbatch mb = tiny_mb(cfg, 1);
  Rng rng(77);
  std::vector<float> w(static_cast<std::size_t>(block.param_count()));
  block.init_params(w, rng);
  Tensor x = Tensor::randn({mb.rows(), cfg.dim}, rng);
  const Tensor dy = Tensor::randn({mb.rows(), cfg.dim}, rng);

  auto loss = [&](std::span<const float> wp, const Tensor& xp) {
    BlockCtx ctx;
    const Tensor y = block.forward(wp, mb, xp, ctx, true);
    double acc = 0.0;
    for (std::int64_t i = 0; i < y.numel(); ++i) {
      acc += static_cast<double>(y.data()[i]) * dy.data()[i];
    }
    return acc;
  };

  BlockCtx ctx;
  (void)block.forward(std::span<const float>(w.data(), w.size()), mb, x, ctx,
                      true);
  std::vector<float> dw(w.size(), 0.0f);
  const Tensor dx = block.backward(std::span<const float>(w.data(), w.size()),
                                   mb, ctx, dy,
                                   std::span<float>(dw.data(), dw.size()));

  const auto num_dx = numeric_gradient(
      [&](std::span<const float> p) {
        Tensor xx = Tensor::from_data(
            {mb.rows(), cfg.dim},
            std::vector<float>(p.begin(), p.end()));
        return loss(std::span<const float>(w.data(), w.size()), xx);
      },
      x.span());
  EXPECT_LT(gradient_max_rel_error(dx.span(), num_dx), 5e-3);

  const auto num_dw = numeric_gradient(
      [&](std::span<const float> p) { return loss(p, x); },
      std::span<float>(w.data(), w.size()));
  EXPECT_LT(gradient_max_rel_error(std::span<const float>(dw.data(), dw.size()),
                                   num_dw),
            5e-3);
}

TEST(TransformerLayer, RecomputeMatchesSavedExactly) {
  ModelConfig cfg = tiny_cfg();
  TransformerLayerBlock block(cfg);
  const Microbatch mb = tiny_mb(cfg);
  Rng rng(88);
  std::vector<float> w(static_cast<std::size_t>(block.param_count()));
  block.init_params(w, rng);
  const Tensor x = Tensor::randn({mb.rows(), cfg.dim}, rng);
  const Tensor dy = Tensor::randn({mb.rows(), cfg.dim}, rng);

  BlockCtx saved_ctx;
  const Tensor y1 = block.forward(std::span<const float>(w.data(), w.size()),
                                  mb, x, saved_ctx, /*save_internals=*/true);
  std::vector<float> dw1(w.size(), 0.0f);
  const Tensor dx1 =
      block.backward(std::span<const float>(w.data(), w.size()), mb,
                     saved_ctx, dy, std::span<float>(dw1.data(), dw1.size()));

  BlockCtx light_ctx;
  const Tensor y2 = block.forward(std::span<const float>(w.data(), w.size()),
                                  mb, x, light_ctx, /*save_internals=*/false);
  EXPECT_TRUE(light_ctx.saved.empty());
  std::vector<float> dw2(w.size(), 0.0f);
  const Tensor dx2 =
      block.backward(std::span<const float>(w.data(), w.size()), mb,
                     light_ctx, dy, std::span<float>(dw2.data(), dw2.size()));

  EXPECT_EQ(max_abs_diff(y1, y2), 0.0f);
  EXPECT_EQ(max_abs_diff(dx1, dx2), 0.0f);
  for (std::size_t i = 0; i < dw1.size(); ++i) {
    ASSERT_EQ(dw1[i], dw2[i]) << "dw index " << i;
  }
  // Recompute context is strictly smaller.
  EXPECT_LT(light_ctx.bytes(), saved_ctx.bytes());
}

// ---- Embedding / Head ----------------------------------------------------------

TEST(Embedding, LookupAndScatterGrad) {
  const ModelConfig cfg = tiny_cfg();
  EmbeddingBlock block(cfg);
  Rng rng(5);
  std::vector<float> w(static_cast<std::size_t>(block.param_count()));
  block.init_params(w, rng);

  Microbatch mb;
  mb.batch = 1;
  mb.seq = 3;
  mb.tokens = {2, 2, 7};
  mb.targets = {2, 7, 1};
  BlockCtx ctx;
  const Tensor y = block.forward(std::span<const float>(w.data(), w.size()),
                                 mb, Tensor(), ctx, true);
  for (std::int64_t j = 0; j < cfg.dim; ++j) {
    EXPECT_EQ(y(0, j), w[static_cast<std::size_t>(2 * cfg.dim + j)]);
    EXPECT_EQ(y(1, j), y(0, j));  // repeated token, same embedding
  }
  // Backward scatters: token 2 appears twice -> accumulates twice.
  Tensor dy = Tensor::full({3, cfg.dim}, 1.0f);
  std::vector<float> dw(w.size(), 0.0f);
  (void)block.backward(std::span<const float>(w.data(), w.size()), mb, ctx,
                       dy, std::span<float>(dw.data(), dw.size()));
  EXPECT_EQ(dw[static_cast<std::size_t>(2 * cfg.dim)], 2.0f);
  EXPECT_EQ(dw[static_cast<std::size_t>(7 * cfg.dim)], 1.0f);
  EXPECT_EQ(dw[static_cast<std::size_t>(1 * cfg.dim)], 0.0f);
}

TEST(Embedding, RejectsOutOfRangeToken) {
  const ModelConfig cfg = tiny_cfg();
  EmbeddingBlock block(cfg);
  Rng rng(5);
  std::vector<float> w(static_cast<std::size_t>(block.param_count()));
  block.init_params(w, rng);
  Microbatch mb;
  mb.batch = 1;
  mb.seq = 1;
  mb.tokens = {static_cast<std::int32_t>(cfg.vocab_size)};
  mb.targets = {0};
  BlockCtx ctx;
  EXPECT_THROW(
      block.forward(std::span<const float>(w.data(), w.size()), mb, Tensor(),
                    ctx, true),
      Error);
}

TEST(Head, GradCheck) {
  const ModelConfig cfg = tiny_cfg();
  HeadBlock block(cfg);
  const Microbatch mb = tiny_mb(cfg, 1);
  Rng rng(6);
  std::vector<float> w(static_cast<std::size_t>(block.param_count()));
  block.init_params(w, rng);
  const Tensor x = Tensor::randn({mb.rows(), cfg.dim}, rng);

  auto loss = [&](std::span<const float> wp) {
    BlockCtx ctx;
    const Tensor logits = block.forward(wp, mb, x, ctx, true);
    return static_cast<double>(cross_entropy_loss(logits, mb).loss);
  };

  BlockCtx ctx;
  const Tensor logits = block.forward(
      std::span<const float>(w.data(), w.size()), mb, x, ctx, true);
  const LossResult lr = cross_entropy_loss(logits, mb);
  std::vector<float> dw(w.size(), 0.0f);
  (void)block.backward(std::span<const float>(w.data(), w.size()), mb, ctx,
                       lr.dlogits, std::span<float>(dw.data(), dw.size()));
  const auto num = numeric_gradient(
      [&](std::span<const float> p) { return loss(p); },
      std::span<float>(w.data(), w.size()));
  EXPECT_LT(gradient_max_rel_error(std::span<const float>(dw.data(), dw.size()),
                                   num),
            5e-3);
}

// ---- Model / chunking -----------------------------------------------------------

TEST(Model, BlockStructure) {
  const ModelConfig cfg = tiny_cfg();
  Model model(cfg);
  EXPECT_EQ(model.num_blocks(), cfg.n_layers + 2);
  EXPECT_EQ(model.block(0).name(), "embedding");
  EXPECT_EQ(model.block(1).name(), "layer");
  EXPECT_EQ(model.block(model.num_blocks() - 1).name(), "head");
}

class ChunkingShapes : public ::testing::TestWithParam<
                           std::pair<std::int64_t, std::int64_t>> {};

TEST_P(ChunkingShapes, ChunksPartitionAllBlocks) {
  const auto [layers, num_chunks] = GetParam();
  ModelConfig cfg = tiny_cfg();
  cfg.n_layers = layers;
  Model model(cfg);
  const auto chunks = model.make_chunks(num_chunks);
  ASSERT_EQ(static_cast<std::int64_t>(chunks.size()), num_chunks);
  EXPECT_EQ(chunks.front().begin, 0);
  EXPECT_EQ(chunks.back().end, model.num_blocks());
  std::int64_t total_params = 0;
  for (std::size_t c = 0; c < chunks.size(); ++c) {
    if (c > 0) {
      EXPECT_EQ(chunks[c].begin, chunks[c - 1].end);  // contiguous
    }
    EXPECT_LT(chunks[c].begin, chunks[c].end);  // non-empty
    total_params += chunks[c].param_count;
  }
  EXPECT_EQ(total_params, model.total_param_count());
}

INSTANTIATE_TEST_SUITE_P(Shapes, ChunkingShapes,
                         ::testing::Values(std::make_pair(2L, 2L),
                                           std::make_pair(4L, 2L),
                                           std::make_pair(4L, 4L),
                                           std::make_pair(5L, 3L),
                                           std::make_pair(8L, 3L),
                                           std::make_pair(6L, 6L)));

TEST(Model, ChunkCountMustNotExceedLayers) {
  const ModelConfig cfg = tiny_cfg();  // 2 layers
  Model model(cfg);
  EXPECT_THROW(model.make_chunks(3), Error);
  EXPECT_THROW(model.make_chunks(0), Error);
}

TEST(Model, ChunkInitMatchesBlockInit) {
  ModelConfig cfg = tiny_cfg();
  cfg.n_layers = 4;
  Model model(cfg);
  const auto block_params = model.init_block_params(123);
  const auto chunks = model.make_chunks(2);
  for (std::size_t c = 0; c < chunks.size(); ++c) {
    const std::vector<float> chunk_params =
        model.init_params(chunks[c].blocks(), 123);
    ASSERT_EQ(static_cast<std::int64_t>(chunk_params.size()),
              chunks[c].param_count);
    for (std::int64_t b = chunks[c].begin; b < chunks[c].end; ++b) {
      const std::int64_t off = model.block_offset_in_chunk(chunks[c], b);
      const auto& expected = block_params[static_cast<std::size_t>(b)];
      for (std::size_t i = 0; i < expected.size(); ++i) {
        ASSERT_EQ(chunk_params[static_cast<std::size_t>(off) + i],
                  expected[i])
            << "block " << b << " elem " << i;
      }
    }
  }
}

TEST(Model, ForwardBackwardFullModelGradCheck) {
  ModelConfig cfg = tiny_cfg();
  Model model(cfg);
  const auto params = model.init_block_params(55);
  const Microbatch mb = tiny_mb(cfg, 1);

  // Check gradient of the first layer's weights through the whole model.
  auto total_loss = [&](const std::vector<std::vector<float>>& p) {
    std::vector<BlockCtx> ctxs;
    const Tensor logits = model.forward_all(p, mb, ctxs);
    return static_cast<double>(cross_entropy_loss(logits, mb).loss);
  };

  std::vector<BlockCtx> ctxs;
  const Tensor logits = model.forward_all(params, mb, ctxs);
  const LossResult lr = cross_entropy_loss(logits, mb);
  std::vector<std::vector<float>> grads;
  for (const auto& p : params) {
    grads.emplace_back(p.size(), 0.0f);
  }
  model.backward_all(params, mb, ctxs, lr.dlogits, grads);

  auto mutable_params = params;
  auto& w1 = mutable_params[1];
  const auto num = numeric_gradient(
      [&](std::span<const float>) { return total_loss(mutable_params); },
      std::span<float>(w1.data(), w1.size()));
  EXPECT_LT(gradient_max_rel_error(
                std::span<const float>(grads[1].data(), grads[1].size()), num),
            1e-2);
}

// ---- Adam -----------------------------------------------------------------------

TEST(Adam, SingleStepMatchesFormula) {
  AdamShard adam(1);
  std::vector<float> w = {1.0f};
  std::vector<float> g = {0.5f};
  AdamConfig cfg;
  cfg.lr = 0.1f;
  adam.step(std::span<float>(w.data(), 1),
            std::span<const float>(g.data(), 1), cfg);
  // After one step, m_hat = g, v_hat = g^2 => update = lr * g/(|g|+eps) ~ lr.
  EXPECT_NEAR(w[0], 1.0f - 0.1f, 1e-4f);
  EXPECT_EQ(adam.step_count(), 1);
}

TEST(Adam, ConvergesOnQuadratic) {
  // Minimize (w - 3)^2 elementwise.
  AdamShard adam(4);
  std::vector<float> w = {0.0f, 10.0f, -5.0f, 3.0f};
  AdamConfig cfg;
  cfg.lr = 0.05f;
  for (int it = 0; it < 2000; ++it) {
    std::vector<float> g(4);
    for (int i = 0; i < 4; ++i) {
      g[static_cast<std::size_t>(i)] = 2.0f * (w[static_cast<std::size_t>(i)] - 3.0f);
    }
    adam.step(std::span<float>(w.data(), 4),
              std::span<const float>(g.data(), 4), cfg);
  }
  for (float v : w) {
    EXPECT_NEAR(v, 3.0f, 1e-2f);
  }
}

TEST(Adam, SizeMismatchThrows) {
  AdamShard adam(2);
  std::vector<float> w = {1.0f};
  std::vector<float> g = {1.0f, 2.0f};
  EXPECT_THROW(adam.step(std::span<float>(w.data(), 1),
                         std::span<const float>(g.data(), 2), AdamConfig{}),
               Error);
}

TEST(Adam, WeightDecayShrinksWeights) {
  AdamShard adam(1);
  std::vector<float> w = {2.0f};
  std::vector<float> g = {0.0f};
  AdamConfig cfg;
  cfg.lr = 0.1f;
  cfg.weight_decay = 0.5f;
  adam.step(std::span<float>(w.data(), 1),
            std::span<const float>(g.data(), 1), cfg);
  EXPECT_LT(w[0], 2.0f);
}

// ---- Dataset ---------------------------------------------------------------------

TEST(SyntheticDataset, DeterministicAndInRange) {
  SyntheticDataset data(32, 9);
  const Microbatch a = data.make(5, 3, 10);
  const Microbatch b = data.make(5, 3, 10);
  EXPECT_EQ(a.tokens, b.tokens);
  EXPECT_EQ(a.targets, b.targets);
  const Microbatch c = data.make(6, 3, 10);
  EXPECT_NE(a.tokens, c.tokens);
  for (std::int32_t t : a.tokens) {
    EXPECT_GE(t, 0);
    EXPECT_LT(t, 32);
  }
}

TEST(SyntheticDataset, TargetsShiftTokens) {
  SyntheticDataset data(64, 11);
  const Microbatch mb = data.make(0, 1, 8);
  // Within a sequence, target[i] == token[i+1] (next-token prediction).
  for (std::int64_t i = 0; i + 1 < mb.seq; ++i) {
    EXPECT_EQ(mb.targets[static_cast<std::size_t>(i)],
              mb.tokens[static_cast<std::size_t>(i + 1)]);
  }
}

}  // namespace
}  // namespace weipipe
