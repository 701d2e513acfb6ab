// Gradient checks for every transformer sub-layer, plus the naive-vs-stream
// attention identity (the Flash-Attention substitution must be exact math).
#include <gtest/gtest.h>

#include <cstring>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "gradcheck.hpp"
#include "nn/layer_math.hpp"
#include "tensor/tensor.hpp"

namespace weipipe {
namespace {

using testing::gradient_max_rel_error;
using testing::numeric_gradient;

// ---- RMSNorm -----------------------------------------------------------------

TEST(RmsNorm, ForwardNormalizes) {
  const std::int64_t rows = 3;
  const std::int64_t dim = 8;
  Rng rng(1);
  Tensor x = Tensor::randn({rows, dim}, rng, 0.0f, 2.0f);
  Tensor gain = Tensor::full({dim}, 1.0f);
  Tensor y({rows, dim});
  Tensor inv({rows});
  rmsnorm_forward(x.data(), gain.data(), y.data(), inv.data(), rows, dim,
                  1e-6f);
  for (std::int64_t r = 0; r < rows; ++r) {
    double ss = 0.0;
    for (std::int64_t j = 0; j < dim; ++j) {
      ss += static_cast<double>(y(r, j)) * y(r, j);
    }
    EXPECT_NEAR(ss / dim, 1.0, 1e-4);  // unit RMS after normalization
  }
}

TEST(RmsNorm, GradCheck) {
  const std::int64_t rows = 2;
  const std::int64_t dim = 6;
  Rng rng(2);
  Tensor x = Tensor::randn({rows, dim}, rng);
  Tensor gain = Tensor::randn({dim}, rng, 1.0f, 0.2f);
  Tensor dy = Tensor::randn({rows, dim}, rng);

  auto loss = [&](const float* xp, const float* gp) {
    Tensor y({rows, dim});
    Tensor inv({rows});
    rmsnorm_forward(xp, gp, y.data(), inv.data(), rows, dim, 1e-5f);
    double acc = 0.0;
    for (std::int64_t i = 0; i < rows * dim; ++i) {
      acc += static_cast<double>(y.data()[i]) * dy.data()[i];
    }
    return acc;
  };

  Tensor y({rows, dim});
  Tensor inv({rows});
  rmsnorm_forward(x.data(), gain.data(), y.data(), inv.data(), rows, dim,
                  1e-5f);
  Tensor dx({rows, dim});
  Tensor dgain({dim});
  dgain.zero();
  rmsnorm_backward(x.data(), gain.data(), inv.data(), dy.data(), dx.data(),
                   dgain.data(), rows, dim);

  const auto num_dx = numeric_gradient(
      [&](std::span<const float> v) { return loss(v.data(), gain.data()); },
      x.span());
  EXPECT_LT(gradient_max_rel_error(dx.span(), num_dx), 2e-3);

  const auto num_dg = numeric_gradient(
      [&](std::span<const float> v) { return loss(x.data(), v.data()); },
      gain.span());
  EXPECT_LT(gradient_max_rel_error(dgain.span(), num_dg), 2e-3);
}

// ---- RoPE ---------------------------------------------------------------------

TEST(Rope, PreservesNorm) {
  const std::int64_t rows = 8;
  const std::int64_t seq = 4;
  const std::int64_t nh = 2;
  const std::int64_t dh = 6;
  Rng rng(3);
  Tensor x = Tensor::randn({rows, nh * dh}, rng);
  const float before = x.norm();
  rope_apply(x.data(), rows, seq, nh, dh, 10000.0f, false);
  EXPECT_NEAR(x.norm(), before, 1e-4f);  // rotations are orthonormal
}

TEST(Rope, InverseUndoesForward) {
  const std::int64_t rows = 6;
  Rng rng(4);
  Tensor x = Tensor::randn({rows, 8}, rng);
  const Tensor orig = x;
  rope_apply(x.data(), rows, 3, 2, 4, 10000.0f, false);
  EXPECT_GT(max_abs_diff(x, orig), 1e-3f);  // actually rotated
  rope_apply(x.data(), rows, 3, 2, 4, 10000.0f, true);
  EXPECT_TRUE(allclose(x, orig, 1e-5f, 1e-6f));
}

TEST(Rope, PositionZeroIsIdentity) {
  Rng rng(5);
  Tensor x = Tensor::randn({1, 8}, rng);  // single row => position 0
  const Tensor orig = x;
  rope_apply(x.data(), 1, 16, 2, 4, 10000.0f, false);
  EXPECT_EQ(max_abs_diff(x, orig), 0.0f);
}

// ---- Attention ------------------------------------------------------------------

struct AttnDims {
  std::int64_t G, S, nh, dh;
};

class AttentionParity : public ::testing::TestWithParam<AttnDims> {};

TEST_P(AttentionParity, StreamMatchesNaiveForward) {
  const auto [G, S, nh, dh] = GetParam();
  const std::int64_t H = nh * dh;
  Rng rng(6);
  const Tensor q = Tensor::randn({G * S, H}, rng);
  const Tensor k = Tensor::randn({G * S, H}, rng);
  const Tensor v = Tensor::randn({G * S, H}, rng);
  Tensor out_naive({G * S, H});
  Tensor probs({G, nh, S, S});
  attention_forward_naive(q.data(), k.data(), v.data(), out_naive.data(),
                          probs.data(), G, S, nh, dh);
  Tensor out_stream({G * S, H});
  Tensor lse({G, nh, S});
  attention_forward_stream(q.data(), k.data(), v.data(), out_stream.data(),
                           lse.data(), G, S, nh, dh);
  EXPECT_TRUE(allclose(out_stream, out_naive, 1e-4f, 1e-5f));
}

TEST_P(AttentionParity, StreamMatchesNaiveBackward) {
  const auto [G, S, nh, dh] = GetParam();
  const std::int64_t H = nh * dh;
  Rng rng(7);
  const Tensor q = Tensor::randn({G * S, H}, rng);
  const Tensor k = Tensor::randn({G * S, H}, rng);
  const Tensor v = Tensor::randn({G * S, H}, rng);
  const Tensor dout = Tensor::randn({G * S, H}, rng);

  Tensor out({G * S, H});
  Tensor probs({G, nh, S, S});
  attention_forward_naive(q.data(), k.data(), v.data(), out.data(),
                          probs.data(), G, S, nh, dh);
  Tensor dq1({G * S, H}), dk1({G * S, H}), dv1({G * S, H});
  attention_backward_naive(q.data(), k.data(), v.data(), probs.data(),
                           dout.data(), dq1.data(), dk1.data(), dv1.data(), G,
                           S, nh, dh);

  Tensor out2({G * S, H});
  Tensor lse({G, nh, S});
  attention_forward_stream(q.data(), k.data(), v.data(), out2.data(),
                           lse.data(), G, S, nh, dh);
  Tensor dq2({G * S, H}), dk2({G * S, H}), dv2({G * S, H});
  attention_backward_stream(q.data(), k.data(), v.data(), out2.data(),
                            lse.data(), dout.data(), dq2.data(), dk2.data(),
                            dv2.data(), G, S, nh, dh);
  EXPECT_TRUE(allclose(dq2, dq1, 1e-3f, 1e-5f));
  EXPECT_TRUE(allclose(dk2, dk1, 1e-3f, 1e-5f));
  EXPECT_TRUE(allclose(dv2, dv1, 1e-3f, 1e-5f));
}

INSTANTIATE_TEST_SUITE_P(
    Dims, AttentionParity,
    ::testing::Values(AttnDims{1, 1, 1, 2}, AttnDims{1, 4, 1, 4},
                      AttnDims{2, 8, 2, 4}, AttnDims{1, 16, 4, 8},
                      AttnDims{3, 5, 2, 6},
                      // One whole 64-block, a one-row ragged tail, a
                      // ragged third block, and four full blocks.
                      AttnDims{1, 64, 2, 8}, AttnDims{2, 65, 2, 16},
                      AttnDims{1, 130, 2, 8}, AttnDims{1, 256, 2, 16}));

TEST(Attention, CausalityRespected) {
  // Changing a *future* token's k/v must not change earlier outputs.
  const std::int64_t G = 1, S = 6, nh = 2, dh = 4, H = nh * dh;
  Rng rng(8);
  const Tensor q = Tensor::randn({S, H}, rng);
  Tensor k = Tensor::randn({S, H}, rng);
  Tensor v = Tensor::randn({S, H}, rng);
  Tensor out1({S, H});
  Tensor lse({G, nh, S});
  attention_forward_stream(q.data(), k.data(), v.data(), out1.data(),
                           lse.data(), G, S, nh, dh);
  // Perturb the last position's k and v.
  for (std::int64_t j = 0; j < H; ++j) {
    k(S - 1, j) += 10.0f;
    v(S - 1, j) -= 5.0f;
  }
  Tensor out2({S, H});
  attention_forward_stream(q.data(), k.data(), v.data(), out2.data(),
                           lse.data(), G, S, nh, dh);
  for (std::int64_t i = 0; i < S - 1; ++i) {
    for (std::int64_t j = 0; j < H; ++j) {
      EXPECT_EQ(out1(i, j), out2(i, j)) << "row " << i;
    }
  }
}

TEST(Attention, GradCheckSmall) {
  const std::int64_t G = 1, S = 3, nh = 1, dh = 4, H = nh * dh;
  Rng rng(9);
  Tensor q = Tensor::randn({S, H}, rng);
  Tensor k = Tensor::randn({S, H}, rng);
  Tensor v = Tensor::randn({S, H}, rng);
  const Tensor dout = Tensor::randn({S, H}, rng);

  auto loss = [&](const float* qp, const float* kp, const float* vp) {
    Tensor out({S, H});
    Tensor lse({G, nh, S});
    attention_forward_stream(qp, kp, vp, out.data(), lse.data(), G, S, nh,
                             dh);
    double acc = 0.0;
    for (std::int64_t i = 0; i < S * H; ++i) {
      acc += static_cast<double>(out.data()[i]) * dout.data()[i];
    }
    return acc;
  };

  Tensor out({S, H});
  Tensor lse({G, nh, S});
  attention_forward_stream(q.data(), k.data(), v.data(), out.data(),
                           lse.data(), G, S, nh, dh);
  Tensor dq({S, H}), dk({S, H}), dv({S, H});
  attention_backward_stream(q.data(), k.data(), v.data(), out.data(),
                            lse.data(), dout.data(), dq.data(), dk.data(),
                            dv.data(), G, S, nh, dh);

  const auto num_dq = numeric_gradient(
      [&](std::span<const float> x) { return loss(x.data(), k.data(), v.data()); },
      q.span());
  EXPECT_LT(gradient_max_rel_error(dq.span(), num_dq), 3e-3);
  const auto num_dk = numeric_gradient(
      [&](std::span<const float> x) { return loss(q.data(), x.data(), v.data()); },
      k.span());
  EXPECT_LT(gradient_max_rel_error(dk.span(), num_dk), 3e-3);
  const auto num_dv = numeric_gradient(
      [&](std::span<const float> x) { return loss(q.data(), k.data(), x.data()); },
      v.span());
  EXPECT_LT(gradient_max_rel_error(dv.span(), num_dv), 3e-3);
}

// ---- Grouped-query attention -----------------------------------------------------

struct GqaDims {
  std::int64_t G, S, nh, nkv, dh;
};

class GqaParity : public ::testing::TestWithParam<GqaDims> {};

TEST_P(GqaParity, StreamMatchesNaiveForwardAndBackward) {
  const auto [G, S, nh, nkv, dh] = GetParam();
  const std::int64_t H = nh * dh;
  const std::int64_t Hkv = nkv * dh;
  Rng rng(21);
  const Tensor q = Tensor::randn({G * S, H}, rng);
  const Tensor k = Tensor::randn({G * S, Hkv}, rng);
  const Tensor v = Tensor::randn({G * S, Hkv}, rng);
  const Tensor dout = Tensor::randn({G * S, H}, rng);

  Tensor out1({G * S, H});
  Tensor probs({G, nh, S, S});
  attention_forward_naive(q.data(), k.data(), v.data(), out1.data(),
                          probs.data(), G, S, nh, nkv, dh);
  Tensor out2({G * S, H});
  Tensor lse({G, nh, S});
  attention_forward_stream(q.data(), k.data(), v.data(), out2.data(),
                           lse.data(), G, S, nh, nkv, dh);
  EXPECT_TRUE(allclose(out2, out1, 1e-4f, 1e-5f));

  Tensor dq1({G * S, H}), dk1({G * S, Hkv}), dv1({G * S, Hkv});
  attention_backward_naive(q.data(), k.data(), v.data(), probs.data(),
                           dout.data(), dq1.data(), dk1.data(), dv1.data(), G,
                           S, nh, nkv, dh);
  Tensor dq2({G * S, H}), dk2({G * S, Hkv}), dv2({G * S, Hkv});
  attention_backward_stream(q.data(), k.data(), v.data(), out2.data(),
                            lse.data(), dout.data(), dq2.data(), dk2.data(),
                            dv2.data(), G, S, nh, nkv, dh);
  EXPECT_TRUE(allclose(dq2, dq1, 1e-3f, 1e-5f));
  EXPECT_TRUE(allclose(dk2, dk1, 1e-3f, 1e-5f));
  EXPECT_TRUE(allclose(dv2, dv1, 1e-3f, 1e-5f));
}

INSTANTIATE_TEST_SUITE_P(
    Dims, GqaParity,
    ::testing::Values(GqaDims{1, 4, 2, 1, 4}, GqaDims{2, 6, 4, 2, 4},
                      GqaDims{1, 8, 8, 2, 2}, GqaDims{2, 5, 6, 3, 4},
                      GqaDims{1, 7, 4, 4, 4},  // nkv==nh degenerates to MHA
                      GqaDims{2, 65, 8, 2, 8}, GqaDims{1, 130, 8, 2, 16},
                      GqaDims{1, 256, 8, 2, 8}));

TEST(Attention, BlockedBackwardIsBitwiseDeterministic) {
  // Multi-block, ragged, grouped: every accumulation path is exercised.
  const std::int64_t G = 2, S = 130, nh = 8, nkv = 2, dh = 16;
  const std::int64_t H = nh * dh, Hkv = nkv * dh;
  Rng rng(23);
  const Tensor q = Tensor::randn({G * S, H}, rng);
  const Tensor k = Tensor::randn({G * S, Hkv}, rng);
  const Tensor v = Tensor::randn({G * S, Hkv}, rng);
  const Tensor dout = Tensor::randn({G * S, H}, rng);
  Tensor out({G * S, H});
  Tensor lse({G, nh, S});
  attention_forward_stream(q.data(), k.data(), v.data(), out.data(),
                           lse.data(), G, S, nh, nkv, dh);

  struct Grads {
    Tensor dq, dk, dv;
  };
  const auto backward = [&] {
    Grads r{Tensor({G * S, H}), Tensor({G * S, Hkv}), Tensor({G * S, Hkv})};
    attention_backward_stream(q.data(), k.data(), v.data(), out.data(),
                              lse.data(), dout.data(), r.dq.data(),
                              r.dk.data(), r.dv.data(), G, S, nh, nkv, dh);
    return r;
  };
  const auto expect_bitwise_equal = [](const Grads& a, const Grads& b) {
    for (const auto& [x, y] : {std::pair{&a.dq, &b.dq},
                               std::pair{&a.dk, &b.dk},
                               std::pair{&a.dv, &b.dv}}) {
      ASSERT_EQ(x->numel(), y->numel());
      EXPECT_EQ(std::memcmp(x->data(), y->data(),
                            static_cast<std::size_t>(x->numel()) *
                                sizeof(float)),
                0);
    }
  };

  const Grads top = backward();
  expect_bitwise_equal(backward(), top);

  // From inside global-pool tasks the (g, kv-head) split and the GEMMs run
  // serially; on the calling thread they fan out. Both must agree bitwise.
  const std::size_t calls = 2 * (ThreadPool::global().size() + 1);
  std::vector<Grads> nested(calls);
  ThreadPool::global().for_range(
      0, calls,
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
          nested[i] = backward();
        }
      },
      /*grain=*/1);
  for (const Grads& r : nested) {
    expect_bitwise_equal(r, top);
  }
}

TEST(Gqa, GradCheckSmall) {
  const std::int64_t G = 1, S = 3, nh = 2, nkv = 1, dh = 4;
  const std::int64_t H = nh * dh, Hkv = nkv * dh;
  Rng rng(22);
  Tensor q = Tensor::randn({S, H}, rng);
  Tensor k = Tensor::randn({S, Hkv}, rng);
  Tensor v = Tensor::randn({S, Hkv}, rng);
  const Tensor dout = Tensor::randn({S, H}, rng);

  auto loss = [&](const float* qp, const float* kp, const float* vp) {
    Tensor out({S, H});
    Tensor lse({G, nh, S});
    attention_forward_stream(qp, kp, vp, out.data(), lse.data(), G, S, nh,
                             nkv, dh);
    double acc = 0.0;
    for (std::int64_t i = 0; i < S * H; ++i) {
      acc += static_cast<double>(out.data()[i]) * dout.data()[i];
    }
    return acc;
  };

  Tensor out({S, H});
  Tensor lse({G, nh, S});
  attention_forward_stream(q.data(), k.data(), v.data(), out.data(),
                           lse.data(), G, S, nh, nkv, dh);
  Tensor dq({S, H}), dk({S, Hkv}), dv({S, Hkv});
  attention_backward_stream(q.data(), k.data(), v.data(), out.data(),
                            lse.data(), dout.data(), dq.data(), dk.data(),
                            dv.data(), G, S, nh, nkv, dh);
  EXPECT_LT(gradient_max_rel_error(
                dk.span(), numeric_gradient(
                               [&](std::span<const float> x) {
                                 return loss(q.data(), x.data(), v.data());
                               },
                               k.span())),
            3e-3);
  EXPECT_LT(gradient_max_rel_error(
                dv.span(), numeric_gradient(
                               [&](std::span<const float> x) {
                                 return loss(q.data(), k.data(), x.data());
                               },
                               v.span())),
            3e-3);
  EXPECT_LT(gradient_max_rel_error(
                dq.span(), numeric_gradient(
                               [&](std::span<const float> x) {
                                 return loss(x.data(), k.data(), v.data());
                               },
                               q.span())),
            3e-3);
}

// ---- SwiGLU --------------------------------------------------------------------

TEST(Swiglu, GradCheck) {
  const std::int64_t rows = 3, dim = 4, ffn = 6;
  Rng rng(10);
  Tensor x = Tensor::randn({rows, dim}, rng);
  Tensor w1 = Tensor::randn({ffn, dim}, rng, 0.0f, 0.5f);
  Tensor w3 = Tensor::randn({ffn, dim}, rng, 0.0f, 0.5f);
  Tensor w2 = Tensor::randn({dim, ffn}, rng, 0.0f, 0.5f);
  const Tensor dy = Tensor::randn({rows, dim}, rng);

  auto loss = [&](const float* xp, const float* w1p, const float* w3p,
                  const float* w2p) {
    Tensor a({rows, ffn}), b({rows, ffn}), y({rows, dim});
    swiglu_forward(xp, w1p, w3p, w2p, a.data(), b.data(), y.data(), rows, dim,
                   ffn);
    double acc = 0.0;
    for (std::int64_t i = 0; i < rows * dim; ++i) {
      acc += static_cast<double>(y.data()[i]) * dy.data()[i];
    }
    return acc;
  };

  Tensor a({rows, ffn}), b({rows, ffn}), y({rows, dim});
  swiglu_forward(x.data(), w1.data(), w3.data(), w2.data(), a.data(),
                 b.data(), y.data(), rows, dim, ffn);
  Tensor dx({rows, dim});
  Tensor dw1({ffn, dim}), dw3({ffn, dim}), dw2({dim, ffn});
  dw1.zero();
  dw3.zero();
  dw2.zero();
  swiglu_backward(x.data(), w1.data(), w3.data(), w2.data(), a.data(),
                  b.data(), dy.data(), dx.data(), dw1.data(), dw3.data(),
                  dw2.data(), rows, dim, ffn);

  EXPECT_LT(gradient_max_rel_error(
                dx.span(),
                numeric_gradient(
                    [&](std::span<const float> p) {
                      return loss(p.data(), w1.data(), w3.data(), w2.data());
                    },
                    x.span())),
            2e-3);
  EXPECT_LT(gradient_max_rel_error(
                dw1.span(),
                numeric_gradient(
                    [&](std::span<const float> p) {
                      return loss(x.data(), p.data(), w3.data(), w2.data());
                    },
                    w1.span())),
            2e-3);
  EXPECT_LT(gradient_max_rel_error(
                dw3.span(),
                numeric_gradient(
                    [&](std::span<const float> p) {
                      return loss(x.data(), w1.data(), p.data(), w2.data());
                    },
                    w3.span())),
            2e-3);
  EXPECT_LT(gradient_max_rel_error(
                dw2.span(),
                numeric_gradient(
                    [&](std::span<const float> p) {
                      return loss(x.data(), w1.data(), w3.data(), p.data());
                    },
                    w2.span())),
            2e-3);
}

// ---- Cross entropy ---------------------------------------------------------------

TEST(CrossEntropy, UniformLogitsGiveLogV) {
  const std::int64_t rows = 4, vocab = 8;
  Tensor logits = Tensor::zeros({rows, vocab});
  std::vector<std::int32_t> targets = {0, 3, 5, 7};
  Tensor dlogits({rows, vocab});
  const float loss = cross_entropy(logits.data(), targets.data(),
                                   dlogits.data(), rows, vocab);
  EXPECT_NEAR(loss, std::log(8.0f), 1e-5f);
}

TEST(CrossEntropy, GradCheck) {
  const std::int64_t rows = 3, vocab = 5;
  Rng rng(11);
  Tensor logits = Tensor::randn({rows, vocab}, rng);
  std::vector<std::int32_t> targets = {1, 4, 0};

  Tensor dlogits({rows, vocab});
  const float base = cross_entropy(logits.data(), targets.data(),
                                   dlogits.data(), rows, vocab);
  (void)base;
  Tensor scratch({rows, vocab});
  const auto num = numeric_gradient(
      [&](std::span<const float> p) {
        return cross_entropy(p.data(), targets.data(), scratch.data(), rows,
                             vocab);
      },
      logits.span());
  EXPECT_LT(gradient_max_rel_error(dlogits.span(), num), 2e-3);
}

TEST(CrossEntropy, GradientRowsSumToZero) {
  const std::int64_t rows = 2, vocab = 6;
  Rng rng(12);
  Tensor logits = Tensor::randn({rows, vocab}, rng, 0.0f, 2.0f);
  std::vector<std::int32_t> targets = {2, 5};
  Tensor dlogits({rows, vocab});
  cross_entropy(logits.data(), targets.data(), dlogits.data(), rows, vocab);
  for (std::int64_t r = 0; r < rows; ++r) {
    double sum = 0.0;
    for (std::int64_t c = 0; c < vocab; ++c) {
      sum += dlogits(r, c);
    }
    EXPECT_NEAR(sum, 0.0, 1e-6);  // softmax minus one-hot sums to zero
  }
}

}  // namespace
}  // namespace weipipe
