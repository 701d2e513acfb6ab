// Tiled-GEMM engine checks: every orientation against the retained naive
// references over an adversarial shape sweep (micro/macro tile edges, odd
// sizes, degenerate dims, K and N block edges), run on every micro-kernel
// the host supports as well as through the dispatched gemm(); strided
// views, accumulate semantics, bitwise determinism under the thread pool
// per ISA, the dispatcher's choice, and an end-to-end gradcheck through a
// transformer layer so the whole kernel stack is exercised at once.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "gradcheck.hpp"
#include "nn/model.hpp"
#include "tensor/gemm.hpp"
#include "tensor/ops.hpp"
#include "tensor/tensor.hpp"

namespace weipipe {
namespace {

using testing::gradient_max_rel_error;
using testing::numeric_gradient;

constexpr float kRelTol = 1e-5f;

float max_rel_diff(const float* a, const float* b, std::int64_t n) {
  float worst = 0.0f;
  for (std::int64_t i = 0; i < n; ++i) {
    const float denom =
        std::max(1.0f, std::max(std::fabs(a[i]), std::fabs(b[i])));
    worst = std::max(worst, std::fabs(a[i] - b[i]) / denom);
  }
  return worst;
}

// Micro-tile edges (1..9), macro-tile edges (63..129: the AVX2/SSE2 MC is
// 96, the AVX-512 MC is 128), and odd sizes in between; 1 exercises the
// degenerate vector/row paths in every dim.
const std::int64_t kSweep[] = {1, 3, 8, 17, 33, 65, 97, 129};

// Shapes that cross the K block (kKC = 256) and the N block (kNC = 512),
// combined with M edges of every ISA's MC. Listed rather than swept: the
// naive reference makes the full cube of these sizes too slow.
struct Shape {
  std::int64_t m, k, n;
};
const Shape kBlockEdges[] = {{1, 257, 1},     {7, 257, 33},    {129, 257, 17},
                             {3, 513, 513},   {97, 33, 513},   {128, 256, 512},
                             {129, 257, 513}, {33, 600, 1030}};

using KernelFn = void (*)(const float*, const float*, float*, std::int64_t,
                          std::int64_t, std::int64_t, bool);

template <class Tiled>
void check_against_reference(const Tiled& tiled, KernelFn reference,
                             std::int64_t m, std::int64_t k, std::int64_t n,
                             float tol) {
  for (bool accumulate : {false, true}) {
    Rng rng(m * 1000003 + k * 1009 + n + (accumulate ? 7 : 0));
    Tensor a = Tensor::randn({m, k}, rng);
    Tensor b = Tensor::randn({k, n}, rng);  // laid out per orientation
    Tensor c_tiled = Tensor::randn({m, n}, rng);
    Tensor c_ref = c_tiled;
    tiled(a.data(), b.data(), c_tiled.data(), m, k, n, accumulate);
    reference(a.data(), b.data(), c_ref.data(), m, k, n, accumulate);
    ASSERT_LT(max_rel_diff(c_tiled.data(), c_ref.data(), m * n), tol)
        << "m=" << m << " k=" << k << " n=" << n
        << " accumulate=" << accumulate;
  }
}

template <class Tiled>
void sweep_against_reference(const Tiled& tiled, KernelFn reference) {
  for (std::int64_t m : kSweep) {
    for (std::int64_t k : kSweep) {
      for (std::int64_t n : kSweep) {
        check_against_reference(tiled, reference, m, k, n, kRelTol);
        if (::testing::Test::HasFatalFailure()) {
          return;
        }
      }
    }
  }
  // fp32 rounding error grows with the reduction length, so the block-edge
  // shapes (k up to 600) scale the tolerance by k/128; the sweep above keeps
  // the flat one.
  for (const Shape& s : kBlockEdges) {
    const float tol =
        kRelTol * std::max(1.0f, static_cast<float>(s.k) / 128.0f);
    check_against_reference(tiled, reference, s.m, s.k, s.n, tol);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
}

// ---- The dispatched engine -------------------------------------------------

TEST(Gemm, MatmulMatchesNaiveOverSweep) {
  sweep_against_reference(&kernels::matmul, &kernels::matmul_naive);
}

TEST(Gemm, MatmulBtMatchesNaiveOverSweep) {
  sweep_against_reference(&kernels::matmul_bt, &kernels::matmul_bt_naive);
}

TEST(Gemm, MatmulAtMatchesNaiveOverSweep) {
  sweep_against_reference(&kernels::matmul_at, &kernels::matmul_at_naive);
}

// ---- Every micro-kernel the host supports ---------------------------------

using kernels::detail::GemmIsa;

const GemmIsa kAllIsas[] = {GemmIsa::kAvx512, GemmIsa::kAvx2, GemmIsa::kSse2};

// The three orientations as stride spellings of gemm_with_isa, with the same
// operand layouts as matmul (0), matmul_bt (1) and matmul_at (2).
template <int kOrient>
void isa_matmul(GemmIsa isa, const float* a, const float* b, float* c,
                std::int64_t m, std::int64_t k, std::int64_t n,
                bool accumulate) {
  // A(i,p) = a[i*a_rs + p*a_cs], B(p,j) = b[p*b_rs + j*b_cs].
  const std::int64_t a_rs = kOrient == 2 ? 1 : k;
  const std::int64_t a_cs = kOrient == 2 ? m : 1;
  const std::int64_t b_rs = kOrient == 1 ? 1 : n;
  const std::int64_t b_cs = kOrient == 1 ? k : 1;
  kernels::detail::gemm_with_isa(isa, a, a_rs, a_cs, b, b_rs, b_cs, c, n, m,
                                 k, n, accumulate);
}

class GemmIsaTest : public ::testing::TestWithParam<GemmIsa> {
 protected:
  void SetUp() override {
    if (!kernels::detail::gemm_isa_supported(GetParam())) {
      GTEST_SKIP() << "host CPU lacks "
                   << kernels::detail::gemm_isa_name(GetParam());
    }
  }

  template <int kOrient>
  auto kernel() const {
    const GemmIsa isa = GetParam();
    return [isa](const float* a, const float* b, float* c, std::int64_t m,
                 std::int64_t k, std::int64_t n, bool accumulate) {
      isa_matmul<kOrient>(isa, a, b, c, m, k, n, accumulate);
    };
  }
};

TEST_P(GemmIsaTest, MatmulMatchesNaiveOverSweep) {
  sweep_against_reference(kernel<0>(), &kernels::matmul_naive);
}

TEST_P(GemmIsaTest, MatmulBtMatchesNaiveOverSweep) {
  sweep_against_reference(kernel<1>(), &kernels::matmul_bt_naive);
}

TEST_P(GemmIsaTest, MatmulAtMatchesNaiveOverSweep) {
  sweep_against_reference(kernel<2>(), &kernels::matmul_at_naive);
}

// The K-reduction order is fixed by the blocking, not by which thread claims
// which tile — repeated runs must agree bit-for-bit (trainer-equivalence
// tests depend on this). The shape crosses the K block and every ISA's M
// macro-tile so several tiles run on the pool.
TEST_P(GemmIsaTest, BitwiseDeterministicAcrossRuns) {
  const std::int64_t m = 291, k = 300, n = 170;
  Rng rng(5);
  Tensor a = Tensor::randn({m, k}, rng);
  Tensor b = Tensor::randn({k, n}, rng);
  Tensor first({m, n});
  isa_matmul<0>(GetParam(), a.data(), b.data(), first.data(), m, k, n, false);
  for (int run = 0; run < 5; ++run) {
    Tensor c({m, n});
    isa_matmul<0>(GetParam(), a.data(), b.data(), c.data(), m, k, n, false);
    ASSERT_EQ(std::memcmp(first.data(), c.data(),
                          static_cast<std::size_t>(m * n) * sizeof(float)),
              0)
        << "run " << run;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllIsas, GemmIsaTest, ::testing::ValuesIn(kAllIsas),
    [](const ::testing::TestParamInfo<GemmIsa>& info) {
      return std::string(kernels::detail::gemm_isa_name(info.param));
    });

// gemm() must run the best micro-kernel the CPU reports, so a broken probe
// cannot silently fall back to a narrower one.
TEST(Gemm, DispatchesBestSupportedIsa) {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  const char* best = "sse2";
  if (__builtin_cpu_supports("avx512f")) {
    best = "avx512";
  } else if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    best = "avx2";
  }
  EXPECT_STREQ(kernels::gemm_isa(), best);
#else
  EXPECT_STREQ(kernels::gemm_isa(), "vec128");
#endif
}

TEST(Gemm, ZeroKZeroesOrPreserves) {
  Tensor c = Tensor::full({3, 4}, 2.5f);
  kernels::gemm(nullptr, 0, 0, nullptr, 0, 0, c.data(), 4, 3, 0, 4,
                /*accumulate=*/true);
  for (std::int64_t i = 0; i < c.numel(); ++i) {
    EXPECT_EQ(c.data()[i], 2.5f);
  }
  kernels::gemm(nullptr, 0, 0, nullptr, 0, 0, c.data(), 4, 3, 0, 4,
                /*accumulate=*/false);
  for (std::int64_t i = 0; i < c.numel(); ++i) {
    EXPECT_EQ(c.data()[i], 0.0f);
  }
}

// The strided engine must address sub-matrices of larger buffers (WeiPipe
// weight chunks are flat buffers; layers take views) and must not touch
// anything outside the view.
TEST(Gemm, StridedViewsMatchCompactAndPreservePadding) {
  const std::int64_t m = 37, k = 53, n = 29;
  const std::int64_t a_ld = k + 5, b_ld = n + 3, c_ld = n + 7;
  Rng rng(99);
  Tensor a_full = Tensor::randn({m, a_ld}, rng);
  Tensor b_full = Tensor::randn({k, b_ld}, rng);
  Tensor c_full = Tensor::full({m, c_ld}, 123.0f);

  kernels::gemm(a_full.data(), a_ld, 1, b_full.data(), b_ld, 1, c_full.data(),
                c_ld, m, k, n, /*accumulate=*/false);

  // Compact copies through the naive reference.
  std::vector<float> a(static_cast<std::size_t>(m * k));
  std::vector<float> b(static_cast<std::size_t>(k * n));
  std::vector<float> c(static_cast<std::size_t>(m * n));
  for (std::int64_t i = 0; i < m; ++i) {
    std::memcpy(&a[static_cast<std::size_t>(i * k)], a_full.data() + i * a_ld,
                static_cast<std::size_t>(k) * sizeof(float));
  }
  for (std::int64_t p = 0; p < k; ++p) {
    std::memcpy(&b[static_cast<std::size_t>(p * n)], b_full.data() + p * b_ld,
                static_cast<std::size_t>(n) * sizeof(float));
  }
  kernels::matmul_naive(a.data(), b.data(), c.data(), m, k, n,
                        /*accumulate=*/false);

  for (std::int64_t i = 0; i < m; ++i) {
    ASSERT_LT(max_rel_diff(c_full.data() + i * c_ld,
                           &c[static_cast<std::size_t>(i * n)], n),
              kRelTol)
        << "row " << i;
    for (std::int64_t j = n; j < c_ld; ++j) {
      ASSERT_EQ(c_full.data()[i * c_ld + j], 123.0f)
          << "padding touched at (" << i << "," << j << ")";
    }
  }
}

// Column-strided A and B (both transposed via strides, not layout).
TEST(Gemm, TransposedStridesMatchExplicitTranspose) {
  const std::int64_t m = 41, k = 23, n = 35;
  Rng rng(7);
  Tensor at = Tensor::randn({k, m}, rng);  // A^T stored row-major
  Tensor bt = Tensor::randn({n, k}, rng);  // B^T stored row-major
  Tensor c({m, n});
  // A(i,p) = at[p*m + i], B(p,j) = bt[j*k + p].
  kernels::gemm(at.data(), 1, m, bt.data(), 1, k, c.data(), n, m, k, n,
                /*accumulate=*/false);

  Tensor a({m, k});
  Tensor b({k, n});
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t p = 0; p < k; ++p) {
      a.data()[i * k + p] = at.data()[p * m + i];
    }
  }
  for (std::int64_t p = 0; p < k; ++p) {
    for (std::int64_t j = 0; j < n; ++j) {
      b.data()[p * n + j] = bt.data()[j * k + p];
    }
  }
  Tensor c_ref({m, n});
  kernels::matmul_naive(a.data(), b.data(), c_ref.data(), m, k, n,
                        /*accumulate=*/false);
  EXPECT_LT(max_rel_diff(c.data(), c_ref.data(), m * n), kRelTol);
}

// End-to-end: a full transformer layer (attention + SwiGLU, every GEMM
// orientation, the lifted layer_math kernels) still passes a numeric
// gradient check after the kernel rework.
TEST(Gemm, TransformerLayerGradCheckThroughTiledKernels) {
  ModelConfig cfg;
  cfg.vocab_size = 16;
  cfg.dim = 8;
  cfg.n_layers = 1;
  cfg.n_heads = 2;
  cfg.seq_len = 5;
  cfg.ffn_hidden = 12;
  TransformerLayerBlock block(cfg);
  SyntheticDataset data(cfg.vocab_size, 17);
  const Microbatch mb = data.make(0, 1, cfg.seq_len);
  Rng rng(31);
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
            {mb.rows(), cfg.dim}, std::vector<float>(p.begin(), p.end()));
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

}  // namespace
}  // namespace weipipe
