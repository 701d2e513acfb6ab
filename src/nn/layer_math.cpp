#include "nn/layer_math.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "common/thread_pool.hpp"
#include "tensor/ops.hpp"

namespace weipipe {

namespace {

// Per-kernel dispatch grain: enough items per chunk that each claim carries
// ~kElemsPerChunk scalar operations (work_per_item = inner-loop length).
constexpr std::int64_t kElemsPerChunk = 1 << 15;

std::size_t grain_for(std::int64_t work_per_item) {
  return static_cast<std::size_t>(std::max<std::int64_t>(
      1, kElemsPerChunk / std::max<std::int64_t>(1, work_per_item)));
}

}  // namespace

void rmsnorm_forward(const float* x, const float* gain, float* y,
                     float* inv_rms, std::int64_t rows, std::int64_t dim,
                     float eps) {
  parallel_for_range(
      0, static_cast<std::size_t>(rows), grain_for(dim),
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t rr = lo; rr < hi; ++rr) {
          const std::int64_t r = static_cast<std::int64_t>(rr);
          const float* xr = x + r * dim;
          float* yr = y + r * dim;
          double ss = 0.0;
          for (std::int64_t j = 0; j < dim; ++j) {
            ss += static_cast<double>(xr[j]) * xr[j];
          }
          const float inv = 1.0f / std::sqrt(static_cast<float>(
                                                 ss / static_cast<double>(dim)) +
                                             eps);
          inv_rms[r] = inv;
          for (std::int64_t j = 0; j < dim; ++j) {
            yr[j] = xr[j] * inv * gain[j];
          }
        }
      });
}

void rmsnorm_backward(const float* x, const float* gain, const float* inv_rms,
                      const float* dy, float* dx, float* dgain,
                      std::int64_t rows, std::int64_t dim) {
  // Two passes so both parallelize race-free: rows own disjoint dx slices,
  // column blocks own disjoint dgain slices. Each dgain column still sums
  // over rows in increasing order, so results match the serial loop exactly.
  parallel_for_range(
      0, static_cast<std::size_t>(rows), grain_for(dim),
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t rr = lo; rr < hi; ++rr) {
          const std::int64_t r = static_cast<std::int64_t>(rr);
          const float* xr = x + r * dim;
          const float* dyr = dy + r * dim;
          float* dxr = dx + r * dim;
          const float inv = inv_rms[r];
          // s = sum_k dy_k * gain_k * x_k
          double s = 0.0;
          for (std::int64_t j = 0; j < dim; ++j) {
            s += static_cast<double>(dyr[j]) * gain[j] * xr[j];
          }
          const float coef =
              -static_cast<float>(s) * inv * inv * inv / static_cast<float>(dim);
          for (std::int64_t j = 0; j < dim; ++j) {
            dxr[j] = dyr[j] * gain[j] * inv + coef * xr[j];
          }
        }
      });
  parallel_for_range(
      0, static_cast<std::size_t>(dim), grain_for(rows),
      [&](std::size_t lo, std::size_t hi) {
        for (std::int64_t r = 0; r < rows; ++r) {
          const float* xr = x + r * dim;
          const float* dyr = dy + r * dim;
          const float inv = inv_rms[r];
          for (std::size_t j = lo; j < hi; ++j) {
            dgain[j] += dyr[j] * xr[j] * inv;
          }
        }
      });
}

void rope_apply(float* x, std::int64_t rows, std::int64_t seq,
                std::int64_t n_heads, std::int64_t head_dim, float theta,
                bool inverse) {
  const std::int64_t half = head_dim / 2;
  // Per-frequency base angles are position-scaled; precompute the inverse
  // frequencies once per call (head_dim is small).
  std::vector<float> inv_freq(static_cast<std::size_t>(half));
  for (std::int64_t i = 0; i < half; ++i) {
    inv_freq[static_cast<std::size_t>(i)] = std::pow(
        theta, -2.0f * static_cast<float>(i) / static_cast<float>(head_dim));
  }
  for (std::int64_t r = 0; r < rows; ++r) {
    const std::int64_t pos = r % seq;
    for (std::int64_t h = 0; h < n_heads; ++h) {
      float* base = x + r * n_heads * head_dim + h * head_dim;
      for (std::int64_t i = 0; i < half; ++i) {
        float ang = static_cast<float>(pos) * inv_freq[static_cast<std::size_t>(i)];
        if (inverse) {
          ang = -ang;
        }
        const float c = std::cos(ang);
        const float s = std::sin(ang);
        const float x0 = base[2 * i];
        const float x1 = base[2 * i + 1];
        base[2 * i] = x0 * c - x1 * s;
        base[2 * i + 1] = x0 * s + x1 * c;
      }
    }
  }
}

void attention_forward_naive(const float* q, const float* k, const float* v,
                             float* out, float* probs, std::int64_t G,
                             std::int64_t S, std::int64_t nh, std::int64_t nkv,
                             std::int64_t dh) {
  const float scl = 1.0f / std::sqrt(static_cast<float>(dh));
  const std::int64_t H = nh * dh;
  const std::int64_t Hkv = nkv * dh;
  const std::int64_t group = nh / nkv;
  parallel_for(0, static_cast<std::size_t>(G * nh), [&](std::size_t gh) {
    const std::int64_t g = static_cast<std::int64_t>(gh) / nh;
    const std::int64_t h = static_cast<std::int64_t>(gh) % nh;
    const std::int64_t kvh = h / group;  // shared key/value head
    float* p = probs + (g * nh + h) * S * S;
    for (std::int64_t i = 0; i < S; ++i) {
      const float* qi = q + (g * S + i) * H + h * dh;
      float* pi = p + i * S;
      for (std::int64_t j = 0; j <= i; ++j) {
        const float* kj = k + (g * S + j) * Hkv + kvh * dh;
        float acc = 0.0f;
        for (std::int64_t d = 0; d < dh; ++d) {
          acc += qi[d] * kj[d];
        }
        pi[j] = acc * scl;
      }
      const std::int64_t valid = i + 1;
      kernels::softmax_rows(pi, 1, S, &valid);
      float* oi = out + (g * S + i) * H + h * dh;
      std::memset(oi, 0, static_cast<std::size_t>(dh) * sizeof(float));
      for (std::int64_t j = 0; j <= i; ++j) {
        const float* vj = v + (g * S + j) * Hkv + kvh * dh;
        const float pij = pi[j];
        for (std::int64_t d = 0; d < dh; ++d) {
          oi[d] += pij * vj[d];
        }
      }
    }
  });
}

void attention_backward_naive(const float* q, const float* k, const float* v,
                              const float* probs, const float* dout, float* dq,
                              float* dk, float* dv, std::int64_t G,
                              std::int64_t S, std::int64_t nh,
                              std::int64_t nkv, std::int64_t dh) {
  const float scl = 1.0f / std::sqrt(static_cast<float>(dh));
  const std::int64_t H = nh * dh;
  const std::int64_t Hkv = nkv * dh;
  const std::int64_t group = nh / nkv;
  std::memset(dq, 0, static_cast<std::size_t>(G * S * H) * sizeof(float));
  std::memset(dk, 0, static_cast<std::size_t>(G * S * Hkv) * sizeof(float));
  std::memset(dv, 0, static_cast<std::size_t>(G * S * Hkv) * sizeof(float));
  // Parallelize over (g, kv-head): every query head in the group accumulates
  // into the same dk/dv slices, so the group stays on one task.
  parallel_for(0, static_cast<std::size_t>(G * nkv), [&](std::size_t gkv) {
    const std::int64_t g = static_cast<std::int64_t>(gkv) / nkv;
    const std::int64_t kvh = static_cast<std::int64_t>(gkv) % nkv;
    std::vector<float> dp(static_cast<std::size_t>(S));
    for (std::int64_t h = kvh * group; h < (kvh + 1) * group; ++h) {
      const float* p = probs + (g * nh + h) * S * S;
      for (std::int64_t i = 0; i < S; ++i) {
        const float* pi = p + i * S;
        const float* doi = dout + (g * S + i) * H + h * dh;
        // dV and dP for row i.
        double row_dot = 0.0;
        for (std::int64_t j = 0; j <= i; ++j) {
          const float* vj = v + (g * S + j) * Hkv + kvh * dh;
          float acc = 0.0f;
          for (std::int64_t d = 0; d < dh; ++d) {
            acc += doi[d] * vj[d];
          }
          dp[static_cast<std::size_t>(j)] = acc;
          row_dot += static_cast<double>(acc) * pi[j];
          float* dvj = dv + (g * S + j) * Hkv + kvh * dh;
          const float pij = pi[j];
          for (std::int64_t d = 0; d < dh; ++d) {
            dvj[d] += pij * doi[d];
          }
        }
        // dScores_ij = P_ij * (dP_ij - sum_k dP_ik P_ik); then dq, dk.
        const float* qi = q + (g * S + i) * H + h * dh;
        float* dqi = dq + (g * S + i) * H + h * dh;
        for (std::int64_t j = 0; j <= i; ++j) {
          const float ds =
              pi[j] * (dp[static_cast<std::size_t>(j)] -
                       static_cast<float>(row_dot)) * scl;
          const float* kj = k + (g * S + j) * Hkv + kvh * dh;
          float* dkj = dk + (g * S + j) * Hkv + kvh * dh;
          for (std::int64_t d = 0; d < dh; ++d) {
            dqi[d] += ds * kj[d];
            dkj[d] += ds * qi[d];
          }
        }
      }
    }
  });
}

namespace {

// FlashAttention-style blocking shared by the streaming forward and
// backward: kBq query rows against kBk key columns at a time. With equal
// block sizes every query block's last key block is its diagonal block, so
// every row of a visited block sees at least one key.
constexpr std::int64_t kBq = 64;
constexpr std::int64_t kBk = 64;
static_assert(kBq == kBk, "the causal loops assume square blocks");

// One causal probability block: s[mq, nk] (row stride kBk) first gets the
// raw scores Q_blk K_blkᵀ for query rows i0..i0+mq-1 against key rows
// j0..j0+nk-1 (the transpose is a stride swap on the strided K layout,
// never a copy). Row i may attend to its first `visible` keys only:
// to_probs(i, s_i, visible) scales those scores and turns them into
// probabilities in place (scaling there lets it share the caller's own pass
// over the row), and the masked tail is zeroed (P = 0) without
// exponentiating it.
template <typename RowFn>
void causal_prob_block(const float* qblk, std::int64_t q_rs, const float* kblk,
                       std::int64_t k_rs, float* s, std::int64_t i0,
                       std::int64_t mq, std::int64_t j0, std::int64_t nk,
                       std::int64_t dh, RowFn&& to_probs) {
  kernels::gemm(qblk, q_rs, 1, kblk, 1, k_rs, s, kBk, mq, dh, nk,
                /*accumulate=*/false);
  for (std::int64_t i = 0; i < mq; ++i) {
    float* si = s + i * kBk;
    const std::int64_t visible =
        std::clamp<std::int64_t>(i0 + i - j0 + 1, 0, nk);
    to_probs(i, si, visible);
    std::fill(si + visible, si + nk, 0.0f);
  }
}

}  // namespace

void attention_forward_stream(const float* q, const float* k, const float* v,
                              float* out, float* lse, std::int64_t G,
                              std::int64_t S, std::int64_t nh,
                              std::int64_t nkv, std::int64_t dh) {
  const float scl = 1.0f / std::sqrt(static_cast<float>(dh));
  const std::int64_t H = nh * dh;
  const std::int64_t Hkv = nkv * dh;
  const std::int64_t group = nh / nkv;
  // The score block and the P*V update are GEMMs against the strided Q/K/V
  // layouts; only the online-softmax rescale between them is elementwise.
  // O(S) working set per task instead of O(S^2) scores.
  parallel_for(0, static_cast<std::size_t>(G * nh), [&](std::size_t gh) {
    const std::int64_t g = static_cast<std::int64_t>(gh) / nh;
    const std::int64_t h = static_cast<std::int64_t>(gh) % nh;
    const std::int64_t kvh = h / group;
    std::vector<float> sblk(static_cast<std::size_t>(kBq * kBk));
    std::vector<float> acc(static_cast<std::size_t>(kBq * dh));
    std::vector<float> m(static_cast<std::size_t>(kBq));
    std::vector<float> l(static_cast<std::size_t>(kBq));
    for (std::int64_t i0 = 0; i0 < S; i0 += kBq) {
      const std::int64_t mq = std::min(kBq, S - i0);
      std::fill(m.begin(), m.end(), -std::numeric_limits<float>::infinity());
      std::fill(l.begin(), l.end(), 0.0f);
      std::fill(acc.begin(), acc.end(), 0.0f);
      const float* qblk = q + (g * S + i0) * H + h * dh;
      // Causal: the highest query row in this block sees keys 0..i0+mq-1.
      for (std::int64_t j0 = 0; j0 < i0 + mq; j0 += kBk) {
        const std::int64_t nk = std::min(kBk, i0 + mq - j0);
        // Online-softmax update per row: P relative to the running max.
        causal_prob_block(
            qblk, H, k + (g * S + j0) * Hkv + kvh * dh, Hkv, sblk.data(), i0,
            mq, j0, nk, dh,
            [&](std::int64_t i, float* si, std::int64_t visible) {
              const auto r = static_cast<std::size_t>(i);
              float bmax = -std::numeric_limits<float>::infinity();
              for (std::int64_t j = 0; j < visible; ++j) {
                si[j] *= scl;
                bmax = std::max(bmax, si[j]);
              }
              const float m_new = std::max(m[r], bmax);
              const float corr = (l[r] == 0.0f) ? 0.0f : std::exp(m[r] - m_new);
              float psum = 0.0f;
              for (std::int64_t j = 0; j < visible; ++j) {
                si[j] = std::exp(si[j] - m_new);
                psum += si[j];
              }
              l[r] = l[r] * corr + psum;
              m[r] = m_new;
              float* ai = acc.data() + i * dh;
              for (std::int64_t d = 0; d < dh; ++d) {
                ai[d] *= corr;
              }
            });
        // acc[mq, dh] += P_blk * V_blk.
        kernels::gemm(sblk.data(), kBk, 1, v + (g * S + j0) * Hkv + kvh * dh,
                      Hkv, 1, acc.data(), dh, mq, nk, dh, /*accumulate=*/true);
      }
      for (std::int64_t i = 0; i < mq; ++i) {
        float* oi = out + (g * S + i0 + i) * H + h * dh;
        const float* ai = acc.data() + i * dh;
        const float inv = 1.0f / l[static_cast<std::size_t>(i)];
        for (std::int64_t d = 0; d < dh; ++d) {
          oi[d] = ai[d] * inv;
        }
        lse[(g * nh + h) * S + i0 + i] =
            m[static_cast<std::size_t>(i)] +
            std::log(l[static_cast<std::size_t>(i)]);
      }
    }
  });
}

void attention_backward_stream(const float* q, const float* k, const float* v,
                               const float* out, const float* lse,
                               const float* dout, float* dq, float* dk,
                               float* dv, std::int64_t G, std::int64_t S,
                               std::int64_t nh, std::int64_t nkv,
                               std::int64_t dh) {
  const float scl = 1.0f / std::sqrt(static_cast<float>(dh));
  const std::int64_t H = nh * dh;
  const std::int64_t Hkv = nkv * dh;
  const std::int64_t group = nh / nkv;
  std::memset(dq, 0, static_cast<std::size_t>(G * S * H) * sizeof(float));
  std::memset(dk, 0, static_cast<std::size_t>(G * S * Hkv) * sizeof(float));
  std::memset(dv, 0, static_cast<std::size_t>(G * S * Hkv) * sizeof(float));
  // FlashAttention-2 backward on the forward's blocks: P is recomputed from
  // the saved lse, and each (query block, key block) pair costs five GEMMs
  // (S and dP, then the dV, dK and dQ updates). One task owns one (g, kv
  // head): every query head of the group writes the same dk/dv slices, and
  // dq rows belong to exactly one task, so all accumulation happens in the
  // task's fixed loop order — bitwise deterministic at any thread count,
  // with no atomics.
  parallel_for(0, static_cast<std::size_t>(G * nkv), [&](std::size_t gkv) {
    const std::int64_t g = static_cast<std::int64_t>(gkv) / nkv;
    const std::int64_t kvh = static_cast<std::int64_t>(gkv) % nkv;
    std::vector<float> pblk(static_cast<std::size_t>(kBq * kBk));
    std::vector<float> dsblk(static_cast<std::size_t>(kBq * kBk));
    std::vector<float> delta(static_cast<std::size_t>(S));
    for (std::int64_t h = kvh * group; h < (kvh + 1) * group; ++h) {
      // D_i = <dout_i, out_i> (the "delta" trick from FlashAttention-2).
      for (std::int64_t i = 0; i < S; ++i) {
        const float* oi = out + (g * S + i) * H + h * dh;
        const float* doi = dout + (g * S + i) * H + h * dh;
        float di = 0.0f;
        for (std::int64_t d = 0; d < dh; ++d) {
          di += doi[d] * oi[d];
        }
        delta[static_cast<std::size_t>(i)] = di;
      }
      const float* lse_h = lse + (g * nh + h) * S;
      for (std::int64_t j0 = 0; j0 < S; j0 += kBk) {
        const std::int64_t nk = std::min(kBk, S - j0);
        const float* kblk = k + (g * S + j0) * Hkv + kvh * dh;
        const float* vblk = v + (g * S + j0) * Hkv + kvh * dh;
        float* dkblk = dk + (g * S + j0) * Hkv + kvh * dh;
        float* dvblk = dv + (g * S + j0) * Hkv + kvh * dh;
        // Causal: only query blocks at or below the key block's diagonal.
        for (std::int64_t i0 = j0; i0 < S; i0 += kBq) {
          const std::int64_t mq = std::min(kBq, S - i0);
          const float* qblk = q + (g * S + i0) * H + h * dh;
          const float* doblk = dout + (g * S + i0) * H + h * dh;
          // dP[mq, nk] = dO_blk V_blkᵀ, turned into dS in place below.
          kernels::gemm(doblk, H, 1, vblk, 1, Hkv, dsblk.data(), kBk, mq, dh,
                        nk, /*accumulate=*/false);
          // P = exp(S * scl - lse); dS = P * (dP - D) * scl, 0 if masked.
          causal_prob_block(
              qblk, H, kblk, Hkv, pblk.data(), i0, mq, j0, nk, dh,
              [&](std::int64_t i, float* pi, std::int64_t visible) {
                float* dsi = dsblk.data() + i * kBk;
                const float lse_i = lse_h[i0 + i];
                const float di = delta[static_cast<std::size_t>(i0 + i)];
                for (std::int64_t j = 0; j < visible; ++j) {
                  pi[j] = std::exp(pi[j] * scl - lse_i);
                  dsi[j] = pi[j] * (dsi[j] - di) * scl;
                }
                std::fill(dsi + visible, dsi + nk, 0.0f);
              });
          // dV_blk += Pᵀ dO_blk;  dK_blk += dSᵀ Q_blk;  dQ_blk += dS K_blk.
          kernels::gemm(pblk.data(), 1, kBk, doblk, H, 1, dvblk, Hkv, nk, mq,
                        dh, /*accumulate=*/true);
          kernels::gemm(dsblk.data(), 1, kBk, qblk, H, 1, dkblk, Hkv, nk, mq,
                        dh, /*accumulate=*/true);
          kernels::gemm(dsblk.data(), kBk, 1, kblk, Hkv, 1,
                        dq + (g * S + i0) * H + h * dh, H, mq, nk, dh,
                        /*accumulate=*/true);
        }
      }
    }
  });
}

void swiglu_forward(const float* x, const float* w1, const float* w3,
                    const float* w2, float* a, float* b, float* y,
                    std::int64_t rows, std::int64_t dim, std::int64_t ffn) {
  kernels::matmul_bt(x, w1, a, rows, dim, ffn, /*accumulate=*/false);
  kernels::matmul_bt(x, w3, b, rows, dim, ffn, /*accumulate=*/false);
  std::vector<float> hbuf(static_cast<std::size_t>(rows * ffn));
  float* hp = hbuf.data();
  parallel_for_range(0, static_cast<std::size_t>(rows * ffn),
                     static_cast<std::size_t>(kElemsPerChunk),
                     [&](std::size_t lo, std::size_t hi) {
                       for (std::size_t i = lo; i < hi; ++i) {
                         hp[i] = silu(a[i]) * b[i];
                       }
                     });
  kernels::matmul_bt(hbuf.data(), w2, y, rows, ffn, dim, /*accumulate=*/false);
}

void swiglu_backward(const float* x, const float* w1, const float* w3,
                     const float* w2, const float* a, const float* b,
                     const float* dy, float* dx, float* dw1, float* dw3,
                     float* dw2, std::int64_t rows, std::int64_t dim,
                     std::int64_t ffn) {
  // Recompute h = silu(a) * b (cheap, avoids storing a third [rows,F] buffer).
  std::vector<float> h(static_cast<std::size_t>(rows * ffn));
  float* hp = h.data();
  parallel_for_range(0, static_cast<std::size_t>(rows * ffn),
                     static_cast<std::size_t>(kElemsPerChunk),
                     [&](std::size_t lo, std::size_t hi) {
                       for (std::size_t i = lo; i < hi; ++i) {
                         hp[i] = silu(a[i]) * b[i];
                       }
                     });
  // dW2 += dy^T h
  kernels::matmul_at(dy, h.data(), dw2, dim, rows, ffn, /*accumulate=*/true);
  // dh = dy W2
  std::vector<float>& dh = h;  // reuse buffer
  kernels::matmul(dy, w2, dh.data(), rows, dim, ffn, /*accumulate=*/false);
  // da = dh * b * silu'(a); db = dh * silu(a)
  std::vector<float> da(static_cast<std::size_t>(rows * ffn));
  std::vector<float> db(static_cast<std::size_t>(rows * ffn));
  float* dhp = dh.data();
  float* dap = da.data();
  float* dbp = db.data();
  parallel_for_range(0, static_cast<std::size_t>(rows * ffn),
                     static_cast<std::size_t>(kElemsPerChunk),
                     [&](std::size_t lo, std::size_t hi) {
                       for (std::size_t i = lo; i < hi; ++i) {
                         dap[i] = dhp[i] * b[i] * silu_grad(a[i]);
                         dbp[i] = dhp[i] * silu(a[i]);
                       }
                     });
  // dx = da W1 + db W3
  kernels::matmul(da.data(), w1, dx, rows, ffn, dim, /*accumulate=*/false);
  kernels::matmul(db.data(), w3, dx, rows, ffn, dim, /*accumulate=*/true);
  // dW1 += da^T x ; dW3 += db^T x
  kernels::matmul_at(da.data(), x, dw1, ffn, rows, dim, /*accumulate=*/true);
  kernels::matmul_at(db.data(), x, dw3, ffn, rows, dim, /*accumulate=*/true);
}

float cross_entropy(const float* logits, const std::int32_t* targets,
                    float* dlogits, std::int64_t rows, std::int64_t vocab) {
  const float inv_rows = 1.0f / static_cast<float>(rows);
  // Rows are independent; per-row losses land in a scratch array and are
  // summed serially afterwards so the total is deterministic under any
  // thread count.
  std::vector<double> row_loss(static_cast<std::size_t>(rows));
  double* rl = row_loss.data();
  parallel_for_range(
      0, static_cast<std::size_t>(rows), grain_for(vocab),
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t rr = lo; rr < hi; ++rr) {
          const std::int64_t r = static_cast<std::int64_t>(rr);
          const float* lr = logits + r * vocab;
          float* dr = dlogits + r * vocab;
          float mx = lr[0];
          for (std::int64_t j = 1; j < vocab; ++j) {
            mx = std::max(mx, lr[j]);
          }
          double denom = 0.0;
          for (std::int64_t j = 0; j < vocab; ++j) {
            denom += std::exp(static_cast<double>(lr[j] - mx));
          }
          const std::int64_t t = targets[r];
          rl[rr] = std::log(denom) - static_cast<double>(lr[t] - mx);
          const float inv_denom = static_cast<float>(1.0 / denom);
          for (std::int64_t j = 0; j < vocab; ++j) {
            const float p = std::exp(lr[j] - mx) * inv_denom;
            dr[j] = (p - (j == t ? 1.0f : 0.0f)) * inv_rows;
          }
        }
      });
  double total = 0.0;
  for (std::int64_t r = 0; r < rows; ++r) {
    total += rl[r];
  }
  return static_cast<float>(total / static_cast<double>(rows));
}

}  // namespace weipipe
