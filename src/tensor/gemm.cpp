#include "tensor/gemm.hpp"

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/thread_pool.hpp"

#if defined(__x86_64__) || defined(__i386__)
#define WEIPIPE_GEMM_X86 1
#else
#define WEIPIPE_GEMM_X86 0
#endif

namespace weipipe::kernels {

namespace {

// Cache blocking shared by every ISA: the packed A block (MC x KC) lives in
// L2 across the whole NC sweep, the packed B block (KC x NC) streams through
// L2/L3 once per macro-tile, and one B micro-panel (KC x NR) stays hot in L1.
// KC is the same for every ISA, so the K passes run in the same order
// whichever micro-kernel is selected.
constexpr std::int64_t kKC = 256;
constexpr std::int64_t kNC = 512;

// Tiles whose flop count falls below this run in one chunk; the dispatch
// grain scales so every claimed chunk carries at least this much work (the
// per-kernel replacement for the old global kParallelFlops heuristic —
// a matmul_bt with tiny n now gets a coarse grain instead of a task per
// row block).
constexpr std::int64_t kMinFlopsPerChunk = 1 << 21;  // ~2 MFLOP

// Register micro-tile of one ISA: MR rows of A against NR columns of B, held
// in an MR x (NR/VL) grid of SIMD vectors. NR is two vectors wide so the FMA
// latency chain per accumulator is hidden; MR is sized to the architectural
// register file (AVX-512 has 32 vector registers, SSE/AVX2 have 16).
template <int VecBytes, std::int64_t MR>
struct TileShape {
  static constexpr int kVecBytes = VecBytes;
  static constexpr std::int64_t kVL = VecBytes / 4;
  static constexpr std::int64_t kMR = MR;
  static constexpr std::int64_t kNR = 2 * kVL;
  static constexpr std::int64_t kMC = 16 * MR;
  static_assert(kNC % kNR == 0, "B macro block must hold whole micro-panels");
};
using Avx512Shape = TileShape<64, 8>;
using Avx2Shape = TileShape<32, 6>;
using Sse2Shape = TileShape<16, 6>;
constexpr std::int64_t kMaxMC = Avx512Shape::kMC;

struct Scratch {
  std::vector<float> a;  // kMaxMC x kKC, MR-interleaved panels
  std::vector<float> b;  // kKC x kNC, NR-interleaved panels
};

Scratch& scratch() {
  thread_local Scratch s;
  if (s.a.empty()) {
    s.a.resize(static_cast<std::size_t>(kMaxMC * kKC));
    s.b.resize(static_cast<std::size_t>(kKC * kNC));
  }
  return s;
}

// The operands of one gemm() call, shared by all of its macro-tiles.
struct GemmArgs {
  const float* a;
  std::int64_t a_rs, a_cs;
  const float* b;
  std::int64_t b_rs, b_cs;
  float* c;
  std::int64_t c_rs, k;
  bool accumulate;
};

// The pack -> micro-kernel -> tile chain below is templated on the tile
// shape and always inlined, so each target-attributed entry compiles the
// whole chain for its own ISA. No SIMD vector is passed to or returned from
// a function, so 64-byte vectors never appear in code built without
// AVX-512.
#define WEIPIPE_GEMM_INLINE inline __attribute__((always_inline))

// Packs A[i0 : i0+mc, pc : pc+kc] into MR-row panels: panel ip holds
// dst[ip*kc + pp*MR + i] = A(i0+ip+i, pc+pp), zero-padded to MR rows so the
// micro-kernel never branches on the row edge.
template <class T>
WEIPIPE_GEMM_INLINE void pack_a(float* dst, const GemmArgs& g, std::int64_t i0,
                                std::int64_t mc, std::int64_t pc,
                                std::int64_t kc) {
  for (std::int64_t ip = 0; ip < mc; ip += T::kMR) {
    const std::int64_t mr = std::min(T::kMR, mc - ip);
    float* panel = dst + ip * kc;
    const float* src = g.a + (i0 + ip) * g.a_rs + pc * g.a_cs;
    if (mr == T::kMR) {
      for (std::int64_t pp = 0; pp < kc; ++pp) {
        float* out = panel + pp * T::kMR;
        const float* col = src + pp * g.a_cs;
        for (std::int64_t i = 0; i < T::kMR; ++i) {
          out[i] = col[i * g.a_rs];
        }
      }
    } else {
      for (std::int64_t pp = 0; pp < kc; ++pp) {
        float* out = panel + pp * T::kMR;
        const float* col = src + pp * g.a_cs;
        for (std::int64_t i = 0; i < mr; ++i) {
          out[i] = col[i * g.a_rs];
        }
        for (std::int64_t i = mr; i < T::kMR; ++i) {
          out[i] = 0.0f;
        }
      }
    }
  }
}

// Packs B[pc : pc+kc, j0 : j0+nc] into NR-column panels: panel jp holds
// dst[jp*kc + pp*NR + j] = B(pc+pp, j0+jp+j), zero-padded to NR columns.
template <class T>
WEIPIPE_GEMM_INLINE void pack_b(float* dst, const GemmArgs& g, std::int64_t pc,
                                std::int64_t kc, std::int64_t j0,
                                std::int64_t nc) {
  for (std::int64_t jp = 0; jp < nc; jp += T::kNR) {
    const std::int64_t nr = std::min(T::kNR, nc - jp);
    float* panel = dst + jp * kc;
    const float* src = g.b + pc * g.b_rs + (j0 + jp) * g.b_cs;
    if (nr == T::kNR) {
      for (std::int64_t pp = 0; pp < kc; ++pp) {
        float* out = panel + pp * T::kNR;
        const float* row = src + pp * g.b_rs;
        for (std::int64_t j = 0; j < T::kNR; ++j) {
          out[j] = row[j * g.b_cs];
        }
      }
    } else {
      for (std::int64_t pp = 0; pp < kc; ++pp) {
        float* out = panel + pp * T::kNR;
        const float* row = src + pp * g.b_rs;
        for (std::int64_t j = 0; j < nr; ++j) {
          out[j] = row[j * g.b_cs];
        }
        for (std::int64_t j = nr; j < T::kNR; ++j) {
          out[j] = 0.0f;
        }
      }
    }
  }
}

// acc[MR x NR] = sum over kc of (A micro-panel column) x (B micro-panel row).
// The vector width is pinned with GCC/Clang vector extensions — leaving it
// to the auto-vectorizer produces pathological register shuffling (GCC 12
// emits dozens of vmovaps per iteration for the equivalent scalar loop, ~6%
// of peak). The scalar a[i] against a vector of b broadcasts into the FMA;
// the unroll pragmas keep the whole register tile in registers at -O2 too.
template <class T>
WEIPIPE_GEMM_INLINE void micro_kernel(const float* __restrict ap,
                                      const float* __restrict bp,
                                      std::int64_t kc, float* __restrict acc) {
  // may_alias: the accumulator spill buffer and packed panels are plain
  // float arrays; aligned(4): packed panels are only element-aligned.
  typedef float vfloat __attribute__((vector_size(T::kVecBytes), aligned(4),
                                      may_alias));
  constexpr std::int64_t kMR = T::kMR;
  constexpr std::int64_t kNR = T::kNR;
  constexpr std::int64_t kVL = T::kVL;
  constexpr std::int64_t kNV = kNR / kVL;
  vfloat c[kMR][kNV];
#pragma GCC unroll 16
  for (std::int64_t i = 0; i < kMR; ++i) {
#pragma GCC unroll 4
    for (std::int64_t v = 0; v < kNV; ++v) {
      c[i][v] = vfloat{};
    }
  }
  for (std::int64_t pp = 0; pp < kc; ++pp) {
    const float* a = ap + pp * kMR;
    const float* b = bp + pp * kNR;
    vfloat bv[kNV];
#pragma GCC unroll 4
    for (std::int64_t v = 0; v < kNV; ++v) {
      bv[v] = *reinterpret_cast<const vfloat*>(b + v * kVL);
    }
#pragma GCC unroll 16
    for (std::int64_t i = 0; i < kMR; ++i) {
      const float ai = a[i];
#pragma GCC unroll 4
      for (std::int64_t v = 0; v < kNV; ++v) {
        c[i][v] += ai * bv[v];
      }
    }
  }
#pragma GCC unroll 16
  for (std::int64_t i = 0; i < kMR; ++i) {
#pragma GCC unroll 4
    for (std::int64_t v = 0; v < kNV; ++v) {
      *reinterpret_cast<vfloat*>(acc + i * kNR + v * kVL) = c[i][v];
    }
  }
}

// One MC x NC macro-tile: full K loop with KC blocking. B is packed per
// (tile, KC block) into this thread's scratch — re-packing across M-tiles
// costs ~1/MC of the tile's flops and keeps tiles fully independent (no
// shared pack buffers, no synchronization).
template <class T>
WEIPIPE_GEMM_INLINE void gemm_tile(const GemmArgs& g, std::int64_t i0,
                                   std::int64_t mc, std::int64_t j0,
                                   std::int64_t nc) {
  constexpr std::int64_t kMR = T::kMR;
  constexpr std::int64_t kNR = T::kNR;
  Scratch& s = scratch();
  float acc[kMR * kNR];
  for (std::int64_t pc = 0; pc < g.k; pc += kKC) {
    const std::int64_t kc = std::min(kKC, g.k - pc);
    pack_b<T>(s.b.data(), g, pc, kc, j0, nc);
    pack_a<T>(s.a.data(), g, i0, mc, pc, kc);
    const bool overwrite = (pc == 0) && !g.accumulate;
    for (std::int64_t jp = 0; jp < nc; jp += kNR) {
      const std::int64_t nr = std::min(kNR, nc - jp);
      const float* bpanel = s.b.data() + jp * kc;
      for (std::int64_t ip = 0; ip < mc; ip += kMR) {
        const std::int64_t mr = std::min(kMR, mc - ip);
        micro_kernel<T>(s.a.data() + ip * kc, bpanel, kc, acc);
        float* cblock = g.c + (i0 + ip) * g.c_rs + (j0 + jp);
        if (mr == kMR && nr == kNR) {
          if (overwrite) {
            for (std::int64_t i = 0; i < kMR; ++i) {
              float* crow = cblock + i * g.c_rs;
              const float* arow = acc + i * kNR;
              for (std::int64_t j = 0; j < kNR; ++j) {
                crow[j] = arow[j];
              }
            }
          } else {
            for (std::int64_t i = 0; i < kMR; ++i) {
              float* crow = cblock + i * g.c_rs;
              const float* arow = acc + i * kNR;
              for (std::int64_t j = 0; j < kNR; ++j) {
                crow[j] += arow[j];
              }
            }
          }
        } else {
          for (std::int64_t i = 0; i < mr; ++i) {
            float* crow = cblock + i * g.c_rs;
            const float* arow = acc + i * kNR;
            for (std::int64_t j = 0; j < nr; ++j) {
              if (overwrite) {
                crow[j] = arow[j];
              } else {
                crow[j] += arow[j];
              }
            }
          }
        }
      }
    }
  }
}

// One entry per ISA, each compiled for its target with the chain above
// inlined into it. The selected entry is called once per macro-tile.
using TileFn = void (*)(const GemmArgs&, std::int64_t, std::int64_t,
                        std::int64_t, std::int64_t);

#if WEIPIPE_GEMM_X86
__attribute__((target("avx512f"))) void tile_avx512(
    const GemmArgs& g, std::int64_t i0, std::int64_t mc, std::int64_t j0,
    std::int64_t nc) {
  gemm_tile<Avx512Shape>(g, i0, mc, j0, nc);
}

__attribute__((target("avx2,fma"))) void tile_avx2(
    const GemmArgs& g, std::int64_t i0, std::int64_t mc, std::int64_t j0,
    std::int64_t nc) {
  gemm_tile<Avx2Shape>(g, i0, mc, j0, nc);
}
#endif

// The baseline ISA of the compiler: SSE2 on x86-64, 128-bit vectors on
// other GNU targets.
void tile_baseline(const GemmArgs& g, std::int64_t i0, std::int64_t mc,
                   std::int64_t j0, std::int64_t nc) {
  gemm_tile<Sse2Shape>(g, i0, mc, j0, nc);
}

struct Kernel {
  const char* name;
  std::int64_t mc;  // rows per macro-tile (16 * MR)
  TileFn tile;      // null when this build cannot emit the ISA
};

// Indexed by detail::GemmIsa, best first.
constexpr Kernel kKernels[] = {
#if WEIPIPE_GEMM_X86
    {"avx512", Avx512Shape::kMC, &tile_avx512},
    {"avx2", Avx2Shape::kMC, &tile_avx2},
    {"sse2", Sse2Shape::kMC, &tile_baseline},
#else
    {"avx512", Avx512Shape::kMC, nullptr},
    {"avx2", Avx2Shape::kMC, nullptr},
    {"vec128", Sse2Shape::kMC, &tile_baseline},
#endif
};

const Kernel& kernel(detail::GemmIsa isa) {
  return kKernels[static_cast<int>(isa)];
}

// The best ISA this process can run, probed once.
detail::GemmIsa dispatched_isa() {
  using detail::GemmIsa;
  static const GemmIsa isa =
      detail::gemm_isa_supported(GemmIsa::kAvx512) ? GemmIsa::kAvx512
      : detail::gemm_isa_supported(GemmIsa::kAvx2) ? GemmIsa::kAvx2
                                                   : GemmIsa::kSse2;
  return isa;
}

}  // namespace

namespace detail {

const char* gemm_isa_name(GemmIsa isa) { return kernel(isa).name; }

bool gemm_isa_supported(GemmIsa isa) {
#if WEIPIPE_GEMM_X86
  __builtin_cpu_init();
  switch (isa) {
    case GemmIsa::kAvx512:
      return __builtin_cpu_supports("avx512f");
    case GemmIsa::kAvx2:
      return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
    case GemmIsa::kSse2:
      return true;
  }
  return false;
#else
  return isa == GemmIsa::kSse2;
#endif
}

void gemm_with_isa(GemmIsa isa, const float* a, std::int64_t a_rs,
                   std::int64_t a_cs, const float* b, std::int64_t b_rs,
                   std::int64_t b_cs, float* c, std::int64_t c_rs,
                   std::int64_t m, std::int64_t k, std::int64_t n,
                   bool accumulate) {
  if (m <= 0 || n <= 0) {
    return;
  }
  if (k <= 0) {
    if (!accumulate) {
      for (std::int64_t i = 0; i < m; ++i) {
        std::memset(c + i * c_rs, 0, static_cast<std::size_t>(n) * sizeof(float));
      }
    }
    return;
  }

  const Kernel& kern = kernel(isa);
  const std::int64_t mc_max = kern.mc;
  const GemmArgs g{a, a_rs, a_cs, b, b_rs, b_cs, c, c_rs, k, accumulate};
  const std::int64_t n_mtiles = (m + mc_max - 1) / mc_max;
  const std::int64_t n_ntiles = (n + kNC - 1) / kNC;
  const std::int64_t tiles = n_mtiles * n_ntiles;

  auto run_tiles = [&](std::size_t lo, std::size_t hi) {
    for (std::size_t t = lo; t < hi; ++t) {
      // Consecutive indices walk M-tiles first so one chunk reuses its
      // packed-B macro block layout along the better-cached dimension.
      const std::int64_t ic = static_cast<std::int64_t>(t) % n_mtiles;
      const std::int64_t jc = static_cast<std::int64_t>(t) / n_mtiles;
      const std::int64_t i0 = ic * mc_max;
      const std::int64_t j0 = jc * kNC;
      kern.tile(g, i0, std::min(mc_max, m - i0), j0, std::min(kNC, n - j0));
    }
  };

  // Per-kernel grain: enough tiles per chunk that each claim carries
  // >= kMinFlopsPerChunk of work (a tiny-n or tiny-k call stops fanning out
  // into per-tile tasks).
  const std::int64_t tile_flops =
      2 * std::min(mc_max, m) * k * std::min(kNC, n);
  const std::size_t grain = static_cast<std::size_t>(
      std::max<std::int64_t>(1, kMinFlopsPerChunk / std::max<std::int64_t>(
                                                        1, tile_flops)));
  parallel_for_range(0, static_cast<std::size_t>(tiles), grain, run_tiles);
}

}  // namespace detail

const char* gemm_isa() { return detail::gemm_isa_name(dispatched_isa()); }

void gemm(const float* a, std::int64_t a_rs, std::int64_t a_cs,
          const float* b, std::int64_t b_rs, std::int64_t b_cs, float* c,
          std::int64_t c_rs, std::int64_t m, std::int64_t k, std::int64_t n,
          bool accumulate) {
  detail::gemm_with_isa(dispatched_isa(), a, a_rs, a_cs, b, b_rs, b_cs, c,
                        c_rs, m, k, n, accumulate);
}

void matmul_naive(const float* a, const float* b, float* c, std::int64_t m,
                  std::int64_t k, std::int64_t n, bool accumulate) {
  for (std::int64_t i = 0; i < m; ++i) {
    float* crow = c + i * n;
    if (!accumulate) {
      std::memset(crow, 0, static_cast<std::size_t>(n) * sizeof(float));
    }
    const float* arow = a + i * k;
    for (std::int64_t p = 0; p < k; ++p) {
      const float av = arow[p];
      const float* brow = b + p * n;
      for (std::int64_t j = 0; j < n; ++j) {
        crow[j] += av * brow[j];
      }
    }
  }
}

void matmul_bt_naive(const float* a, const float* b, float* c, std::int64_t m,
                     std::int64_t k, std::int64_t n, bool accumulate) {
  for (std::int64_t i = 0; i < m; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * n;
    for (std::int64_t j = 0; j < n; ++j) {
      const float* brow = b + j * k;
      float acc = 0.0f;
      for (std::int64_t p = 0; p < k; ++p) {
        acc += arow[p] * brow[p];
      }
      if (accumulate) {
        crow[j] += acc;
      } else {
        crow[j] = acc;
      }
    }
  }
}

void matmul_at_naive(const float* a, const float* b, float* c, std::int64_t m,
                     std::int64_t k, std::int64_t n, bool accumulate) {
  for (std::int64_t i = 0; i < m; ++i) {
    float* crow = c + i * n;
    if (!accumulate) {
      std::memset(crow, 0, static_cast<std::size_t>(n) * sizeof(float));
    }
    for (std::int64_t p = 0; p < k; ++p) {
      const float av = a[p * m + i];
      const float* brow = b + p * n;
      for (std::int64_t j = 0; j < n; ++j) {
        crow[j] += av * brow[j];
      }
    }
  }
}

}  // namespace weipipe::kernels
