// Cache-blocked, register-tiled single-precision GEMM.
//
// One strided engine serves every orientation the layers need: an element of
// A is addressed as a[i*a_rs + p*a_cs], so a transpose is just a stride swap
// and never a copy. Internally the engine packs panels of A and B into
// thread-local scratch (MC x KC and KC x NC blocks, micro-panel interleaved)
// and runs an MR x NR register micro-kernel. The micro-kernel is compiled
// three times in one binary, for AVX-512 (8 x 32 tile), AVX2+FMA (6 x 16) and
// the SSE2 baseline (6 x 8), and the best one the CPU supports is picked
// once per process (gemm_isa() names it). Parallelism is over the 2-D grid
// of MC x NC macro-tiles, dispatched in flop-scaled chunks on the kernel
// thread pool.
//
// The naive triple-loop kernels are retained as the test/bench reference:
// tests/test_gemm.cpp sweeps the tiled engine against them, and
// bench_micro_tensor records the tiled-vs-naive GFLOP/s ratio in
// BENCH_kernels.json.
#pragma once

#include <cstdint>

namespace weipipe::kernels {

// C[m,n] (+)= A[m,k] * B[k,n] with arbitrary element strides for A and B:
// A(i,p) = a[i*a_rs + p*a_cs], B(p,j) = b[p*b_rs + j*b_cs]. C is row-major
// with row stride c_rs (columns contiguous). `accumulate` adds into C
// instead of overwriting it. Deterministic: the K reduction order is fixed
// by the blocking, independent of thread count. Results are bitwise
// reproducible per ISA; FMA and non-FMA micro-kernels round differently.
void gemm(const float* a, std::int64_t a_rs, std::int64_t a_cs,
          const float* b, std::int64_t b_rs, std::int64_t b_cs, float* c,
          std::int64_t c_rs, std::int64_t m, std::int64_t k, std::int64_t n,
          bool accumulate);

// The micro-kernel gemm() runs in this process: "avx512", "avx2" or "sse2"
// ("vec128", the 128-bit baseline, off x86).
const char* gemm_isa();

namespace detail {

// Every micro-kernel, best first. Tests use these to cover each ISA the host
// supports, not only the dispatched one.
enum class GemmIsa { kAvx512, kAvx2, kSse2 };

const char* gemm_isa_name(GemmIsa isa);
bool gemm_isa_supported(GemmIsa isa);

// gemm() on the given micro-kernel; `isa` must be supported by the host.
void gemm_with_isa(GemmIsa isa, const float* a, std::int64_t a_rs,
                   std::int64_t a_cs, const float* b, std::int64_t b_rs,
                   std::int64_t b_cs, float* c, std::int64_t c_rs,
                   std::int64_t m, std::int64_t k, std::int64_t n,
                   bool accumulate);

}  // namespace detail

// Naive reference implementations (serial triple loops). Retained so tests
// and benches always have the pre-tiling semantics to compare against.
void matmul_naive(const float* a, const float* b, float* c, std::int64_t m,
                  std::int64_t k, std::int64_t n, bool accumulate);
void matmul_bt_naive(const float* a, const float* b, float* c, std::int64_t m,
                     std::int64_t k, std::int64_t n, bool accumulate);
void matmul_at_naive(const float* a, const float* b, float* c, std::int64_t m,
                     std::int64_t k, std::int64_t n, bool accumulate);

}  // namespace weipipe::kernels
