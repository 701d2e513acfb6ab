// Shared support for the machine-readable kernel-benchmark mode of the micro
// benches: flag parsing (--kernels_json=PATH, --smoke), best-of-N timing,
// and the label of the GEMM micro-kernel that runs. With --kernels_json the
// binary skips google-benchmark and writes one JSON document (consumed by CI
// as an artifact and by artifacts/BENCH_kernels.json locally); without it,
// the usual google-benchmark CLI runs.
#pragma once

#include <chrono>
#include <string>
#include <vector>

#include "tensor/gemm.hpp"

namespace weipipe::bench {

struct KernelsJsonArgs {
  std::string json_path;  // empty = run google-benchmark instead
  bool smoke = false;     // tiny shapes / few reps, for CI smoke steps
  std::vector<char*> rest;  // argv[0] + flags for google-benchmark
};

inline KernelsJsonArgs parse_kernels_json_args(int argc, char** argv) {
  KernelsJsonArgs out;
  out.rest.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--kernels_json=", 0) == 0) {
      out.json_path = arg.substr(15);
    } else if (arg == "--smoke") {
      out.smoke = true;
    } else {
      out.rest.push_back(argv[i]);
    }
  }
  return out;
}

// Wall-clock best-of-reps: minimum filters scheduler noise on shared CI
// machines better than the mean.
template <typename F>
double best_seconds(int reps, F&& fn) {
  double best = 1e30;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
  }
  return best;
}

// The GEMM micro-kernel this process dispatched to ("avx512", "avx2",
// "sse2"), probed at run time rather than read from compile-time macros.
inline const char* simd_label() { return kernels::gemm_isa(); }

}  // namespace weipipe::bench
