// Ablations of the design decisions DESIGN.md §5 calls out, at paper scale
// through the calibrated simulator:
//   1. Interleave vs Naive across round counts (the §4.2.2 improvement)
//   2. Communication overlap (weight sends ahead of compute) on/off
//   3. FSDP gather prefetch on/off
//   4. Ring granularity: workers per ring at fixed world size (hybrid DP)
//   5. Wire precision: fp16 vs fp32 circulation volume
#include <cstdio>

#include "bench_util.hpp"
#include "sim/cost_model.hpp"

using namespace weipipe;
using namespace weipipe::bench;

namespace {

sim::ModelDims paper_dims() {
  sim::ModelDims dims;
  dims.hidden = 2048;
  dims.seq = 8192;
  dims.microbatch = 8;
  dims.layers = 32;
  dims.heads = 32;
  return dims;
}

double tokens_per_s(const sched::Program& prog, const sim::Topology& topo,
                    double tokens) {
  const sim::SimResult res = sim::simulate(prog, topo);
  return tokens / res.makespan / topo.ranks();
}

}  // namespace

int main() {
  const int P = 16;
  const sim::ModelDims dims = paper_dims();
  const sim::GpuSpec gpu;
  const sim::CostModel cm(dims, gpu, {});
  const sched::StrategyCosts costs = cm.strategy_costs(P);
  const sim::Topology topo = sim::Topology::nvlink(P, 8);
  const double tokens_per_round =
      static_cast<double>(P) * dims.tokens_per_microbatch();

  std::printf("== Ablation 1: interleave vs naive across rounds ==\n");
  std::printf("(paper §4.2.2: interleaving halves the naive bubble+turns)\n");
  std::printf("%8s | %14s | %14s | %8s\n", "rounds", "naive tok/s", "intl tok/s",
              "speedup");
  for (std::int64_t r : {1LL, 2LL, 4LL, 8LL, 16LL}) {
    const double tokens = static_cast<double>(r) * tokens_per_round;
    const double naive = tokens_per_s(
        sched::build_weipipe(WeiPipeSchedule(P, r, WeiPipeMode::kNaive),
                             costs),
        topo, tokens);
    const double intl = tokens_per_s(
        sched::build_weipipe(WeiPipeSchedule(P, r, WeiPipeMode::kInterleave),
                             costs),
        topo, tokens);
    std::printf("%8lld | %14.0f | %14.0f | %7.2fx\n",
                static_cast<long long>(r), naive, intl, intl / naive);
  }

  std::printf("\n== Ablation 2: WeiPipe communication overlap ==\n");
  const std::int64_t r = 16;
  const double tokens = static_cast<double>(r) * tokens_per_round;
  const WeiPipeSchedule sched(P, r, WeiPipeMode::kInterleave);
  const double with = tokens_per_s(
      sched::build_weipipe(sched, costs, /*prefetch=*/true), topo, tokens);
  const double without = tokens_per_s(
      sched::build_weipipe(sched, costs, /*prefetch=*/false), topo, tokens);
  std::printf("  prefetch on : %10.0f tok/s/GPU\n", with);
  std::printf("  prefetch off: %10.0f tok/s/GPU  (%.0f%% slower)\n", without,
              (1.0 - without / with) * 100.0);
  shape_check("overlap-pays", with > without * 1.02, "paper §5");

  std::printf("\n== Ablation 3: FSDP gather prefetch ==\n");
  const auto coll = cm.fsdp_collective_costs(P, topo);
  const double fsdp_block = tokens_per_s(
      sched::build_fsdp(P, r, costs, coll, /*overlap_prefetch=*/false), topo,
      tokens);
  const double fsdp_pref = tokens_per_s(
      sched::build_fsdp(P, r, costs, coll, /*overlap_prefetch=*/true), topo,
      tokens);
  std::printf("  blocking gathers : %10.0f tok/s/GPU (paper's baseline)\n",
              fsdp_block);
  std::printf("  prefetched       : %10.0f tok/s/GPU\n", fsdp_pref);
  shape_check("fsdp-prefetch-helps", fsdp_pref >= fsdp_block, "");

  std::printf("\n== Ablation 4: wire precision (circulated volume) ==\n");
  {
    const sim::SimResult fp16 = sim::simulate(
        sched::build_weipipe(sched, costs), topo);
    sched::StrategyCosts fp32 = costs;
    for (double& b : fp32.chunk_weight_bytes) {
      b *= 2.0;  // fp32 circulation doubles every chunk message
    }
    const sim::SimResult wide = sim::simulate(
        sched::build_weipipe(sched, fp32), topo);
    std::printf("  fp16 circulation: %8.1f GB wire, makespan %.1f s\n",
                fp16.p2p_bytes / 1e9, fp16.makespan);
    std::printf("  fp32 circulation: %8.1f GB wire, makespan %.1f s\n",
                wide.p2p_bytes / 1e9, wide.makespan);
    shape_check("fp16-halves-wire",
                fp16.p2p_bytes < 0.51 * wide.p2p_bytes, "");
  }

  std::printf(
      "\n== Ablation 5: ring granularity at fixed world size (32 GPUs) ==\n");
  std::printf("(hybrid WeiPipe x DP: fewer chunks per ring = fatter chunks, "
              "fewer turns, plus a cross-replica reduce)\n");
  std::printf("%12s | %14s | %10s\n", "rings x size", "tok/s/GPU", "bubble");
  for (int ring : {8, 16, 32}) {
    const int dp = 32 / ring;
    const sim::CostModel cm_ring(dims, gpu, {});
    const sched::StrategyCosts rc = cm_ring.strategy_costs(ring);
    const sim::Topology ring_topo = sim::Topology::nvlink(ring, 8);
    const WeiPipeSchedule rs(ring, 16, WeiPipeMode::kInterleave);
    const sim::SimResult res =
        sim::simulate(sched::build_weipipe(rs, rc), ring_topo);
    const double tok = 16.0 * ring * dims.tokens_per_microbatch() /
                       res.makespan / ring;
    std::printf("%6dx%-5d | %14.0f | %9.1f%%\n", dp, ring, tok,
                res.bubble_ratio() * 100.0);
  }
  std::printf("(per-ring numbers; the DP reduce adds one chunk-sized hop per "
              "replica per iteration)\n");
  return 0;
}
