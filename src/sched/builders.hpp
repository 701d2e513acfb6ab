// Program builders: emit the schedule IR for every strategy in the paper.
//
// Builders are pure schedule logic — all physics (durations, byte counts)
// arrives pre-computed in StrategyCosts, produced by sim::CostModel. This
// keeps sched/ dependency-free and lets tests drive builders with synthetic
// costs (e.g. T_B = 2 T_F) to check the paper's analytic bubble ratios.
#pragma once

#include <cstdint>
#include <vector>

#include "sched/program.hpp"
#include "sched/weipipe_schedule.hpp"

namespace weipipe::sched {

// Per-chunk / per-message costs for one (model, P, G, S) workload.
struct StrategyCosts {
  // Compute seconds for one microbatch through one chunk (pipeline stage).
  std::vector<double> fwd_seconds;  // [chunk]
  std::vector<double> bwd_seconds;  // [chunk] full backward (incl. recompute)
  // Zero-bubble split: bwd == bwd_acts + bwd_weights (no recompute for ZB).
  std::vector<double> bwd_acts_seconds;     // [chunk] B pass
  std::vector<double> bwd_weights_seconds;  // [chunk] W pass
  double optimizer_seconds = 0.0;           // per-rank update at iteration end

  // Wire bytes.
  std::vector<double> chunk_weight_bytes;  // [chunk] W (also D) message size
  double act_bytes = 0.0;       // one activation boundary message (G*S*H)
  double act_grad_bytes = 0.0;  // one activation-gradient message

  // Activation memory per microbatch per chunk (bytes), as stored between
  // forward and backward under the strategy's checkpointing policy.
  std::vector<double> act_mem_bytes;  // [chunk]

  std::int64_t num_chunks() const {
    return static_cast<std::int64_t>(fwd_seconds.size());
  }
};

// ---- WeiPipe family ----------------------------------------------------------

// WeiPipe-Naive / WeiPipe-Interleave from the turn algebra in
// weipipe_schedule.hpp. Emits, per worker per turn: weight-chunk sends (F and
// B flows), forward/backward computes, the D send, and the three receives.
// `prefetch=false` ablates the paper's communication overlap: weight sends
// move after the computes and block the sender, so nothing is in flight
// while the worker computes.
Program build_weipipe(const WeiPipeSchedule& schedule,
                      const StrategyCosts& costs, bool prefetch = true);

// WeiPipe-zero-bubble variants (paper §4.2.3; analyzed, not deployed — same
// status as in the paper). Turn-level models:
//  * WZB1: steady turns run one forward plus one B or W pass while moving
//    three chunks (two W + one D) per turn.
//  * WZB2: forward, B, and W passes fully sequential per worker; two chunks
//    on the wire per one-chunk compute; the last worker updates and re-injects
//    weights immediately, erasing the inter-iteration bubble.
enum class WzbVariant { kWzb1, kWzb2 };
Program build_weipipe_zero_bubble(std::int64_t num_workers,
                                  std::int64_t rounds, WzbVariant variant,
                                  const StrategyCosts& costs);

// ---- Activation-passing pipelines ----------------------------------------------

Program build_gpipe(std::int64_t num_stages, std::int64_t num_microbatches,
                    const StrategyCosts& costs);
Program build_1f1b(std::int64_t num_stages, std::int64_t num_microbatches,
                   const StrategyCosts& costs);

// Zero-bubble pipelines (Qi et al.): backward split into B and W passes.
//  * ZB1: W passes fill bubbles; in-flight microbatches capped like 1F1B
//    (activation memory ~= 1F1B).
//  * ZB2: deeper warmup (cap ~= 2P) and maximally deferred W passes;
//    near-zero bubble, ~2x activation memory.
enum class ZbVariant { kZb1, kZb2 };
Program build_zero_bubble(std::int64_t num_stages,
                          std::int64_t num_microbatches, ZbVariant variant,
                          const StrategyCosts& costs);

// ---- FSDP (ZeRO-3) -------------------------------------------------------------

// Every rank runs `rounds` local microbatches; per chunk, weights arrive via
// an asynchronous collective (all-gather) that overlaps compute, posted one
// chunk ahead (prefetch). Gradients reduce-scatter at iteration end.
// `collective_seconds(bytes)` is supplied by the caller because its duration
// depends on topology, not just size.
struct FsdpCollectiveCosts {
  std::vector<double> all_gather_seconds;      // [chunk]
  std::vector<double> reduce_scatter_seconds;  // [chunk]
  std::vector<double> all_gather_bytes;        // [chunk] per-rank wire share
  std::vector<double> reduce_scatter_bytes;    // [chunk]
};
// `overlap_prefetch` posts the next chunk's gather during the current
// chunk's compute (tuned DeepSpeed); false reproduces the blocking per-layer
// gathers the paper's FSDP baseline exhibits.
Program build_fsdp(std::int64_t num_ranks, std::int64_t local_rounds,
                   const StrategyCosts& costs,
                   const FsdpCollectiveCosts& coll,
                   bool overlap_prefetch = false);

}  // namespace weipipe::sched
