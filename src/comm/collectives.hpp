// Ring collectives built on the P2P fabric, for the FSDP (ZeRO-3-style)
// baseline: its weight gathers (ring_broadcast), its gradient reduction
// (ring_reduce_to_root) and its clip norm (ring_all_reduce_scalar). The
// pipeline and WeiPipe trainers run their chains as schedule-program ops
// instead (sched::build_weipipe_step, sched::append_clip_chain). NCCL's
// default ring algorithms are what the paper's experiments exercise ("tree
// algorithms were not adopted").
//
// SPMD usage: every rank calls the same collective with the same sizes; calls
// must not interleave different collectives on the same tag_base.
#pragma once

#include <cstdint>
#include <span>

#include "comm/fabric.hpp"

namespace weipipe::comm {

// Reserved tag blocks: point-to-point user tags must stay below this.
inline constexpr std::int64_t kCollectiveTagBase = 1'000'000'000;

// Sum of one double across all ranks, returned on every rank. Accumulates in
// rank order toward the highest rank, then chain-broadcasts back —
// deterministic association, used by global-norm gradient clipping. The
// default tags are wire_tags::kTagClipUp / kTagClipDown.
double ring_all_reduce_scalar(Endpoint& ep, double value,
                              std::int64_t tag_base = kCollectiveTagBase +
                                                      6'000);

// One-to-all broadcast along the ring (pipeline-friendly chain broadcast).
void ring_broadcast(Endpoint& ep, int root, std::span<float> buffer,
                    WirePrecision precision,
                    std::int64_t tag_base = kCollectiveTagBase + 4'000);

// All-to-one sum along the ring: the chain root+1 -> root+2 -> ... -> root
// accumulates every rank's `contribution`; only `root`'s `out` is written
// (out/contribution may alias on the root). Moves (P-1) buffer-sized
// messages — the same volume as NCCL's ring reduce.
void ring_reduce_to_root(Endpoint& ep, int root,
                         std::span<const float> contribution,
                         std::span<float> out, WirePrecision precision,
                         std::int64_t tag_base = kCollectiveTagBase + 5'000);

}  // namespace weipipe::comm
