#include "sched/builders.hpp"

#include <algorithm>
#include <deque>
#include <limits>

#include "common/check.hpp"
#include "sched/wire_tags.hpp"

namespace weipipe::sched {

using namespace wire_tags;

namespace {

void check_costs(const StrategyCosts& c, std::int64_t chunks) {
  WEIPIPE_CHECK_MSG(c.num_chunks() == chunks, "costs sized for "
                                                  << c.num_chunks()
                                                  << " chunks, need "
                                                  << chunks);
  WEIPIPE_CHECK(static_cast<std::int64_t>(c.bwd_seconds.size()) == chunks);
  WEIPIPE_CHECK(static_cast<std::int64_t>(c.chunk_weight_bytes.size()) ==
                chunks);
  WEIPIPE_CHECK(static_cast<std::int64_t>(c.act_mem_bytes.size()) == chunks);
}

}  // namespace

const char* to_string(ComputeKind kind) {
  switch (kind) {
    case ComputeKind::kForward: return "F";
    case ComputeKind::kBackward: return "B";
    case ComputeKind::kBackwardActs: return "Ba";
    case ComputeKind::kBackwardWeights: return "Bw";
    case ComputeKind::kOptimizer: return "U";
    case ComputeKind::kLoss: return "L";
  }
  return "?";
}

const char* to_string(MsgKind kind) {
  switch (kind) {
    case MsgKind::kOpaque: return "opaque";
    case MsgKind::kWeightF: return "F-weight";
    case MsgKind::kWeightB: return "B-weight";
    case MsgKind::kGradD: return "D-grad";
    case MsgKind::kActivation: return "activation";
    case MsgKind::kActGrad: return "act-grad";
  }
  return "?";
}

// ---- WeiPipe -------------------------------------------------------------------

Program build_weipipe(const WeiPipeSchedule& schedule,
                      const StrategyCosts& costs, bool prefetch) {
  const std::int64_t p = schedule.num_workers();
  check_costs(costs, p);
  Program prog;
  prog.name = to_string(schedule.mode());
  prog.rank_ops.resize(static_cast<std::size_t>(p));

  const std::int64_t turns = schedule.total_turns();
  const auto bytes = [&](std::int64_t c) {
    return costs.chunk_weight_bytes[static_cast<std::size_t>(c)];
  };
  for (std::int64_t w = 0; w < p; ++w) {
    auto& ops = prog.rank_ops[static_cast<std::size_t>(w)];
    const int next = static_cast<int>((w + 1) % p);
    const int prev = static_cast<int>((w + p - 1) % p);
    for (std::int64_t t = 0; t < turns; ++t) {
      const std::int64_t cf = schedule.f_chunk_at(w, t);
      const std::int64_t cb = schedule.b_chunk_at(w, t);
      const TurnActions acts = schedule.actions(w, t);
      const auto send_weights = [&](bool blocking) {
        ops.push_back(SendOp{next, bytes(cf), kTagF, blocking,
                             MsgKind::kWeightF, cf});
        ops.push_back(SendOp{next, bytes(cb), kTagBW, blocking,
                             MsgKind::kWeightB, cb});
      };
      // Weight chunks ship before compute, so the transfer overlaps it (the
      // paper's communication overlap). The ablated variant ships after
      // compute, blocking.
      if (prefetch) {
        send_weights(/*blocking=*/false);
      }
      if (acts.fwd) {
        ops.push_back(ComputeOp{
            ComputeKind::kForward, acts.fwd->round * p + w, acts.fwd->chunk,
            costs.fwd_seconds[static_cast<std::size_t>(acts.fwd->chunk)],
            costs.act_mem_bytes[static_cast<std::size_t>(acts.fwd->chunk)]});
      }
      if (acts.bwd) {
        ops.push_back(ComputeOp{
            ComputeKind::kBackward, acts.bwd->round * p + w, acts.bwd->chunk,
            costs.bwd_seconds[static_cast<std::size_t>(acts.bwd->chunk)],
            -costs.act_mem_bytes[static_cast<std::size_t>(acts.bwd->chunk)]});
      }
      if (!prefetch) {
        send_weights(/*blocking=*/true);
      }
      // D leaves only after this worker's contribution is in.
      ops.push_back(SendOp{next, bytes(cb), kTagBD, /*blocking=*/false,
                           MsgKind::kGradD, cb});
      ops.push_back(RecvOp{prev, kTagF, MsgKind::kWeightF});
      ops.push_back(RecvOp{prev, kTagBW, MsgKind::kWeightB});
      ops.push_back(RecvOp{prev, kTagBD, MsgKind::kGradD});
    }
    ops.push_back(ComputeOp{ComputeKind::kOptimizer, -1, -1,
                            costs.optimizer_seconds, 0.0});
  }
  return prog;
}

Program build_weipipe_zero_bubble(std::int64_t num_workers,
                                  std::int64_t rounds, WzbVariant variant,
                                  const StrategyCosts& costs) {
  const std::int64_t p = num_workers;
  check_costs(costs, p);
  Program prog;
  prog.name = variant == WzbVariant::kWzb1 ? "wzb1" : "wzb2";
  prog.rank_ops.resize(static_cast<std::size_t>(p));

  // Turn-level models (paper §4.2.3; conceptual there, conceptual here).
  if (variant == WzbVariant::kWzb1) {
    // Like Interleave, but the backward is split: B of chunk c in the slot
    // Interleave used, W of chunk c one turn later; three chunks on the wire
    // per turn (two W + one D).
    const std::int64_t local_turns = (rounds + 3) * p + 1;  // +fill, +W tail
    const auto md = [p](std::int64_t x) { return ((x % p) + p) % p; };
    for (std::int64_t w = 0; w < p; ++w) {
      auto& ops = prog.rank_ops[static_cast<std::size_t>(w)];
      const int next = static_cast<int>((w + 1) % p);
      const int prev = static_cast<int>((w + p - 1) % p);
      for (std::int64_t t = 0; t < local_turns; ++t) {
        const std::int64_t j = t - w;  // worker-local turn (rank stagger)
        // The two weight chunks prefetch ahead. Flow positions follow the
        // Interleave algebra (weipipe_schedule.hpp): at turn t worker w
        // holds F-chunk (t-w) mod P and B-chunk (w-t-1) mod P.
        const std::int64_t cf = md(t - w);
        const std::int64_t cb = md(w - t - 1);
        ops.push_back(SendOp{next,
                             costs.chunk_weight_bytes[static_cast<std::size_t>(
                                 cf)],
                             kTagF, /*blocking=*/false, MsgKind::kWeightF,
                             cf});
        ops.push_back(SendOp{next,
                             costs.chunk_weight_bytes[static_cast<std::size_t>(
                                 cb)],
                             kTagBW, /*blocking=*/false, MsgKind::kWeightB,
                             cb});
        if (j >= 0 && j < rounds * p) {
          const std::int64_t c = j % p;
          ops.push_back(ComputeOp{
              ComputeKind::kForward, (j / p) * p + w, c,
              costs.fwd_seconds[static_cast<std::size_t>(c)],
              costs.act_mem_bytes[static_cast<std::size_t>(c)]});
        }
        const std::int64_t jb = j - p;
        if (jb >= 0 && jb < rounds * p) {
          const std::int64_t c = p - 1 - (jb % p);
          ops.push_back(ComputeOp{
              ComputeKind::kBackwardActs, (jb / p) * p + w, c,
              costs.bwd_acts_seconds[static_cast<std::size_t>(c)],
              -0.5 * costs.act_mem_bytes[static_cast<std::size_t>(c)]});
        }
        // The circulating D pair was completed by the previous turn's W
        // pass (paper Fig. 3 pairing); it leaves after the B pass and
        // overlaps this turn's W pass. The W pass of turn t-1 finished
        // chunk (w-t+1) mod P, so that is the D on the wire this turn.
        const std::int64_t cd = md(w - t + 1);
        ops.push_back(SendOp{next,
                             costs.chunk_weight_bytes[static_cast<std::size_t>(
                                 cd)],
                             kTagBD, /*blocking=*/false, MsgKind::kGradD,
                             cd});
        const std::int64_t jw = j - p - 1;
        if (jw >= 0 && jw < rounds * p) {
          const std::int64_t c = p - 1 - (jw % p);
          ops.push_back(ComputeOp{
              ComputeKind::kBackwardWeights, (jw / p) * p + w, c,
              costs.bwd_weights_seconds[static_cast<std::size_t>(c)],
              -0.5 * costs.act_mem_bytes[static_cast<std::size_t>(c)]});
        }
        ops.push_back(RecvOp{prev, kTagF, MsgKind::kWeightF});
        ops.push_back(RecvOp{prev, kTagBW, MsgKind::kWeightB});
        ops.push_back(RecvOp{prev, kTagBD, MsgKind::kGradD});
      }
      ops.push_back(ComputeOp{ComputeKind::kOptimizer, -1, -1,
                              costs.optimizer_seconds, 0.0});
    }
    return prog;
  }

  // WZB2: per cycle, forward chunks 0..P-1, then B chunks P-1..0, then W
  // chunks 0..P-1 (forward order, paper Fig. 4); cycles chain with no drain
  // because the last worker updates and re-injects immediately. Two chunks on
  // the wire per one-chunk compute. Sends stay kOpaque: the paper analyzes
  // WZB2 only as a turn-level model (a single circulating flow serves F, B
  // and W passes), so there is no per-kind shard identity for the static
  // weight-version checker to track — the wire indices below pick message
  // sizes, not shard contents.
  const std::int64_t local_turns = 3 * p * rounds + p;  // + rank-stagger fill
  for (std::int64_t w = 0; w < p; ++w) {
    auto& ops = prog.rank_ops[static_cast<std::size_t>(w)];
    const int next = static_cast<int>((w + 1) % p);
    const int prev = static_cast<int>((w + p - 1) % p);
    for (std::int64_t t = 0; t < local_turns; ++t) {
      const std::int64_t j = t - w;  // worker-local turn (rank stagger)
      const std::int64_t k = j >= 0 ? j / (3 * p) : rounds;  // cycle (round)
      const std::int64_t m = j >= 0 ? j % (3 * p) : -1;
      ops.push_back(SendOp{next,
                           costs.chunk_weight_bytes[static_cast<std::size_t>(
                               t % p)],
                           kTagRing});
      if (m >= 0 && m < p && k < rounds) {
        ops.push_back(ComputeOp{ComputeKind::kForward, k * p + w, m,
                                costs.fwd_seconds[static_cast<std::size_t>(m)],
                                costs.act_mem_bytes[static_cast<std::size_t>(m)]});
      } else if (m >= p && m < 2 * p && k < rounds) {
        const std::int64_t c = 2 * p - 1 - m;
        ops.push_back(ComputeOp{
            ComputeKind::kBackwardActs, k * p + w, c,
            costs.bwd_acts_seconds[static_cast<std::size_t>(c)],
            -0.5 * costs.act_mem_bytes[static_cast<std::size_t>(c)]});
      } else if (m >= 2 * p && k < rounds) {
        const std::int64_t c = m - 2 * p;
        ops.push_back(ComputeOp{
            ComputeKind::kBackwardWeights, k * p + w, c,
            costs.bwd_weights_seconds[static_cast<std::size_t>(c)],
            -0.5 * costs.act_mem_bytes[static_cast<std::size_t>(c)]});
      }
      ops.push_back(SendOp{next,
                           costs.chunk_weight_bytes[static_cast<std::size_t>(
                               (t + 1) % p)],
                           kTagRing});
      ops.push_back(RecvOp{prev, kTagRing});
      ops.push_back(RecvOp{prev, kTagRing});
    }
    ops.push_back(ComputeOp{ComputeKind::kOptimizer, -1, -1,
                            costs.optimizer_seconds, 0.0});
  }
  return prog;
}

// ---- Activation-passing pipelines ------------------------------------------------

namespace {

void emit_pipeline_forward(Program& prog, const StrategyCosts& costs,
                           std::int64_t p, std::int64_t s, std::int64_t j) {
  auto& ops = prog.rank_ops[static_cast<std::size_t>(s)];
  if (s > 0) {
    ops.push_back(RecvOp{static_cast<int>(s - 1), kTagAct,
                         MsgKind::kActivation, j});
  }
  ops.push_back(ComputeOp{ComputeKind::kForward, j, s,
                          costs.fwd_seconds[static_cast<std::size_t>(s)],
                          costs.act_mem_bytes[static_cast<std::size_t>(s)]});
  if (s < p - 1) {
    ops.push_back(SendOp{static_cast<int>(s + 1), costs.act_bytes, kTagAct,
                         /*blocking=*/true, MsgKind::kActivation, s, j});
  }
}

// `split` emits the zero-bubble B pass (activation gradients only) in place
// of the fused backward.
void emit_pipeline_backward(Program& prog, const StrategyCosts& costs,
                            std::int64_t p, std::int64_t s, std::int64_t j,
                            bool split = false) {
  auto& ops = prog.rank_ops[static_cast<std::size_t>(s)];
  const auto su = static_cast<std::size_t>(s);
  if (s < p - 1) {
    ops.push_back(RecvOp{static_cast<int>(s + 1), kTagGrad,
                         MsgKind::kActGrad, j});
  }
  ops.push_back(split ? ComputeOp{ComputeKind::kBackwardActs, j, s,
                                  costs.bwd_acts_seconds[su],
                                  -0.5 * costs.act_mem_bytes[su]}
                      : ComputeOp{ComputeKind::kBackward, j, s,
                                  costs.bwd_seconds[su],
                                  -costs.act_mem_bytes[su]});
  if (s > 0) {
    ops.push_back(SendOp{static_cast<int>(s - 1), costs.act_grad_bytes,
                         kTagGrad, /*blocking=*/true, MsgKind::kActGrad, s,
                         j});
  }
}

void append_optimizer(Program& prog, const StrategyCosts& costs) {
  for (auto& ops : prog.rank_ops) {
    ops.push_back(ComputeOp{ComputeKind::kOptimizer, -1, -1,
                            costs.optimizer_seconds, 0.0});
  }
}

}  // namespace

Program build_gpipe(std::int64_t num_stages, std::int64_t num_microbatches,
                    const StrategyCosts& costs) {
  check_costs(costs, num_stages);
  Program prog;
  prog.name = "gpipe";
  prog.rank_ops.resize(static_cast<std::size_t>(num_stages));
  for (std::int64_t s = 0; s < num_stages; ++s) {
    for (std::int64_t j = 0; j < num_microbatches; ++j) {
      emit_pipeline_forward(prog, costs, num_stages, s, j);
    }
    for (std::int64_t j = 0; j < num_microbatches; ++j) {
      emit_pipeline_backward(prog, costs, num_stages, s, j);
    }
  }
  append_optimizer(prog, costs);
  return prog;
}

Program build_1f1b(std::int64_t num_stages, std::int64_t num_microbatches,
                   const StrategyCosts& costs) {
  check_costs(costs, num_stages);
  Program prog;
  prog.name = "1f1b";
  prog.rank_ops.resize(static_cast<std::size_t>(num_stages));
  for (std::int64_t s = 0; s < num_stages; ++s) {
    const std::int64_t warmup =
        std::min(num_stages - 1 - s, num_microbatches);
    std::int64_t f = 0;
    std::int64_t b = 0;
    for (std::int64_t i = 0; i < warmup; ++i) {
      emit_pipeline_forward(prog, costs, num_stages, s, f++);
    }
    while (f < num_microbatches) {
      emit_pipeline_forward(prog, costs, num_stages, s, f++);
      emit_pipeline_backward(prog, costs, num_stages, s, b++);
    }
    while (b < num_microbatches) {
      emit_pipeline_backward(prog, costs, num_stages, s, b++);
    }
  }
  append_optimizer(prog, costs);
  return prog;
}

// ---- Zero-bubble pipelines ---------------------------------------------------------

namespace {

// Greedy list scheduler: decides each stage's task order using the cost
// model, then the emitted static program is re-timed by the engine. W passes
// have no successors, so they are used purely as bubble filler (ZB1) or
// deferred mass (ZB2).
struct ZbPlan {
  // Per-stage ordered task list: (kind, microbatch).
  std::vector<std::vector<std::pair<ComputeKind, std::int64_t>>> order;
};

ZbPlan plan_zero_bubble(std::int64_t p, std::int64_t n, ZbVariant variant,
                        const StrategyCosts& costs) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  // f_done[s][j], b_done[s][j] completion times; W tracked per stage.
  std::vector<std::vector<double>> f_done(
      static_cast<std::size_t>(p),
      std::vector<double>(static_cast<std::size_t>(n), kInf));
  std::vector<std::vector<double>> b_done = f_done;
  struct StageState {
    double clock = 0.0;
    std::int64_t next_f = 0;
    std::int64_t next_b = 0;
    std::int64_t done_w = 0;  // W passes completed (releases activation hold)
    std::deque<std::int64_t> pending_w;
  };
  std::vector<StageState> st(static_cast<std::size_t>(p));
  ZbPlan plan;
  plan.order.resize(static_cast<std::size_t>(p));

  const std::int64_t tasks_total = 3 * p * n;
  std::int64_t scheduled = 0;
  while (scheduled < tasks_total) {
    // Pick the (stage, task) whose start time is earliest; ties prefer
    // B > F > W (B releases upstream stages, W is pure filler).
    int best_s = -1;
    ComputeKind best_kind = ComputeKind::kForward;
    double best_start = kInf;
    auto priority = [](ComputeKind k) {
      return k == ComputeKind::kBackwardActs ? 0
             : k == ComputeKind::kForward    ? 1
                                             : 2;
    };
    auto better = [&](double start, ComputeKind kind) {
      if (start != best_start) {
        return start < best_start;
      }
      return priority(kind) < priority(best_kind);
    };
    for (std::int64_t s = 0; s < p; ++s) {
      StageState& ss = st[static_cast<std::size_t>(s)];
      // Candidate F.
      if (ss.next_f < n) {
        // Memory cap: microbatches whose activations are still (partially)
        // held — forward started, W pass not yet done. ZB1 keeps this at the
        // 1F1B level; ZB2 doubles it (paper: ~2x activation memory).
        const std::int64_t cap =
            variant == ZbVariant::kZb1 ? p - s : 2 * (p - s);
        if (ss.next_f - ss.done_w < std::max<std::int64_t>(cap, 1)) {
          const double dep =
              s == 0 ? 0.0
                     : f_done[static_cast<std::size_t>(s - 1)]
                             [static_cast<std::size_t>(ss.next_f)];
          const double start = std::max(ss.clock, dep);
          if (better(start, ComputeKind::kForward)) {
            best_start = start;
            best_s = static_cast<int>(s);
            best_kind = ComputeKind::kForward;
          }
        }
      }
      // Candidate B.
      if (ss.next_b < ss.next_f) {
        const double own =
            f_done[static_cast<std::size_t>(s)]
                  [static_cast<std::size_t>(ss.next_b)];
        const double dep =
            s == p - 1 ? own
                       : std::max(own, b_done[static_cast<std::size_t>(s + 1)]
                                             [static_cast<std::size_t>(
                                                 ss.next_b)]);
        const double start = std::max(ss.clock, dep);
        if (better(start, ComputeKind::kBackwardActs)) {
          best_start = start;
          best_s = static_cast<int>(s);
          best_kind = ComputeKind::kBackwardActs;
        }
      }
      // Candidate W: fills any gap — it can start at the stage clock.
      if (!ss.pending_w.empty() &&
          better(ss.clock, ComputeKind::kBackwardWeights)) {
        best_start = ss.clock;
        best_s = static_cast<int>(s);
        best_kind = ComputeKind::kBackwardWeights;
      }
    }
    WEIPIPE_CHECK_MSG(best_s >= 0, "zero-bubble planner stalled");
    StageState& ss = st[static_cast<std::size_t>(best_s)];
    const auto su = static_cast<std::size_t>(best_s);
    if (best_kind == ComputeKind::kForward) {
      const std::int64_t j = ss.next_f++;
      const double t0 = best_start;
      ss.clock = t0 + costs.fwd_seconds[su];
      f_done[su][static_cast<std::size_t>(j)] = ss.clock;
      plan.order[su].push_back({ComputeKind::kForward, j});
    } else if (best_kind == ComputeKind::kBackwardActs) {
      const std::int64_t j = ss.next_b++;
      ss.clock = best_start + costs.bwd_acts_seconds[su];
      b_done[su][static_cast<std::size_t>(j)] = ss.clock;
      ss.pending_w.push_back(j);
      plan.order[su].push_back({ComputeKind::kBackwardActs, j});
    } else {
      const std::int64_t j = ss.pending_w.front();
      ss.pending_w.pop_front();
      ss.clock = best_start + costs.bwd_weights_seconds[su];
      ++ss.done_w;
      plan.order[su].push_back({ComputeKind::kBackwardWeights, j});
    }
    ++scheduled;
  }
  return plan;
}

}  // namespace

Program build_zero_bubble(std::int64_t num_stages,
                          std::int64_t num_microbatches, ZbVariant variant,
                          const StrategyCosts& costs) {
  check_costs(costs, num_stages);
  const std::int64_t p = num_stages;
  const ZbPlan plan =
      plan_zero_bubble(p, num_microbatches, variant, costs);
  Program prog;
  prog.name = variant == ZbVariant::kZb1 ? "zb1" : "zb2";
  prog.rank_ops.resize(static_cast<std::size_t>(p));
  for (std::int64_t s = 0; s < p; ++s) {
    auto& ops = prog.rank_ops[static_cast<std::size_t>(s)];
    for (const auto& [kind, j] : plan.order[static_cast<std::size_t>(s)]) {
      switch (kind) {
        case ComputeKind::kForward:
          emit_pipeline_forward(prog, costs, p, s, j);
          break;
        case ComputeKind::kBackwardActs:
          emit_pipeline_backward(prog, costs, p, s, j, /*split=*/true);
          break;
        case ComputeKind::kBackwardWeights:
          ops.push_back(ComputeOp{
              ComputeKind::kBackwardWeights, j, s,
              costs.bwd_weights_seconds[static_cast<std::size_t>(s)],
              -0.5 * costs.act_mem_bytes[static_cast<std::size_t>(s)]});
          break;
        default:
          WEIPIPE_CHECK(false);
      }
    }
  }
  append_optimizer(prog, costs);
  return prog;
}

// ---- FSDP ---------------------------------------------------------------------------

Program build_fsdp(std::int64_t num_ranks, std::int64_t local_rounds,
                   const StrategyCosts& costs,
                   const FsdpCollectiveCosts& coll, bool overlap_prefetch) {
  const std::int64_t p = num_ranks;
  check_costs(costs, p);
  WEIPIPE_CHECK(static_cast<std::int64_t>(coll.all_gather_seconds.size()) ==
                p);
  Program prog;
  prog.name = "fsdp";
  prog.rank_ops.resize(static_cast<std::size_t>(p));
  for (std::int64_t r = 0; r < p; ++r) {
    auto& ops = prog.rank_ops[static_cast<std::size_t>(r)];
    std::int64_t coll_id = 0;
    auto gather = [&](std::int64_t c) {
      ops.push_back(CollectiveStartOp{
          coll_id, coll.all_gather_seconds[static_cast<std::size_t>(c)],
          coll.all_gather_bytes[static_cast<std::size_t>(c)]});
      return coll_id++;
    };
    for (std::int64_t k = 0; k < local_rounds; ++k) {
      // Forward: with prefetch, chunk c+1's gather is posted while chunk c
      // computes; otherwise each gather blocks (per-layer ZeRO-3 gathers).
      std::vector<std::int64_t> ids(static_cast<std::size_t>(p));
      if (overlap_prefetch) {
        ids[0] = gather(0);
      }
      for (std::int64_t c = 0; c < p; ++c) {
        if (overlap_prefetch) {
          if (c + 1 < p) {
            ids[static_cast<std::size_t>(c + 1)] = gather(c + 1);
          }
        } else {
          ids[static_cast<std::size_t>(c)] = gather(c);
        }
        ops.push_back(CollectiveWaitOp{ids[static_cast<std::size_t>(c)]});
        ops.push_back(
            ComputeOp{ComputeKind::kForward, k * p + r, c,
                      costs.fwd_seconds[static_cast<std::size_t>(c)],
                      costs.act_mem_bytes[static_cast<std::size_t>(c)]});
      }
      // Backward: ZeRO-3 gathers every chunk a second time, reverse order.
      if (overlap_prefetch) {
        ids[static_cast<std::size_t>(p - 1)] = gather(p - 1);
      }
      for (std::int64_t c = p - 1; c >= 0; --c) {
        if (overlap_prefetch) {
          if (c - 1 >= 0) {
            ids[static_cast<std::size_t>(c - 1)] = gather(c - 1);
          }
        } else {
          ids[static_cast<std::size_t>(c)] = gather(c);
        }
        ops.push_back(CollectiveWaitOp{ids[static_cast<std::size_t>(c)]});
        ops.push_back(
            ComputeOp{ComputeKind::kBackward, k * p + r, c,
                      costs.bwd_seconds[static_cast<std::size_t>(c)],
                      -costs.act_mem_bytes[static_cast<std::size_t>(c)]});
      }
    }
    // Gradient reduce-scatter per chunk, then the owner's update.
    for (std::int64_t c = 0; c < p; ++c) {
      ops.push_back(CollectiveStartOp{
          coll_id, coll.reduce_scatter_seconds[static_cast<std::size_t>(c)],
          coll.reduce_scatter_bytes[static_cast<std::size_t>(c)]});
      ops.push_back(CollectiveWaitOp{coll_id});
      ++coll_id;
    }
    ops.push_back(ComputeOp{ComputeKind::kOptimizer, -1, -1,
                            costs.optimizer_seconds, 0.0});
  }
  return prog;
}

}  // namespace weipipe::sched
