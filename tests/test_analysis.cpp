// Static model-checker (analysis/analysis.hpp): property sweep over every
// builder, mutation tests proving injected bugs are caught with witnesses,
// and the exact static-vs-engine peak-memory cross-check.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "analysis/analysis.hpp"
#include "common/check.hpp"
#include "core/execute.hpp"
#include "sched/builders.hpp"
#include "sched/validate.hpp"
#include "sched/weipipe_schedule.hpp"
#include "sim/engine.hpp"
#include "sim/topology.hpp"
#include "sched/wire_tags.hpp"

namespace weipipe {
namespace {

using analysis::AnalysisReport;
using analysis::Finding;
using analysis::FindingKind;
using sched::ComputeKind;
using sched::ComputeOp;
using sched::MsgKind;
using sched::Program;
using sched::RecvOp;
using sched::SendOp;
using sched::StrategyCosts;

StrategyCosts unit_costs(std::int64_t p) {
  StrategyCosts c;
  for (std::int64_t i = 0; i < p; ++i) {
    c.fwd_seconds.push_back(1.0);
    c.bwd_seconds.push_back(2.0);
    c.bwd_acts_seconds.push_back(1.0);
    c.bwd_weights_seconds.push_back(1.0);
    c.chunk_weight_bytes.push_back(100.0);
    c.act_mem_bytes.push_back(10.0);
  }
  c.act_bytes = 50.0;
  c.act_grad_bytes = 50.0;
  return c;
}

sched::FsdpCollectiveCosts unit_coll(std::int64_t p) {
  sched::FsdpCollectiveCosts coll;
  for (std::int64_t i = 0; i < p; ++i) {
    coll.all_gather_seconds.push_back(0.5);
    coll.reduce_scatter_seconds.push_back(0.5);
    coll.all_gather_bytes.push_back(25.0);
    coll.reduce_scatter_bytes.push_back(25.0);
  }
  return coll;
}

// Every builder-emitted program for one (p, rounds/microbatches) point.
std::vector<Program> all_programs(std::int64_t p, std::int64_t rounds) {
  const StrategyCosts costs = unit_costs(p);
  const std::int64_t n = rounds * p;
  std::vector<Program> progs;
  progs.push_back(sched::build_weipipe(
      WeiPipeSchedule(p, rounds, WeiPipeMode::kNaive), costs));
  progs.push_back(sched::build_weipipe(
      WeiPipeSchedule(p, rounds, WeiPipeMode::kInterleave), costs));
  progs.push_back(sched::build_weipipe(
      WeiPipeSchedule(p, rounds, WeiPipeMode::kInterleave), costs,
      /*prefetch=*/false));
  progs.push_back(sched::build_weipipe_zero_bubble(
      p, rounds, sched::WzbVariant::kWzb1, costs));
  progs.push_back(sched::build_weipipe_zero_bubble(
      p, rounds, sched::WzbVariant::kWzb2, costs));
  progs.push_back(sched::build_gpipe(p, n, costs));
  progs.push_back(sched::build_1f1b(p, n, costs));
  progs.push_back(sched::build_zero_bubble(p, n, sched::ZbVariant::kZb1,
                                           costs));
  progs.push_back(sched::build_zero_bubble(p, n, sched::ZbVariant::kZb2,
                                           costs));
  progs.push_back(sched::build_fsdp(p, rounds, costs, unit_coll(p),
                                    /*overlap_prefetch=*/true));
  progs.push_back(sched::build_fsdp(p, rounds, costs, unit_coll(p),
                                    /*overlap_prefetch=*/false));
  return progs;
}

bool has_kind(const AnalysisReport& report, FindingKind kind) {
  return std::any_of(report.findings.begin(), report.findings.end(),
                     [kind](const Finding& f) { return f.kind == kind; });
}

std::string dump(const AnalysisReport& report) { return report.summary(); }

std::string describe_op_of(const Program& prog, const analysis::OpRef& ref) {
  return analysis::describe_op(prog, ref.rank, ref.op);
}

// ---- Property sweep: every builder, every size, zero findings ----------------

TEST(AnalysisSweep, AllBuildersAllSizesAreClean) {
  for (std::int64_t p : {2, 4, 8}) {
    for (std::int64_t rounds : {1, 2}) {
      for (const Program& prog : all_programs(p, rounds)) {
        const AnalysisReport report = analysis::analyze(prog);
        EXPECT_TRUE(report.ok()) << "p=" << p << " rounds=" << rounds << "\n"
                                 << dump(report);
        EXPECT_FALSE(report.deadlocked) << prog.name;
        EXPECT_EQ(report.ops_executed, report.ops_total) << prog.name;
      }
    }
  }
}

TEST(AnalysisSweep, WeightPassingBuildersCarryAnnotations) {
  const auto progs = all_programs(4, 2);
  // naive, interleave, no-prefetch, wzb1 circulate annotated weight flows.
  for (int i : {0, 1, 2, 3}) {
    EXPECT_TRUE(analysis::analyze(progs[static_cast<std::size_t>(i)])
                    .weight_annotated)
        << progs[static_cast<std::size_t>(i)].name;
  }
  // gpipe ships activations only; fsdp is collective-only.
  EXPECT_FALSE(analysis::analyze(progs[5]).weight_annotated);
  EXPECT_FALSE(analysis::analyze(progs[9]).weight_annotated);
}

// ---- Static peak-memory bound is exact, not an estimate ----------------------

TEST(AnalysisMemory, StaticPeaksMatchEngineBitExact) {
  for (std::int64_t p : {2, 4}) {
    for (const Program& prog : all_programs(p, 2)) {
      const AnalysisReport report = analysis::analyze(prog);
      const sim::SimResult res = sim::simulate(
          prog, sim::Topology::uniform(static_cast<int>(p),
                                       sim::Link{1e15, 0.0}, "ideal"));
      ASSERT_EQ(report.static_peak_bytes.size(), res.peak_act_bytes.size());
      for (std::size_t r = 0; r < res.peak_act_bytes.size(); ++r) {
        // Same mem_delta values in the same rank-local order: identical
        // floating-point accumulation, so equality is exact.
        EXPECT_DOUBLE_EQ(report.static_peak_bytes[r], res.peak_act_bytes[r])
            << prog.name << " rank " << r;
      }
      EXPECT_TRUE(
          sim::analysis_cross_check(prog, res).empty());
    }
  }
}

TEST(AnalysisMemory, EngineCrossCheckOptionPasses) {
  const Program prog = sched::build_weipipe(
      WeiPipeSchedule(4, 2, WeiPipeMode::kInterleave), unit_costs(4));
  EXPECT_NO_THROW(sim::simulate(
      prog, sim::Topology::uniform(4, sim::Link{1e15, 0.0}, "ideal"),
      {.record_ops = false, .cross_check_analysis = true}));
}

// ---- Injected bug 1: deadlock cycle ------------------------------------------

TEST(AnalysisDeadlock, TwoRankCycleReportedWithWitness) {
  // Each rank computes, then waits for the other's send — which sits after
  // the recv. Classic circular wait; passes every per-op structural check.
  Program prog;
  prog.name = "handmade-cycle";
  prog.rank_ops.resize(2);
  prog.rank_ops[0] = {ComputeOp{ComputeKind::kForward, 0, 0, 1.0, 0.0},
                      RecvOp{1, /*tag=*/1}, SendOp{1, 8.0, /*tag=*/0}};
  prog.rank_ops[1] = {ComputeOp{ComputeKind::kForward, 1, 0, 1.0, 0.0},
                      RecvOp{0, /*tag=*/0}, SendOp{0, 8.0, /*tag=*/1}};
  ASSERT_TRUE(sched::validate(prog).ok);  // invisible to the cheap layer

  const AnalysisReport report = analysis::analyze(prog);
  EXPECT_TRUE(report.deadlocked);
  EXPECT_LT(report.ops_executed, report.ops_total);
  ASSERT_TRUE(has_kind(report, FindingKind::kDeadlockCycle)) << dump(report);
  const auto it =
      std::find_if(report.findings.begin(), report.findings.end(),
                   [](const Finding& f) {
                     return f.kind == FindingKind::kDeadlockCycle;
                   });
  // The witness walks the wait cycle: both ranks, concrete op indices.
  EXPECT_GE(it->witness.size(), 2u);
  EXPECT_NE(it->message.find("0 -> 1"), std::string::npos) << it->message;
  bool saw_rank0 = false;
  bool saw_rank1 = false;
  for (const analysis::OpRef& ref : it->witness) {
    saw_rank0 = saw_rank0 || ref.rank == 0;
    saw_rank1 = saw_rank1 || ref.rank == 1;
  }
  EXPECT_TRUE(saw_rank0 && saw_rank1);
}

TEST(AnalysisDeadlock, ReorderedRingRecvDeadlocks) {
  // Mutation: rank 0 takes all of its D-grad receipts first, in the slots
  // its recvs occupy in the interleave ring. Messages of one class are
  // matched FIFO on an edge, so reordering recvs within a class changes
  // nothing, and a one-turn lead is absorbed by the prefetch slack (the
  // analyzer correctly stays quiet for those). Pulling a whole class ahead
  // is not absorbed: by its second turn rank 0 demands a D chunk its
  // predecessor ships turns later, which needs rank 0's own not-yet-reached
  // sends. The wait chain runs all the way around the ring: a provable
  // circular wait, reported with the cycle as witness.
  Program prog = sched::build_weipipe(
      WeiPipeSchedule(4, 1, WeiPipeMode::kInterleave), unit_costs(4));
  auto& ops = prog.rank_ops[0];
  std::vector<std::size_t> recv_at;
  std::vector<RecvOp> recvs;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (const auto* r = std::get_if<RecvOp>(&ops[i])) {
      recv_at.push_back(i);
      recvs.push_back(*r);
    }
  }
  ASSERT_GE(recv_at.size(), 4u);
  std::stable_partition(recvs.begin(), recvs.end(), [](const RecvOp& r) {
    return r.kind == MsgKind::kGradD;
  });
  for (std::size_t k = 0; k < recv_at.size(); ++k) {
    ops[recv_at[k]] = recvs[k];
  }

  const AnalysisReport report = analysis::analyze(prog);
  EXPECT_TRUE(report.deadlocked) << dump(report);
  ASSERT_TRUE(has_kind(report, FindingKind::kDeadlockCycle)) << dump(report);
  const auto it =
      std::find_if(report.findings.begin(), report.findings.end(),
                   [](const Finding& f) {
                     return f.kind == FindingKind::kDeadlockCycle;
                   });
  // The circular wait spans the whole ring.
  EXPECT_GE(it->witness.size(), 4u) << dump(report);
}

// ---- Injected bug 2: crossed tags --------------------------------------------

// Mutation: rank 0's first F-weight and B-weight sends swap tags. The
// bytes still flow and nothing deadlocks — at runtime the B shard lands
// silently in the neighbor's F buffer. Statically: kTagMismatch.
Program swapped_tag_program() {
  Program prog = sched::build_weipipe(
      WeiPipeSchedule(4, 2, WeiPipeMode::kInterleave), unit_costs(4));
  auto& ops = prog.rank_ops[0];
  SendOp* f_send = nullptr;
  SendOp* b_send = nullptr;
  for (auto& op : ops) {
    if (auto* s = std::get_if<SendOp>(&op)) {
      if (s->kind == MsgKind::kWeightF && !f_send) {
        f_send = s;
      } else if (s->kind == MsgKind::kWeightB && !b_send) {
        b_send = s;
      }
    }
    if (f_send && b_send) {
      break;
    }
  }
  EXPECT_NE(f_send, nullptr);
  EXPECT_NE(b_send, nullptr);
  if (f_send && b_send) {
    std::swap(f_send->tag, b_send->tag);
  }
  return prog;
}

TEST(AnalysisTags, SwappedSendTagsReported) {
  const Program prog = swapped_tag_program();
  const AnalysisReport report = analysis::analyze(prog);
  ASSERT_TRUE(has_kind(report, FindingKind::kTagMismatch)) << dump(report);
  const auto it = std::find_if(report.findings.begin(), report.findings.end(),
                               [](const Finding& f) {
                                 return f.kind == FindingKind::kTagMismatch;
                               });
  EXPECT_GE(it->witness.size(), 2u);  // the recv and the matched send
  EXPECT_NE(it->message.find("tags are crossed"), std::string::npos);
}

TEST(AnalysisTags, InterpretedTrainersRefuseTheSwappedFixture) {
  // The check every interpreted trainer runs on its program at
  // construction: the unmodified program passes, the mutant throws.
  EXPECT_NO_THROW(exec::require_proven(sched::build_weipipe(
      WeiPipeSchedule(4, 2, WeiPipeMode::kInterleave), unit_costs(4))));
  try {
    exec::require_proven(swapped_tag_program());
    ADD_FAILURE() << "the swapped-tag program was not refused";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("tags are crossed"),
              std::string::npos)
        << e.what();
  }
}

TEST(AnalysisTags, CrossedActivationMicrobatchesReported) {
  // Two activations on one edge, filed under each other's microbatch: the
  // kinds agree, so only the microbatch comparison can see it.
  Program prog;
  prog.name = "crossed-acts";
  prog.rank_ops.resize(2);
  prog.rank_ops[0] = {SendOp{1, 8.0, 20, true, MsgKind::kActivation, 0, 0},
                      SendOp{1, 8.0, 20, true, MsgKind::kActivation, 0, 1}};
  prog.rank_ops[1] = {RecvOp{0, 20, MsgKind::kActivation, 1},
                      RecvOp{0, 20, MsgKind::kActivation, 0}};
  const AnalysisReport report = analysis::analyze(prog);
  std::size_t mismatches = 0;
  for (const Finding& f : report.findings) {
    mismatches += f.kind == FindingKind::kTagMismatch;
  }
  EXPECT_EQ(mismatches, 2u) << dump(report);
}

TEST(AnalysisTags, HandmadeKindDisagreement) {
  Program prog;
  prog.name = "crossed";
  prog.rank_ops.resize(2);
  prog.rank_ops[0] = {SendOp{1, 8.0, 1, false, MsgKind::kWeightF, 0},
                      SendOp{1, 8.0, 2, false, MsgKind::kWeightB, 0}};
  prog.rank_ops[1] = {RecvOp{0, 1, MsgKind::kWeightB},
                      RecvOp{0, 2, MsgKind::kWeightF}};
  const AnalysisReport report = analysis::analyze(prog);
  std::size_t mismatches = 0;
  for (const Finding& f : report.findings) {
    mismatches += f.kind == FindingKind::kTagMismatch;
  }
  EXPECT_EQ(mismatches, 2u) << dump(report);
}

// ---- Injected bug 3: weight-version skew -------------------------------------

TEST(AnalysisWeights, OffByOneRingRotationReported) {
  // Mutation: rank 0 annotates its first F-weight send one chunk ahead —
  // exactly the bug of rotating the ring by the wrong offset.
  const std::int64_t p = 4;
  Program prog = sched::build_weipipe(
      WeiPipeSchedule(p, 2, WeiPipeMode::kInterleave), unit_costs(p));
  for (auto& op : prog.rank_ops[0]) {
    if (auto* s = std::get_if<SendOp>(&op)) {
      if (s->kind == MsgKind::kWeightF) {
        s->chunk = (s->chunk + 1) % p;
        break;
      }
    }
  }
  const AnalysisReport report = analysis::analyze(prog);
  ASSERT_TRUE(has_kind(report, FindingKind::kWeightVersion)) << dump(report);
  const auto it = std::find_if(report.findings.begin(), report.findings.end(),
                               [](const Finding& f) {
                                 return f.kind == FindingKind::kWeightVersion;
                               });
  EXPECT_FALSE(it->witness.empty());
  EXPECT_NE(it->message.find("rank"), std::string::npos);
  EXPECT_NE(it->message.find("chunk"), std::string::npos);
}

TEST(AnalysisWeights, StaleShardAtComputeReported) {
  // Rank 1 receives F chunk 1 but its forward claims chunk 2.
  Program prog;
  prog.name = "stale";
  prog.rank_ops.resize(2);
  prog.rank_ops[0] = {SendOp{1, 8.0, 7, false, MsgKind::kWeightF, 1}};
  prog.rank_ops[1] = {RecvOp{0, 7, MsgKind::kWeightF},
                      ComputeOp{ComputeKind::kForward, 0, 2, 1.0, 0.0}};
  const AnalysisReport report = analysis::analyze(prog);
  ASSERT_TRUE(has_kind(report, FindingKind::kWeightVersion)) << dump(report);
}

// ---- Injected bug 4: dropped recv --------------------------------------------

TEST(AnalysisStructure, DroppedRecvReported) {
  Program prog = sched::build_weipipe(
      WeiPipeSchedule(4, 2, WeiPipeMode::kInterleave), unit_costs(4));
  auto& ops = prog.rank_ops[2];
  const auto it = std::find_if(ops.begin(), ops.end(), [](const sched::Op& o) {
    return std::holds_alternative<RecvOp>(o);
  });
  ASSERT_NE(it, ops.end());
  ops.erase(it);

  const AnalysisReport report = analysis::analyze(prog);
  EXPECT_FALSE(report.ok());
  // The channel imbalance surfaces through the delegated structural layer.
  EXPECT_TRUE(has_kind(report, FindingKind::kValidation)) << dump(report);
}

TEST(AnalysisStructure, UnmatchedRecvGetsDedicatedFinding) {
  Program prog;
  prog.name = "starved";
  prog.rank_ops.resize(2);
  prog.rank_ops[0] = {SendOp{1, 8.0, /*tag=*/8}};
  prog.rank_ops[1] = {RecvOp{0, /*tag=*/8}, RecvOp{0, /*tag=*/9}};
  const AnalysisReport report = analysis::analyze(prog);
  ASSERT_TRUE(has_kind(report, FindingKind::kUnmatchedRecv)) << dump(report);
  const auto it = std::find_if(report.findings.begin(), report.findings.end(),
                               [](const Finding& f) {
                                 return f.kind == FindingKind::kUnmatchedRecv;
                               });
  EXPECT_NE(it->message.find("rank 1"), std::string::npos) << it->message;
}

// ---- Compute coverage --------------------------------------------------------

TEST(AnalysisCoverage, DoubleForwardReported) {
  Program prog;
  prog.name = "double-fwd";
  prog.rank_ops.resize(1);
  prog.rank_ops[0] = {ComputeOp{ComputeKind::kForward, 0, 0, 1.0, 0.0},
                      ComputeOp{ComputeKind::kForward, 0, 0, 1.0, 0.0},
                      ComputeOp{ComputeKind::kBackward, 0, 0, 2.0, 0.0}};
  const AnalysisReport report = analysis::analyze(prog);
  EXPECT_TRUE(has_kind(report, FindingKind::kComputeCoverage)) << dump(report);
}

TEST(AnalysisCoverage, MissingBackwardWeightsReported) {
  // Zero-bubble split that runs Ba but never Bw: the weight gradient for
  // (m=0, c=0) is never produced.
  Program prog;
  prog.name = "lost-w";
  prog.rank_ops.resize(1);
  prog.rank_ops[0] = {ComputeOp{ComputeKind::kForward, 0, 0, 1.0, 0.0},
                      ComputeOp{ComputeKind::kBackwardActs, 0, 0, 1.0, 0.0}};
  const AnalysisReport report = analysis::analyze(prog);
  EXPECT_TRUE(has_kind(report, FindingKind::kComputeCoverage)) << dump(report);
}

// ---- Whole-step programs: redistribution, chains, update ---------------------

Program step_program(std::int64_t p, std::int64_t dp, bool vocab, bool clip,
                     WeiPipeMode mode = WeiPipeMode::kInterleave,
                     bool prefetch = true) {
  return sched::build_weipipe_step(WeiPipeSchedule(p, 2, mode), unit_costs(p),
                                   {.prefetch = prefetch,
                                    .dp_degree = dp,
                                    .replicate_vocab = vocab,
                                    .clip = clip});
}

const Finding* first_of(const AnalysisReport& report, FindingKind kind) {
  const auto it = std::find_if(
      report.findings.begin(), report.findings.end(),
      [kind](const Finding& f) { return f.kind == kind; });
  return it == report.findings.end() ? nullptr : &*it;
}

TEST(AnalysisStep, DpVocabAndClipStepProgramsAreProven) {
  struct Config {
    std::int64_t dp;
    bool vocab;
    bool clip;
  };
  for (std::int64_t p : {2, 4}) {
    for (const Config c : {Config{2, false, false}, Config{3, false, false},
                           Config{1, true, false}, Config{1, false, true},
                           Config{2, true, true}}) {
      for (const WeiPipeMode mode :
           {WeiPipeMode::kInterleave, WeiPipeMode::kNaive}) {
        for (const bool prefetch : {true, false}) {
          const Program prog =
              step_program(p, c.dp, c.vocab, c.clip, mode, prefetch);
          const AnalysisReport report = analysis::analyze(prog);
          EXPECT_TRUE(report.ok())
              << "p=" << p << " dp=" << c.dp << " vocab=" << c.vocab
              << " clip=" << c.clip << "\n"
              << dump(report);
          EXPECT_TRUE(report.weight_annotated);
          EXPECT_EQ(report.ops_executed, report.ops_total);
          EXPECT_EQ(prog.num_ranks(), p * c.dp);
        }
      }
    }
    Program gpipe = sched::build_gpipe(p, 2 * p, unit_costs(p));
    Program one_f_one_b = sched::build_1f1b(p, 2 * p, unit_costs(p));
    sched::append_clip_chain(gpipe);
    sched::append_clip_chain(one_f_one_b);
    EXPECT_TRUE(analysis::analyze(gpipe).ok()) << dump(analysis::analyze(gpipe));
    EXPECT_TRUE(analysis::analyze(one_f_one_b).ok())
        << dump(analysis::analyze(one_f_one_b));
  }
}

TEST(AnalysisStep, MasterInjectedByNonOwnerReported) {
  // Mutation: a rank that does not own the chunk sends the master injection
  // (the receiver is re-pointed at it, so the channels still balance).
  Program prog = step_program(4, 1, false, false);
  int owner = -1;
  SendOp injection;
  for (int r = 0; r < prog.num_ranks() && owner < 0; ++r) {
    auto& ops = prog.rank_ops[static_cast<std::size_t>(r)];
    for (auto it = ops.begin(); it != ops.end(); ++it) {
      const auto* s = std::get_if<SendOp>(&*it);
      if (s != nullptr && s->master) {
        owner = r;
        injection = *s;
        ops.erase(it);
        break;
      }
    }
  }
  ASSERT_GE(owner, 0);
  int impostor = 0;
  while (impostor == owner || impostor == injection.dst) {
    ++impostor;
  }
  auto& impostor_ops = prog.rank_ops[static_cast<std::size_t>(impostor)];
  impostor_ops.insert(impostor_ops.begin(), injection);
  for (auto& op : prog.rank_ops[static_cast<std::size_t>(injection.dst)]) {
    auto* r = std::get_if<RecvOp>(&op);
    if (r != nullptr && r->tag == injection.tag) {
      r->src = impostor;
    }
  }
  ASSERT_TRUE(sched::validate(prog).ok);

  const AnalysisReport report = analysis::analyze(prog);
  const Finding* f = first_of(report, FindingKind::kWeightVersion);
  ASSERT_NE(f, nullptr) << dump(report);
  EXPECT_NE(f->message.find("injects the master"), std::string::npos)
      << f->message;
  ASSERT_EQ(f->witness.size(), 2u);
  EXPECT_EQ(f->witness[0].rank, impostor);  // the injection
  EXPECT_EQ(f->witness[1].rank, impostor);  // the optimizer op it lacks
}

TEST(AnalysisStep, FlowStartedWithoutItsInjectionReported) {
  // Mutation: drop one injection and its receive. The receiver now starts
  // a flow it does not own from nothing.
  Program prog = step_program(4, 1, false, false);
  int dst = -1;
  std::int64_t tag = 0;
  for (auto& ops : prog.rank_ops) {
    const auto it = std::find_if(ops.begin(), ops.end(), [](const auto& op) {
      const auto* s = std::get_if<SendOp>(&op);
      return s != nullptr && s->master;
    });
    if (it != ops.end()) {
      dst = std::get<SendOp>(*it).dst;
      tag = std::get<SendOp>(*it).tag;
      ops.erase(it);
      break;
    }
  }
  ASSERT_GE(dst, 0);
  auto& ops = prog.rank_ops[static_cast<std::size_t>(dst)];
  ops.erase(std::find_if(ops.begin(), ops.end(), [&](const auto& op) {
    const auto* r = std::get_if<RecvOp>(&op);
    return r != nullptr && r->tag == tag;
  }));

  const AnalysisReport report = analysis::analyze(prog);
  const Finding* f = first_of(report, FindingKind::kWeightVersion);
  ASSERT_NE(f, nullptr) << dump(report);
  EXPECT_NE(f->message.find("starts, unreceived"), std::string::npos)
      << f->message;
  ASSERT_FALSE(f->witness.empty());
  EXPECT_EQ(f->witness[0].rank, dst);
}

TEST(AnalysisStep, DpChainRecvFromWrongReplicaReported) {
  // Mutation: replica 2's partial sum is taken from replica 0, which only
  // ever sends it to replica 1.
  const std::int64_t p = 2;
  Program prog = step_program(p, 3, false, false);
  const int rank = 2 * p;  // replica 2, worker 0
  RecvOp* up = nullptr;
  for (auto& op : prog.rank_ops[static_cast<std::size_t>(rank)]) {
    auto* r = std::get_if<RecvOp>(&op);
    if (r != nullptr && r->tag == wire_tags::kTagDpReduce) {
      up = r;
    }
  }
  ASSERT_NE(up, nullptr);
  ASSERT_EQ(up->src, rank - p);
  ASSERT_TRUE(up->accumulate);
  up->src = 0;

  const AnalysisReport report = analysis::analyze(prog);
  const Finding* f = first_of(report, FindingKind::kUnmatchedRecv);
  ASSERT_NE(f, nullptr) << dump(report);
  EXPECT_NE(f->message.find("tag " + std::to_string(wire_tags::kTagDpReduce)),
            std::string::npos)
      << f->message;
  ASSERT_FALSE(f->witness.empty());
  EXPECT_EQ(f->witness[0].rank, rank);
}

TEST(AnalysisStep, SwappedVocabChainTagsReported) {
  // Mutation: a middle rank of the vocab chain sends its partial sum on the
  // broadcast tag and the total on the reduce tag.
  Program prog = step_program(4, 1, true, false);
  const int rank = 1;
  int swapped = 0;
  for (auto& op : prog.rank_ops[static_cast<std::size_t>(rank)]) {
    if (auto* s = std::get_if<SendOp>(&op)) {
      if (s->tag == wire_tags::kTagVocabUp) {
        s->tag = wire_tags::kTagVocabDown;
        ++swapped;
      } else if (s->tag == wire_tags::kTagVocabDown) {
        s->tag = wire_tags::kTagVocabUp;
        ++swapped;
      }
    }
  }
  ASSERT_EQ(swapped, 2);

  const AnalysisReport report = analysis::analyze(prog);
  const Finding* f = first_of(report, FindingKind::kUnmatchedRecv);
  ASSERT_NE(f, nullptr) << dump(report);
  ASSERT_FALSE(f->witness.empty());
  EXPECT_NE(describe_op_of(prog, f->witness[0]).find("vocab-grad"),
            std::string::npos);
}

TEST(AnalysisStep, AccumulatingIntoAnotherChunkReported) {
  // Rank 1 holds D chunk 1 and is told to add chunk 0 into it.
  Program prog;
  prog.name = "crossed-accumulate";
  prog.rank_ops.resize(2);
  prog.rank_ops[0] = {SendOp{1, 8.0, 12, false, MsgKind::kGradD, 0},
                      RecvOp{1, 13, MsgKind::kGradD}};
  prog.rank_ops[1] = {SendOp{0, 8.0, 13, false, MsgKind::kGradD, 1},
                      RecvOp{0, 12, MsgKind::kGradD, -1, /*accumulate=*/true}};
  const AnalysisReport report = analysis::analyze(prog);
  const Finding* f = first_of(report, FindingKind::kGradAccumulation);
  ASSERT_NE(f, nullptr) << dump(report);
  EXPECT_NE(f->message.find("holds chunk 1"), std::string::npos)
      << f->message;
  EXPECT_EQ(f->witness.size(), 3u);  // recv, matched send, holding
}

// ---- Extended structural validation (sched::validate) ------------------------

TEST(ValidateExtensions, NegativeCollectiveId) {
  Program prog;
  prog.name = "neg-id";
  prog.rank_ops.resize(1);
  prog.rank_ops[0] = {sched::CollectiveStartOp{-3, 1.0, 8.0},
                      sched::CollectiveWaitOp{-3}};
  const auto report = sched::validate(prog);
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.problems.front().find("negative collective id"),
            std::string::npos);
}

TEST(ValidateExtensions, DuplicateCollectiveId) {
  Program prog;
  prog.name = "dup-id";
  prog.rank_ops.resize(1);
  prog.rank_ops[0] = {sched::CollectiveStartOp{5, 1.0, 8.0},
                      sched::CollectiveStartOp{5, 1.0, 8.0},
                      sched::CollectiveWaitOp{5}};
  const auto report = sched::validate(prog);
  EXPECT_FALSE(report.ok);
  bool found = false;
  for (const auto& p : report.problems) {
    found = found || p.find("duplicate collective id") != std::string::npos;
  }
  EXPECT_TRUE(found);
}

TEST(ValidateExtensions, NanCollectiveBytes) {
  Program prog;
  prog.name = "nan-bytes";
  prog.rank_ops.resize(1);
  prog.rank_ops[0] = {
      sched::CollectiveStartOp{0, 1.0,
                               std::numeric_limits<double>::quiet_NaN()},
      sched::CollectiveWaitOp{0}};
  const auto report = sched::validate(prog);
  EXPECT_FALSE(report.ok);
}

TEST(ValidateExtensions, EveryRankOpensOnRecv) {
  Program prog;
  prog.name = "all-blocked";
  prog.rank_ops.resize(2);
  prog.rank_ops[0] = {RecvOp{1, 0}, SendOp{1, 8.0, 1}};
  prog.rank_ops[1] = {RecvOp{0, 1}, SendOp{0, 8.0, 0}};
  const auto report = sched::validate(prog);
  EXPECT_FALSE(report.ok);
  bool found = false;
  for (const auto& p : report.problems) {
    found = found || p.find("Recv before any possible Send") !=
                         std::string::npos;
  }
  EXPECT_TRUE(found);
}

// ---- Reporting ergonomics ----------------------------------------------------

TEST(AnalysisReporting, DescribeOpNamesPayloads) {
  Program prog;
  prog.name = "describe";
  prog.rank_ops.resize(2);
  prog.rank_ops[0] = {SendOp{1, 8.0, 4, true, MsgKind::kWeightF, 3}};
  prog.rank_ops[1] = {RecvOp{0, 4, MsgKind::kWeightF}};
  const std::string s = analysis::describe_op(prog, 0, 0);
  EXPECT_NE(s.find("Send"), std::string::npos) << s;
  EXPECT_NE(s.find("F-weight"), std::string::npos) << s;
  EXPECT_NE(s.find("chunk 3"), std::string::npos) << s;
}

TEST(AnalysisReporting, SummaryIsHumanReadable) {
  const Program prog = sched::build_weipipe(
      WeiPipeSchedule(4, 1, WeiPipeMode::kInterleave), unit_costs(4));
  const AnalysisReport report = analysis::analyze(prog);
  const std::string s = report.summary();
  EXPECT_NE(s.find(prog.name), std::string::npos);
  EXPECT_NE(s.find("0 findings"), std::string::npos) << s;
}

TEST(AnalysisReporting, FindingCapCountsDropped) {
  // A pathological program with hundreds of doomed recvs must not produce an
  // unbounded report.
  Program prog;
  prog.name = "flood";
  prog.rank_ops.resize(2);
  prog.rank_ops[0] = {SendOp{1, 8.0, 0}};
  prog.rank_ops[1] = {RecvOp{0, 0}};
  for (int i = 0; i < 300; ++i) {
    prog.rank_ops[1].push_back(RecvOp{0, /*tag=*/100 + i});
  }
  const AnalysisReport report = analysis::analyze(prog);
  EXPECT_FALSE(report.ok());
  EXPECT_LE(report.findings.size(), 64u);
  EXPECT_GT(report.findings_dropped, 0u);
}

}  // namespace
}  // namespace weipipe
