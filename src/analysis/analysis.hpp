// Static model-checker over sched::Program: proves schedule properties
// without executing the engine.
//
// Three families of checks (docs/ANALYSIS.md derives each):
//
//  1. Deadlock. Blocking recvs induce a cross-rank wait-for graph: a Recv
//     executes only after the send it FIFO-matches (per (src, dst, tag))
//     has executed, and ops on one rank execute in list order. The abstract
//     executor runs the program under exactly these rules; if it stalls
//     with ops remaining, every stuck rank is blocked at a Recv and the
//     rank-level wait-for graph (out-degree 1) necessarily contains a
//     cycle, which is reported as a witness trace — the op chain forming
//     the circular wait — instead of the engine's runtime timeout.
//
//  2. Weight-version consistency (weight-passing strategies). Builders
//     annotate sends/recvs with what rides the wire (sched::MsgKind) and
//     which chunk it is. The executor gives each rank one slot per
//     circulating flow (F-weight, B-weight, D-grad); receipt overwrites the
//     slot (double-buffer semantics), and the checker demands that every
//     forward/backward ComputeOp on chunk c holds the right shard at that
//     program point, that every annotated send ships the chunk the rank
//     actually holds, and that matched send/recv pairs agree on payload
//     kind and, for activations, on microbatch (a swapped tag lands a
//     B-flow weight in the F buffer — invisible at runtime, a tag-mismatch
//     finding here). Where the optimizer ops name the chunk each rank owns
//     (the whole-step programs), a master injection must come from the
//     chunk's owner, a flow used before any receipt must be the owned chunk
//     (it starts from the rank's master), an accumulating receive must add
//     into the D chunk already held, and the update needs the owned D.
//
//  3. Memory bound. mem_delta only changes on a rank's own compute ops and
//     ops on one rank are totally ordered, so the per-rank peak — the max
//     prefix sum — is identical across *all* linearizations the
//     happens-before graph admits: the static bound is exact, and
//     sim::simulate() must measure it to the bit (see
//     sim::analysis_cross_check).
//
// Plus exactly-once compute coverage: each (microbatch, chunk) must run one
// forward and one backward (fused B, or a Ba/Bw pair — never both).
//
// analyze() also folds in sched::validate()'s structural checks, making it
// the single correctness gate every schedule builder must pass.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sched/program.hpp"

namespace weipipe::analysis {

enum class FindingKind {
  kValidation,        // structural problem (delegated sched::validate check)
  kUnmatchedRecv,     // a Recv no Send can ever satisfy: guaranteed stall
  kDeadlockCycle,     // circular wait among blocked ranks
  kTagMismatch,       // matched send/recv disagree on kind or microbatch
  kWeightVersion,     // wrong weight shard held at a compute / send
  kGradAccumulation,  // weight-gradient never co-resident with its W pass
  kComputeCoverage,   // (microbatch, chunk) computed 0 or > 1 times
};

const char* to_string(FindingKind kind);

// One step of a witness trace: a concrete op in the program plus its role.
struct OpRef {
  int rank = -1;
  std::int64_t op = -1;  // index into program.rank_ops[rank]
  std::string detail;
};

struct Finding {
  FindingKind kind = FindingKind::kValidation;
  std::string message;        // one line naming the ranks + op indices
  std::vector<OpRef> witness; // op chain: wait cycle, or state provenance
};

struct AnalyzeOptions {
  // Weight-version checks need builder annotations (MsgKind on sends); they
  // are skipped automatically for programs that carry none.
  bool check_weight_versions = true;
  bool check_coverage = true;
};

struct AnalysisReport {
  std::string program_name;
  std::vector<Finding> findings;
  std::size_t findings_dropped = 0;  // beyond the per-report cap

  // Exact static peak activation bytes per rank (max mem_delta prefix sum in
  // program order — linearization-independent; see header comment).
  std::vector<double> static_peak_bytes;
  // Sum over ranks: an upper bound on simultaneous global residency.
  double static_peak_total_bound = 0.0;

  std::size_t ops_total = 0;
  std::size_t ops_executed = 0;  // < ops_total iff the program deadlocks
  bool deadlocked = false;
  bool weight_annotated = false;  // program carries weight-flow annotations

  bool ok() const { return findings.empty() && findings_dropped == 0; }

  // Human-readable report: findings with their witness traces, then the
  // static memory bounds.
  std::string summary() const;
};

AnalysisReport analyze(const sched::Program& program,
                       AnalyzeOptions options = {});

// Renders one op for diagnostics, e.g. "Send(dst=1, tag=4, F-weight chunk 3)".
std::string describe_op(const sched::Program& program, int rank,
                        std::int64_t op_index);

}  // namespace weipipe::analysis
