#include "analysis/witness.hpp"

#include <sstream>

namespace weipipe::analysis {

const char* to_string(FindingKind kind) {
  switch (kind) {
    case FindingKind::kValidation: return "validation";
    case FindingKind::kUnmatchedRecv: return "unmatched-recv";
    case FindingKind::kDeadlockCycle: return "deadlock-cycle";
    case FindingKind::kTagMismatch: return "tag-mismatch";
    case FindingKind::kWeightVersion: return "weight-version";
    case FindingKind::kGradAccumulation: return "grad-accumulation";
    case FindingKind::kComputeCoverage: return "compute-coverage";
  }
  return "?";
}

std::string describe_op(const sched::Program& program, int rank,
                        std::int64_t op_index) {
  const auto r = static_cast<std::size_t>(rank);
  if (r >= program.rank_ops.size() || op_index < 0 ||
      static_cast<std::size_t>(op_index) >= program.rank_ops[r].size()) {
    return "<no such op>";
  }
  const sched::Op& op = program.rank_ops[r][static_cast<std::size_t>(op_index)];
  std::ostringstream oss;
  if (const auto* c = std::get_if<sched::ComputeOp>(&op)) {
    oss << to_string(c->kind);
    if (c->microbatch >= 0) {
      oss << " m=" << c->microbatch;
    }
    if (c->chunk >= 0) {
      oss << " c=" << c->chunk;
    }
  } else if (const auto* s = std::get_if<sched::SendOp>(&op)) {
    oss << "Send(dst=" << s->dst << ", tag=" << s->tag;
    if (s->kind != sched::MsgKind::kOpaque) {
      oss << ", " << to_string(s->kind);
      if (s->chunk >= 0) {
        oss << " chunk " << s->chunk;
      }
    }
    if (s->microbatch >= 0) {
      oss << " m=" << s->microbatch;
    }
    if (s->master) {
      oss << ", master";
    }
    if (s->blocking) {
      oss << ", blocking";
    }
    oss << ")";
  } else if (const auto* rc = std::get_if<sched::RecvOp>(&op)) {
    oss << "Recv(src=" << rc->src << ", tag=" << rc->tag;
    if (rc->kind != sched::MsgKind::kOpaque) {
      oss << ", expects " << to_string(rc->kind);
    }
    if (rc->microbatch >= 0) {
      oss << " m=" << rc->microbatch;
    }
    if (rc->accumulate) {
      oss << ", accumulate";
    }
    oss << ")";
  } else if (const auto* cs = std::get_if<sched::CollectiveStartOp>(&op)) {
    oss << "CollectiveStart(id=" << cs->id << ")";
  } else if (const auto* cw = std::get_if<sched::CollectiveWaitOp>(&op)) {
    oss << "CollectiveWait(id=" << cw->id << ")";
  }
  return oss.str();
}

std::string locate_op(const sched::Program& program, int rank,
                      std::int64_t op_index) {
  std::ostringstream oss;
  oss << "rank " << rank << " op " << op_index << ": "
      << describe_op(program, rank, op_index);
  return oss.str();
}

OpRef make_ref(const sched::Program& program, int rank, std::int64_t op_index,
               const std::string& role) {
  OpRef ref;
  ref.rank = rank;
  ref.op = op_index;
  ref.detail = role.empty() ? describe_op(program, rank, op_index)
                            : role + ": " + describe_op(program, rank, op_index);
  return ref;
}

std::string AnalysisReport::summary() const {
  std::ostringstream oss;
  oss << "analysis of '" << program_name << "': ";
  const std::size_t total = findings.size() + findings_dropped;
  if (total == 0) {
    oss << "0 findings";
  } else {
    oss << total << " finding" << (total == 1 ? "" : "s");
  }
  oss << " (" << ops_executed << "/" << ops_total << " ops reached";
  if (deadlocked) {
    oss << ", DEADLOCKED";
  }
  if (!weight_annotated) {
    oss << ", no weight annotations";
  }
  oss << ")\n";
  for (const Finding& f : findings) {
    oss << "  [" << to_string(f.kind) << "] " << f.message << "\n";
    for (const OpRef& step : f.witness) {
      oss << "      rank " << step.rank << " op " << step.op << ": "
          << step.detail << "\n";
    }
  }
  if (findings_dropped > 0) {
    oss << "  ... " << findings_dropped << " further findings dropped\n";
  }
  oss << "  static peak activation bytes per rank: [";
  for (std::size_t r = 0; r < static_peak_bytes.size(); ++r) {
    oss << (r ? ", " : "") << static_peak_bytes[r];
  }
  oss << "]; total bound " << static_peak_total_bound << "\n";
  return oss.str();
}

}  // namespace weipipe::analysis
