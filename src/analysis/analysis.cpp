#include "analysis/analysis.hpp"

#include <algorithm>
#include <map>
#include <queue>
#include <set>
#include <sstream>
#include <tuple>

#include "analysis/witness.hpp"
#include "sched/validate.hpp"

namespace weipipe::analysis {

namespace {

using sched::MsgKind;
using sched::Program;

// Circulating weight flows get one slot per rank (double-buffer semantics:
// a receipt overwrites the previous holding of the same kind).
int slot_index(MsgKind kind) {
  switch (kind) {
    case MsgKind::kWeightF: return 0;
    case MsgKind::kWeightB: return 1;
    case MsgKind::kGradD: return 2;
    default: return -1;
  }
}

constexpr const char* kSlotName[3] = {"F-weight", "B-weight", "D-grad"};

struct ChannelKey {
  int src;
  int dst;
  std::int64_t tag;
  bool operator<(const ChannelKey& o) const {
    return std::tie(src, dst, tag) < std::tie(o.src, o.dst, o.tag);
  }
};

// What a message carries, as declared by its (annotated) send.
struct Carried {
  MsgKind kind = MsgKind::kOpaque;
  std::int64_t chunk = -1;
  std::int64_t microbatch = -1;
  int src_rank = -1;
  std::int64_t src_op = -1;
};

struct Slot {
  bool known = false;
  bool wildcard = false;  // set by an unannotated payload: matches anything
  std::int64_t chunk = -1;
  int prov_rank = -1;  // op that last set the slot (witness provenance)
  std::int64_t prov_op = -1;
};

struct RankExec {
  std::int64_t op_index = 0;
  Slot slots[3];
  // Bw computes whose D chunk was not resident yet; satisfied by a later
  // D-grad receipt of the same chunk (the paired D may arrive within the
  // same turn, after the compute in list order — see docs/ANALYSIS.md).
  std::vector<std::pair<std::int64_t, std::int64_t>> pending_bw;  // (chunk, op)
};

struct CoverageCell {
  std::vector<OpRef> fwd, bwd, bwd_acts, bwd_weights;
};

constexpr std::size_t kMaxFindings = 64;

class Analyzer {
 public:
  Analyzer(const Program& program, const AnalyzeOptions& options)
      : prog_(program), opts_(options) {}

  AnalysisReport run() {
    report_.program_name = prog_.name;
    report_.ops_total = prog_.total_ops();
    compute_static_peaks();
    const bool structural_ok = delegate_validation();
    detect_annotations();
    if (!structural_ok) {
      // Out-of-range ranks etc. would fault the executor; the validation
      // findings already explain the program.
      return std::move(report_);
    }
    index_sends();
    execute();
    if (opts_.check_coverage && !report_.deadlocked) {
      check_coverage();
    }
    finish_pending_bw();
    return std::move(report_);
  }

 private:
  // ---- report plumbing ------------------------------------------------------

  void add(Finding finding) {
    if (report_.findings.size() >= kMaxFindings) {
      ++report_.findings_dropped;
      return;
    }
    report_.findings.push_back(std::move(finding));
  }

  void add(FindingKind kind, std::string message,
           std::vector<OpRef> witness = {}) {
    add(Finding{kind, std::move(message), std::move(witness)});
  }

  // ---- passes ---------------------------------------------------------------

  void compute_static_peaks() {
    report_.static_peak_bytes.assign(prog_.rank_ops.size(), 0.0);
    for (std::size_t r = 0; r < prog_.rank_ops.size(); ++r) {
      double mem = 0.0;
      double peak = 0.0;
      for (const sched::Op& op : prog_.rank_ops[r]) {
        if (const auto* c = std::get_if<sched::ComputeOp>(&op)) {
          mem += c->mem_delta;
          peak = std::max(peak, mem);
        }
      }
      report_.static_peak_bytes[r] = peak;
      report_.static_peak_total_bound += peak;
    }
  }

  // Folds sched::validate() into the report; returns false when the program
  // is structurally unsafe to execute (references to nonexistent ranks).
  bool delegate_validation() {
    const sched::ValidationReport v = sched::validate(prog_);
    for (const std::string& problem : v.problems) {
      add(FindingKind::kValidation, problem);
    }
    const int p = prog_.num_ranks();
    for (int r = 0; r < p; ++r) {
      for (const sched::Op& op : prog_.rank_ops[static_cast<std::size_t>(r)]) {
        if (const auto* s = std::get_if<sched::SendOp>(&op)) {
          if (s->dst < 0 || s->dst >= p || s->dst == r) {
            return false;
          }
        } else if (const auto* rc = std::get_if<sched::RecvOp>(&op)) {
          if (rc->src < 0 || rc->src >= p || rc->src == r) {
            return false;
          }
        }
      }
    }
    return true;
  }

  void detect_annotations() {
    for (const auto& ops : prog_.rank_ops) {
      for (const sched::Op& op : ops) {
        if (const auto* s = std::get_if<sched::SendOp>(&op)) {
          if (slot_index(s->kind) >= 0) {
            report_.weight_annotated = true;
            return;
          }
        }
      }
    }
  }

  void index_sends() {
    for (int r = 0; r < prog_.num_ranks(); ++r) {
      const auto& ops = prog_.rank_ops[static_cast<std::size_t>(r)];
      for (std::size_t i = 0; i < ops.size(); ++i) {
        if (const auto* s = std::get_if<sched::SendOp>(&ops[i])) {
          send_index_[ChannelKey{r, s->dst, s->tag}].push_back(
              static_cast<std::int64_t>(i));
        }
      }
    }
  }

  // ---- the abstract executor ------------------------------------------------

  void execute() {
    const int p = prog_.num_ranks();
    ranks_.assign(static_cast<std::size_t>(p), RankExec{});
    std::size_t remaining = report_.ops_total;
    bool progress = true;
    while (remaining > 0 && progress) {
      progress = false;
      for (int r = 0; r < p; ++r) {
        RankExec& re = ranks_[static_cast<std::size_t>(r)];
        const auto& ops = prog_.rank_ops[static_cast<std::size_t>(r)];
        while (re.op_index < static_cast<std::int64_t>(ops.size())) {
          if (!step(r, re, ops[static_cast<std::size_t>(re.op_index)])) {
            break;
          }
          ++re.op_index;
          --remaining;
          ++report_.ops_executed;
          progress = true;
        }
      }
    }
    if (remaining > 0) {
      report_.deadlocked = true;
      diagnose_stall();
    }
  }

  // Executes one op; returns false when the rank blocks (Recv with no
  // matchable message yet).
  bool step(int r, RankExec& re, const sched::Op& op) {
    if (const auto* c = std::get_if<sched::ComputeOp>(&op)) {
      on_compute(r, re, *c);
    } else if (const auto* s = std::get_if<sched::SendOp>(&op)) {
      on_send(r, re, *s);
    } else if (const auto* rc = std::get_if<sched::RecvOp>(&op)) {
      return on_recv(r, re, *rc);
    }
    // CollectiveStart/Wait never block across ranks (same-rank pairing is a
    // validate() concern); nothing to track here.
    return true;
  }

  void on_compute(int r, RankExec& re, const sched::ComputeOp& c) {
    if (c.microbatch >= 0 && c.chunk >= 0) {
      CoverageCell& cell = coverage_[{c.microbatch, c.chunk}];
      OpRef ref = make_ref(prog_, r, re.op_index, "");
      switch (c.kind) {
        case sched::ComputeKind::kForward: cell.fwd.push_back(ref); break;
        case sched::ComputeKind::kBackward: cell.bwd.push_back(ref); break;
        case sched::ComputeKind::kBackwardActs:
          cell.bwd_acts.push_back(ref);
          break;
        case sched::ComputeKind::kBackwardWeights:
          cell.bwd_weights.push_back(ref);
          break;
        default: break;
      }
    }
    if (!checking_versions() || c.chunk < 0) {
      return;
    }
    switch (c.kind) {
      case sched::ComputeKind::kForward:
        require_slot(r, re, 0, c.chunk);
        break;
      case sched::ComputeKind::kBackward:
        require_slot(r, re, 1, c.chunk);
        require_slot(r, re, 2, c.chunk);
        break;
      case sched::ComputeKind::kBackwardActs:
        require_slot(r, re, 1, c.chunk);
        break;
      case sched::ComputeKind::kBackwardWeights: {
        // The paired D may be listed later in the same turn; defer to the
        // next D-grad receipt (finish_pending_bw reports leftovers).
        const Slot& d = re.slots[2];
        if (!(d.known && (d.wildcard || d.chunk == c.chunk))) {
          re.pending_bw.push_back({c.chunk, re.op_index});
        }
        break;
      }
      default: break;
    }
  }

  void require_slot(int r, RankExec& re, int idx, std::int64_t chunk) {
    Slot& slot = re.slots[idx];
    if (!slot.known) {
      // First use of this flow before any send or receipt: the rank held the
      // chunk at iteration start (non-prefetch variants compute before the
      // opening send). Like the first-send rule, this defines the initial
      // holding; all later uses are checked against it.
      slot.known = true;
      slot.chunk = chunk;
      slot.prov_rank = r;
      slot.prov_op = re.op_index;
      return;
    }
    if (slot.wildcard || slot.chunk == chunk) {
      return;
    }
    std::ostringstream oss;
    oss << locate_op(prog_, r, re.op_index) << " needs " << kSlotName[idx]
        << " chunk " << chunk << " but rank " << r << " holds chunk "
        << slot.chunk;
    add(FindingKind::kWeightVersion, oss.str(),
        {make_ref(prog_, r, re.op_index, "the compute"),
         make_ref(prog_, slot.prov_rank, slot.prov_op, "shard held since")});
  }

  void on_send(int r, RankExec& re, const sched::SendOp& s) {
    Carried carried{s.kind, s.chunk, s.microbatch, r, re.op_index};
    const int idx = slot_index(s.kind);
    if (idx >= 0 && checking_versions()) {
      Slot& slot = re.slots[idx];
      if (!slot.known) {
        // First send of this flow before any receipt: the rank held the
        // chunk at iteration start — that defines the initial holding.
        slot.known = true;
        slot.chunk = s.chunk;
        slot.wildcard = s.chunk < 0;
        slot.prov_rank = r;
        slot.prov_op = re.op_index;
      } else if (!slot.wildcard && s.chunk >= 0 && slot.chunk != s.chunk) {
        std::ostringstream oss;
        oss << locate_op(prog_, r, re.op_index) << " ships " << kSlotName[idx]
            << " chunk " << s.chunk << " but rank " << r << " holds chunk "
            << slot.chunk << " — ring rotation is off";
        add(FindingKind::kWeightVersion, oss.str(),
            {make_ref(prog_, r, re.op_index, "the send"),
             make_ref(prog_, slot.prov_rank, slot.prov_op,
                      "shard held since")});
        // Trust the annotation from here on so one rotation bug does not
        // cascade into a finding per turn.
        slot.chunk = s.chunk;
        slot.prov_rank = r;
        slot.prov_op = re.op_index;
      }
    }
    inbox_[ChannelKey{r, s.dst, s.tag}].push(carried);
  }

  bool on_recv(int r, RankExec& re, const sched::RecvOp& rc) {
    const ChannelKey key{rc.src, r, rc.tag};
    auto it = inbox_.find(key);
    if (it == inbox_.end() || it->second.empty()) {
      // If the program holds fewer sends on this channel than recvs already
      // consumed + 1, no execution order can ever satisfy this Recv: report
      // it and skip, so analysis of the rest of the program continues.
      const auto si = send_index_.find(key);
      const std::size_t total_sends =
          si == send_index_.end() ? 0 : si->second.size();
      if (consumed_[key] >= total_sends) {
        std::ostringstream oss;
        oss << locate_op(prog_, r, re.op_index)
            << " can never complete: the program holds " << total_sends
            << " send(s) on channel (" << rc.src << " -> " << r << ", tag "
            << rc.tag << ") and this is recv #" << (consumed_[key] + 1);
        add(FindingKind::kUnmatchedRecv, oss.str(),
            {make_ref(prog_, r, re.op_index, "the doomed recv")});
        ++consumed_[key];  // keep later recvs on this channel consistent
        return true;
      }
      return false;  // blocked: the matching send exists but has not run
    }
    const Carried carried = it->second.front();
    it->second.pop();
    ++consumed_[key];

    if (carried.kind != MsgKind::kOpaque && rc.kind != MsgKind::kOpaque &&
        carried.kind != rc.kind) {
      std::ostringstream oss;
      oss << locate_op(prog_, r, re.op_index) << " expects "
          << to_string(rc.kind) << " but the matched send carries "
          << to_string(carried.kind)
          << (carried.chunk >= 0
                  ? " chunk " + std::to_string(carried.chunk)
                  : std::string())
          << " — tags are crossed";
      add(FindingKind::kTagMismatch, oss.str(),
          {make_ref(prog_, r, re.op_index, "the recv"),
           make_ref(prog_, carried.src_rank, carried.src_op,
                    "the matched send")});
    } else if (carried.microbatch >= 0 && rc.microbatch >= 0 &&
               carried.microbatch != rc.microbatch) {
      std::ostringstream oss;
      oss << locate_op(prog_, r, re.op_index) << " files "
          << to_string(rc.kind) << " under microbatch " << rc.microbatch
          << " but the matched send carries microbatch "
          << carried.microbatch << " — messages are crossed";
      add(FindingKind::kTagMismatch, oss.str(),
          {make_ref(prog_, r, re.op_index, "the recv"),
           make_ref(prog_, carried.src_rank, carried.src_op,
                    "the matched send")});
    }

    // Receipt overwrites the flow's slot. Interpret by the receiver's
    // declared kind (that is the buffer the bytes land in); fall back to the
    // sender's kind for unannotated recvs.
    const int idx =
        slot_index(rc.kind != MsgKind::kOpaque ? rc.kind : carried.kind);
    if (idx >= 0 && checking_versions()) {
      Slot& slot = re.slots[idx];
      slot.known = true;
      slot.wildcard = carried.chunk < 0;
      slot.chunk = carried.chunk;
      slot.prov_rank = r;
      slot.prov_op = re.op_index;
      if (idx == 2 && !re.pending_bw.empty()) {
        auto match = std::find_if(
            re.pending_bw.begin(), re.pending_bw.end(), [&](const auto& pb) {
              return slot.wildcard || pb.first == carried.chunk;
            });
        if (match != re.pending_bw.end()) {
          re.pending_bw.erase(match);
        }
      }
    }
    return true;
  }

  bool checking_versions() const {
    return opts_.check_weight_versions && report_.weight_annotated;
  }

  // ---- stall diagnosis ------------------------------------------------------

  void diagnose_stall() {
    const int p = prog_.num_ranks();
    // Every stuck rank is blocked at a Recv whose matching send exists but
    // has not executed; its sender is itself stuck (a finished rank has
    // executed all its sends). Out-degree 1 => following the edges from any
    // blocked rank reaches a cycle.
    struct Edge {
      std::int64_t recv_op;  // where the rank is blocked
      int sender;
      std::int64_t send_op;  // the unreached matching send
    };
    std::map<int, Edge> edges;
    for (int r = 0; r < p; ++r) {
      const RankExec& re = ranks_[static_cast<std::size_t>(r)];
      const auto& ops = prog_.rank_ops[static_cast<std::size_t>(r)];
      if (re.op_index >= static_cast<std::int64_t>(ops.size())) {
        continue;
      }
      const auto* rc =
          std::get_if<sched::RecvOp>(&ops[static_cast<std::size_t>(re.op_index)]);
      if (rc == nullptr) {
        continue;  // cannot happen: only recvs block
      }
      const ChannelKey key{rc->src, r, rc->tag};
      const auto si = send_index_.find(key);
      const std::size_t k = consumed_.count(key) ? consumed_.at(key) : 0;
      if (si == send_index_.end() || k >= si->second.size()) {
        continue;  // already reported as kUnmatchedRecv
      }
      edges[r] = Edge{re.op_index, rc->src, si->second[k]};
    }
    if (edges.empty()) {
      return;
    }
    // Walk from the lowest blocked rank until a rank repeats, then trim to
    // the cycle.
    std::vector<int> path;
    std::set<int> seen;
    int cur = edges.begin()->first;
    while (seen.insert(cur).second) {
      path.push_back(cur);
      cur = edges.at(cur).sender;
    }
    const auto cycle_start = std::find(path.begin(), path.end(), cur);
    const std::vector<int> cycle(cycle_start, path.end());

    std::ostringstream oss;
    oss << "deadlock cycle across ranks";
    for (int r : cycle) {
      oss << " " << r << " ->";
    }
    oss << " " << cycle.front() << ": each rank is blocked on a Recv whose "
        << "matching Send sits after the next rank's own blocked Recv";
    std::vector<OpRef> witness;
    for (int r : cycle) {
      const Edge& e = edges.at(r);
      witness.push_back(make_ref(prog_, r, e.recv_op, "blocked at"));
      witness.push_back(make_ref(
          prog_, e.sender, e.send_op,
          "waits for rank " + std::to_string(e.sender) + "'s unreached"));
    }
    add(FindingKind::kDeadlockCycle, oss.str(), std::move(witness));
  }

  // ---- post-execution checks ------------------------------------------------

  void check_coverage() {
    for (const auto& [mc, cell] : coverage_) {
      const auto [m, c] = mc;
      std::ostringstream where;
      where << "(microbatch " << m << ", chunk " << c << ")";
      const std::size_t fused = cell.bwd.size();
      const std::size_t ba = cell.bwd_acts.size();
      const std::size_t bw = cell.bwd_weights.size();
      if (cell.fwd.size() != 1) {
        std::ostringstream oss;
        oss << where.str() << " runs " << cell.fwd.size()
            << " forward computes, expected exactly 1";
        add(FindingKind::kComputeCoverage, oss.str(), cell.fwd);
      }
      const bool fused_ok = fused == 1 && ba == 0 && bw == 0;
      const bool split_ok = fused == 0 && ba == 1 && bw == 1;
      if (!fused_ok && !split_ok) {
        std::ostringstream oss;
        oss << where.str() << " backward coverage broken: B x" << fused
            << ", Ba x" << ba << ", Bw x" << bw
            << " (expected one fused B, or one Ba + one Bw)";
        std::vector<OpRef> witness = cell.bwd;
        witness.insert(witness.end(), cell.bwd_acts.begin(),
                       cell.bwd_acts.end());
        witness.insert(witness.end(), cell.bwd_weights.begin(),
                       cell.bwd_weights.end());
        add(FindingKind::kComputeCoverage, oss.str(), std::move(witness));
      }
    }
  }

  void finish_pending_bw() {
    if (report_.deadlocked) {
      return;  // partial execution: pending entries would be noise
    }
    for (std::size_t r = 0; r < ranks_.size(); ++r) {
      for (const auto& [chunk, op] : ranks_[r].pending_bw) {
        std::ostringstream oss;
        oss << locate_op(prog_, static_cast<int>(r), op)
            << " accumulates into D-grad chunk " << chunk << " but rank " << r
            << " never receives that circulating gradient afterwards";
        add(FindingKind::kGradAccumulation, oss.str(),
            {make_ref(prog_, static_cast<int>(r), op, "the W pass")});
      }
    }
  }

  const Program& prog_;
  const AnalyzeOptions& opts_;
  AnalysisReport report_;

  std::vector<RankExec> ranks_;
  std::map<ChannelKey, std::queue<Carried>> inbox_;
  std::map<ChannelKey, std::size_t> consumed_;
  std::map<ChannelKey, std::vector<std::int64_t>> send_index_;
  std::map<std::pair<std::int64_t, std::int64_t>, CoverageCell> coverage_;
};

}  // namespace

AnalysisReport analyze(const sched::Program& program, AnalyzeOptions options) {
  return Analyzer(program, options).run();
}

}  // namespace weipipe::analysis
