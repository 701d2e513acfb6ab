// Profiling harness: runs a strategy on the real execution engine with the
// span recorder installed, aggregates the measured spans into metrics, and
// closes the loop against the static stack — measured bubble/step time vs
// the discrete-event simulator's prediction, measured peak activation bytes
// vs the analyzer's static bound.
//
// Two execution paths, selected by strategy name:
//  * trainer-backed (sequential, weipipe, weipipe-naive, 1f1b, gpipe, fsdp):
//    instruments a real training loop (real tensors, real loss). Predictions
//    are derived by fitting sched::StrategyCosts to the measured spans and
//    simulating the matching schedule on an ideal topology.
//  * schedule-backed (wzb1, wzb2, zb1, zb2, naive, interleave, no-prefetch):
//    builds the sched::Program with synthetic costs (T_F = unit_seconds,
//    T_B = ratio * unit) and runs it on the real fabric through the
//    schedule interpreter's timed backend (core/execute.hpp), the
//    interpreter the trainers use. Here prediction and measurement share
//    the exact same program, so the comparison isolates engine-model
//    fidelity.
//
// `weipipe_cli profile` is a thin wrapper over run_profile(); tests drive it
// directly.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "comm/fabric.hpp"
#include "comm/fault.hpp"
#include "common/thread_pool.hpp"
#include "core/trainer.hpp"
#include "obs/critpath.hpp"
#include "obs/recorder.hpp"
#include "obs/span.hpp"
#include "sim/engine.hpp"

namespace weipipe::prof {

struct ProfileOptions {
  std::string strategy = "wzb2";
  std::int64_t workers = 4;
  std::int64_t iters = 2;         // measured iterations
  std::int64_t warmup_iters = 1;  // untraced warmup iterations

  // Schedule-backed strategies only:
  std::int64_t rounds = 2;     // microbatch rounds (N = rounds * workers)
  double bwd_ratio = 2.0;      // T_B / T_F
  double unit_seconds = 2e-3;  // wall seconds per modeled T_F unit
  // Modeled bytes per circulating weight chunk / per-chunk activation —
  // shipped for real by the timed backend, so keep them modest.
  double chunk_bytes = 1 << 16;
  double act_bytes = 1 << 20;

  // Trainer-backed strategies only: the model/run configuration.
  TrainConfig train;

  // Trainer-backed only: fault-plan spec (comm/fault.hpp grammar) installed
  // into the trainer's fabric for the measured iterations; empty = perfect
  // network. Seeded with train.seed. Injected faults surface as kFault
  // spans in the trace and fault.* counters in the metrics snapshot.
  std::string fault_spec;

  // Trainer-backed only: link emulation (comm::uniform_link and friends)
  // attached to the trainer's fabric; nullptr = infinitely fast links. A
  // modeled link makes exposed-comm comparisons independent of how fast
  // the host happens to move bytes in memory.
  comm::LinkModel link_model = nullptr;

  // Recorder configuration.
  std::size_t ring_capacity = 1 << 16;
  bool record_kernels = false;
};

// How far below a rival's mean exposed-comm fraction a strategy must land
// for `weipipe_cli anatomy --gate-vs` and the test_anatomy gate to pass. At
// the gate's long-context config (G*S/(12H) = 2.7, 10 MB/s modeled links)
// weipipe measured 0.17-0.24 and 1f1b 0.32-0.43 over 20 runs on a 4-core
// x86 box (smallest gap 0.10), so 0.05 rejects ties and near-ties without
// riding the run-to-run spread.
inline constexpr double kExposedCommGateMargin = 0.05;

struct ProfileReport {
  std::string strategy;
  std::int64_t ranks = 0;
  std::int64_t iters = 0;
  bool schedule_backed = false;  // run by the interpreter's timed backend

  // Measured over the traced iterations.
  double measured_step_seconds = 0.0;  // mean iteration wall time
  double measured_bubble = -1.0;       // 1 - busy / (ranks * makespan)
  double measured_peak_act_bytes = 0.0;
  std::uint64_t wire_bytes = 0;     // last iteration
  std::uint64_t wire_messages = 0;  // last iteration
  std::uint64_t max_in_flight = 0;  // last iteration, max over pairs
  // Lock-free transport counters since fabric construction (trainer-backed
  // strategies only): receiver spin/park split, producer notifies, ring
  // overflow spills. Surfaces as the fabric.ring.* metrics.
  comm::RingStats ring_stats;
  std::uint64_t dropped_spans = 0;  // ring overflow (nonzero = trace gaps)
  // dropped_spans broken down by producer ring (rank -1 = unranked
  // threads); only rings that lost spans appear. Surfaces as the
  // obs.spans.dropped.rank.<r> metrics so lossy traces name the rank.
  std::vector<obs::Recorder::RankDropped> dropped_by_rank;

  // Fault injection (only when ProfileOptions::fault_spec was set).
  bool fault_injected = false;
  comm::FaultStats fault_stats;
  int fault_recoveries = 0;  // step-boundary rollbacks (stall plans)

  // Predictions; negative = unavailable for this strategy.
  double predicted_step_seconds = -1.0;  // engine makespan, ideal topology
  double predicted_bubble = -1.0;
  double static_peak_bound_bytes = -1.0;  // analyzer max per-rank bound

  // Full-footprint memory ledger (obs/ledger.hpp), enabled for the run's
  // duration. Peaks are deltas over the pre-run live baseline, so residue
  // from earlier runs in the same process does not smear the numbers.
  struct LedgerKindPeak {
    std::string kind;         // obs::to_string(MemKind)
    double live_bytes = 0.0;  // residual after teardown (≈0 = leak-free)
    double peak_bytes = 0.0;
  };
  std::vector<LedgerKindPeak> ledger_kinds;
  double measured_peak_footprint_bytes = -1.0;  // all categories, all ranks
  double max_rank_peak_footprint_bytes = -1.0;  // worst single rank bucket
  // Parameter-derived static bounds, summed over ranks (trainer-backed
  // only; see acct::static_footprint_bounds). Negative = unavailable.
  double static_weights_bound_bytes = -1.0;
  double static_grads_bound_bytes = -1.0;
  double static_optimizer_bound_bytes = -1.0;

  // Per-MsgKind wire ledger over the last measured iteration (trainer-backed
  // only), against the paper's closed-form volumes when the config sits in
  // the analytical envelope (negative predicted = unavailable).
  struct WireKindVolume {
    std::string kind;  // sched::to_string(MsgKind)
    double measured_bytes = 0.0;
    double measured_messages = 0.0;
    double predicted_bytes = -1.0;
    double predicted_messages = -1.0;
  };
  std::vector<WireKindVolume> wire_kinds;

  // Every span from the traced iterations (trace_json renders these), and
  // the last iteration converted to the simulator's record shape (feeds the
  // ASCII timeline / SVG renderers).
  std::vector<obs::Span> spans;
  sim::SimResult timeline;

  // Critical-path anatomy per measured iteration (obs/critpath.hpp): where
  // every nanosecond of the step went, with exposed wire split by MsgKind.
  // The mean exposed_comm_fraction is the measured counterpart of
  // predicted_bubble.
  std::vector<obs::StepAnatomy> anatomy;
  double mean_exposed_comm_fraction() const {
    if (anatomy.empty()) return -1.0;
    double sum = 0.0;
    for (const obs::StepAnatomy& a : anatomy) {
      sum += a.exposed_comm_fraction();
    }
    return sum / static_cast<double>(anatomy.size());
  }

  std::string trace_json;    // Chrome trace-event JSON (Perfetto-loadable)
  std::string metrics_json;  // obs::MetricsRegistry snapshot

  // Global thread-pool dispatch-arena counters, as a delta over the measured
  // iterations (kernel parallelism: chunked dispatches vs serial fallbacks,
  // worker-claimed chunk count).
  ThreadPoolStats pool_stats;

  // Convenience deltas; meaningful only when the prediction exists.
  double bubble_error() const {
    return (predicted_bubble < 0.0 || measured_bubble < 0.0)
               ? -1.0
               : measured_bubble - predicted_bubble;
  }

  // One-screen human-readable report (measured vs predicted vs static).
  std::string summary() const;
};

// True if `name` runs a real trainer (vs a schedule-only program).
bool is_trainer_strategy(const std::string& name);

// Every strategy name run_profile accepts.
std::vector<std::string> profile_strategies();

// Runs the profile. Installs its own obs::Recorder for the duration; throws
// weipipe::Error if another recorder is already installed or the strategy is
// unknown.
ProfileReport run_profile(const ProfileOptions& options);

}  // namespace weipipe::prof
