#include "prof/profile.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <sstream>
#include <utility>

#include "analysis/analysis.hpp"
#include "baselines/chaos.hpp"
#include "baselines/factory.hpp"
#include "baselines/fsdp_trainer.hpp"
#include "baselines/pipeline_trainer.hpp"
#include "comm/fabric.hpp"
#include "common/check.hpp"
#include "core/accounting.hpp"
#include "core/resilience.hpp"
#include "core/weipipe_trainer.hpp"
#include "core/wire_tags.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/ledger.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "sched/builders.hpp"
#include "sched/weipipe_schedule.hpp"
#include "sim/program_runner.hpp"
#include "sim/topology.hpp"
#include "trace/runtime.hpp"

namespace weipipe::prof {

namespace {

const char* const kTrainerStrategies[] = {
    "sequential", "weipipe", "weipipe-interleave", "weipipe-naive",
    "1f1b",       "gpipe",   "fsdp"};
const char* const kScheduleStrategies[] = {
    "wzb1", "wzb2", "zb1", "zb2", "naive", "interleave", "no-prefetch"};

// The predicted side of every comparison: transfer over ideal links is free,
// so the engine measures pure schedule structure (dependency bubbles), which
// is what the runner's eager fabric + busy-wait compute realizes.
sim::Topology ideal_topology(std::int64_t ranks) {
  return sim::Topology::uniform(static_cast<int>(ranks),
                                sim::Link{1e15, 0.0}, "ideal");
}

// ---- schedule-backed path ---------------------------------------------------

sched::Program build_schedule_backed(const ProfileOptions& options) {
  const std::int64_t p = options.workers;
  sched::StrategyCosts costs;
  for (std::int64_t i = 0; i < p; ++i) {
    costs.fwd_seconds.push_back(options.unit_seconds);
    costs.bwd_seconds.push_back(options.bwd_ratio * options.unit_seconds);
    costs.bwd_acts_seconds.push_back(options.bwd_ratio * options.unit_seconds /
                                     2.0);
    costs.bwd_weights_seconds.push_back(options.bwd_ratio *
                                        options.unit_seconds / 2.0);
    costs.chunk_weight_bytes.push_back(options.chunk_bytes);
    costs.act_mem_bytes.push_back(options.act_bytes);
  }
  costs.act_bytes = options.act_bytes;
  costs.act_grad_bytes = options.act_bytes;

  const std::int64_t n = options.rounds * p;
  const std::string& s = options.strategy;
  if (s == "naive") {
    return sched::build_weipipe(
        WeiPipeSchedule(p, options.rounds, WeiPipeMode::kNaive), costs);
  }
  if (s == "interleave") {
    return sched::build_weipipe(
        WeiPipeSchedule(p, options.rounds, WeiPipeMode::kInterleave), costs);
  }
  if (s == "no-prefetch") {
    return sched::build_weipipe(
        WeiPipeSchedule(p, options.rounds, WeiPipeMode::kInterleave), costs,
        /*prefetch=*/false);
  }
  if (s == "wzb1") {
    return sched::build_weipipe_zero_bubble(p, options.rounds,
                                            sched::WzbVariant::kWzb1, costs);
  }
  if (s == "wzb2") {
    return sched::build_weipipe_zero_bubble(p, options.rounds,
                                            sched::WzbVariant::kWzb2, costs);
  }
  if (s == "zb1") {
    return sched::build_zero_bubble(p, n, sched::ZbVariant::kZb1, costs);
  }
  if (s == "zb2") {
    return sched::build_zero_bubble(p, n, sched::ZbVariant::kZb2, costs);
  }
  WEIPIPE_CHECK_MSG(false, "unknown profile strategy '" << s << "'");
  return {};
}

// ---- trainer-backed path ----------------------------------------------------

// acct speaks the canonical trainer names; prof accepts one alias.
std::string acct_strategy(const std::string& s) {
  return s == "weipipe-interleave" ? "weipipe" : s;
}

comm::Fabric* trainer_fabric(Trainer& trainer) {
  return trainer.fabric();  // nullptr for sequential
}

// obs/ cannot name sched::MsgKind (layering), so prof supplies the tag ->
// wire-kind classifier: the same mapping the wire.kind.* metrics use.
obs::AnatomyOptions anatomy_options() {
  obs::AnatomyOptions opts;
  opts.wire_kind_label = [](std::int64_t tag) {
    return std::string(sched::to_string(wire_tags::msg_kind(tag)));
  };
  return opts;
}

struct KindStats {
  double sum_seconds = 0.0;
  std::int64_t count = 0;
  double max_acquired_bytes = 0.0;  // max positive mem delta seen

  double mean_seconds() const {
    return count > 0 ? sum_seconds / static_cast<double>(count) : 0.0;
  }
};

// Fits sched::StrategyCosts to the measured spans of a trainer run and
// builds the schedule the trainer implements, so the discrete-event engine
// can predict what the measured timeline *should* look like. Returns false
// when the strategy has no schedule model (sequential, fsdp) or the spans do
// not cover every chunk.
bool derive_predicted_program(const ProfileOptions& options,
                              const std::vector<obs::Span>& spans,
                              std::int64_t iters, sched::Program* out) {
  const std::string& s = options.strategy;
  const bool is_weipipe =
      s == "weipipe" || s == "weipipe-interleave" || s == "weipipe-naive";
  const bool is_pipeline = s == "1f1b" || s == "gpipe";
  if (!is_weipipe && !is_pipeline) {
    return false;
  }
  const std::int64_t p = options.workers;
  const std::int64_t n = options.train.num_microbatches;
  if (p < 2 || n % p != 0) {
    return false;
  }

  // Per-chunk F/B stats; per-tag wire-message sizes.
  std::map<std::int64_t, KindStats> fwd;
  std::map<std::int64_t, KindStats> bwd;
  KindStats optimizer;
  std::map<std::int64_t, KindStats> send_by_tag;
  for (const obs::Span& span : spans) {
    if (span.kind == obs::SpanKind::kForward && span.chunk >= 0) {
      KindStats& k = fwd[span.chunk];
      k.sum_seconds += span.seconds();
      k.count += 1;
      k.max_acquired_bytes =
          std::max(k.max_acquired_bytes, static_cast<double>(span.bytes));
    } else if (span.kind == obs::SpanKind::kBackward && span.chunk >= 0) {
      KindStats& k = bwd[span.chunk];
      k.sum_seconds += span.seconds();
      k.count += 1;
    } else if (span.kind == obs::SpanKind::kOptimizer) {
      optimizer.sum_seconds += span.seconds();
      optimizer.count += 1;
    } else if (span.kind == obs::SpanKind::kSendTransfer) {
      KindStats& k = send_by_tag[span.tag];
      k.sum_seconds += static_cast<double>(span.bytes);  // reuse: byte sum
      k.count += 1;
    }
  }
  for (std::int64_t c = 0; c < p; ++c) {
    if (fwd.find(c) == fwd.end() || bwd.find(c) == bwd.end()) {
      return false;  // spans do not cover every chunk/stage
    }
  }

  auto mean_send_bytes = [&](std::int64_t tag, double fallback) {
    auto it = send_by_tag.find(tag);
    return (it != send_by_tag.end() && it->second.count > 0)
               ? it->second.sum_seconds /
                     static_cast<double>(it->second.count)
               : fallback;
  };

  sched::StrategyCosts costs;
  for (std::int64_t c = 0; c < p; ++c) {
    costs.fwd_seconds.push_back(fwd[c].mean_seconds());
    costs.bwd_seconds.push_back(bwd[c].mean_seconds());
    costs.bwd_acts_seconds.push_back(bwd[c].mean_seconds() / 2.0);
    costs.bwd_weights_seconds.push_back(bwd[c].mean_seconds() / 2.0);
    costs.chunk_weight_bytes.push_back(
        mean_send_bytes(wire_tags::kTagF, 1.0));
    costs.act_mem_bytes.push_back(fwd[c].max_acquired_bytes);
  }
  costs.act_bytes = mean_send_bytes(wire_tags::kTagAct, 1.0);
  costs.act_grad_bytes = mean_send_bytes(wire_tags::kTagGrad, 1.0);
  // The trainer's optimizer step covers all measured iterations' opt spans;
  // the schedule has one optimizer op per rank.
  costs.optimizer_seconds =
      iters > 0 ? optimizer.sum_seconds /
                      static_cast<double>(std::max<std::int64_t>(1, iters * p))
                : 0.0;

  if (is_weipipe) {
    const WeiPipeMode mode = (s == "weipipe-naive") ? WeiPipeMode::kNaive
                                                    : WeiPipeMode::kInterleave;
    *out = sched::build_weipipe(WeiPipeSchedule(p, n / p, mode), costs);
  } else if (s == "1f1b") {
    *out = sched::build_1f1b(p, n, costs);
  } else {
    *out = sched::build_gpipe(p, n, costs);
  }
  return true;
}

// ---- metrics ----------------------------------------------------------------

void fill_metrics(obs::MetricsRegistry& registry, const ProfileReport& report,
                  const std::vector<comm::FabricStats>& pair_stats) {
  for (const obs::Span& span : report.spans) {
    if (span.kind == obs::SpanKind::kStep) {
      registry.histogram("step.seconds").observe(span.seconds());
      continue;
    }
    registry.histogram(std::string("op.seconds.") + obs::to_string(span.kind))
        .observe(span.seconds());
    if (span.kind == obs::SpanKind::kSendTransfer && span.bytes > 0) {
      registry
          .counter(std::string("wire.bytes.") +
                   sched::to_string(wire_tags::msg_kind(span.tag)))
          .add(static_cast<std::uint64_t>(span.bytes));
    }
    if (obs::is_compute(span.kind) && span.act_bytes_after >= 0.0) {
      registry.gauge("mem.peak_act_bytes.measured")
          .set_max(span.act_bytes_after);
    }
  }

  registry.counter("spans.recorded").add(report.spans.size());
  registry.counter("spans.dropped").add(report.dropped_spans);
  // Canonical overflow metric (ISSUE 7): total plus a per-ring breakdown so
  // a lossy trace names which rank's ring truncated.
  registry.counter("obs.spans.dropped").add(report.dropped_spans);
  for (const obs::Recorder::RankDropped& d : report.dropped_by_rank) {
    registry
        .counter(d.rank < 0 ? std::string("obs.spans.dropped.unranked")
                            : "obs.spans.dropped.rank." +
                                  std::to_string(d.rank))
        .add(d.dropped);
  }

  registry.counter("pool.dispatches").add(report.pool_stats.dispatches);
  registry.counter("pool.serial_runs").add(report.pool_stats.serial_runs);
  registry.counter("pool.items").add(report.pool_stats.items);
  registry.counter("pool.chunks").add(report.pool_stats.chunks);
  registry.counter("pool.steals").add(report.pool_stats.steals);
  registry.counter("fabric.messages").add(report.wire_messages);
  registry.counter("fabric.bytes").add(report.wire_bytes);
  registry.gauge("fabric.max_in_flight")
      .set(static_cast<double>(report.max_in_flight));
  // Lock-free transport health: a high park share means receivers arrive
  // long before their data; overflow > 0 means eager bursts outran the
  // bounded per-edge rings and fell back to the mutex spillover path.
  registry.counter("fabric.ring.spins").add(report.ring_stats.spins);
  registry.counter("fabric.ring.parks").add(report.ring_stats.parks);
  registry.counter("fabric.ring.notifies").add(report.ring_stats.notifies);
  registry.counter("fabric.ring.overflow").add(report.ring_stats.overflow);

  if (report.fault_injected) {
    chaos::fill_fault_metrics(registry, report.fault_stats);
    registry.counter("fault.step_recoveries")
        .add(static_cast<std::uint64_t>(report.fault_recoveries));
  }

  const auto ranks = static_cast<std::size_t>(report.ranks);
  if (pair_stats.size() == ranks * ranks) {
    for (std::size_t src = 0; src < ranks; ++src) {
      for (std::size_t dst = 0; dst < ranks; ++dst) {
        const comm::FabricStats& st = pair_stats[src * ranks + dst];
        if (st.messages == 0) {
          continue;
        }
        std::ostringstream prefix;
        prefix << "fabric.pair." << src << "->" << dst;
        registry.counter(prefix.str() + ".messages").add(st.messages);
        registry.counter(prefix.str() + ".bytes").add(st.bytes);
        registry.gauge(prefix.str() + ".max_in_flight")
            .set(static_cast<double>(st.max_in_flight));
      }
    }
  }

  for (const ProfileReport::LedgerKindPeak& k : report.ledger_kinds) {
    registry.gauge("mem.ledger." + k.kind + ".peak_bytes").set(k.peak_bytes);
    registry.gauge("mem.ledger." + k.kind + ".live_bytes").set(k.live_bytes);
  }
  if (report.measured_peak_footprint_bytes >= 0.0) {
    registry.gauge("mem.ledger.total_peak_bytes")
        .set(report.measured_peak_footprint_bytes);
    registry.gauge("mem.ledger.max_rank_peak_bytes")
        .set(report.max_rank_peak_footprint_bytes);
  }
  if (report.static_weights_bound_bytes >= 0.0) {
    registry.gauge("mem.bound.weights_bytes")
        .set(report.static_weights_bound_bytes);
    registry.gauge("mem.bound.weight_grads_bytes")
        .set(report.static_grads_bound_bytes);
    registry.gauge("mem.bound.optimizer_bytes")
        .set(report.static_optimizer_bound_bytes);
  }
  for (const ProfileReport::WireKindVolume& w : report.wire_kinds) {
    registry.counter("wire.kind." + w.kind + ".bytes")
        .add(static_cast<std::uint64_t>(w.measured_bytes));
    registry.counter("wire.kind." + w.kind + ".messages")
        .add(static_cast<std::uint64_t>(w.measured_messages));
    if (w.predicted_bytes >= 0.0) {
      registry.gauge("wire.kind." + w.kind + ".predicted_bytes")
          .set(w.predicted_bytes);
    }
  }

  registry.gauge("step.seconds.measured.mean").set(report.measured_step_seconds);
  registry.gauge("bubble.measured").set(report.measured_bubble);
  if (report.predicted_step_seconds >= 0.0) {
    registry.gauge("step.seconds.predicted").set(report.predicted_step_seconds);
    registry.gauge("bubble.predicted").set(report.predicted_bubble);
  }
  if (report.static_peak_bound_bytes >= 0.0) {
    registry.gauge("mem.peak_act_bytes.static_bound")
        .set(report.static_peak_bound_bytes);
  }
  // Critical-path anatomy: per-category path time (mean over iterations)
  // plus the headline exposed fraction the CI gate compares across
  // strategies.
  if (!report.anatomy.empty()) {
    const double n = static_cast<double>(report.anatomy.size());
    double cats[obs::kNumPathCategories] = {};
    double path = 0.0;
    for (const obs::StepAnatomy& a : report.anatomy) {
      path += a.path_seconds();
      for (int c = 0; c < obs::kNumPathCategories; ++c) {
        cats[c] += a.category_seconds[c];
      }
    }
    registry.gauge("anatomy.path_seconds.mean").set(path / n);
    for (int c = 0; c < obs::kNumPathCategories; ++c) {
      registry
          .gauge(std::string("anatomy.") +
                 obs::to_string(static_cast<obs::PathCategory>(c)) +
                 ".seconds.mean")
          .set(cats[c] / n);
    }
    registry.gauge("anatomy.exposed_comm_fraction")
        .set(report.mean_exposed_comm_fraction());
    for (const obs::StepAnatomy& a : report.anatomy) {
      for (const obs::WireExposure& w : a.wire) {
        registry.gauge("anatomy.exposed_wire." + w.kind + ".seconds")
            .set(w.seconds);
      }
    }
  }
}

ThreadPoolStats pool_stats_delta(const ThreadPoolStats& before,
                                 const ThreadPoolStats& after) {
  return {after.dispatches - before.dispatches,
          after.serial_runs - before.serial_runs, after.items - before.items,
          after.chunks - before.chunks, after.steals - before.steals};
}

std::string format_seconds(double s) {
  char buf[64];
  if (s < 0.0) {
    return "n/a";
  }
  if (s < 1.0) {
    std::snprintf(buf, sizeof(buf), "%.3f ms", s * 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.3f s", s);
  }
  return buf;
}

std::string format_bytes(double b) {
  char buf[64];
  if (b < 0.0) {
    return "n/a";
  }
  if (b >= 1024.0 * 1024.0) {
    std::snprintf(buf, sizeof(buf), "%.2f MiB", b / (1024.0 * 1024.0));
  } else if (b >= 1024.0) {
    std::snprintf(buf, sizeof(buf), "%.2f KiB", b / 1024.0);
  } else {
    std::snprintf(buf, sizeof(buf), "%.0f B", b);
  }
  return buf;
}

std::string format_percent(double frac) {
  if (frac < 0.0) {
    return "n/a";
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f%%", frac * 100.0);
  return buf;
}

}  // namespace

bool is_trainer_strategy(const std::string& name) {
  for (const char* s : kTrainerStrategies) {
    if (name == s) {
      return true;
    }
  }
  return false;
}

std::vector<std::string> profile_strategies() {
  std::vector<std::string> out;
  for (const char* s : kTrainerStrategies) {
    out.emplace_back(s);
  }
  for (const char* s : kScheduleStrategies) {
    out.emplace_back(s);
  }
  return out;
}

std::string ProfileReport::summary() const {
  std::ostringstream oss;
  oss << "profile: " << strategy
      << (schedule_backed ? " (schedule-backed)" : " (trainer-backed)") << ", "
      << ranks << " rank(s), " << iters << " iteration(s)\n";
  oss << "  step time  measured " << format_seconds(measured_step_seconds)
      << "  predicted " << format_seconds(predicted_step_seconds);
  if (predicted_step_seconds > 0.0) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "  (%+.1f%%)",
                  (measured_step_seconds / predicted_step_seconds - 1.0) *
                      100.0);
    oss << buf;
  }
  oss << '\n';
  oss << "  bubble     measured " << format_percent(measured_bubble)
      << "  predicted " << format_percent(predicted_bubble);
  if (predicted_bubble >= 0.0 && measured_bubble >= 0.0) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "  (%+.1f pp)", bubble_error() * 100.0);
    oss << buf;
  }
  oss << '\n';
  if (!anatomy.empty()) {
    // The anatomy's exposed fraction is the measured counterpart of the
    // simulator's bubble: wire + blocked time the schedule failed to hide.
    oss << "  crit path  exposed comm "
        << format_percent(mean_exposed_comm_fraction()) << "  vs predicted bubble "
        << format_percent(predicted_bubble);
    if (predicted_bubble >= 0.0) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "  (%+.1f pp)",
                    (mean_exposed_comm_fraction() - predicted_bubble) * 100.0);
      oss << buf;
    }
    oss << '\n';
    double cats[obs::kNumPathCategories] = {};
    for (const obs::StepAnatomy& a : anatomy) {
      for (int c = 0; c < obs::kNumPathCategories; ++c) {
        cats[c] += a.category_seconds[c] /
                   static_cast<double>(anatomy.size());
      }
    }
    oss << "    path mean";
    for (int c = 0; c < obs::kNumPathCategories; ++c) {
      oss << "  " << obs::to_string(static_cast<obs::PathCategory>(c)) << ' '
          << format_seconds(cats[c]);
    }
    oss << '\n';
  }
  oss << "  peak act   measured " << format_bytes(measured_peak_act_bytes)
      << "  static bound " << format_bytes(static_peak_bound_bytes);
  if (static_peak_bound_bytes >= 0.0) {
    oss << (measured_peak_act_bytes <= static_peak_bound_bytes + 0.5
                ? "  OK (measured <= bound)"
                : "  VIOLATION (measured > bound)");
  }
  oss << '\n';
  if (measured_peak_footprint_bytes >= 0.0) {
    const double bound_total =
        (static_weights_bound_bytes < 0.0)
            ? -1.0
            : static_weights_bound_bytes + static_grads_bound_bytes +
                  static_optimizer_bound_bytes;
    oss << "  footprint  measured peak "
        << format_bytes(measured_peak_footprint_bytes) << "  worst rank "
        << format_bytes(max_rank_peak_footprint_bytes)
        << "  static weights+grads+opt bound " << format_bytes(bound_total)
        << '\n';
    for (const LedgerKindPeak& k : ledger_kinds) {
      if (k.peak_bytes <= 0.0 && k.live_bytes <= 0.0) continue;
      oss << "    mem." << k.kind << "  peak " << format_bytes(k.peak_bytes)
          << "  residual " << format_bytes(k.live_bytes) << '\n';
    }
  }
  oss << "  wire       " << wire_messages << " message(s), "
      << format_bytes(static_cast<double>(wire_bytes))
      << ", max in flight " << max_in_flight << '\n';
  for (const WireKindVolume& w : wire_kinds) {
    oss << "    wire." << w.kind << "  measured "
        << format_bytes(w.measured_bytes) << " in "
        << static_cast<std::uint64_t>(w.measured_messages) << " msg(s)";
    if (w.predicted_bytes >= 0.0) {
      oss << "  predicted " << format_bytes(w.predicted_bytes)
          << (w.measured_bytes == w.predicted_bytes ? "  MATCH" : "  MISMATCH");
    }
    oss << '\n';
  }
  oss << "  spans      " << spans.size() << " recorded, " << dropped_spans
      << " dropped";
  if (dropped_spans > 0) {
    oss << "  (trace incomplete: raise ring_capacity)";
  }
  oss << '\n';
  for (const obs::Recorder::RankDropped& d : dropped_by_rank) {
    if (d.rank < 0) {
      oss << "    dropped.unranked  " << d.dropped << '\n';
    } else {
      oss << "    dropped.rank." << d.rank << "  " << d.dropped << '\n';
    }
  }
  oss << "  pool       " << pool_stats.dispatches << " dispatch(es) ("
      << pool_stats.serial_runs << " serial), " << pool_stats.items
      << " item(s) in " << pool_stats.chunks << " chunk(s), "
      << pool_stats.steals << " worker-claimed\n";
  return oss.str();
}

ProfileReport run_profile(const ProfileOptions& options) {
  WEIPIPE_CHECK_MSG(options.iters >= 1, "need at least one measured iteration");
  WEIPIPE_CHECK_MSG(options.warmup_iters >= 0, "negative warmup");
  WEIPIPE_CHECK_MSG(obs::Recorder::active() == nullptr,
                    "a recorder is already installed");

  ProfileReport report;
  report.strategy = options.strategy;
  report.iters = options.iters;
  report.schedule_backed = !is_trainer_strategy(options.strategy);

  obs::Recorder recorder(
      {.ring_capacity = options.ring_capacity,
       .record_kernels = options.record_kernels});
  recorder.reserve_ranks(static_cast<int>(options.workers));

  // Memory ledger: enabled for the run, reported as deltas over the live
  // baseline so earlier runs in this process don't smear the numbers.
  obs::MemoryLedger& ledger = obs::ledger();
  const bool ledger_was_enabled = ledger.enabled();
  ledger.set_enabled(true);
  ledger.reset_peaks();
  const obs::LedgerSnapshot ledger_baseline = ledger.snapshot();

  double bubble_sum = 0.0;
  std::int64_t bubble_count = 0;
  std::vector<comm::FabricStats> pair_stats;

  if (report.schedule_backed) {
    WEIPIPE_CHECK_MSG(options.fault_spec.empty(),
                      "--faults requires a trainer-backed strategy with a "
                      "persistent fabric; '"
                          << options.strategy
                          << "' replays schedule IR on a per-run fabric "
                             "(use weipipe_cli chaos or a trainer strategy)");
    WEIPIPE_CHECK_MSG(options.link_model == nullptr,
                      "--link-gbps requires a trainer-backed strategy; '"
                          << options.strategy
                          << "' is predicted on ideal links, so a modeled "
                             "link would skew measured against predicted");
    report.ranks = options.workers;
    const sched::Program program = build_schedule_backed(options);

    // Prediction and static bound come from the exact program we execute.
    const sim::SimResult predicted =
        sim::simulate(program, ideal_topology(report.ranks));
    report.predicted_step_seconds = predicted.makespan;
    report.predicted_bubble = predicted.bubble_ratio();
    const analysis::AnalysisReport analyzed = analysis::analyze(program);
    WEIPIPE_CHECK_MSG(!analyzed.deadlocked,
                      "schedule '" << options.strategy
                                   << "' deadlocks; not profiling it");
    report.static_peak_bound_bytes = 0.0;
    for (double b : analyzed.static_peak_bytes) {
      report.static_peak_bound_bytes =
          std::max(report.static_peak_bound_bytes, b);
    }

    for (std::int64_t i = 0; i < options.warmup_iters; ++i) {
      (void)sim::run_program(program);
    }
    const ThreadPoolStats pool_before = ThreadPool::global().stats();
    recorder.install();
    for (std::int64_t i = 0; i < options.iters; ++i) {
      const sim::ProgramRunResult run = sim::run_program(program);
      report.measured_step_seconds += run.wall_seconds;
      for (double b : run.peak_act_bytes) {
        report.measured_peak_act_bytes =
            std::max(report.measured_peak_act_bytes, b);
      }
      std::vector<obs::Span> iter_spans = recorder.drain();
      const sim::SimResult converted =
          trace::spans_to_sim_result(iter_spans);
      if (converted.makespan > 0.0) {
        bubble_sum += converted.bubble_ratio();
        bubble_count += 1;
      }
      {
        obs::StepAnatomy anat =
            obs::analyze_step(iter_spans, anatomy_options());
        if (anat.step_index < 0) anat.step_index = i;
        report.anatomy.push_back(std::move(anat));
      }
      if (i == options.iters - 1) {
        report.timeline = converted;
        report.wire_bytes = run.wire_bytes;
        report.wire_messages = run.wire_messages;
        report.max_in_flight = run.max_in_flight;
        pair_stats = run.pair_stats;
      }
      report.spans.insert(report.spans.end(),
                          std::make_move_iterator(iter_spans.begin()),
                          std::make_move_iterator(iter_spans.end()));
    }
    recorder.uninstall();
    report.pool_stats =
        pool_stats_delta(pool_before, ThreadPool::global().stats());
  } else {
    TrainConfig cfg = options.train;
    cfg.validate();
    report.ranks = options.strategy == "sequential" ? 1 : options.workers;

    // Parameter-derived static bounds for the measured footprint to close
    // against (the activation side is covered by static_peak_bound_bytes).
    const acct::FootprintBounds bounds = acct::static_footprint_bounds(
        acct_strategy(options.strategy), cfg, report.ranks);
    report.static_weights_bound_bytes =
        static_cast<double>(bounds.weights_bytes);
    report.static_grads_bound_bytes =
        static_cast<double>(bounds.weight_grads_bytes);
    report.static_optimizer_bound_bytes =
        static_cast<double>(bounds.optimizer_bytes);

    std::unique_ptr<Trainer> trainer =
        make_trainer(options.strategy, cfg, options.workers,
                     options.link_model);
    WEIPIPE_CHECK_MSG(options.link_model == nullptr ||
                          trainer->fabric() != nullptr,
                      "--link-gbps requires a fabric-backed strategy, not '"
                          << options.strategy << "'");
    SyntheticDataset data(cfg.model.vocab_size, cfg.seed);

    std::int64_t iter = 0;
    for (std::int64_t i = 0; i < options.warmup_iters; ++i) {
      (void)trainer->train_iteration(data, iter++);
    }
    if (!options.fault_spec.empty()) {
      comm::Fabric* fault_fabric = trainer->fabric();
      WEIPIPE_CHECK_MSG(fault_fabric != nullptr,
                        "--faults requires a fabric-backed strategy, not '"
                            << options.strategy << "'");
      fault_fabric->install_fault_plan(
          comm::parse_fault_plan(options.fault_spec, cfg.seed));
      report.fault_injected = true;
    }
    const ThreadPoolStats pool_before = ThreadPool::global().stats();
    recorder.install();
    for (std::int64_t i = 0; i < options.iters; ++i) {
      const RecoveryResult rec =
          train_iteration_with_recovery(*trainer, data, iter++);
      const IterationResult& res = rec.result;
      report.fault_recoveries += rec.recoveries;
      report.measured_step_seconds += res.wall_seconds;
      std::vector<obs::Span> iter_spans = recorder.drain();
      const sim::SimResult converted =
          trace::spans_to_sim_result(iter_spans);
      if (converted.makespan > 0.0) {
        bubble_sum += converted.bubble_ratio();
        bubble_count += 1;
      }
      report.measured_peak_act_bytes = std::max(
          report.measured_peak_act_bytes, converted.max_peak_act_bytes());
      {
        obs::StepAnatomy anat =
            obs::analyze_step(iter_spans, anatomy_options());
        if (anat.step_index < 0) anat.step_index = iter - 1;
        report.anatomy.push_back(std::move(anat));
      }
      if (i == options.iters - 1) {
        report.timeline = converted;
        report.wire_bytes = res.wire_bytes;
        report.wire_messages = res.wire_messages;
        if (comm::Fabric* fabric = trainer_fabric(*trainer)) {
          pair_stats = fabric->stats_matrix();
          report.max_in_flight = fabric->max_in_flight();
          report.ring_stats = fabric->ring_stats();
          if (fabric->has_fault_plan()) {
            report.fault_stats = fabric->fault_stats();
          }

          // Per-kind wire ledger for the last iteration, against the paper's
          // closed-form volumes when the config sits in the envelope.
          const std::string acct_name = acct_strategy(options.strategy);
          acct::KindVolumes measured = acct::measured_kind_volumes(*fabric);
          acct::KindVolumes predicted;
          if (acct::has_predicted_kind_volumes(acct_name, cfg)) {
            predicted =
                acct::predicted_kind_volumes(acct_name, cfg, report.ranks);
            for (const auto& [kind, kv] : predicted) {
              measured[kind];  // surface predicted-but-unmeasured kinds too
              (void)kv;
            }
          }
          for (const auto& [kind, kv] : measured) {
            ProfileReport::WireKindVolume w;
            w.kind = sched::to_string(kind);
            w.measured_bytes = static_cast<double>(kv.bytes);
            w.measured_messages = static_cast<double>(kv.messages);
            if (auto it = predicted.find(kind); it != predicted.end()) {
              w.predicted_bytes = static_cast<double>(it->second.bytes);
              w.predicted_messages = static_cast<double>(it->second.messages);
            }
            report.wire_kinds.push_back(std::move(w));
          }
        }
      }
      report.spans.insert(report.spans.end(),
                          std::make_move_iterator(iter_spans.begin()),
                          std::make_move_iterator(iter_spans.end()));
    }
    recorder.uninstall();
    report.pool_stats =
        pool_stats_delta(pool_before, ThreadPool::global().stats());

    sched::Program predicted_program;
    if (derive_predicted_program(options, report.spans, options.iters,
                                 &predicted_program)) {
      const sim::SimResult predicted =
          sim::simulate(predicted_program, ideal_topology(report.ranks));
      report.predicted_step_seconds = predicted.makespan;
      report.predicted_bubble = predicted.bubble_ratio();
      const analysis::AnalysisReport analyzed =
          analysis::analyze(predicted_program);
      if (!analyzed.deadlocked) {
        report.static_peak_bound_bytes = 0.0;
        for (double b : analyzed.static_peak_bytes) {
          report.static_peak_bound_bytes =
              std::max(report.static_peak_bound_bytes, b);
        }
      }
    }
  }

  // Final ledger snapshot: the trainer (if any) is destroyed by now, so live
  // deltas show post-teardown residue (≈0 when nothing leaked) while peaks
  // capture the in-flight footprint.
  {
    const obs::LedgerSnapshot snap = ledger.snapshot();
    for (int k = 0; k < obs::kNumMemKinds; ++k) {
      ProfileReport::LedgerKindPeak entry;
      entry.kind = obs::to_string(static_cast<obs::MemKind>(k));
      entry.live_bytes = static_cast<double>(std::max<std::int64_t>(
          0, snap.kinds[k].live_bytes - ledger_baseline.kinds[k].live_bytes));
      entry.peak_bytes = static_cast<double>(std::max<std::int64_t>(
          0, snap.kinds[k].peak_bytes - ledger_baseline.kinds[k].live_bytes));
      report.ledger_kinds.push_back(std::move(entry));
    }
    report.measured_peak_footprint_bytes =
        static_cast<double>(std::max<std::int64_t>(
            0, snap.total_peak_bytes - ledger_baseline.total_live_bytes));
    report.max_rank_peak_footprint_bytes =
        static_cast<double>(snap.max_rank_peak_bytes);
  }
  ledger.set_enabled(ledger_was_enabled);

  report.measured_step_seconds /= static_cast<double>(options.iters);
  if (bubble_count > 0) {
    bubble_sum /= static_cast<double>(bubble_count);
    report.measured_bubble = bubble_sum;
  }
  report.dropped_spans = recorder.dropped();
  report.dropped_by_rank = recorder.dropped_by_rank();

  report.trace_json = obs::spans_to_chrome_trace(report.spans);
  obs::MetricsRegistry registry;
  fill_metrics(registry, report, pair_stats);
  report.metrics_json = registry.to_json();
  return report;
}

}  // namespace weipipe::prof
