// Untraced pass: the end-to-end metrics.
//
// The main thread runs a closed loop over the four strategies, each built
// by make_trainer from the same seed and stepped through the same iteration
// indices, with the span recorder and the memory ledger off.
//
//  1. Set-up, kSetupReps times: construct every trainer (fabric, transport
//     rendezvous) and run one warmup iteration each. setup_s is the median.
//  2. Checked phase (kCheckedShare of --seconds): rounds of one step per
//     strategy, in an order rotated every round so no strategy always runs
//     after the same neighbour. Every loss is compared with sequential's for
//     the same iteration and every step's per-kind wire bytes with the
//     closed forms; at the end the gathered parameters are compared.
//  3. Weipipe phase (the rest, and at least until weipipe has
//     kMinWeipipeSteps samples): more weipipe steps, so its median and tail
//     rest on enough samples. Losses here have no reference and must only be
//     finite.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <memory>

#include "baselines/factory.hpp"
#include "bench.hpp"
#include "core/accounting.hpp"
#include "obs/ledger.hpp"
#include "obs/recorder.hpp"
#include "sched/program.hpp"
#include "stats.hpp"

namespace wpbench {

namespace {

using Clock = std::chrono::steady_clock;

constexpr int kSetupReps = 3;
constexpr double kCheckedShare = 0.7;
constexpr int kMinRounds = 3;
// Weipipe steps a run takes at least, so its tail is at least the median.
constexpr std::size_t kMinWeipipeSteps = 20;
// fsdp against sequential on fp32 wires; see check_against_reference.
constexpr double kFsdpLossTolerance = 2e-5;
constexpr double kFsdpStepShare = 0.05;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

bool same_bits(float a, float b) {
  return std::memcmp(&a, &b, sizeof(float)) == 0;
}

// One strategy under test.
struct Lane {
  std::string name;
  std::unique_ptr<weipipe::Trainer> trainer;
  std::vector<double> step_s;
  std::vector<float> losses;  // losses[i] is iteration i + 1
  std::uint64_t wire_bytes = 0;
  // Closed-form per-kind volumes; empty for sequential (no fabric).
  weipipe::acct::KindVolumes predicted;
};

std::vector<Lane> build_lanes(const weipipe::TrainConfig& cfg) {
  std::vector<Lane> lanes;
  for (const std::string& s : kStrategies) {
    Lane lane;
    lane.name = s;
    lane.trainer = weipipe::make_trainer(s, cfg, kWorkers);
    if (weipipe::acct::has_predicted_kind_volumes(s, cfg)) {
      lane.predicted = weipipe::acct::predicted_kind_volumes(s, cfg, kWorkers);
    }
    lanes.push_back(std::move(lane));
  }
  return lanes;
}

// Kinds whose measured bytes or messages differ from the closed form, one
// " kind measured vs predicted" entry each; empty when all match.
std::string kind_mismatch(weipipe::acct::KindVolumes measured,
                          weipipe::acct::KindVolumes predicted) {
  for (const auto& entry : measured) {
    predicted[entry.first];  // a kind on one side only compares against 0
  }
  for (const auto& entry : predicted) {
    measured[entry.first];
  }
  std::string out;
  for (const auto& [kind, mv] : measured) {
    const weipipe::acct::KindVolume& pv = predicted.at(kind);
    if (mv.bytes != pv.bytes || mv.messages != pv.messages) {
      out += std::string(" ") + weipipe::sched::to_string(kind) + " " +
             std::to_string(mv.bytes) + "B/" + std::to_string(mv.messages) +
             " vs " + std::to_string(pv.bytes) + "B/" +
             std::to_string(pv.messages);
    }
  }
  return out;
}

// Times one iteration and runs the per-step checks that need no reference.
void step(Lane& lane, const weipipe::Dataset& data, std::int64_t iter,
          Report& report) {
  const Clock::time_point t0 = Clock::now();
  const weipipe::IterationResult res =
      lane.trainer->train_iteration(data, iter);
  lane.step_s.push_back(seconds_since(t0));
  lane.losses.push_back(res.mean_loss);
  report.attempted += 1;

  const std::string where = lane.name + " iter " + std::to_string(iter);
  if (!std::isfinite(res.mean_loss)) {
    report.fail(where + ": non-finite loss");
    return;
  }
  if (lane.wire_bytes == 0) {
    lane.wire_bytes = res.wire_bytes;
  } else if (res.wire_bytes != lane.wire_bytes) {
    report.fail(where + ": wire bytes changed to " +
                std::to_string(res.wire_bytes));
    return;
  }
  if (!lane.predicted.empty()) {
    const std::string diff = kind_mismatch(
        weipipe::acct::measured_kind_volumes(*lane.trainer->fabric()),
        lane.predicted);
    if (!diff.empty()) {
      report.fail(where + ": wire kinds differ from closed form:" + diff);
    }
  }
}

// Compares a lane's checked-phase losses and final parameters with
// sequential's and returns the largest relative loss difference. Exact
// where the strategy reduces in sequential's order. fsdp sums per-rank
// partial gradients in rank order: its losses get kFsdpLossTolerance, and
// since Adam moves a weight by at most about lr per step, its parameters
// may drift by kFsdpStepShare * lr per step (a wrong gradient drifts by
// about lr per step; rank-order rounding by about 2e-6). Reduced-precision
// wires get kLossTolerance on the loss and no parameter check.
double check_against_reference(const Workload& w,
                               const weipipe::TrainConfig& cfg,
                               const Lane& lane, const Lane& reference,
                               std::int64_t rounds, Report& report) {
  const bool exact = w.bitwise && lane.name != "fsdp";
  const double loss_tol = w.bitwise ? kFsdpLossTolerance : kLossTolerance;
  double max_rel = 0.0;
  for (std::size_t i = 0; i < lane.losses.size(); ++i) {
    const float got = lane.losses[i];
    const float want = reference.losses[i];
    const double rel = std::fabs(static_cast<double>(got) - want) /
                       std::fabs(static_cast<double>(want));
    max_rel = std::max(max_rel, rel);
    const bool ok = exact ? same_bits(got, want) : rel <= loss_tol;
    if (!ok) {
      report.fail(lane.name + " iter " + std::to_string(i + 1) + ": loss " +
                  json_number(got) + " vs sequential " + json_number(want));
    }
  }
  if (!w.bitwise) {
    return max_rel;
  }
  const double param_tol = kFsdpStepShare * cfg.adam.lr *
                           static_cast<double>(rounds);
  const auto got = lane.trainer->gather_block_params();
  const auto want = reference.trainer->gather_block_params();
  bool ok = got.size() == want.size();
  for (std::size_t b = 0; ok && b < got.size(); ++b) {
    ok = got[b].size() == want[b].size();
    for (std::size_t i = 0; ok && i < got[b].size(); ++i) {
      ok = exact ? same_bits(got[b][i], want[b][i])
                 : std::fabs(got[b][i] - want[b][i]) <= param_tol;
    }
  }
  if (!ok) {
    report.fail(lane.name + ": parameters after iteration " +
                std::to_string(rounds) + " differ from sequential");
  }
  return max_rel;
}

std::string quartile_json(const std::vector<double>& v) {
  const Quartiles q = quartiles(v);
  return "{\"n\": " + std::to_string(v.size()) + ", \"q1\": " +
         json_number(q.q1) + ", \"median\": " + json_number(q.median) +
         ", \"q3\": " + json_number(q.q3) + ", \"spread\": " +
         json_number(q.spread()) + "}";
}

}  // namespace

void run_untraced(const Workload& w, std::uint64_t seed, double seconds,
                  Report& report) {
  WEIPIPE_CHECK_MSG(weipipe::obs::Recorder::active() == nullptr &&
                        !weipipe::obs::ledger().enabled(),
                    "the untraced pass needs the recorder and ledger off");
  use_transport(w);
  const weipipe::TrainConfig cfg = train_config(w, seed);
  const weipipe::CopyDataset data(cfg.model.vocab_size, seed);

  std::vector<double> setup_s;
  std::vector<Lane> lanes;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    lanes.clear();  // tear the previous set down outside the timed window
    const Clock::time_point t0 = Clock::now();
    lanes = build_lanes(cfg);
    for (Lane& lane : lanes) {
      (void)lane.trainer->train_iteration(data, 0);
    }
    setup_s.push_back(seconds_since(t0));
  }
  const auto lane_named = [&lanes](const std::string& name) -> Lane& {
    return *std::find_if(lanes.begin(), lanes.end(),
                         [&](const Lane& l) { return l.name == name; });
  };
  Lane& reference = lane_named("sequential");
  Lane& weipipe = lane_named("weipipe");

  // Checked phase.
  const Clock::time_point start = Clock::now();
  std::int64_t rounds = 0;
  while (rounds < kMinRounds ||
         seconds_since(start) < kCheckedShare * seconds) {
    const std::int64_t iter = rounds + 1;
    for (std::size_t k = 0; k < lanes.size(); ++k) {
      step(lanes[(k + static_cast<std::size_t>(rounds)) % lanes.size()], data,
           iter, report);
    }
    ++rounds;
  }
  std::string loss_diff = "\"max_rel_loss_diff\": {";
  for (const Lane& lane : lanes) {
    if (&lane != &reference) {
      loss_diff += (loss_diff.back() == '{' ? "" : ", ") +
                   json_string(lane.name) + ": " +
                   json_number(check_against_reference(w, cfg, lane, reference,
                                                       rounds, report));
    }
  }
  report.detail.push_back(loss_diff + "}");

  // Weipipe phase.
  std::int64_t iter = rounds + 1;
  while (seconds_since(start) < seconds ||
         weipipe.step_s.size() < kMinWeipipeSteps) {
    step(weipipe, data, iter++, report);
  }

  const double tokens = static_cast<double>(
      cfg.num_microbatches * cfg.microbatch_size * cfg.seq_len);
  const Quartiles wp = quartiles(weipipe.step_s);
  const TailRank tail = tail_rank(weipipe.step_s);
  report.metric("weipipe.tokens_per_s", tokens / wp.median, "tokens/s");
  report.metric("weipipe.step_s.p50", wp.median, "s");
  report.metric("weipipe.step_s.tail", tail.value, "s");
  for (const char* s : {"1f1b", "fsdp", "sequential"}) {
    report.metric(std::string(s) + ".tokens_per_s",
                  tokens / quartiles(lane_named(s).step_s).median, "tokens/s");
  }
  for (const char* s : {"weipipe", "1f1b", "fsdp"}) {
    report.metric(std::string(s) + ".wire_bytes_per_step",
                  static_cast<double>(lane_named(s).wire_bytes), "bytes");
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  report.metric("peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0,
                "MB");
  report.metric("setup_s", quartiles(setup_s).median, "s");

  std::string steps = "\"step_s\": {";
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    steps += (i ? ", " : "") + json_string(lanes[i].name) + ": " +
             quartile_json(lanes[i].step_s);
  }
  report.detail.push_back(steps + "}");
  report.detail.push_back("\"setup_s\": " + quartile_json(setup_s));
  report.detail.push_back(
      "\"weipipe_tail\": {\"percentile\": " + json_number(tail.percentile) +
      ", \"samples\": " + std::to_string(tail.samples) +
      ", \"samples_beyond\": " + std::to_string(tail.samples_beyond) + "}");
  report.detail.push_back("\"checked_rounds\": " + std::to_string(rounds));
  report.detail.push_back("\"final_loss\": " +
                          json_number(reference.losses.back()));
}

}  // namespace wpbench
