// Shared declarations of the WeiPipe training benchmark: the workloads, the
// metric sink both passes write into, and the two passes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "comm/transport.hpp"
#include "core/trainer.hpp"

namespace wpbench {

// Strategies every workload runs, all through make_trainer. `sequential` is
// the single-worker reference the others are checked against.
inline const std::vector<std::string> kStrategies = {"sequential", "weipipe",
                                                     "1f1b", "fsdp"};
inline constexpr std::int64_t kWorkers = 4;  // P: one rank thread per core

struct Workload {
  std::string name;
  weipipe::ModelConfig model;
  weipipe::PrecisionConfig precision;
  weipipe::comm::TransportKind transport =
      weipipe::comm::TransportKind::kInproc;
  // Losses and final parameters must equal sequential's bit for bit (fp32
  // wires); otherwise losses must agree within kLossTolerance.
  bool bitwise = true;
};

// Relative loss tolerance against sequential for reduced-precision wires.
inline constexpr double kLossTolerance = 1e-4;

const std::vector<Workload>& workloads();
const Workload* find_workload(const std::string& name);

// N=8 microbatches of G=2 sequences at the model's full context; weights and
// data both derive from `seed`.
weipipe::TrainConfig train_config(const Workload& w, std::uint64_t seed);

// Installs the workload's transport as the process default, so every fabric
// make_trainer constructs rides on it.
void use_transport(const Workload& w);

// Everything a run reports. Metrics become the result's last line; `detail`
// lines (quartiles, ceilings, provenance) are printed before it as one JSON
// object for the reader.
struct Report {
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Metric> metrics;
  std::vector<std::string> detail;  // "key": value JSON members
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> failures;  // one line per failed check

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void fail(const std::string& what) {
    failed += 1;
    failures.push_back(what);
  }
};

// Untraced pass: setup, interleaved checked steps of every strategy, then
// extra weipipe steps; end-to-end metrics.
void run_untraced(const Workload& w, std::uint64_t seed, double seconds,
                  Report& report);

// Traced pass: run_profile per strategy plus timed calls into each layer's
// public functions at the workload's shapes; per-layer metrics.
void run_traced(const Workload& w, std::uint64_t seed, double seconds,
                Report& report);

// JSON helpers shared by both passes.
std::string json_number(double v);
std::string json_string(const std::string& s);

}  // namespace wpbench
