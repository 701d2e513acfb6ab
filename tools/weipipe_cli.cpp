// weipipe_cli — the command-line front end to the library.
//
//   weipipe_cli train    [flags]   train a model with any strategy
//   weipipe_cli generate [flags]   sample from a checkpoint
//   weipipe_cli plan     [flags]   pick a strategy for a model x cluster
//   weipipe_cli schedule [flags]   render a schedule timeline
//   weipipe_cli analyze  [flags]   statically model-check schedules
//   weipipe_cli profile  [flags]   trace a real run; measured vs predicted
//   weipipe_cli anatomy  [flags]   critical-path step anatomy + comm gate
//   weipipe_cli bench    [flags]   run the canonical matrix; write trajectory
//   weipipe_cli chaos    [flags]   fault-inject a strategy; diff vs clean run
//   weipipe_cli health   [flags]   train under the watchdog + black box
//   weipipe_cli help
//
// Run `weipipe_cli help` for every flag.
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "weipipe.hpp"

using namespace weipipe;

namespace {

// ---- tiny flag parser --------------------------------------------------------

class Flags {
 public:
  // Accepts `--flag value`, `--flag=value`, and bare boolean `--flag`;
  // every subcommand shares the same grammar.
  Flags(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      std::string arg = argv[i];
      WEIPIPE_CHECK_MSG(arg.rfind("--", 0) == 0, "expected --flag, got '"
                                                     << arg << "'");
      arg = arg.substr(2);
      const std::size_t eq = arg.find('=');
      if (eq != std::string::npos) {
        values_[arg.substr(0, eq)] = arg.substr(eq + 1);
      } else if (i + 1 < argc &&
                 std::string(argv[i + 1]).rfind("--", 0) != 0) {
        values_[arg] = argv[++i];
      } else {
        values_.insert_or_assign(arg, "1");  // boolean flag
      }
    }
  }

  std::string str(const std::string& key, const std::string& fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }
  std::int64_t i64(const std::string& key, std::int64_t fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : std::atoll(it->second.c_str());
  }
  double f64(const std::string& key, double fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : std::atof(it->second.c_str());
  }
  bool flag(const std::string& key) const {
    return values_.find(key) != values_.end();
  }

 private:
  std::map<std::string, std::string> values_;
};

// Shared `--metrics[=PATH]` handling: every subcommand that can produce a
// metrics snapshot spells the flag identically and writes through here.
bool write_metrics_snapshot(const Flags& flags, const std::string& json,
                            const std::string& default_path) {
  if (!flags.flag("metrics")) {
    return false;
  }
  const std::string path = flags.str("metrics", default_path);
  trace::write_file(path, json);
  std::printf("wrote %s\n", path.c_str());
  return true;
}

// Shared `--telemetry[=PATH]` handling: runs a streaming telemetry sampler
// (obs/timeseries.hpp) over the process-global runtime metrics + memory
// ledger for the duration of a subcommand. finish() stops the sampler and
// writes the schema-versioned timeseries JSON plus a Prometheus text
// exposition next to it (PATH with the extension swapped to .prom).
class TelemetryScope {
 public:
  TelemetryScope(const Flags& flags, const std::string& job,
                 const std::string& strategy) {
    if (!flags.flag("telemetry")) {
      return;
    }
    path_ = flags.str("telemetry", job + "-timeseries.json");
    obs::TimeseriesOptions opt;
    opt.sample_period_seconds =
        flags.f64("telemetry-period-ms", 5.0) * 1e-3;
    opt.window_capacity =
        static_cast<std::size_t>(flags.i64("telemetry-window", 4096));
    opt.labels.job = job;
    opt.labels.strategy = strategy;
    sampler_ = std::make_unique<obs::TelemetrySampler>(opt);
    sampler_->watch_registry(&obs::runtime_metrics());
    sampler_->start();
  }

  // The sampler only reads atomics, but stop before teardown anyway so no
  // finish()-less early return leaves the thread running.
  ~TelemetryScope() {
    if (sampler_ != nullptr) {
      sampler_->stop();
    }
  }

  obs::TelemetrySampler* sampler() { return sampler_.get(); }

  void finish() {
    if (sampler_ == nullptr) {
      return;
    }
    sampler_->stop();
    const obs::TimeseriesSnapshot snap = sampler_->snapshot();
    const std::string json = snap.to_json();
    const obs::JsonParseResult parsed = obs::parse_json(json);
    WEIPIPE_CHECK_MSG(parsed.ok,
                      "telemetry emitted invalid JSON: " << parsed.error);
    trace::write_file(path_, json);
    std::string prom_path = path_;
    const std::size_t dot = prom_path.rfind('.');
    if (dot != std::string::npos && prom_path.find('/', dot) == std::string::npos) {
      prom_path.resize(dot);
    }
    prom_path += ".prom";
    trace::write_file(prom_path, snap.to_prometheus());
    std::printf("wrote %s + %s (%zu series, stride %lld, %lld/%lld samples kept)\n",
                path_.c_str(), prom_path.c_str(), snap.series.size(),
                static_cast<long long>(snap.stride),
                static_cast<long long>(snap.samples_taken -
                                       snap.samples_dropped),
                static_cast<long long>(snap.samples_taken));
    sampler_.reset();
  }

 private:
  std::string path_;
  std::unique_ptr<obs::TelemetrySampler> sampler_;
};

// Shared `--postmortem[=DIR]` handling: arms a black box for the duration of
// the subcommand (nullptr when the flag is absent).
std::unique_ptr<obs::BlackBox> arm_postmortem_from_flags(const Flags& flags) {
  if (!flags.flag("postmortem")) {
    return nullptr;
  }
  obs::BlackBoxOptions options;
  options.dir = flags.str("postmortem", "postmortem");
  auto box = std::make_unique<obs::BlackBox>(options);
  box->arm();
  return box;
}

TrainConfig config_from_flags(const Flags& flags) {
  TrainConfig cfg;
  cfg.model.vocab_size = flags.i64("vocab", 64);
  cfg.model.dim = flags.i64("dim", 64);
  cfg.model.n_layers = flags.i64("layers", 4);
  cfg.model.n_heads = flags.i64("heads", 4);
  cfg.model.n_kv_heads = flags.i64("kv-heads", 0);  // 0 = MHA
  cfg.model.seq_len = flags.i64("seq", 32);
  cfg.model.recompute = flags.flag("recompute");
  cfg.num_microbatches = flags.i64("microbatches", 8);
  cfg.microbatch_size = flags.i64("batch-size", 2);
  cfg.seq_len = cfg.model.seq_len;
  cfg.seed = static_cast<std::uint64_t>(flags.i64("seed", 1234));
  cfg.adam.lr = static_cast<float>(flags.f64("lr", 3e-3));
  cfg.clip.max_norm = static_cast<float>(flags.f64("clip", 0.0));
  cfg.lr_schedule.warmup_iters = flags.i64("warmup", 0);
  cfg.lr_schedule.total_iters = flags.i64("decay-iters", 0);
  if (flags.flag("fp16")) {
    cfg.precision = PrecisionConfig::paper();
  }
  // Optional override for the weight-gradient (D flow) wire format, on top
  // of whatever base precision --fp16 selected.
  if (flags.flag("wire-grads")) {
    const std::string wire = flags.str("wire-grads", "fp32");
    if (wire == "fp32") {
      cfg.precision.weight_grads = WirePrecision::Fp32;
    } else if (wire == "fp16") {
      cfg.precision.weight_grads = WirePrecision::Fp16;
    } else if (wire == "bf16") {
      cfg.precision.weight_grads = WirePrecision::Bf16;
    } else if (wire == "int8") {
      cfg.precision.weight_grads = WirePrecision::Int8;
    } else {
      WEIPIPE_CHECK_MSG(false, "unknown --wire-grads '"
                                   << wire << "' (fp32 | fp16 | bf16 | int8)");
    }
  }
  return cfg;
}

// Shared --transport/--base-port/--shm-name handling: parses the spec,
// folds the dedicated flags in, and installs it as the process-global
// default so every Fabric the subcommand constructs runs over it. Returns
// the spec for launchers that need to rewrite it per rank process.
comm::TransportSpec apply_transport_flags(const Flags& flags) {
  comm::TransportSpec spec =
      comm::parse_transport_spec(flags.str("transport", "inproc"));
  if (flags.flag("base-port")) {
    spec.base_port = static_cast<int>(flags.i64("base-port", 0));
  }
  if (flags.flag("shm-name")) {
    spec.shm_name = flags.str("shm-name", "");
  }
  comm::set_default_transport_spec(spec);
  return spec;
}

std::unique_ptr<Dataset> dataset_from_flags(const Flags& flags,
                                            const TrainConfig& cfg) {
  const std::string kind = flags.str("dataset", "affine");
  if (kind == "affine") {
    return std::make_unique<SyntheticDataset>(cfg.model.vocab_size, cfg.seed);
  }
  if (kind == "copy") {
    return std::make_unique<CopyDataset>(cfg.model.vocab_size, cfg.seed);
  }
  WEIPIPE_CHECK_MSG(false, "unknown --dataset '" << kind
                                                 << "' (affine | copy)");
  return nullptr;
}

// ---- subcommands ----------------------------------------------------------------

int cmd_train(const Flags& flags) {
  const TrainConfig cfg = config_from_flags(flags);
  const std::string strategy = flags.str("strategy", "weipipe");
  const std::int64_t workers = flags.i64("workers", 4);
  WEIPIPE_CHECK_MSG(workers >= 1, "need at least one worker");
  const std::int64_t iters = flags.i64("iters", 50);
  const std::int64_t dp = flags.i64("dp", 1);
  const bool quiet = flags.flag("quiet");

  std::unique_ptr<Trainer> trainer;
  if (dp > 1 || flags.flag("replicate-vocab")) {
    WEIPIPE_CHECK_MSG(strategy == "weipipe" ||
                          strategy == "weipipe-interleave",
                      "--dp/--replicate-vocab require the weipipe strategy");
    trainer = std::make_unique<WeiPipeTrainer>(
        cfg, workers,
        WeiPipeOptions{.dp_degree = dp,
                       .replicate_vocab = flags.flag("replicate-vocab")});
  } else {
    trainer = make_trainer(strategy, cfg, workers);
  }
  if (flags.flag("resume")) {
    trainer->load_state(load_checkpoint(flags.str("resume", "")));
    std::printf("resumed from %s\n", flags.str("resume", "").c_str());
  }
  const auto data = dataset_from_flags(flags, cfg);

  std::printf("training '%s' (%lld workers) for %lld iterations: H=%lld "
              "L=%lld S=%lld N=%lld G=%lld\n",
              trainer->name().c_str(), static_cast<long long>(workers * dp),
              static_cast<long long>(iters),
              static_cast<long long>(cfg.model.dim),
              static_cast<long long>(cfg.model.n_layers),
              static_cast<long long>(cfg.seq_len),
              static_cast<long long>(cfg.num_microbatches),
              static_cast<long long>(cfg.microbatch_size));
  double total_seconds = 0.0;
  std::uint64_t total_bytes = 0;
  for (std::int64_t it = 0; it < iters; ++it) {
    const IterationResult r = trainer->train_iteration(*data, it);
    total_seconds += r.wall_seconds;
    total_bytes += r.wire_bytes;
    if (!quiet && (it % std::max<std::int64_t>(1, iters / 10) == 0 ||
                   it == iters - 1)) {
      std::printf("iter %4lld  loss %.4f  ppl %7.2f  wire %6.1f MB\n",
                  static_cast<long long>(it), r.mean_loss,
                  perplexity(r.mean_loss),
                  static_cast<double>(r.wire_bytes) / 1e6);
    }
  }
  const double tokens = static_cast<double>(iters) * cfg.num_microbatches *
                        cfg.microbatch_size * cfg.seq_len;
  std::printf("done: %.0f tokens in %.2f s (%.0f tok/s), %.1f MB on the "
              "wire\n",
              tokens, total_seconds, tokens / total_seconds,
              static_cast<double>(total_bytes) / 1e6);
  if (flags.flag("checkpoint")) {
    save_checkpoint(flags.str("checkpoint", ""), trainer->state());
    std::printf("checkpoint written to %s\n",
                flags.str("checkpoint", "").c_str());
  }
  return 0;
}

int cmd_generate(const Flags& flags) {
  const TrainConfig cfg = config_from_flags(flags);
  WEIPIPE_CHECK_MSG(flags.flag("checkpoint"),
                    "generate requires --checkpoint (and matching model "
                    "flags)");
  Model model(cfg.model);
  SequentialTrainer holder(cfg);  // checks the checkpoint fits the model
  holder.load_state(load_checkpoint(flags.str("checkpoint", "")));
  const auto params = holder.gather_block_params();

  std::vector<std::int32_t> prompt;
  std::string spec = flags.str("prompt", "1,2,3");
  std::size_t pos = 0;
  while (pos < spec.size()) {
    const std::size_t comma = spec.find(',', pos);
    prompt.push_back(static_cast<std::int32_t>(
        std::atoi(spec.substr(pos, comma - pos).c_str())));
    if (comma == std::string::npos) {
      break;
    }
    pos = comma + 1;
  }

  GenerateOptions opts;
  opts.max_new_tokens = flags.i64("tokens", 16);
  opts.temperature = static_cast<float>(flags.f64("temperature", 0.0));
  opts.seed = static_cast<std::uint64_t>(flags.i64("seed", 1));
  // Use the KV-cache decoder when everything fits the context window;
  // fall back to windowed full-forward generation otherwise.
  std::vector<std::int32_t> out;
  if (static_cast<std::int64_t>(prompt.size()) + opts.max_new_tokens <=
      cfg.model.seq_len) {
    out = generate_cached(model, params, prompt, opts.max_new_tokens,
                          opts.temperature, opts.seed);
  } else {
    out = generate(model, params, prompt, opts);
  }
  for (std::size_t i = 0; i < out.size(); ++i) {
    std::printf("%d%s", out[i], i + 1 < out.size() ? " " : "\n");
  }
  return 0;
}

int cmd_plan(const Flags& flags) {
  sim::ModelDims dims;
  dims.hidden = flags.i64("dim", 2048);
  dims.seq = flags.i64("seq", 8192);
  dims.microbatch = flags.i64("batch-size", 8);
  dims.layers = flags.i64("layers", 32);
  const int gpus = static_cast<int>(flags.i64("gpus", 16));
  const int per_node = static_cast<int>(flags.i64("gpus-per-node", 8));
  const std::string env = flags.str("env", "nvlink");
  const sim::Topology topo =
      env == "pcie" ? sim::Topology::pcie_ethernet(gpus, per_node)
      : env == "ethernet"
          ? sim::Topology::nvlink_ethernet(gpus, per_node)
          : sim::Topology::nvlink(gpus, per_node);

  std::vector<trace::ExperimentRow> rows;
  sim::Strategy best = sim::Strategy::k1F1B;
  double best_tp = 0.0;
  std::printf("%-20s | %14s | %9s | %8s\n", "strategy", "tokens/s/GPU",
              "mem GB", "bubble");
  for (sim::Strategy s :
       {sim::Strategy::k1F1B, sim::Strategy::kGPipe, sim::Strategy::kZB1,
        sim::Strategy::kZB2, sim::Strategy::kFSDP,
        sim::Strategy::kWeiPipeNaive, sim::Strategy::kWeiPipeInterleave}) {
    sim::ExperimentConfig cfg;
    cfg.dims = dims;
    cfg.num_microbatches = flags.i64("microbatches", 16 * gpus);
    cfg.strategy = s;
    const auto res = sim::run_experiment(cfg, topo);
    rows.push_back({env, res});
    if (res.oom) {
      std::printf("%-20s | %14s | %8.1fG | %7.1f%%\n", sim::to_string(s),
                  "OOM", res.peak_mem_bytes / 1e9, res.bubble_ratio * 100);
      continue;
    }
    std::printf("%-20s | %14.0f | %8.1fG | %7.1f%%\n", sim::to_string(s),
                res.tokens_per_second_per_gpu, res.peak_mem_bytes / 1e9,
                res.bubble_ratio * 100);
    if (res.tokens_per_second_per_gpu > best_tp) {
      best_tp = res.tokens_per_second_per_gpu;
      best = s;
    }
  }
  std::printf("\nrecommendation: %s\n", sim::to_string(best));
  if (flags.flag("csv")) {
    trace::write_file(flags.str("csv", "plan.csv"),
                      trace::experiments_to_csv(rows));
    std::printf("wrote %s\n", flags.str("csv", "plan.csv").c_str());
  }
  return 0;
}

// Shared by `schedule` and `analyze`: emit a strategy's program with unit
// synthetic costs (T_F = 1, T_B = ratio).
sched::Program build_schedule_program(const std::string& strategy,
                                      std::int64_t p, std::int64_t rounds,
                                      double ratio) {
  sched::StrategyCosts costs;
  for (std::int64_t i = 0; i < p; ++i) {
    costs.fwd_seconds.push_back(1.0);
    costs.bwd_seconds.push_back(ratio);
    costs.bwd_acts_seconds.push_back(ratio / 2.0);
    costs.bwd_weights_seconds.push_back(ratio / 2.0);
    costs.chunk_weight_bytes.push_back(1.0);
    costs.act_mem_bytes.push_back(1.0);
  }
  costs.act_bytes = 1.0;
  costs.act_grad_bytes = 1.0;

  const std::int64_t n = rounds * p;
  if (strategy == "naive") {
    return sched::build_weipipe(WeiPipeSchedule(p, rounds, WeiPipeMode::kNaive),
                                costs);
  }
  if (strategy == "interleave" || strategy == "weipipe") {
    return sched::build_weipipe(
        WeiPipeSchedule(p, rounds, WeiPipeMode::kInterleave), costs);
  }
  if (strategy == "no-prefetch") {
    return sched::build_weipipe(
        WeiPipeSchedule(p, rounds, WeiPipeMode::kInterleave), costs,
        /*prefetch=*/false);
  }
  if (strategy == "wzb1") {
    return sched::build_weipipe_zero_bubble(p, rounds,
                                            sched::WzbVariant::kWzb1, costs);
  }
  if (strategy == "wzb2") {
    return sched::build_weipipe_zero_bubble(p, rounds,
                                            sched::WzbVariant::kWzb2, costs);
  }
  if (strategy == "gpipe") {
    return sched::build_gpipe(p, n, costs);
  }
  if (strategy == "1f1b") {
    return sched::build_1f1b(p, n, costs);
  }
  if (strategy == "zb1") {
    return sched::build_zero_bubble(p, n, sched::ZbVariant::kZb1, costs);
  }
  if (strategy == "zb2") {
    return sched::build_zero_bubble(p, n, sched::ZbVariant::kZb2, costs);
  }
  if (strategy == "fsdp") {
    sched::FsdpCollectiveCosts coll;
    for (std::int64_t i = 0; i < p; ++i) {
      coll.all_gather_seconds.push_back(0.5);
      coll.reduce_scatter_seconds.push_back(0.5);
      coll.all_gather_bytes.push_back(1.0);
      coll.reduce_scatter_bytes.push_back(1.0);
    }
    return sched::build_fsdp(p, rounds, costs, coll,
                             /*overlap_prefetch=*/true);
  }
  WEIPIPE_CHECK_MSG(false, "unknown --strategy '" << strategy << "'");
  return {};
}

const char* kAllStrategies[] = {"naive", "interleave", "no-prefetch", "wzb1",
                                "wzb2",  "gpipe",      "1f1b",        "zb1",
                                "zb2",   "fsdp"};

int cmd_analyze(const Flags& flags) {
  const std::string strategy = flags.str("strategy", "all");
  const std::int64_t p = flags.i64("workers", 4);
  const std::int64_t rounds = flags.i64("rounds", 2);
  const double ratio = flags.f64("bwd-ratio", 2.0);

  std::vector<std::string> strategies;
  if (strategy == "all") {
    strategies.assign(std::begin(kAllStrategies), std::end(kAllStrategies));
  } else {
    strategies.push_back(strategy);
  }

  std::size_t total_findings = 0;
  for (const std::string& s : strategies) {
    const sched::Program prog = build_schedule_program(s, p, rounds, ratio);
    const analysis::AnalysisReport report = analysis::analyze(prog);
    std::printf("%s", report.summary().c_str());
    total_findings += report.findings.size() + report.findings_dropped;
    if (report.ok() && !report.deadlocked) {
      // The static memory bound is exact; prove it against the engine.
      const std::vector<std::string> issues = sim::analysis_cross_check(
          prog,
          sim::simulate(prog, sim::Topology::uniform(static_cast<int>(p),
                                                     sim::Link{1e15, 0.0},
                                                     "ideal")));
      if (issues.empty()) {
        std::printf("  engine cross-check: peaks match\n");
      } else {
        for (const std::string& issue : issues) {
          std::printf("  engine cross-check FAILED: %s\n", issue.c_str());
        }
        ++total_findings;
      }
    }
  }
  if (total_findings > 0) {
    std::printf("analysis found %zu problem(s)\n", total_findings);
    return 1;
  }
  std::printf("all analyzed schedules are clean\n");
  return 0;
}

int cmd_schedule(const Flags& flags) {
  const std::string strategy = flags.str("strategy", "interleave");
  const std::int64_t p = flags.i64("workers", 4);
  const std::int64_t rounds = flags.i64("rounds", 2);
  const double ratio = flags.f64("bwd-ratio", 2.0);

  sched::Program prog = build_schedule_program(strategy, p, rounds, ratio);

  const sched::ValidationReport report = sched::validate(prog);
  WEIPIPE_CHECK_MSG(report.ok, "schedule failed validation: "
                                   << report.problems.front());
  const sim::SimResult res = sim::simulate(
      prog,
      sim::Topology::uniform(static_cast<int>(p), sim::Link{1e15, 0.0},
                             "ideal"),
      {.record_ops = true});
  std::printf("%s", trace::render_timeline(
                        res, {.width = static_cast<int>(
                                  flags.i64("width", 110))})
                        .c_str());
  if (flags.flag("csv")) {
    trace::write_file(flags.str("csv", "schedule.csv"),
                      trace::records_to_csv(res));
    std::printf("wrote %s\n", flags.str("csv", "schedule.csv").c_str());
  }
  if (flags.flag("svg")) {
    trace::write_file(flags.str("svg", "schedule.svg"),
                      trace::records_to_svg(res));
    std::printf("wrote %s\n", flags.str("svg", "schedule.svg").c_str());
  }
  return 0;
}

// Shared by `profile` and `anatomy`: both subcommands drive run_profile()
// with the same flag grammar, differing only in the default strategy.
prof::ProfileOptions profile_options_from_flags(
    const Flags& flags, const std::string& default_strategy) {
  prof::ProfileOptions opt;
  opt.strategy = flags.str("strategy", default_strategy);
  opt.workers = flags.i64("workers", 4);
  opt.iters = flags.i64("iters", 2);
  opt.warmup_iters = flags.i64("warmup-iters", 1);
  opt.rounds = flags.i64("rounds", 2);
  opt.bwd_ratio = flags.f64("bwd-ratio", 2.0);
  opt.unit_seconds = flags.f64("unit-ms", 2.0) * 1e-3;
  opt.record_kernels = flags.flag("kernels");
  opt.ring_capacity =
      static_cast<std::size_t>(flags.i64("ring-capacity", 1 << 16));
  opt.train = config_from_flags(flags);
  opt.fault_spec = flags.str("faults", "");
  if (flags.flag("link-gbps")) {
    opt.link_model =
        comm::uniform_link(flags.f64("link-gbps", 1.0) * 1e9, /*latency=*/0.0);
  }
  return opt;
}

int cmd_profile(const Flags& flags) {
  const std::unique_ptr<obs::BlackBox> blackbox =
      arm_postmortem_from_flags(flags);
  TelemetryScope telemetry(flags, "profile", flags.str("strategy", "wzb2"));
  const prof::ProfileOptions opt = profile_options_from_flags(flags, "wzb2");

  prof::ProfileReport report;
  try {
    report = prof::run_profile(opt);
  } catch (const Error& e) {
    // Leave a post-mortem before the recorder state unwinds (no-op unless
    // --postmortem armed a black box; recovery-exhausted comm errors have
    // already dumped from core/resilience.cpp).
    obs::blackbox_dump_once(std::string("profile failed: ") + e.what());
    throw;
  }
  std::printf("%s", report.summary().c_str());

  if (flags.flag("timeline") && !report.timeline.records.empty()) {
    std::printf("%s", trace::render_timeline(
                          report.timeline,
                          {.width = static_cast<int>(flags.i64("width", 110))})
                          .c_str());
  }
  if (flags.flag("trace")) {
    const std::string path = flags.str("trace", "profile-trace.json");
    trace::write_file(path, report.trace_json);
    std::printf("wrote %s (open in ui.perfetto.dev)\n", path.c_str());
  }
  write_metrics_snapshot(flags, report.metrics_json, "profile-metrics.json");
  if (flags.flag("svg") && !report.timeline.records.empty()) {
    const std::string path = flags.str("svg", "profile.svg");
    trace::write_file(path, trace::records_to_svg(report.timeline));
    std::printf("wrote %s\n", path.c_str());
  }
  telemetry.finish();
  return 0;
}

// `weipipe_cli anatomy` — critical-path step anatomy. Runs run_profile()
// like `profile` does, but the headline output is the per-step breakdown of
// where every nanosecond of the cross-rank critical path went: compute,
// exposed wire (by MsgKind), blocked recv, stall/fault, gap. With
// --gate-vs STRATEGY it profiles a second strategy under the identical
// configuration and exits nonzero unless the primary's mean exposed-comm
// fraction is lower by more than prof::kExposedCommGateMargin — the
// executable form of the paper's claim.
int cmd_anatomy(const Flags& flags) {
  TelemetryScope telemetry(flags, "anatomy", flags.str("strategy", "weipipe"));
  const prof::ProfileOptions opt = profile_options_from_flags(flags, "weipipe");
  const prof::ProfileReport report = prof::run_profile(opt);
  WEIPIPE_CHECK_MSG(!report.anatomy.empty(),
                    "profile of '" << opt.strategy
                                   << "' produced no step anatomy");

  for (const obs::StepAnatomy& a : report.anatomy) {
    std::printf("%s", a.summary().c_str());
    if (flags.flag("timeline")) {
      std::printf("%s", a.ascii_timeline(
                             static_cast<int>(flags.i64("width", 100)))
                            .c_str());
    }
  }
  std::printf("mean exposed comm fraction  %-12s %.4f  (predicted bubble "
              "%.4f)\n",
              opt.strategy.c_str(), report.mean_exposed_comm_fraction(),
              report.predicted_bubble);

  if (flags.flag("json")) {
    std::string json = "[\n";
    for (std::size_t i = 0; i < report.anatomy.size(); ++i) {
      std::string body = report.anatomy[i].to_json();
      while (!body.empty() && body.back() == '\n') {
        body.pop_back();
      }
      json += (i == 0 ? "" : ",\n") + body;
    }
    json += "\n]\n";
    const obs::JsonParseResult parsed = obs::parse_json(json);
    WEIPIPE_CHECK_MSG(parsed.ok,
                      "anatomy emitted invalid JSON: " << parsed.error);
    const std::string path = flags.str("json", "anatomy.json");
    trace::write_file(path, json);
    std::printf("wrote %s (%zu steps)\n", path.c_str(),
                report.anatomy.size());
  }

  int exit_code = 0;
  if (flags.flag("gate-vs")) {
    prof::ProfileOptions other = opt;
    other.strategy = flags.str("gate-vs", "1f1b");
    const prof::ProfileReport rival = prof::run_profile(other);
    WEIPIPE_CHECK_MSG(!rival.anatomy.empty(),
                      "profile of '" << other.strategy
                                     << "' produced no step anatomy");
    const double mine = report.mean_exposed_comm_fraction();
    const double theirs = rival.mean_exposed_comm_fraction();
    const double margin = prof::kExposedCommGateMargin;
    const bool ok = mine + margin < theirs;
    std::printf("gate: exposed comm %-12s %.4f + margin %.4f  %s  %-12s "
                "%.4f  -> %s\n",
                opt.strategy.c_str(), mine, margin, ok ? "<" : ">=",
                other.strategy.c_str(), theirs, ok ? "PASS" : "FAIL");
    exit_code = ok ? 0 : 1;
  }
  telemetry.finish();
  return exit_code;
}

int cmd_bench(const Flags& flags) {
  TelemetryScope telemetry(flags, "bench", "matrix");
  prof::BenchOptions opt;
  opt.smoke = flags.flag("smoke");
  opt.iters = flags.i64("iters", 2);
  opt.warmup_iters = flags.i64("warmup-iters", 1);
  const std::string out = flags.str("out", "artifacts/BENCH_trajectory.json");

  const prof::BenchReport report = prof::run_bench(opt);

  std::printf("%-11s %5s %9s %10s %9s %10s %10s %s\n", "strategy", "ranks",
              "recompute", "step", "GFLOP/s", "peak mem", "wire", "closed-form");
  for (const prof::BenchCaseResult& c : report.cases) {
    double wire_bytes = 0.0;
    bool has_predicted = false;
    bool matches = true;
    for (const prof::BenchWireKind& w : c.wire) {
      wire_bytes += w.measured_bytes;
      if (w.predicted_bytes >= 0.0) {
        has_predicted = true;
        matches = matches && w.measured_bytes == w.predicted_bytes;
      }
    }
    std::printf("%-11s %5lld %9s %8.2fms %9.2f %7.2fMiB %7.2fMiB %s\n",
                c.strategy.c_str(), static_cast<long long>(c.ranks),
                c.recompute ? "yes" : "no", c.step_seconds * 1e3, c.gflops,
                c.measured_peak_footprint_bytes / (1024.0 * 1024.0),
                wire_bytes / (1024.0 * 1024.0),
                !has_predicted ? "-" : matches ? "MATCH" : "MISMATCH");
  }

  // Re-parse what we are about to write: the trajectory feeds bench_compare,
  // so an unparseable artifact must fail here, not in CI.
  const std::string json = prof::bench_report_to_json(report);
  const obs::JsonParseResult parsed = obs::parse_json(json);
  WEIPIPE_CHECK_MSG(parsed.ok, "bench emitted invalid JSON: " << parsed.error);
  trace::write_file(out, json);
  std::printf("wrote %s (%zu cases, schema v%d%s)\n", out.c_str(),
              report.cases.size(), report.schema_version,
              report.smoke ? ", smoke" : "");

  if (flags.flag("metrics")) {
    // Per-case gauges alongside the trajectory, in the same snapshot shape
    // every other subcommand's --metrics produces.
    obs::Registry metrics;
    for (const prof::BenchCaseResult& c : report.cases) {
      double wire_bytes = 0.0;
      for (const prof::BenchWireKind& w : c.wire) {
        wire_bytes += w.measured_bytes;
      }
      const std::string key = "bench." + c.strategy + ".r" +
                              std::to_string(c.ranks) +
                              (c.recompute ? ".recompute" : "");
      metrics.gauge(key + ".step_seconds").set(c.step_seconds);
      metrics.gauge(key + ".gflops").set(c.gflops);
      metrics.gauge(key + ".peak_footprint_bytes")
          .set(c.measured_peak_footprint_bytes);
      metrics.gauge(key + ".wire_bytes").set(wire_bytes);
    }
    write_metrics_snapshot(flags, metrics.to_json(), "bench-metrics.json");
  }
  telemetry.finish();
  return 0;
}

// ---- forked-rank chaos ------------------------------------------------------
//
// `chaos --transport shm|tcp` runs the differ as a real distributed system.
// Per strategy: the parent first computes the clean full-world reference in
// process (inproc transport) and keeps state().serialize(r) for every rank;
// it then forks `workers` rank processes, each hosting exactly one rank of
// the same chaos run over the real wire (rendezvous by shm segment name or
// host:port, consistent across children because they fork from identical
// parent state). A child re-arms its own black box, runs the full
// clean-vs-faulted differ, writes its rank's post-chaos state blob, and
// exits 0 only if its own diff held bitwise. The parent aggregates exit
// codes and memcmps every child blob against the inproc reference — the
// result is checked bitwise across transports AND across process
// boundaries.

std::string rank_blob_path(const std::string& dir, const std::string& strategy,
                           int rank) {
  return dir + "/" + strategy + ".rank" + std::to_string(rank) + ".state";
}

[[noreturn]] void forked_chaos_child(const Flags& flags,
                                     chaos::ChaosConfig cc,
                                     comm::TransportSpec spec,
                                     const std::string& dir, int rank) {
  obs::reset_blackbox_after_fork();
  obs::set_process_rank(rank);
  spec.local_rank = rank;
  comm::set_default_transport_spec(spec);
  std::unique_ptr<obs::BlackBox> box;
  if (flags.flag("postmortem")) {
    obs::BlackBoxOptions opt;
    opt.dir = flags.str("postmortem", "postmortem") + "/rank" +
              std::to_string(rank);
    opt.install_signal_handlers = true;  // each child re-arms its own
    box = std::make_unique<obs::BlackBox>(opt);
    box->arm();
  }
  cc.capture_rank_state = rank;
  int code = 0;
  try {
    const chaos::ChaosReport r = chaos::run_chaos(cc);
    trace::write_file(rank_blob_path(dir, cc.strategy, rank),
                      std::string(r.chaos_rank_state.begin(),
                                  r.chaos_rank_state.end()));
    if (!r.completed) {
      std::fprintf(stderr, "[%s rank %d] failed: %s\n", cc.strategy.c_str(),
                   rank, r.error.c_str());
      code = 3;
    } else if (!r.bitwise_equal) {
      std::fprintf(stderr, "[%s rank %d] chaos run diverged from clean\n",
                   cc.strategy.c_str(), rank);
      code = 2;
    }
  } catch (const Error& e) {
    std::fprintf(stderr, "[%s rank %d] error: %s\n", cc.strategy.c_str(),
                 rank, e.what());
    obs::blackbox_dump_once(std::string("forked chaos rank failed: ") +
                            e.what());
    code = 4;
  }
  std::fflush(nullptr);
  // _exit: no destructors/atexit — the parent's inherited state (telemetry,
  // stdio buffers already flushed) must not be torn down twice.
  _exit(code);
}

struct ForkedStrategyResult {
  bool children_ok = true;       // every rank exited 0
  bool matches_inproc = true;    // every blob == the inproc reference
  std::string detail;            // first failure, for the table row
};

ForkedStrategyResult run_forked_strategy(const Flags& flags,
                                         chaos::ChaosConfig cc,
                                         const comm::TransportSpec& spec,
                                         const std::string& dir) {
  ForkedStrategyResult out;
  const int world = static_cast<int>(cc.world_size);

  // Clean inproc reference, full world in this process. Runs BEFORE the
  // forks so every child inherits identical post-reference process state
  // (in particular the fabric generation counter the rendezvous keys on).
  comm::set_default_transport_spec(comm::TransportSpec{});
  const std::vector<std::vector<std::uint8_t>> reference =
      chaos::run_clean_rank_states(cc);

  std::vector<pid_t> pids(static_cast<std::size_t>(world), -1);
  // Children inherit copies of the stdio buffers; flush now so their own
  // fflush at _exit cannot replay the parent's pending output.
  std::fflush(nullptr);
  for (int r = 0; r < world; ++r) {
    const pid_t pid = fork();
    WEIPIPE_CHECK_MSG(pid >= 0, "fork: " << std::strerror(errno));
    if (pid == 0) {
      forked_chaos_child(flags, cc, spec, dir, r);  // never returns
    }
    pids[static_cast<std::size_t>(r)] = pid;
  }

  // Exit-code aggregation with a deadline: a wedged child (rendezvous with
  // a dead peer, unrecovered stall) must not hang the launcher.
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::seconds(flags.i64("fork-timeout-s", 300));
  std::vector<int> codes(static_cast<std::size_t>(world), -1);
  int live = world;
  bool killed = false;
  while (live > 0) {
    for (int r = 0; r < world; ++r) {
      if (codes[static_cast<std::size_t>(r)] != -1) {
        continue;
      }
      int status = 0;
      const pid_t got = waitpid(pids[static_cast<std::size_t>(r)], &status,
                                WNOHANG);
      if (got <= 0) {
        continue;
      }
      codes[static_cast<std::size_t>(r)] =
          WIFEXITED(status) ? WEXITSTATUS(status)
                            : 128 + (WIFSIGNALED(status) ? WTERMSIG(status)
                                                         : 0);
      --live;
    }
    if (live == 0) {
      break;
    }
    if (std::chrono::steady_clock::now() > deadline) {
      for (int r = 0; r < world; ++r) {
        if (codes[static_cast<std::size_t>(r)] == -1) {
          kill(pids[static_cast<std::size_t>(r)], SIGKILL);
        }
      }
      killed = true;
      // Loop again: SIGKILL guarantees the waitpid above reaps them.
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }

  for (int r = 0; r < world; ++r) {
    const int code = codes[static_cast<std::size_t>(r)];
    if (code != 0) {
      out.children_ok = false;
      if (out.detail.empty()) {
        out.detail = "rank " + std::to_string(r) +
                     (killed && code >= 128 ? " timed out (killed)"
                                            : " exit " + std::to_string(code));
      }
    }
  }

  for (int r = 0; r < world; ++r) {
    std::ifstream in(rank_blob_path(dir, cc.strategy, r),
                     std::ios::binary);
    std::string blob((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    const std::vector<std::uint8_t>& want =
        reference[static_cast<std::size_t>(r)];
    const bool same =
        in.good() && blob.size() == want.size() &&
        (want.empty() ||
         std::memcmp(blob.data(), want.data(), want.size()) == 0);
    if (!same) {
      out.matches_inproc = false;
      if (out.detail.empty()) {
        out.detail = "rank " + std::to_string(r) +
                     " state blob differs from the inproc reference";
      }
    }
  }
  return out;
}

int cmd_chaos_forked(const Flags& flags, comm::TransportSpec spec) {
  const std::unique_ptr<obs::BlackBox> blackbox =
      arm_postmortem_from_flags(flags);
  chaos::ChaosConfig cc;
  cc.train = config_from_flags(flags);
  cc.world_size = flags.i64("workers", 4);
  cc.iterations = flags.i64("iters", 2);
  cc.max_recovery_attempts =
      static_cast<int>(flags.i64("max-recoveries", 3));
  cc.recv_timeout =
      std::chrono::milliseconds(flags.i64("recv-timeout-ms", 0));
  const std::uint64_t fault_seed = static_cast<std::uint64_t>(
      flags.i64("fault-seed", flags.i64("seed", 1234)));
  const std::string fault_spec = flags.str(
      "faults", "delay:p=0.2:us=200,drop:p=0.05,dup:p=0.05,reorder:p=0.05");
  cc.plan = comm::parse_fault_plan(fault_spec, fault_seed);

  // Multi-process rendezvous needs coordinates every child agrees on.
  if (spec.kind == comm::TransportKind::kTcp && spec.base_port <= 0) {
    spec.base_port = 29417;
  }
  if (spec.kind == comm::TransportKind::kShm && spec.shm_name.empty()) {
    spec.shm_name = "weipipe-chaos-" + std::to_string(getpid());
  }

  const std::string dir = flags.str("forked-dir", "chaos-forked");
  {
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    WEIPIPE_CHECK_MSG(!ec, "mkdir(" << dir << "): " << ec.message());
  }

  const std::string strategy = flags.str("strategy", "all");
  const std::vector<std::string> strategies =
      strategy == "all" ? trainer_names()
                        : std::vector<std::string>{strategy};

  std::printf("forked chaos: transport %s, %lld rank processes\n",
              comm::to_string(spec).c_str(),
              static_cast<long long>(cc.world_size));
  std::printf("fault plan: %s  (seed %llu)\n", comm::to_spec(cc.plan).c_str(),
              static_cast<unsigned long long>(fault_seed));
  std::printf("%-18s %6s %10s  %s\n", "strategy", "ranks", "vs-inproc",
              "detail");
  bool all_ok = true;
  for (const std::string& name : strategies) {
    cc.strategy = name;
    const ForkedStrategyResult r =
        run_forked_strategy(flags, cc, spec, dir);
    const bool ok = r.children_ok && r.matches_inproc;
    all_ok = all_ok && ok;
    std::printf("%-18s %6s %10s  %s\n", name.c_str(),
                r.children_ok ? "OK" : "FAIL",
                r.matches_inproc ? "equal" : "DIFF", r.detail.c_str());
    if (!ok && blackbox != nullptr) {
      blackbox->dump_once("forked chaos: strategy " + name + " failed: " +
                          r.detail);
    }
  }
  if (!all_ok) {
    std::printf(
        "CHAOS FAIL: at least one strategy diverged across processes\n");
  }
  return all_ok ? 0 : 1;
}

int cmd_chaos(const Flags& flags) {
  // A multi-process transport turns the differ into the forked launcher;
  // inproc (the default) keeps the original single-process threaded mode.
  const comm::TransportSpec transport = apply_transport_flags(flags);
  if (transport.kind != comm::TransportKind::kInproc &&
      transport.all_local()) {
    return cmd_chaos_forked(flags, transport);
  }
  const std::unique_ptr<obs::BlackBox> blackbox =
      arm_postmortem_from_flags(flags);
  TelemetryScope telemetry(flags, "chaos", flags.str("strategy", "all"));
  chaos::ChaosConfig cc;
  cc.train = config_from_flags(flags);
  cc.world_size = flags.i64("workers", 4);
  cc.iterations = flags.i64("iters", 2);
  cc.max_recovery_attempts =
      static_cast<int>(flags.i64("max-recoveries", 3));
  cc.recv_timeout =
      std::chrono::milliseconds(flags.i64("recv-timeout-ms", 0));
  const std::uint64_t fault_seed = static_cast<std::uint64_t>(
      flags.i64("fault-seed", flags.i64("seed", 1234)));
  const std::string spec = flags.str(
      "faults", "delay:p=0.2:us=200,drop:p=0.05,dup:p=0.05,reorder:p=0.05");
  cc.plan = comm::parse_fault_plan(spec, fault_seed);

  const std::string strategy = flags.str("strategy", "all");
  const std::vector<std::string> strategies =
      strategy == "all" ? trainer_names()
                        : std::vector<std::string>{strategy};

  std::printf("fault plan: %s  (seed %llu)\n", comm::to_spec(cc.plan).c_str(),
              static_cast<unsigned long long>(fault_seed));
  std::printf("%-18s %4s %8s %7s %7s %7s %7s %6s %s\n", "strategy", "ok",
              "bitwise", "delays", "drops", "dups", "reord", "recov",
              "max|diff|");
  bool all_ok = true;
  std::string log = "[\n";
  obs::Registry metrics;
  for (std::size_t i = 0; i < strategies.size(); ++i) {
    cc.strategy = strategies[i];
    const chaos::ChaosReport r = chaos::run_chaos(cc);
    all_ok = all_ok && r.ok();
    std::printf("%-18s %4s %8s %7llu %7llu %7llu %7llu %6d %g\n",
                r.strategy.c_str(), r.ok() ? "OK" : "FAIL",
                r.bitwise_equal ? "equal" : "DIFF",
                static_cast<unsigned long long>(r.fault_stats.delays),
                static_cast<unsigned long long>(r.fault_stats.drops),
                static_cast<unsigned long long>(r.fault_stats.duplicates),
                static_cast<unsigned long long>(r.fault_stats.reorders),
                r.recoveries, r.max_abs_diff);
    if (!r.error.empty()) {
      std::printf("  error: %s\n", r.error.c_str());
    }
    if (!r.ok() && blackbox != nullptr) {
      // One dump per chaos invocation, attributed to the first divergence
      // (unrecovered comm errors inside run_chaos have already dumped).
      blackbox->dump_once("chaos: strategy " + r.strategy +
                          (r.error.empty() ? " diverged from the clean run"
                                           : " failed: " + r.error));
    }
    std::string body = chaos::report_to_json(r);
    if (!body.empty() && body.back() == '\n') {
      body.pop_back();
    }
    log += (i == 0 ? "" : ",\n") + body;
    chaos::fill_fault_metrics(metrics, r.fault_stats);
  }
  log += "\n]\n";
  if (flags.flag("log")) {
    const std::string path = flags.str("log", "chaos_log.json");
    trace::write_file(path, log);
    std::printf("wrote %s\n", path.c_str());
  }
  write_metrics_snapshot(flags, metrics.to_json(), "chaos_metrics.json");
  telemetry.finish();
  if (!all_ok) {
    std::printf("CHAOS FAIL: at least one strategy diverged under faults\n");
  }
  return all_ok ? 0 : 1;
}

// `weipipe_cli health` — run training under the full live health plane:
// flight recorder (overwrite-oldest span ring), stall/straggler watchdog,
// and an always-armed post-mortem black box with fatal-signal handlers.
int cmd_health(const Flags& flags) {
  const TrainConfig cfg = config_from_flags(flags);
  const std::string strategy = flags.str("strategy", "weipipe");
  const std::int64_t workers = flags.i64("workers", 4);
  WEIPIPE_CHECK_MSG(workers >= 1, "need at least one worker");
  const std::int64_t iters = flags.i64("iters", 8);
  const bool quiet = flags.flag("quiet");

  // The black box is always armed here (--postmortem only renames the
  // directory), including best-effort fatal-signal last words.
  obs::BlackBoxOptions box_opt;
  box_opt.dir = flags.str("postmortem", "postmortem");
  box_opt.install_signal_handlers = true;
  obs::BlackBox blackbox(box_opt);
  blackbox.arm();

  // Flight recorder: the ring keeps the most recent spans, so a dump shows
  // the moments before a wedge no matter how long the run has been up.
  obs::RecorderOptions rec_opt;
  rec_opt.ring_capacity =
      static_cast<std::size_t>(flags.i64("ring-capacity", 1 << 14));
  rec_opt.overwrite_oldest = true;
  obs::Recorder recorder(rec_opt);
  recorder.install();

  std::unique_ptr<Trainer> trainer = make_trainer(strategy, cfg, workers);
  comm::Fabric* fabric = trainer->fabric();
  if (flags.flag("faults")) {
    WEIPIPE_CHECK_MSG(fabric != nullptr,
                      "--faults requires a fabric-backed strategy");
    fabric->install_fault_plan(comm::parse_fault_plan(
        flags.str("faults", ""),
        static_cast<std::uint64_t>(
            flags.i64("fault-seed", flags.i64("seed", 1234)))));
  }
  if (fabric != nullptr) {
    blackbox.set_section("fault_events", [fabric]() {
      return comm::fault_events_to_json(fabric->fault_events());
    });
  }

  obs::WatchdogOptions wd_opt;
  wd_opt.poll_seconds = flags.f64("poll-ms", 50.0) * 1e-3;
  wd_opt.stall_timeout_seconds =
      flags.f64("stall-timeout-ms", 500.0) * 1e-3;
  wd_opt.dead_timeout_seconds =
      flags.f64("dead-timeout-ms", 5000.0) * 1e-3;
  obs::Watchdog watchdog(wd_opt);
  watchdog.set_on_dead([](const obs::HealthReport& rep) {
    obs::blackbox_dump_once("watchdog DEAD verdict: " + rep.one_line());
  });
  watchdog.start(static_cast<int>(workers));

  // Declared after the watchdog and fabric so the sampler (and its gauge
  // callbacks into both) is destroyed — i.e. stopped — before either dies.
  TelemetryScope telemetry(flags, "health", strategy);
  if (telemetry.sampler() != nullptr) {
    if (fabric != nullptr) {
      telemetry.sampler()->add_gauge_source(
          "telemetry.fabric.ring.spins", [fabric]() {
            return static_cast<double>(fabric->ring_stats().spins);
          });
      telemetry.sampler()->add_gauge_source(
          "telemetry.fabric.ring.parks", [fabric]() {
            return static_cast<double>(fabric->ring_stats().parks);
          });
      telemetry.sampler()->add_gauge_source(
          "telemetry.fabric.ring.notifies", [fabric]() {
            return static_cast<double>(fabric->ring_stats().notifies);
          });
      telemetry.sampler()->add_gauge_source(
          "telemetry.fabric.ring.overflow", [fabric]() {
            return static_cast<double>(fabric->ring_stats().overflow);
          });
    }
    telemetry.sampler()->add_gauge_source(
        "telemetry.health.unhealthy_ranks", [&watchdog]() {
          const obs::HealthReport rep = watchdog.evaluate_now();
          return static_cast<double>(
              rep.world - rep.count(obs::RankHealth::kOk));
        });
  }

  const auto data = dataset_from_flags(flags, cfg);
  RecoveryOptions recovery;
  recovery.max_attempts = static_cast<int>(flags.i64("max-recoveries", 1));

  std::printf("health: '%s' (%lld ranks), %lld iters, poll %.0fms "
              "stall %.0fms dead %.0fms\n",
              trainer->name().c_str(), static_cast<long long>(workers),
              static_cast<long long>(iters), wd_opt.poll_seconds * 1e3,
              wd_opt.stall_timeout_seconds * 1e3,
              wd_opt.dead_timeout_seconds * 1e3);

  int exit_code = 0;
  std::string run_error;
  try {
    for (std::int64_t it = 0; it < iters; ++it) {
      const RecoveryResult r =
          train_iteration_with_recovery(*trainer, *data, it, recovery);
      if (!quiet) {
        std::printf("iter %4lld  loss %.4f%s  | %s\n",
                    static_cast<long long>(it), r.result.mean_loss,
                    r.recoveries > 0 ? " (recovered)" : "",
                    watchdog.evaluate_now().one_line().c_str());
      }
    }
  } catch (const Error& e) {
    // train_iteration_with_recovery already dumped for unrecovered comm
    // errors; blackbox_dump_once makes any other failure path dump too.
    run_error = e.what();
    obs::blackbox_dump_once(std::string("health run failed: ") + run_error);
    exit_code = 1;
  }

  const obs::HealthReport final_report = watchdog.evaluate_now();
  const std::vector<obs::HealthTransition> transitions =
      watchdog.transitions();
  telemetry.finish();  // stops the sampler before the watchdog goes away
  watchdog.stop();
  recorder.uninstall();

  for (const obs::HealthTransition& t : transitions) {
    std::printf("verdict: rank %d %s -> %s%s\n", t.rank,
                obs::to_string(t.from), obs::to_string(t.to),
                t.blocked_on_peer >= 0
                    ? ("  (blocked on rank " +
                       std::to_string(t.blocked_on_peer) + ")")
                          .c_str()
                    : "");
    if (t.to == obs::RankHealth::kStalled ||
        t.to == obs::RankHealth::kDead) {
      exit_code = 1;
    }
  }
  if (!run_error.empty()) {
    std::printf("run FAILED: %s\n", run_error.c_str());
  }
  std::printf("final: %s\n", final_report.one_line().c_str());
  if (flags.flag("report")) {
    const std::string path = flags.str("report", "health-report.json");
    trace::write_file(path, final_report.to_json());
    std::printf("wrote %s\n", path.c_str());
  } else {
    std::printf("%s", final_report.to_json().c_str());
  }
  if (blackbox.dumps() > 0) {
    std::printf("postmortem written under %s/\n", box_opt.dir.c_str());
  }
  return exit_code;
}

void print_help() {
  std::printf(R"(weipipe_cli — WeiPipe weight-pipeline training toolkit

USAGE: weipipe_cli <command> [--flag value ...]

COMMANDS
  train      train a model
    --strategy S       sequential | weipipe | weipipe-naive | 1f1b | gpipe | fsdp
    --workers N        ring size / stages / ranks        (default 4)
    --dp N             data-parallel replicas (weipipe)  (default 1)
    --iters N          training iterations               (default 50)
    --dim H --layers L --heads n --kv-heads n(GQA) --seq S --vocab V
    --microbatches N --batch-size G --lr f --clip f --warmup n --decay-iters n
    --dataset affine|copy   --seed n   --fp16   --recompute   --quiet
    --wire-grads fp32|fp16|bf16|int8   weight-gradient (D flow) wire format
    --replicate-vocab  hold embedding/head per worker, sync once per iter
    --checkpoint PATH  save state at the end
    --resume PATH      restore state before training
  generate   sample from a checkpoint (pass the same model flags)
    --checkpoint PATH --prompt "1,2,3" --tokens n --temperature f --seed n
  plan       simulate strategies for a model x cluster and recommend one
    --dim H --seq S --batch-size G --layers L --microbatches N
    --gpus N --gpus-per-node N --env nvlink|pcie|ethernet --csv PATH
  schedule   render a pipeline schedule as an ASCII timeline
    --strategy naive|interleave|no-prefetch|wzb1|wzb2|gpipe|1f1b|zb1|zb2|fsdp
    --workers P --rounds R --bwd-ratio f --width n --csv PATH --svg PATH
  analyze    statically model-check a schedule (deadlock cycles,
             weight-version consistency, peak-memory bounds). The
             naive, interleave, no-prefetch, gpipe and 1f1b programs are
             the turns and stage loops the weipipe-naive, weipipe (with
             and without prefetch), gpipe and 1f1b trainers execute, and
             each trainer re-proves its own program when it is built; the
             redistribution before the turns, the update after them and
             fsdp's collectives are trainer code the proof does not cover
    --strategy all|naive|interleave|no-prefetch|wzb1|wzb2|gpipe|1f1b|zb1|zb2|fsdp
    --workers P --rounds R --bwd-ratio f
  profile    run a strategy on the real engine with tracing on; report
             measured vs predicted bubble/step time and measured vs static
             peak activation memory
    --strategy S       trainer-backed: sequential|weipipe|weipipe-naive|1f1b|gpipe|fsdp
                       schedule-backed: wzb1|wzb2|zb1|zb2|naive|interleave|no-prefetch
    --workers P --iters N --warmup-iters N
    --rounds R --bwd-ratio f --unit-ms f       (schedule-backed programs)
    --dim H --layers L --microbatches N ...    (trainer-backed model flags)
    --trace PATH       write Chrome trace-event JSON (Perfetto-loadable)
    --metrics PATH     write metrics snapshot JSON (includes per-rank
                       obs.spans.dropped.* flight-ring overflow counters)
    --timeline         render the measured timeline as ASCII
    --svg PATH         write the measured timeline as SVG
    --kernels          also record per-dispatch thread-pool kernel spans
    --faults SPEC      inject a seeded fault plan (trainer-backed only);
                       faults appear as kFault trace spans + fault.* metrics
    --link-gbps f      emulate uniform links of f GB/s (trainer-backed
                       only): each message arrives bytes/bandwidth late
    --postmortem DIR   arm a black box: a fatal error dumps the span ring +
                       health snapshot as DIR/postmortem{,_trace}.json
  anatomy    critical-path step anatomy: profile a strategy (flags as
             profile; default strategy weipipe) and attribute every
             nanosecond of the cross-rank critical path to compute,
             exposed wire (split by message kind), blocked recv,
             stall/fault, or scheduling gap
    --timeline         per-rank ASCII anatomy timeline for each step
    --width N          timeline width in columns (default 100)
    --json PATH        write the per-step anatomy reports as a JSON array
    --gate-vs S        also profile strategy S with the identical config
                       and exit nonzero unless the primary's mean exposed
                       comm fraction is lower by more than 0.05
  bench      run the canonical strategy matrix and write the bench
             trajectory (step time, GFLOP/s, per-kind wire bytes vs the
             closed forms, full-footprint peak vs static bounds); diff two
             trajectories with tools/bench_compare
    --smoke            trimmed matrix (4-rank cases, 1 iteration, no warmup)
    --iters N --warmup-iters N                 (full runs; default 2 / 1)
    --out PATH         output path (default artifacts/BENCH_trajectory.json)
    --metrics PATH     also write per-case bench.* gauges as a metrics
                       snapshot JSON
  chaos      run a strategy clean and under a seeded fault plan and diff
             the final weights bitwise (docs/FAULTS.md); exits nonzero if
             any strategy diverges or fails to complete
    --strategy S|all   trainer strategy, or the whole matrix (default all)
    --faults SPEC      fault-plan spec, e.g. "drop:p=0.05,dup:p=0.1:tag=3"
                       kinds: delay|drop|dup|reorder|stall|nodedup|retries
                       keys: p src dst tag ns/us/ms rank op
                       (on stall clauses ns/us/ms set the hold time the
                       stalled rank stays frozen before aborting)
    --fault-seed N     fault-plan seed (default --seed)
    --workers P --iters N --max-recoveries N   (default 4 / 2 / 3)
    --dim H --layers L --microbatches N ...    (model flags, as train)
    --log PATH         write the per-strategy chaos reports + fault event
                       logs as a JSON array
    --metrics PATH     write fault.* metrics snapshot JSON
    --postmortem DIR   arm a black box; the first divergence or unrecovered
                       fault dumps DIR/postmortem{,_trace}.json (forked
                       mode: each rank process dumps DIR/rank<r>/...)
    --transport shm|tcp   forked-rank mode (docs/TRANSPORT.md): fork one
                       process per rank, run the differ over the real wire,
                       and additionally memcmp every rank's state blob
                       against the in-process inproc reference
    --recv-timeout-ms N   fabric recv timeout override (default: fabric's)
    --fork-timeout-s N    forked mode: SIGKILL + fail ranks still running
                          after this long                  (default 300)
    --forked-dir DIR      forked mode: rank state-blob exchange directory
                          (default chaos-forked)
  health     train under the live health plane (docs/OBSERVABILITY.md):
             flight-recorder span ring, stall/straggler watchdog with a
             periodic one-line status, and an always-armed post-mortem
             black box; exits nonzero if the run fails or any rank is
             judged STALLED or DEAD
    --strategy S       trainer strategy (default weipipe)
    --workers P --iters N                      (default 4 / 8)
    --dim H --layers L --microbatches N ...    (model flags, as train)
    --faults SPEC      inject a seeded fault plan (grammar as chaos)
    --fault-seed N     fault-plan seed (default --seed)
    --max-recoveries N step-boundary recovery attempts (default 1)
    --poll-ms F        watchdog poll period            (default 50)
    --stall-timeout-ms F   blocked-recv => STALLED     (default 500)
    --dead-timeout-ms F    no heartbeat => DEAD        (default 5000)
    --ring-capacity N  flight-recorder spans per rank  (default 16384)
    --postmortem DIR   black-box output dir (default postmortem)
    --report PATH      write the final HealthReport JSON (default: stdout)
    --quiet            suppress the per-iteration status line

  every subcommand accepts the transport flags (docs/TRANSPORT.md):
    --transport SPEC   fabric backend: inproc (default; lock-free in-process
                       mailboxes), shm (POSIX shared-memory rings + futex),
                       or tcp (nonblocking sockets, sendmsg scatter-gather).
                       Full spec grammar:
                       "inproc" | "shm[:name=SEG][:rank=R]" |
                       "tcp[:host=H][:port=P][:rank=R]" — rank=R makes this
                       process host exactly rank R (peers over the wire);
                       without it all ranks stay in-process as threads
                       (chaos instead forks rank processes itself)
    --base-port N      tcp rendezvous base port; rank r listens on N + r
    --shm-name SEG     shm segment name prefix shared by the rank processes

  profile, anatomy, bench, chaos, and health also accept the streaming
  telemetry flags (docs/OBSERVABILITY.md):
    --telemetry PATH       sample runtime metrics + memory ledger on a
                           background thread for the subcommand's duration;
                           write a timeseries JSON plus a Prometheus text
                           exposition sibling (PATH with extension .prom)
    --telemetry-period-ms F  sample period          (default 5)
    --telemetry-window N     samples retained before the window decimates
                             in place and doubles its stride (default 4096)

Every flag also accepts --flag=value.
)");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    print_help();
    return 1;
  }
  const std::string cmd = argv[1];
  try {
    const Flags flags(argc, argv, 2);
    // Every subcommand honors --transport (chaos re-reads the spec to pick
    // the forked launcher; the rest just run their fabrics over it).
    apply_transport_flags(flags);
    if (cmd == "train") {
      return cmd_train(flags);
    }
    if (cmd == "generate") {
      return cmd_generate(flags);
    }
    if (cmd == "plan") {
      return cmd_plan(flags);
    }
    if (cmd == "schedule") {
      return cmd_schedule(flags);
    }
    if (cmd == "analyze") {
      return cmd_analyze(flags);
    }
    if (cmd == "profile") {
      return cmd_profile(flags);
    }
    if (cmd == "anatomy") {
      return cmd_anatomy(flags);
    }
    if (cmd == "bench") {
      return cmd_bench(flags);
    }
    if (cmd == "chaos") {
      return cmd_chaos(flags);
    }
    if (cmd == "health") {
      return cmd_health(flags);
    }
    if (cmd == "help" || cmd == "--help") {
      print_help();
      return 0;
    }
    std::fprintf(stderr, "unknown command '%s'\n", cmd.c_str());
    print_help();
    return 1;
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
