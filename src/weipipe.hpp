// Umbrella header: everything a downstream user of the WeiPipe library needs.
//
//   #include "weipipe.hpp"
//
// Layering (include individual headers for finer control):
//   common/  -> obs/    -> comm/, trace/, prof/
//   common/  -> tensor/ -> nn/  -> core/, baselines/
//   common/  -> comm/   -> core/, baselines/
//   common/  -> sched/  -> sim/ -> trace/ -> prof/
#pragma once

// Foundations
#include "common/check.hpp"
#include "common/fixed_types.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "common/stopwatch.hpp"
#include "common/thread_pool.hpp"

// Tensors and the transformer
#include "nn/adam.hpp"
#include "nn/block.hpp"
#include "nn/config.hpp"
#include "nn/decode.hpp"
#include "nn/generate.hpp"
#include "nn/layer_math.hpp"
#include "nn/loss.hpp"
#include "nn/microbatch.hpp"
#include "nn/model.hpp"
#include "tensor/ops.hpp"
#include "tensor/tensor.hpp"

// Message-passing fabric
#include "comm/collectives.hpp"
#include "comm/fabric.hpp"
#include "comm/fault.hpp"
#include "comm/transport.hpp"
#include "comm/wire.hpp"

// Trainers (the paper's contribution + every baseline)
#include "baselines/chaos.hpp"
#include "baselines/factory.hpp"
#include "baselines/fsdp_trainer.hpp"
#include "baselines/pipeline_trainer.hpp"
#include "core/accounting.hpp"
#include "core/shard_store.hpp"
#include "core/resilience.hpp"
#include "core/sequential_trainer.hpp"
#include "core/trainer.hpp"
#include "core/weipipe_trainer.hpp"

// Scheduling, static analysis, and simulation
#include "analysis/analysis.hpp"
#include "sched/builders.hpp"
#include "sched/program.hpp"
#include "sched/validate.hpp"
#include "sched/weipipe_schedule.hpp"
#include "sim/cost_model.hpp"
#include "sim/engine.hpp"
#include "sim/experiment.hpp"
#include "sim/fabric_bridge.hpp"
#include "sim/topology.hpp"
#include "trace/export.hpp"
#include "trace/runtime.hpp"
#include "trace/timeline.hpp"

// Observability & profiling
#include "obs/blackbox.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/critpath.hpp"
#include "obs/health.hpp"
#include "obs/json.hpp"
#include "obs/ledger.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "obs/span.hpp"
#include "obs/timeseries.hpp"
#include "prof/bench_run.hpp"
#include "prof/profile.hpp"

namespace weipipe {

// Library version (reproduction release, not the paper's).
inline constexpr int kVersionMajor = 1;
inline constexpr int kVersionMinor = 0;
inline constexpr const char* kVersionString = "1.0.0";

}  // namespace weipipe
