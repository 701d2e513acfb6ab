// Trainer factory: construct any strategy by name — the entry point CLIs and
// sweep harnesses use.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "comm/fabric.hpp"
#include "core/trainer.hpp"

namespace weipipe {

// Strategy names accepted by make_trainer.
std::vector<std::string> trainer_names();

// Builds a trainer by name: "sequential", "weipipe" / "weipipe-interleave",
// "weipipe-naive", "1f1b", "gpipe", "fsdp". `world` is ignored by
// "sequential". `link_model` (optional) emulates link bandwidth/latency on
// the trainer's fabric; "sequential" has none. Throws weipipe::Error for
// unknown names or invalid shapes.
std::unique_ptr<Trainer> make_trainer(const std::string& name,
                                      const TrainConfig& cfg,
                                      std::int64_t world,
                                      comm::LinkModel link_model = nullptr);

}  // namespace weipipe
