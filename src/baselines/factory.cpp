#include "baselines/factory.hpp"

#include <utility>

#include "baselines/fsdp_trainer.hpp"
#include "baselines/pipeline_trainer.hpp"
#include "common/check.hpp"
#include "core/sequential_trainer.hpp"
#include "core/weipipe_trainer.hpp"

namespace weipipe {

std::vector<std::string> trainer_names() {
  return {"sequential", "weipipe", "weipipe-interleave",
          "weipipe-naive", "1f1b",  "gpipe",
          "fsdp"};
}

std::unique_ptr<Trainer> make_trainer(const std::string& name,
                                      const TrainConfig& cfg,
                                      std::int64_t world,
                                      comm::LinkModel link_model) {
  if (name == "sequential") {
    return std::make_unique<SequentialTrainer>(cfg);
  }
  if (name == "weipipe" || name == "weipipe-interleave") {
    return std::make_unique<WeiPipeTrainer>(
        cfg, world, WeiPipeOptions{.link_model = std::move(link_model)});
  }
  if (name == "weipipe-naive") {
    return std::make_unique<WeiPipeTrainer>(
        cfg, world,
        WeiPipeOptions{.mode = WeiPipeMode::kNaive,
                       .link_model = std::move(link_model)});
  }
  if (name == "1f1b") {
    return std::make_unique<PipelineTrainer>(
        cfg, world, PipelineOptions{.link_model = std::move(link_model)});
  }
  if (name == "gpipe") {
    return std::make_unique<PipelineTrainer>(
        cfg, world,
        PipelineOptions{.mode = PipelineMode::kGPipe,
                        .link_model = std::move(link_model)});
  }
  if (name == "fsdp") {
    return std::make_unique<FsdpTrainer>(
        cfg, world, FsdpOptions{.link_model = std::move(link_model)});
  }
  WEIPIPE_CHECK_MSG(false, "unknown trainer '" << name
                                               << "' (try: sequential, "
                                                  "weipipe, weipipe-naive, "
                                                  "1f1b, gpipe, fsdp)");
  return nullptr;
}

}  // namespace weipipe
