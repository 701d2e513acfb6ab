#include "core/resilience.hpp"

#include <string>
#include <utility>

#include "comm/fabric.hpp"
#include "common/check.hpp"
#include "obs/blackbox.hpp"

namespace weipipe {

RecoveryResult train_iteration_with_recovery(Trainer& trainer,
                                             const Dataset& data,
                                             std::int64_t iter_index,
                                             const RecoveryOptions& options) {
  comm::Fabric* fabric = trainer.fabric();
  if (fabric == nullptr || !fabric->has_fault_plan()) {
    return RecoveryResult{trainer.train_iteration(data, iter_index), 0};
  }
  WEIPIPE_CHECK_MSG(options.max_attempts >= 1, "max_attempts must be >= 1");
  RecoveryResult out;
  const ShardStore snapshot = trainer.state();
  for (int attempt = 1;; ++attempt) {
    try {
      out.result = trainer.train_iteration(data, iter_index);
      return out;
    } catch (const comm::CommError& e) {
      if (attempt >= options.max_attempts) {
        // Recovery exhausted: this CommError is fatal to the run. Leave the
        // black box (when one is armed) before the unwind tears the state
        // down. Recovered faults deliberately do not dump.
        obs::blackbox_dump_once(
            std::string("unrecovered comm error: ") + e.what());
        throw;
      }
      fabric->recover();
      trainer.load_state(snapshot);
      ++out.recoveries;
    }
  }
}

}  // namespace weipipe
