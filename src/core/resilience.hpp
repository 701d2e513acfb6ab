// Step-boundary fault recovery.
//
// Message-level faults (delay/drop/dup/reorder) are absorbed inside the
// fabric's reliability layer and never reach the trainer. Transient rank
// stalls do: the stalled rank aborts the fabric and every rank's thread
// unwinds with a comm::CommError. This runner turns that into a rollback:
// snapshot the trainer's full state (core/shard_store.hpp) before the
// iteration, and on a communication fault repair the fabric
// (Fabric::recover()), restore the snapshot, and re-run the iteration. The
// re-run is bitwise-identical to an undisturbed run because the microbatch
// stream is a pure function of the iteration index and the snapshot restores
// every float the optimizer step reads.
#pragma once

#include <cstdint>

#include "core/trainer.hpp"

namespace weipipe {

struct RecoveryOptions {
  // Total tries per iteration (first run + re-runs). A plan's stall rules
  // fire once each, so the default survives any single-stall plan; raise it
  // for plans stalling several ranks.
  int max_attempts = 3;
};

struct RecoveryResult {
  IterationResult result;
  int recoveries = 0;  // rollback + re-run cycles this iteration needed
};

// Runs trainer.train_iteration(data, iter_index), recovering from
// comm::CommError up to options.max_attempts total tries. Rethrows the last
// CommError when attempts are exhausted; non-communication errors propagate
// immediately. When the trainer has no fabric or no fault plan installed
// this is a plain train_iteration call (no snapshot cost).
RecoveryResult train_iteration_with_recovery(Trainer& trainer,
                                             const Dataset& data,
                                             std::int64_t iter_index,
                                             const RecoveryOptions& options = {});

}  // namespace weipipe
