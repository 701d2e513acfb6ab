// The runtime span model: what one instrumented interval of the real
// execution engine looks like.
//
// A Span is a closed interval of steady-clock nanoseconds on one rank's
// thread, tagged with what happened inside it. Compute spans carry the
// (microbatch, chunk) identity the schedule algebra reasons about plus the
// activation-memory delta of the op; communication spans are split into the
// *wait* phase (blocked on a message that has not landed) and the *transfer*
// phase (pack/unpack of the payload), and carry peer/tag/bytes plus a flow id
// that pairs each receive with the send that produced its message — the
// Chrome-trace exporter turns those pairs into Perfetto flow arrows.
#pragma once

#include <cstdint>

namespace weipipe::obs {

enum class SpanKind : std::uint8_t {
  // Compute phases (mirror sched::ComputeKind; see sched/span_map.hpp).
  kForward,
  kBackward,         // fused B+W backward
  kBackwardActs,     // zero-bubble B pass
  kBackwardWeights,  // zero-bubble W pass
  kOptimizer,
  kLoss,
  // Communication phases.
  kSendTransfer,  // pack + hand payload to the fabric (eager send)
  kRecvWait,      // blocked until the matching message has landed
  kRecvTransfer,  // unpack/widen the landed payload into the user buffer
  kCollective,    // one ring collective, end to end
  // Substrate.
  kKernel,  // one parallel_for dispatch on the tensor thread pool
  kStep,    // one whole train_iteration (recorded by the driving thread)
  kFault,   // one injected fault (comm/fault.hpp); zero-duration marker whose
            // tag/bytes carry the fault kind and injected delay
};

const char* to_string(SpanKind kind);
bool is_compute(SpanKind kind);
bool is_comm(SpanKind kind);

struct Span {
  std::int64_t start_ns = 0;  // steady-clock, same epoch across threads
  std::int64_t end_ns = 0;
  SpanKind kind = SpanKind::kForward;
  std::int32_t rank = -1;  // -1 = unranked thread (driver, pool worker)
  // Compute identity (compute spans; -1 = not applicable).
  std::int64_t microbatch = -1;
  std::int64_t chunk = -1;
  // Communication identity (comm spans; -1 = not applicable).
  std::int32_t peer = -1;
  std::int64_t tag = -1;
  // Payload bytes for comm spans; signed activation-byte delta for compute
  // spans (mirrors sched::ComputeOp::mem_delta).
  std::int64_t bytes = 0;
  // Pairs a receive with the send whose message it consumed (assigned by the
  // fabric, unique per message); -1 = no flow.
  std::int64_t flow_id = -1;
  // Resident activation bytes on this rank after the op (compute spans;
  // negative = untracked).
  double act_bytes_after = -1.0;
  // Optional display-name override. MUST point at static storage (string
  // literal): spans outlive the instrumented scope inside ring buffers.
  const char* label = nullptr;

  double seconds() const {
    return static_cast<double>(end_ns - start_ns) * 1e-9;
  }
};

}  // namespace weipipe::obs
