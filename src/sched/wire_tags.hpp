// Central registry of the fabric wire tags.
//
// Every point-to-point message class gets one constant here. The schedule
// builders (sched/builders.hpp) emit these tags, and the interpreter
// (core/execute.hpp) sends and receives on them verbatim, so (a) a program
// cannot collide tags by accident and (b) observability code can map a raw
// tag back to a human-readable label and to the schedule IR's MsgKind — the
// metrics registry aggregates measured wire bytes per MsgKind exactly like
// the simulator does for predicted bytes. One tag per message class is
// enough: messages of one class on one (src, dst) edge are matched FIFO.
//
// Collectives (comm/collectives.hpp) use caller-chosen tag_base ranges and
// are deliberately not registered here; their spans carry their own labels.
#pragma once

#include <cstdint>

#include "sched/program.hpp"

namespace weipipe::wire_tags {

// -- WeiPipe ring flows ---------------------------------------------------------
constexpr std::int64_t kTagF = 1;    // forward-flow weight chunk
constexpr std::int64_t kTagBW = 2;   // backward-flow weight chunk
constexpr std::int64_t kTagBD = 3;   // backward-flow gradient chunk
constexpr std::int64_t kTagRing = 4; // WZB2's single unannotated weight flow

// -- weight redistribution + update-phase chains ------------------------------
constexpr std::int64_t kTagRedistF = 10;   // owner -> F start holder
constexpr std::int64_t kTagRedistB = 11;   // owner -> B start holder
constexpr std::int64_t kTagDpReduce = 12;  // cross-replica gradient chain
constexpr std::int64_t kTagDpBcast = 13;   // reduced gradient broadcast
constexpr std::int64_t kTagVocabUp = 14;   // vocab-grad chain reduce
constexpr std::int64_t kTagVocabDown = 15; // vocab-grad broadcast

// -- activation pipelines -------------------------------------------------------
constexpr std::int64_t kTagAct = 20;   // stage-boundary activations
constexpr std::int64_t kTagGrad = 21;  // stage-boundary activation gradients

inline const char* label(std::int64_t tag) {
  switch (tag) {
    case kTagF: return "weight-F";
    case kTagBW: return "weight-B";
    case kTagBD: return "grad-D";
    case kTagRing: return "ring";
    case kTagRedistF: return "redist-F";
    case kTagRedistB: return "redist-B";
    case kTagDpReduce: return "dp-reduce";
    case kTagDpBcast: return "dp-bcast";
    case kTagVocabUp: return "vocab-reduce";
    case kTagVocabDown: return "vocab-bcast";
    case kTagAct: return "act";
    case kTagGrad: return "act-grad";
    default: return "other";
  }
}

inline sched::MsgKind msg_kind(std::int64_t tag) {
  switch (tag) {
    case kTagF:
    case kTagRedistF:
      return sched::MsgKind::kWeightF;
    case kTagBW:
    case kTagRedistB:
      return sched::MsgKind::kWeightB;
    case kTagBD:
    case kTagDpReduce:
    case kTagDpBcast:
    case kTagVocabUp:
    case kTagVocabDown:
      return sched::MsgKind::kGradD;
    case kTagAct:
      return sched::MsgKind::kActivation;
    case kTagGrad:
      return sched::MsgKind::kActGrad;
    default:
      return sched::MsgKind::kOpaque;
  }
}

}  // namespace weipipe::wire_tags
