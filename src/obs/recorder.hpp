// Low-overhead runtime span recorder.
//
// Design (DESIGN.md-style contract, enforced by tests/test_obs.cpp):
//  * recording is off by default; every instrumentation site begins with one
//    relaxed atomic load (`enabled()`), so compiled-in-but-disabled tracing
//    costs a branch per would-be span — the <5% bench_insitu budget;
//  * each producer thread writes to its own fixed-capacity ring buffer
//    (single producer, no locks on the hot path; registration of a new
//    thread takes a mutex once). Rank threads are re-spawned every
//    train_iteration, so rings for rank >= 0 are keyed by rank and reused
//    across iterations — the join at the end of run_workers provides the
//    happens-before edge between the old and new owner thread;
//  * a full ring drops new spans and counts them (never blocks, never
//    reallocates);
//  * drain() is only legal at quiescent points (after worker joins /
//    barriers), which is when the trainers call it.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/thread_annotations.hpp"
#include "obs/span.hpp"

namespace weipipe::obs {

struct RecorderOptions {
  // Spans kept per producer thread between drains.
  std::size_t ring_capacity = 1 << 16;
  // Record a kKernel span per thread-pool parallel_for dispatch. Off by
  // default: tensor kernels fire orders of magnitude more often than
  // schedule-level ops and would drown the rings.
  bool record_kernels = false;
  // Full-ring policy. false (default, the profiling mode): drop the new span
  // so an already-drained prefix stays exact. true (the flight-recorder mode
  // used by the health plane): overwrite the oldest span so the ring always
  // holds the most recent `ring_capacity` spans — a post-mortem wants the
  // moments before the wedge, not the start of the run. Either way every
  // lost span is counted in dropped().
  bool overwrite_oldest = false;
};

class Recorder;

namespace internal {

// Single-producer ring. The producer publishes with a release store of
// `head`; drain() (which runs while the producer is quiescent) acquires it.
struct ThreadRing {
  explicit ThreadRing(std::size_t capacity) : slots(capacity) {}

  std::vector<Span> slots;
  std::atomic<std::uint64_t> head{0};  // next write position
  std::atomic<std::uint64_t> tail{0};  // next drain position
  std::atomic<std::uint64_t> dropped{0};
};

}  // namespace internal

class Recorder {
 public:
  explicit Recorder(RecorderOptions options = {});
  ~Recorder();  // uninstalls if still the active recorder

  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  // Makes this recorder the process-wide span sink and enables recording.
  void install();
  void uninstall();
  static Recorder* active();  // nullptr = recording disabled

  const RecorderOptions& options() const { return options_; }

  // Allocates the rings of ranks [0, num_ranks) now. A ring is otherwise
  // allocated (and zero-filled: ~6 MB at the default capacity) on its
  // rank's first span, under the registration mutex — inside a measured
  // window that staggers rank start-up by one allocation per rank.
  void reserve_ranks(int num_ranks);

  // Collects every recorded span (all threads), ordered by (rank, start),
  // and advances the rings past them. Call only at quiescent points: no
  // rank thread may be recording concurrently.
  std::vector<Span> drain();

  // Spans lost to full rings since construction (never reset by drain —
  // a nonzero value means the trace is incomplete and says so).
  std::uint64_t dropped() const;

  // dropped() broken down by producer ring: one entry per rank ring that
  // lost spans, plus a single rank = -1 entry aggregating unranked threads.
  // Empty when nothing was lost. Feeds the obs.spans.dropped{rank} metrics.
  struct RankDropped {
    int rank = -1;
    std::uint64_t dropped = 0;
  };
  std::vector<RankDropped> dropped_by_rank() const;

  // Internal (instrumentation fast path): the calling thread's ring.
  internal::ThreadRing* ring_for(int rank);

 private:
  RecorderOptions options_;
  mutable std::mutex mu_;
  // rank >= 0: one ring per rank, reused across worker generations.
  std::vector<std::unique_ptr<internal::ThreadRing>> rank_rings_
      WEIPIPE_GUARDED_BY(mu_);
  // rank < 0: one ring per (long-lived) unranked thread.
  std::vector<std::pair<std::thread::id, std::unique_ptr<internal::ThreadRing>>>
      thread_rings_ WEIPIPE_GUARDED_BY(mu_);
};

// ---- fast-path free functions -----------------------------------------------

// One relaxed atomic load; every instrumentation site gates on this.
bool enabled();

std::int64_t now_ns();

// Appends to the calling thread's ring of the active recorder; no-op when
// recording is disabled. `span.rank` < 0 is filled from current_rank().
void record(Span span);

// ---- thread rank scoping ----------------------------------------------------

// The fabric's run_workers() tags each worker thread with its rank for the
// duration of the worker body; instrumentation picks it up implicitly.
int current_rank();  // -1 outside any RankScope (and no process rank set)

// Forked-rank mode: the global rank this process hosts, or -1 in the
// default single-process mode. When set, threads outside any RankScope
// (the driver, prefetch helpers) report it from current_rank(), so spans
// and ledger charges from a rank process land in that rank's bucket
// instead of the unranked one — merged traces and per-process snapshots
// then attribute by global rank with no post-hoc rewriting. Set it once,
// right after fork, before any instrumentation runs.
void set_process_rank(int rank);

class RankScope {
 public:
  explicit RankScope(int rank);
  ~RankScope();
  RankScope(const RankScope&) = delete;
  RankScope& operator=(const RankScope&) = delete;

 private:
  int previous_;
};

// ---- RAII span --------------------------------------------------------------

// Measures construction..destruction. Arms only if recording was enabled at
// construction; fields besides the interval can be adjusted before close.
class SpanScope {
 public:
  explicit SpanScope(SpanKind kind, std::int64_t microbatch = -1,
                     std::int64_t chunk = -1);
  ~SpanScope();
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  bool armed() const { return armed_; }
  void set_peer(int peer) { span_.peer = peer; }
  void set_tag(std::int64_t tag) { span_.tag = tag; }
  void set_bytes(std::int64_t bytes) { span_.bytes = bytes; }
  void set_flow_id(std::int64_t id) { span_.flow_id = id; }
  void set_act_bytes_after(double bytes) { span_.act_bytes_after = bytes; }
  void set_rank(int rank) { span_.rank = rank; }
  // `label` must be a string literal (static storage); see Span::label.
  void set_label(const char* label) { span_.label = label; }

 private:
  bool armed_;
  Span span_;
};

}  // namespace weipipe::obs
