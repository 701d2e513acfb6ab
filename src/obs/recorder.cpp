#include "obs/recorder.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/stopwatch.hpp"
#include "common/thread_pool.hpp"

namespace weipipe::obs {

namespace {

std::atomic<Recorder*> g_active{nullptr};

// Installed as the thread pool's KernelObserver when record_kernels is on.
void record_kernel_dispatch(std::size_t items, std::int64_t start_ns,
                            std::int64_t end_ns) {
  Span span;
  span.kind = SpanKind::kKernel;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  // Loop range size; kernel spans have no payload, so reuse the bytes slot.
  span.bytes = static_cast<std::int64_t>(items);
  record(span);
}

thread_local int t_rank = -1;

// Forked-rank mode (set_process_rank): fallback rank for threads outside
// any RankScope. Atomic only for the cheap relaxed read on the record fast
// path; it is written once per process, before workers exist.
std::atomic<int> g_process_rank{-1};

// Bumped on every install(). The per-thread ring cache keys on this epoch,
// NOT on the recorder's address: a new recorder can be allocated at the
// address of a destroyed one, and an address-keyed cache would then hand out
// rings owned by the dead instance (use-after-free).
std::atomic<std::uint64_t> g_install_epoch{1};

// Per-thread cache of the ring resolved for (install epoch, rank);
// re-resolved whenever either changes (new recorder installed, RankScope
// entered).
struct RingCache {
  std::uint64_t epoch = 0;  // 0 = never resolved
  int rank = -2;
  internal::ThreadRing* ring = nullptr;
};
thread_local RingCache t_cache;

}  // namespace

const char* to_string(SpanKind kind) {
  switch (kind) {
    case SpanKind::kForward: return "F";
    case SpanKind::kBackward: return "B";
    case SpanKind::kBackwardActs: return "Ba";
    case SpanKind::kBackwardWeights: return "Bw";
    case SpanKind::kOptimizer: return "opt";
    case SpanKind::kLoss: return "loss";
    case SpanKind::kSendTransfer: return "send";
    case SpanKind::kRecvWait: return "recv-wait";
    case SpanKind::kRecvTransfer: return "recv-unpack";
    case SpanKind::kCollective: return "collective";
    case SpanKind::kKernel: return "kernel";
    case SpanKind::kStep: return "step";
    case SpanKind::kFault: return "fault";
  }
  return "?";
}

bool is_compute(SpanKind kind) {
  switch (kind) {
    case SpanKind::kForward:
    case SpanKind::kBackward:
    case SpanKind::kBackwardActs:
    case SpanKind::kBackwardWeights:
    case SpanKind::kOptimizer:
    case SpanKind::kLoss:
      return true;
    default:
      return false;
  }
}

bool is_comm(SpanKind kind) {
  switch (kind) {
    case SpanKind::kSendTransfer:
    case SpanKind::kRecvWait:
    case SpanKind::kRecvTransfer:
    case SpanKind::kCollective:
      return true;
    default:
      return false;
  }
}

Recorder::Recorder(RecorderOptions options) : options_(options) {
  WEIPIPE_CHECK_MSG(options_.ring_capacity >= 16,
                    "ring_capacity too small to be useful");
}

Recorder::~Recorder() { uninstall(); }

void Recorder::install() {
  Recorder* expected = nullptr;
  const bool took =
      g_active.compare_exchange_strong(expected, this,
                                       std::memory_order_acq_rel);
  WEIPIPE_CHECK_MSG(took || expected == this,
                    "another obs::Recorder is already installed");
  if (took) {
    g_install_epoch.fetch_add(1, std::memory_order_acq_rel);
  }
  if (options_.record_kernels) {
    set_kernel_observer(&record_kernel_dispatch);
  }
}

void Recorder::uninstall() {
  Recorder* expected = this;
  // Clear the hook before deactivating: a dispatch racing the uninstall may
  // still call the observer, whose record() then sees no active recorder.
  if (options_.record_kernels) {
    set_kernel_observer(nullptr);
  }
  g_active.compare_exchange_strong(expected, nullptr,
                                   std::memory_order_acq_rel);
}

Recorder* Recorder::active() {
  return g_active.load(std::memory_order_relaxed);
}

void Recorder::reserve_ranks(int num_ranks) {
  for (int rank = 0; rank < num_ranks; ++rank) {
    (void)ring_for(rank);
  }
}

internal::ThreadRing* Recorder::ring_for(int rank) {
  std::lock_guard<std::mutex> lk(mu_);
  if (rank >= 0) {
    const auto idx = static_cast<std::size_t>(rank);
    if (idx >= rank_rings_.size()) {
      rank_rings_.resize(idx + 1);
    }
    if (!rank_rings_[idx]) {
      rank_rings_[idx] =
          std::make_unique<internal::ThreadRing>(options_.ring_capacity);
    }
    return rank_rings_[idx].get();
  }
  const std::thread::id tid = std::this_thread::get_id();
  for (auto& [id, ring] : thread_rings_) {
    if (id == tid) {
      return ring.get();
    }
  }
  thread_rings_.emplace_back(
      tid, std::make_unique<internal::ThreadRing>(options_.ring_capacity));
  return thread_rings_.back().second.get();
}

std::vector<Span> Recorder::drain() {
  std::vector<internal::ThreadRing*> rings;
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (auto& r : rank_rings_) {
      if (r) {
        rings.push_back(r.get());
      }
    }
    for (auto& [id, r] : thread_rings_) {
      rings.push_back(r.get());
    }
  }
  std::vector<Span> out;
  for (internal::ThreadRing* ring : rings) {
    const std::uint64_t head = ring->head.load(std::memory_order_acquire);
    std::uint64_t tail = ring->tail.load(std::memory_order_relaxed);
    for (; tail < head; ++tail) {
      out.push_back(ring->slots[tail % ring->slots.size()]);
    }
    ring->tail.store(head, std::memory_order_release);
  }
  std::sort(out.begin(), out.end(), [](const Span& a, const Span& b) {
    if (a.rank != b.rank) {
      return a.rank < b.rank;
    }
    if (a.start_ns != b.start_ns) {
      return a.start_ns < b.start_ns;
    }
    return a.end_ns < b.end_ns;
  });
  return out;
}

std::uint64_t Recorder::dropped() const {
  std::uint64_t n = 0;
  std::lock_guard<std::mutex> lk(mu_);
  for (const auto& r : rank_rings_) {
    if (r) {
      n += r->dropped.load(std::memory_order_relaxed);
    }
  }
  for (const auto& [id, r] : thread_rings_) {
    n += r->dropped.load(std::memory_order_relaxed);
  }
  return n;
}

std::vector<Recorder::RankDropped> Recorder::dropped_by_rank() const {
  std::vector<RankDropped> out;
  std::uint64_t unranked = 0;
  std::lock_guard<std::mutex> lk(mu_);
  for (std::size_t i = 0; i < rank_rings_.size(); ++i) {
    if (!rank_rings_[i]) {
      continue;
    }
    const std::uint64_t n =
        rank_rings_[i]->dropped.load(std::memory_order_relaxed);
    if (n > 0) {
      out.push_back({static_cast<int>(i), n});
    }
  }
  for (const auto& [id, r] : thread_rings_) {
    unranked += r->dropped.load(std::memory_order_relaxed);
  }
  if (unranked > 0) {
    out.push_back({-1, unranked});
  }
  return out;
}

bool enabled() { return Recorder::active() != nullptr; }

std::int64_t now_ns() { return steady_now_ns(); }

void record(Span span) {
  Recorder* rec = Recorder::active();
  if (rec == nullptr) {
    return;
  }
  if (span.rank < 0) {
    // Attribution only (current_rank() falls back to the process rank in
    // forked mode); ring selection below stays keyed on t_rank so rank
    // rings keep exactly one producer thread.
    span.rank = current_rank();
  }
  const std::uint64_t epoch = g_install_epoch.load(std::memory_order_acquire);
  RingCache& cache = t_cache;
  if (cache.epoch != epoch || cache.rank != t_rank ||
      cache.ring == nullptr) {
    cache.ring = rec->ring_for(t_rank);
    cache.epoch = epoch;
    cache.rank = t_rank;
  }
  internal::ThreadRing* ring = cache.ring;
  const std::uint64_t head = ring->head.load(std::memory_order_relaxed);
  const std::uint64_t tail = ring->tail.load(std::memory_order_relaxed);
  if (head - tail >= ring->slots.size()) {
    ring->dropped.fetch_add(1, std::memory_order_relaxed);
    if (!rec->options().overwrite_oldest) {
      return;
    }
    // Flight-recorder mode: evict the oldest span. Only the producer moves
    // tail while recording; drain() runs at quiescent points, so this store
    // cannot race a concurrent drain of the same ring.
    ring->tail.store(tail + 1, std::memory_order_relaxed);
  }
  ring->slots[head % ring->slots.size()] = span;
  ring->head.store(head + 1, std::memory_order_release);
}

int current_rank() {
  return t_rank >= 0 ? t_rank
                     : g_process_rank.load(std::memory_order_relaxed);
}

void set_process_rank(int rank) {
  g_process_rank.store(rank, std::memory_order_relaxed);
}

RankScope::RankScope(int rank) : previous_(t_rank) { t_rank = rank; }

RankScope::~RankScope() { t_rank = previous_; }

SpanScope::SpanScope(SpanKind kind, std::int64_t microbatch,
                     std::int64_t chunk)
    : armed_(enabled()) {
  if (!armed_) {
    return;
  }
  span_.kind = kind;
  span_.microbatch = microbatch;
  span_.chunk = chunk;
  span_.start_ns = now_ns();
}

SpanScope::~SpanScope() {
  if (!armed_) {
    return;
  }
  span_.end_ns = now_ns();
  record(span_);
}

}  // namespace weipipe::obs
