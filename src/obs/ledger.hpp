// Full-footprint memory ledger: tagged allocation accounting for the real
// execution engine.
//
// The span recorder measures *activation* bytes via per-op deltas; this
// ledger covers everything else — weights, weight gradients, optimizer
// state, comm buffers, scratch — so a trainer's measured peak footprint can
// be compared against the parameter-derived static bounds the paper reasons
// with (Tables 2-4 rank strategies by total per-worker memory, not
// activations alone).
//
// Three charging paths feed one global ledger:
//  * TrackedAllocator — Tensor storage charges automatically, attributed to
//    the thread's current MemScope category and RankScope rank. A 16-byte
//    out-of-band header records {kind, rank bucket, bytes} at allocation
//    time, so a buffer freed on a different thread (or after the scope
//    closed, or after the ledger was disabled) always credits exactly what
//    it charged.
//  * MemCharge — explicit RAII charge for trainer-owned plain vectors
//    (fp32 masters, Adam moments, circulating chunk buffers) that predate
//    the tracked allocator.
//  * Fabric mailboxes charge comm_buffers per delivered-but-unreceived
//    message (see comm/fabric.cpp).
//
// Accounting is off by default and gated by one relaxed atomic load per
// allocation, mirroring the span recorder's disabled-cost contract.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace weipipe::obs {

enum class MemKind : int {
  kWeights = 0,   // compute-precision weight copies + fp32 masters
  kWeightGrads,   // weight-gradient buffers (circulating D, accumulators)
  kOptimizer,     // Adam first/second moments
  kActivations,   // saved forward state + activation/grad cursors
  kCommBuffers,   // fabric mailbox residency (delivered, not yet received)
  kScratch,       // everything allocated outside an explicit scope
};
inline constexpr int kNumMemKinds = 6;

const char* to_string(MemKind kind);

struct MemKindSnapshot {
  std::int64_t live_bytes = 0;
  std::int64_t peak_bytes = 0;
};

struct LedgerSnapshot {
  MemKindSnapshot kinds[kNumMemKinds];  // global, summed over ranks
  std::int64_t total_live_bytes = 0;
  // Global full-footprint high watermark (all categories, all ranks), and
  // the worst single rank bucket's footprint watermark.
  std::int64_t total_peak_bytes = 0;
  std::int64_t max_rank_peak_bytes = 0;
};

// Global, process-wide ledger. All counters are atomics: charging from rank
// threads is wait-free; peaks use CAS-max so races resolve upward.
class MemoryLedger {
 public:
  // Rank attribution buckets: 0 = unranked (driver, pool threads), 1..N-1 =
  // ranks 0..N-2; out-of-range ranks fold into bucket 0.
  static constexpr int kRankBuckets = 33;

  static MemoryLedger& instance();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  static int bucket_for_rank(int rank) {
    return (rank >= 0 && rank < kRankBuckets - 1) ? rank + 1 : 0;
  }
  // Bucket of the calling thread (from obs::current_rank()).
  static int current_bucket();

  // Charge/credit `bytes` of `kind` against a rank bucket. on_alloc uses the
  // calling thread's bucket. Callers record the bucket at charge time and
  // pass the same one to on_free (the TrackedAllocator header and MemCharge
  // both do), so balances never depend on which thread frees.
  void on_alloc(MemKind kind, std::int64_t bytes);
  void on_alloc(MemKind kind, int bucket, std::int64_t bytes);
  void on_free(MemKind kind, int bucket, std::int64_t bytes);

  std::int64_t live_bytes(MemKind kind) const;
  std::int64_t peak_bytes(MemKind kind) const;
  std::int64_t total_live_bytes() const;
  std::int64_t total_peak_bytes() const;

  LedgerSnapshot snapshot() const;

  // Collapses every high watermark to the current live value, so repeated
  // profile/bench runs in one process don't smear each other's peaks.
  void reset_peaks();

 private:
  MemoryLedger() = default;

  std::atomic<bool> enabled_{false};

  // Per-bucket total live/peak; global per-kind live/peak and total
  // live/peak.
  std::atomic<std::int64_t> rank_total_live_[kRankBuckets] = {};
  std::atomic<std::int64_t> rank_total_peak_[kRankBuckets] = {};
  std::atomic<std::int64_t> kind_live_[kNumMemKinds] = {};
  std::atomic<std::int64_t> kind_peak_[kNumMemKinds] = {};
  std::atomic<std::int64_t> total_live_{0};
  std::atomic<std::int64_t> total_peak_{0};
};

inline MemoryLedger& ledger() { return MemoryLedger::instance(); }

// The calling thread's current allocation category (default kScratch).
MemKind current_mem_kind();

// RAII category scope: tracked allocations on this thread are attributed to
// `kind` until the scope closes. Nests; restores the previous kind.
class MemScope {
 public:
  explicit MemScope(MemKind kind);
  ~MemScope();
  MemScope(const MemScope&) = delete;
  MemScope& operator=(const MemScope&) = delete;

 private:
  MemKind prev_;
};

// Explicit RAII charge for buffers the ledger cannot see (plain std::vector
// members). Records {kind, bucket} at charge time; the destructor credits
// exactly what was charged even if the ledger was disabled in between.
class MemCharge {
 public:
  MemCharge() = default;
  MemCharge(MemKind kind, std::int64_t bytes) { set(kind, bytes); }
  ~MemCharge() { release(); }

  MemCharge(MemCharge&& other) noexcept { *this = std::move(other); }
  MemCharge& operator=(MemCharge&& other) noexcept {
    if (this != &other) {
      release();
      armed_ = other.armed_;
      kind_ = other.kind_;
      bucket_ = other.bucket_;
      bytes_ = other.bytes_;
      other.armed_ = false;
    }
    return *this;
  }
  MemCharge(const MemCharge&) = delete;
  MemCharge& operator=(const MemCharge&) = delete;

  // Releases any previous charge, then charges `bytes` of `kind` (no-op
  // while the ledger is disabled).
  void set(MemKind kind, std::int64_t bytes);
  // Adjusts the charged size in place (charges fresh if not yet armed).
  void resize(std::int64_t bytes);
  void release();

  std::int64_t bytes() const { return armed_ ? bytes_ : 0; }

 private:
  bool armed_ = false;
  MemKind kind_ = MemKind::kScratch;
  int bucket_ = 0;
  std::int64_t bytes_ = 0;
};

namespace detail {
// Over-allocating malloc/free pair used by TrackedAllocator: a 16-byte
// header in front of the payload records what was charged.
void* tracked_alloc(std::size_t payload_bytes);
void tracked_free(void* payload, std::size_t payload_bytes);
}  // namespace detail

// Minimal std::allocator replacement that routes through the ledger.
// Stateless; all instances compare equal, so container moves/swaps keep
// their buffers (and the buffers keep their allocation-time attribution).
template <typename T>
class TrackedAllocator {
 public:
  using value_type = T;
  using is_always_equal = std::true_type;

  TrackedAllocator() = default;
  template <typename U>
  TrackedAllocator(const TrackedAllocator<U>&) noexcept {}

  T* allocate(std::size_t n) {
    static_assert(alignof(T) <= 16, "tracked header assumes <=16B alignment");
    return static_cast<T*>(detail::tracked_alloc(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) {
    detail::tracked_free(p, n * sizeof(T));
  }

  friend bool operator==(const TrackedAllocator&, const TrackedAllocator&) {
    return true;
  }
  friend bool operator!=(const TrackedAllocator&, const TrackedAllocator&) {
    return false;
  }
};

}  // namespace weipipe::obs
