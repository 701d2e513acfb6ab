#include "obs/ledger.hpp"

#include <new>

#include "obs/recorder.hpp"

namespace weipipe::obs {
namespace {

thread_local MemKind t_mem_kind = MemKind::kScratch;

void atomic_max(std::atomic<std::int64_t>& target, std::int64_t value) {
  std::int64_t cur = target.load(std::memory_order_relaxed);
  while (cur < value &&
         !target.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
}

}  // namespace

const char* to_string(MemKind kind) {
  switch (kind) {
    case MemKind::kWeights:
      return "weights";
    case MemKind::kWeightGrads:
      return "weight_grads";
    case MemKind::kOptimizer:
      return "optimizer";
    case MemKind::kActivations:
      return "activations";
    case MemKind::kCommBuffers:
      return "comm_buffers";
    case MemKind::kScratch:
      return "scratch";
  }
  return "unknown";
}

MemoryLedger& MemoryLedger::instance() {
  static MemoryLedger ledger;
  return ledger;
}

int MemoryLedger::current_bucket() { return bucket_for_rank(current_rank()); }

void MemoryLedger::on_alloc(MemKind kind, std::int64_t bytes) {
  on_alloc(kind, current_bucket(), bytes);
}

void MemoryLedger::on_alloc(MemKind kind, int bucket, std::int64_t bytes) {
  if (bytes <= 0) return;
  const int k = static_cast<int>(kind);
  const std::int64_t rank_total =
      rank_total_live_[bucket].fetch_add(bytes, std::memory_order_relaxed) +
      bytes;
  atomic_max(rank_total_peak_[bucket], rank_total);
  const std::int64_t kind_live =
      kind_live_[k].fetch_add(bytes, std::memory_order_relaxed) + bytes;
  atomic_max(kind_peak_[k], kind_live);
  const std::int64_t total =
      total_live_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  atomic_max(total_peak_, total);
}

void MemoryLedger::on_free(MemKind kind, int bucket, std::int64_t bytes) {
  if (bytes <= 0) return;
  const int k = static_cast<int>(kind);
  rank_total_live_[bucket].fetch_sub(bytes, std::memory_order_relaxed);
  kind_live_[k].fetch_sub(bytes, std::memory_order_relaxed);
  total_live_.fetch_sub(bytes, std::memory_order_relaxed);
}

std::int64_t MemoryLedger::live_bytes(MemKind kind) const {
  return kind_live_[static_cast<int>(kind)].load(std::memory_order_relaxed);
}

std::int64_t MemoryLedger::peak_bytes(MemKind kind) const {
  return kind_peak_[static_cast<int>(kind)].load(std::memory_order_relaxed);
}

std::int64_t MemoryLedger::total_live_bytes() const {
  return total_live_.load(std::memory_order_relaxed);
}

std::int64_t MemoryLedger::total_peak_bytes() const {
  return total_peak_.load(std::memory_order_relaxed);
}

LedgerSnapshot MemoryLedger::snapshot() const {
  LedgerSnapshot snap;
  for (int k = 0; k < kNumMemKinds; ++k) {
    snap.kinds[k].live_bytes = kind_live_[k].load(std::memory_order_relaxed);
    snap.kinds[k].peak_bytes = kind_peak_[k].load(std::memory_order_relaxed);
  }
  snap.total_live_bytes = total_live_.load(std::memory_order_relaxed);
  snap.total_peak_bytes = total_peak_.load(std::memory_order_relaxed);
  for (int b = 0; b < kRankBuckets; ++b) {
    const std::int64_t peak =
        rank_total_peak_[b].load(std::memory_order_relaxed);
    if (peak > snap.max_rank_peak_bytes) snap.max_rank_peak_bytes = peak;
  }
  return snap;
}

void MemoryLedger::reset_peaks() {
  for (int k = 0; k < kNumMemKinds; ++k) {
    kind_peak_[k].store(kind_live_[k].load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
  }
  for (int b = 0; b < kRankBuckets; ++b) {
    rank_total_peak_[b].store(
        rank_total_live_[b].load(std::memory_order_relaxed),
        std::memory_order_relaxed);
  }
  total_peak_.store(total_live_.load(std::memory_order_relaxed),
                    std::memory_order_relaxed);
}

MemKind current_mem_kind() { return t_mem_kind; }

MemScope::MemScope(MemKind kind) : prev_(t_mem_kind) { t_mem_kind = kind; }

MemScope::~MemScope() { t_mem_kind = prev_; }

void MemCharge::set(MemKind kind, std::int64_t bytes) {
  release();
  kind_ = kind;  // remembered even when disabled, for a later resize()
  if (!ledger().enabled()) return;
  bucket_ = MemoryLedger::current_bucket();
  bytes_ = bytes;
  armed_ = true;
  ledger().on_alloc(kind_, bucket_, bytes_);
}

void MemCharge::resize(std::int64_t bytes) {
  if (!armed_) {
    set(kind_, bytes);
    return;
  }
  if (bytes > bytes_) {
    ledger().on_alloc(kind_, bucket_, bytes - bytes_);
  } else if (bytes < bytes_) {
    ledger().on_free(kind_, bucket_, bytes_ - bytes);
  }
  bytes_ = bytes;
}

void MemCharge::release() {
  if (!armed_) return;
  ledger().on_free(kind_, bucket_, bytes_);
  armed_ = false;
  bytes_ = 0;
}

namespace detail {

namespace {
// Out-of-band record written in front of every tracked payload. 16 bytes
// keeps the payload at the default operator-new alignment.
struct MemAllocHeader {
  std::int32_t kind;  // -1 = allocated while the ledger was disabled
  std::int32_t bucket;
  std::int64_t bytes;
};
static_assert(sizeof(MemAllocHeader) == 16);
constexpr std::size_t kHeaderBytes = 16;
}  // namespace

void* tracked_alloc(std::size_t payload_bytes) {
  void* raw = ::operator new(kHeaderBytes + payload_bytes);
  auto* header = static_cast<MemAllocHeader*>(raw);
  MemoryLedger& led = ledger();
  if (led.enabled()) {
    const MemKind kind = current_mem_kind();
    const int bucket = MemoryLedger::current_bucket();
    header->kind = static_cast<std::int32_t>(kind);
    header->bucket = bucket;
    header->bytes = static_cast<std::int64_t>(payload_bytes);
    led.on_alloc(kind, bucket, header->bytes);
  } else {
    header->kind = -1;
    header->bucket = 0;
    header->bytes = 0;
  }
  return static_cast<char*>(raw) + kHeaderBytes;
}

void tracked_free(void* payload, std::size_t payload_bytes) {
  if (payload == nullptr) return;
  void* raw = static_cast<char*>(payload) - kHeaderBytes;
  auto* header = static_cast<MemAllocHeader*>(raw);
  if (header->kind >= 0) {
    ledger().on_free(static_cast<MemKind>(header->kind), header->bucket,
                     header->bytes);
  }
  ::operator delete(raw, kHeaderBytes + payload_bytes);
}

}  // namespace detail

}  // namespace weipipe::obs
