#include "comm/fabric.hpp"

#include <algorithm>
#include <exception>
#include <thread>

#include "common/check.hpp"
#include "common/stopwatch.hpp"
#include "obs/health.hpp"
#include "obs/ledger.hpp"
#include "obs/recorder.hpp"

namespace weipipe::comm {

namespace {

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::this_thread::yield();
#endif
}

void fetch_max(std::atomic<std::uint64_t>& a, std::uint64_t v) {
  std::uint64_t cur = a.load(std::memory_order_relaxed);
  while (cur < v &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

// Decrement clamped at zero: reset_stats()/recover() may have zeroed the
// gauge while messages were still in flight.
void decrement_clamped(std::atomic<std::uint64_t>& a) {
  std::uint64_t cur = a.load(std::memory_order_relaxed);
  while (cur > 0 &&
         !a.compare_exchange_weak(cur, cur - 1, std::memory_order_relaxed)) {
  }
}

// steady_clock time_point for an absolute steady_now_ns() deadline.
std::chrono::steady_clock::time_point ns_to_time_point(std::int64_t ns) {
  return std::chrono::steady_clock::now() +
         std::chrono::nanoseconds(ns - steady_now_ns());
}

}  // namespace

LinkModel uniform_link(double bandwidth_bytes_per_sec, double latency_sec) {
  WEIPIPE_CHECK(bandwidth_bytes_per_sec > 0.0);
  return [=](int, int, std::size_t bytes) {
    const double sec =
        latency_sec + static_cast<double>(bytes) / bandwidth_bytes_per_sec;
    return std::chrono::nanoseconds(static_cast<std::int64_t>(sec * 1e9));
  };
}

int Endpoint::world_size() const { return fabric_->world_size(); }

void Endpoint::send(int dst, std::int64_t tag,
                    std::vector<std::uint8_t> payload) {
  send(dst, tag, Buffer::adopt(std::move(payload)));
}

void Endpoint::send(int dst, std::int64_t tag, Buffer payload) {
  obs::SpanScope span(obs::SpanKind::kSendTransfer);
  const auto bytes = static_cast<std::int64_t>(payload.size());
  const std::int64_t flow = fabric_->deliver(rank_, dst, tag,
                                             std::move(payload));
  if (span.armed()) {
    span.set_rank(rank_);
    span.set_peer(dst);
    span.set_tag(tag);
    span.set_bytes(bytes);
    span.set_flow_id(flow);
  }
}

std::vector<std::uint8_t> Endpoint::recv(int src, std::int64_t tag) {
  return fabric_->take(rank_, src, tag).payload.release_vector();
}

Buffer Endpoint::recv_buffer(int src, std::int64_t tag) {
  Fabric::Taken taken = fabric_->take(rank_, src, tag);
  obs::SpanScope span(obs::SpanKind::kRecvTransfer);
  if (span.armed()) {
    span.set_rank(rank_);
    span.set_peer(src);
    span.set_tag(tag);
    span.set_bytes(static_cast<std::int64_t>(taken.payload.size()));
    span.set_flow_id(taken.flow_id);
  }
  return std::move(taken.payload);
}

void Endpoint::send_floats(int dst, std::int64_t tag,
                           std::span<const float> values,
                           WirePrecision precision) {
  // The span covers quantize/pack plus the eager handoff: the full cost the
  // sending rank pays for this message. The pack goes straight into a
  // tracked zero-copy buffer — the single conversion pass is the only time
  // the payload bytes are touched on the send side.
  obs::SpanScope span(obs::SpanKind::kSendTransfer);
  Buffer payload = pack_floats_to_buffer(values, precision);
  const auto bytes = static_cast<std::int64_t>(payload.size());
  const std::int64_t flow = fabric_->deliver(rank_, dst, tag,
                                             std::move(payload));
  if (span.armed()) {
    span.set_rank(rank_);
    span.set_peer(dst);
    span.set_tag(tag);
    span.set_bytes(bytes);
    span.set_flow_id(flow);
  }
}

void Endpoint::recv_floats(int src, std::int64_t tag, std::span<float> out,
                           WirePrecision precision) {
  Fabric::Taken taken = fabric_->take(rank_, src, tag);
  obs::SpanScope span(obs::SpanKind::kRecvTransfer);
  if (span.armed()) {
    span.set_rank(rank_);
    span.set_peer(src);
    span.set_tag(tag);
    span.set_bytes(static_cast<std::int64_t>(taken.payload.size()));
    span.set_flow_id(taken.flow_id);
  }
  unpack_floats(taken.payload.span(), precision, out);
}

FabricStats Endpoint::sent_stats() const {
  FabricStats total;
  const int p = fabric_->world_size();
  for (int dst = 0; dst < p; ++dst) {
    const FabricStats s = fabric_->pair_stats(rank_, dst);
    total.messages += s.messages;
    total.bytes += s.bytes;
    total.in_flight += s.in_flight;
    total.max_in_flight = std::max(total.max_in_flight, s.max_in_flight);
  }
  return total;
}

FabricStats Endpoint::received_stats() const {
  FabricStats total;
  const int p = fabric_->world_size();
  for (int src = 0; src < p; ++src) {
    const FabricStats s = fabric_->pair_stats(src, rank_);
    total.messages += s.messages;
    total.bytes += s.bytes;
    total.in_flight += s.in_flight;
    total.max_in_flight = std::max(total.max_in_flight, s.max_in_flight);
  }
  return total;
}

Fabric::Fabric(int world_size, LinkModel link_model)
    : Fabric(world_size, std::move(link_model), default_transport_spec()) {}

Fabric::Fabric(int world_size, LinkModel link_model,
               const TransportSpec& spec)
    : link_model_(std::move(link_model)) {
  WEIPIPE_CHECK_MSG(world_size >= 1, "world_size must be >= 1");
  transport_ = make_transport(spec, world_size, &aborted_);
  endpoints_.reserve(static_cast<std::size_t>(world_size));
  inboxes_.reserve(static_cast<std::size_t>(world_size));
  edges_.reserve(static_cast<std::size_t>(world_size) *
                 static_cast<std::size_t>(world_size));
  for (int r = 0; r < world_size; ++r) {
    endpoints_.push_back(std::unique_ptr<Endpoint>(new Endpoint(this, r)));
    inboxes_.push_back(std::make_unique<Inbox>());
  }
  for (int i = 0; i < world_size * world_size; ++i) {
    edges_.push_back(std::make_unique<Edge>());
  }
}

Fabric::~Fabric() {
  // Credit any messages still sitting in the transport or the inboxes (a
  // trainer torn down mid-schedule, or stats reset between deliver and take)
  // so the ledger's comm_buffers category drains to zero with the fabric.
  // Payload buffers destroy (and self-credit, if tracked) with the frames.
  drain_all_local();
}

void Fabric::credit_frame(const WireFrame& frame, int dst) {
  if (frame.ledger_bytes > 0) {
    obs::ledger().on_free(obs::MemKind::kCommBuffers,
                          obs::MemoryLedger::bucket_for_rank(dst),
                          frame.ledger_bytes);
  }
}

void Fabric::drain_all_local() {
  // Only legal while quiescent (all rank threads joined). Remote ranks'
  // state lives in their own processes; frames still in flight toward them
  // are either already consumed there or dup copies their dedup layer
  // discards.
  const int p = world_size();
  std::vector<WireFrame> scratch;
  for (int dst = 0; dst < p; ++dst) {
    if (!transport_->is_local(dst)) {
      continue;
    }
    for (int src = 0; src < p; ++src) {
      if (src == dst) {
        continue;
      }
      scratch.clear();
      transport_->drain(src, dst, scratch);
      for (const WireFrame& f : scratch) {
        credit_frame(f, dst);
      }
    }
    Inbox& inbox = *inboxes_[static_cast<std::size_t>(dst)];
    for (auto& [key, stream] : inbox.streams) {
      for (const WireFrame& f : stream.q) {
        credit_frame(f, dst);
      }
      stream.q.clear();
    }
    inbox.streams.clear();
  }
}

Endpoint& Fabric::endpoint(int rank) {
  WEIPIPE_CHECK_MSG(rank >= 0 && rank < world_size(),
                    "rank " << rank << " out of range");
  return *endpoints_[static_cast<std::size_t>(rank)];
}

std::uint64_t Fabric::bytes_sent(int src, int dst) const {
  return edge(src, dst).pair.bytes.load(std::memory_order_relaxed);
}

FabricStats Fabric::pair_stats(int src, int dst) const {
  const Edge::PairCounters& c = edge(src, dst).pair;
  FabricStats s;
  s.messages = c.messages.load(std::memory_order_relaxed);
  s.bytes = c.bytes.load(std::memory_order_relaxed);
  s.in_flight = c.in_flight.load(std::memory_order_relaxed);
  s.max_in_flight = c.max_in_flight.load(std::memory_order_relaxed);
  return s;
}

std::vector<FabricStats> Fabric::stats_matrix() const {
  const int p = world_size();
  std::vector<FabricStats> matrix;
  matrix.reserve(static_cast<std::size_t>(p) * static_cast<std::size_t>(p));
  for (int src = 0; src < p; ++src) {
    for (int dst = 0; dst < p; ++dst) {
      matrix.push_back(pair_stats(src, dst));
    }
  }
  return matrix;
}

std::map<std::int64_t, FabricStats> Fabric::tag_stats() const {
  std::map<std::int64_t, FabricStats> merged;
  for (const auto& e : edges_) {
    std::lock_guard<std::mutex> lk(e->tag_mu);
    for (const auto& [tag, s] : e->tags) {
      FabricStats& m = merged[tag];
      m.messages += s.messages;
      m.bytes += s.bytes;
      m.in_flight += s.in_flight;
      // Edge-local high-water marks cannot be summed into a global
      // concurrent depth; report the worst single edge.
      m.max_in_flight = std::max(m.max_in_flight, s.max_in_flight);
    }
  }
  return merged;
}

std::uint64_t Fabric::total_bytes() const {
  std::uint64_t n = 0;
  for (const auto& e : edges_) {
    n += e->pair.bytes.load(std::memory_order_relaxed);
  }
  return n;
}

std::uint64_t Fabric::total_messages() const {
  std::uint64_t n = 0;
  for (const auto& e : edges_) {
    n += e->pair.messages.load(std::memory_order_relaxed);
  }
  return n;
}

std::uint64_t Fabric::max_in_flight() const {
  std::uint64_t n = 0;
  for (const auto& e : edges_) {
    n = std::max(n, e->pair.max_in_flight.load(std::memory_order_relaxed));
  }
  return n;
}

void Fabric::reset_stats() {
  // Also zeroes in_flight: callers reset between iterations, when every
  // mailbox has drained.
  for (const auto& e : edges_) {
    e->pair.messages.store(0, std::memory_order_relaxed);
    e->pair.bytes.store(0, std::memory_order_relaxed);
    e->pair.in_flight.store(0, std::memory_order_relaxed);
    e->pair.max_in_flight.store(0, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lk(e->tag_mu);
    e->tags.clear();
  }
}

RingStats Fabric::ring_stats() const {
  RingStats total = transport_->wire_stats();
  for (const auto& e : edges_) {
    total.spins += e->spins.load(std::memory_order_relaxed);
  }
  return total;
}

void Fabric::install_fault_plan(const FaultPlan& plan) {
  auto runtime = std::make_unique<FaultRuntime>(plan, world_size());
  runtime->fired.reserve(plan.rules.size());
  for (std::size_t i = 0; i < plan.rules.size(); ++i) {
    runtime->fired.push_back(std::make_unique<std::atomic<bool>>(false));
  }
  faults_ = std::move(runtime);
}

void Fabric::clear_fault_plan() { faults_.reset(); }

const FaultPlan& Fabric::fault_plan() const {
  WEIPIPE_CHECK_MSG(faults_ != nullptr, "no fault plan installed");
  return faults_->plan;
}

FaultStats Fabric::fault_stats() const {
  if (!faults_) {
    return FaultStats{};
  }
  std::lock_guard<std::mutex> lk(faults_->mu);
  return faults_->stats;
}

std::vector<FaultEvent> Fabric::fault_events() const {
  if (!faults_) {
    return {};
  }
  std::vector<FaultEvent> events;
  {
    std::lock_guard<std::mutex> lk(faults_->mu);
    events = faults_->events;
  }
  std::sort(events.begin(), events.end(), fault_event_less);
  return events;
}

void Fabric::abort_all() {
  // seq_cst so a consumer's parked-state recheck cannot order before this
  // store (same Dekker pairing as the ring tail publication).
  aborted_.store(true, std::memory_order_seq_cst);
  transport_->wake_all();
}

void Fabric::recover() {
  aborted_.store(false, std::memory_order_release);
  // Drain every undelivered message from the abandoned step and rewind the
  // per-stream sequence numbers so the re-run starts from a clean wire.
  // Only legal while quiescent (all rank threads joined).
  drain_all_local();
  for (const auto& e : edges_) {
    e->send_seq.clear();
    e->pair.in_flight.store(0, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lk(e->tag_mu);
    for (auto& [tag, s] : e->tags) {
      s.in_flight = 0;
    }
  }
  if (faults_) {
    for (auto& count : faults_->op_counts) {
      count.store(0, std::memory_order_relaxed);
    }
    // One-shot latches stay latched: a transient stall does not re-fire on
    // the re-run (that is what makes recovery converge).
    faults_->epoch.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lk(faults_->mu);
    ++faults_->stats.recoveries;
  }
}

void Fabric::maybe_stall(int rank) {
  FaultRuntime* fr = faults_.get();
  if (fr == nullptr) {
    return;
  }
  const std::int64_t op =
      fr->op_counts[static_cast<std::size_t>(rank)].fetch_add(
          1, std::memory_order_relaxed);
  if (!fr->any_stalls) {
    return;
  }
  for (std::size_t i = 0; i < fr->plan.rules.size(); ++i) {
    const FaultRule& rule = fr->plan.rules[i];
    if (rule.kind != FaultKind::kStall || rule.stall_rank != rank ||
        op < rule.stall_op) {
      continue;
    }
    if (fr->fired[i]->exchange(true, std::memory_order_acq_rel)) {
      continue;  // transient: fires once per install
    }
    FaultEvent event;
    event.kind = FaultKind::kStall;
    event.src = rank;
    event.seq = static_cast<std::uint64_t>(op);
    event.epoch = fr->epoch.load(std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lk(fr->mu);
      ++fr->stats.stalls;
      fr->events.push_back(event);
    }
    const std::int64_t stall_start_ns = obs::now_ns();
    // Hold: the rank freezes heartbeat-silent for stall_hold before pulling
    // the fabric down — a live window in which the health watchdog can
    // observe the wedge and name the blocked peers. Pure latency; the
    // rollback/re-run path is identical to an immediate abort.
    if (rule.stall_hold.count() > 0) {
      std::this_thread::sleep_for(rule.stall_hold);
    }
    if (obs::enabled()) {
      obs::Span span;
      span.kind = obs::SpanKind::kFault;
      span.start_ns = stall_start_ns;
      span.end_ns = obs::now_ns();  // the fault span covers the hold
      span.rank = rank;
      span.tag = static_cast<std::int64_t>(FaultKind::kStall);
      span.bytes = rule.stall_hold.count();
      obs::record(span);
    }
    abort_all();
    CommErrorInfo info;
    info.kind = CommErrorKind::kStall;
    info.rank = rank;
    throw CommError(info);
  }
}

void Fabric::record_fault(const FaultEvent& event) {
  FaultRuntime* fr = faults_.get();
  {
    std::lock_guard<std::mutex> lk(fr->mu);
    switch (event.kind) {
      case FaultKind::kDelay: ++fr->stats.delays; break;
      case FaultKind::kDrop:
        ++fr->stats.drops;
        ++fr->stats.retries;
        break;
      case FaultKind::kDuplicate: ++fr->stats.duplicates; break;
      case FaultKind::kReorder: ++fr->stats.reorders; break;
      case FaultKind::kStall: ++fr->stats.stalls; break;
    }
    fr->events.push_back(event);
  }
  if (obs::enabled()) {
    obs::Span span;
    span.kind = obs::SpanKind::kFault;
    span.start_ns = obs::now_ns();
    span.end_ns = span.start_ns;
    span.rank = event.src;
    span.peer = event.dst;
    span.tag = event.tag;
    span.bytes = event.delay_ns;
    obs::record(span);
  }
}

std::int64_t Fabric::deliver(int src, int dst, std::int64_t tag,
                             Buffer payload) {
  WEIPIPE_CHECK_MSG(dst >= 0 && dst < world_size(),
                    "send to invalid rank " << dst);
  WEIPIPE_CHECK_MSG(dst != src, "self-send (rank " << src << ")");
  maybe_stall(src);
  if (aborted_.load(std::memory_order_acquire)) {
    CommErrorInfo info;
    info.kind = CommErrorKind::kAborted;
    info.rank = src;
    info.peer = dst;
    info.tag = tag;
    throw CommError(info);
  }
  Edge& e = edge(src, dst);
  const std::uint64_t bytes = payload.size();
  e.pair.messages.fetch_add(1, std::memory_order_relaxed);
  e.pair.bytes.fetch_add(bytes, std::memory_order_relaxed);
  const std::uint64_t depth =
      e.pair.in_flight.fetch_add(1, std::memory_order_relaxed) + 1;
  fetch_max(e.pair.max_in_flight, depth);
  {
    // Per-edge tag ledger: single producer, so this lock is uncontended
    // except against the consumer's in-flight decrement and rare aggregate
    // reads — no cross-sender serialization.
    std::lock_guard<std::mutex> lk(e.tag_mu);
    FabricStats& t = e.tags[tag];
    ++t.messages;
    t.bytes += bytes;
    ++t.in_flight;
    t.max_in_flight = std::max(t.max_in_flight, t.in_flight);
  }

  WireFrame frame;
  frame.tag = tag;
  frame.deliver_at_ns = steady_now_ns();
  if (link_model_) {
    frame.deliver_at_ns += link_model_(src, dst, bytes).count();
  }
  frame.flow_id = next_flow_id_.fetch_add(1, std::memory_order_relaxed);
  const std::int64_t flow_id = frame.flow_id;
  frame.payload = std::move(payload);
  // Position in the (src,tag) stream: producer-owned, no lock (one producer
  // per edge).
  frame.seq = e.send_seq[tag]++;
  // Eager buffered sends cost real memory on the receiver until consumed.
  // For a same-process receiver, adopted payloads are charged as
  // comm_buffers mailbox residency in dst's bucket (credited at
  // take/teardown); tracked buffers already carry their allocation-time
  // charge. A remote receiver rematerializes the bytes as a tracked buffer
  // in its own process — its drain thread pays the charge there, so the
  // sender must not double count it here.
  const bool local_dst = transport_->is_local(dst);
  if (local_dst && obs::ledger().enabled() && !frame.payload.empty() &&
      !frame.payload.tracked()) {
    frame.ledger_bytes = static_cast<std::int64_t>(frame.payload.size());
    obs::ledger().on_alloc(obs::MemKind::kCommBuffers,
                           obs::MemoryLedger::bucket_for_rank(dst),
                           frame.ledger_bytes);
  }

  // Fault decisions are producer-side and lock-free: hit() is a pure hash
  // of (seed, rule, src, dst, tag, seq, attempt), so the schedule is
  // interleaving- AND transport-independent — every backend sees the exact
  // same fault pattern for a given seed. Events are committed to the shared
  // log after the message is enqueued.
  FaultRuntime* fr = faults_.get();
  std::vector<FaultEvent> local_events;
  bool duplicate = false;
  std::chrono::nanoseconds dup_extra{0};
  if (fr != nullptr) {
    const FaultPlan& plan = fr->plan;
    const std::uint32_t epoch = fr->epoch.load(std::memory_order_relaxed);
    for (std::size_t i = 0; i < plan.rules.size(); ++i) {
      const FaultRule& rule = plan.rules[i];
      FaultEvent event;
      event.kind = rule.kind;
      event.src = src;
      event.dst = dst;
      event.tag = tag;
      event.seq = frame.seq;
      event.epoch = epoch;
      switch (rule.kind) {
        case FaultKind::kDelay:
          if (plan.hit(i, src, dst, tag, frame.seq, 0)) {
            frame.deliver_at_ns += rule.delay.count();
            event.delay_ns = rule.delay.count();
            local_events.push_back(event);
          }
          break;
        case FaultKind::kDrop: {
          // Each lost transmission costs one retransmit with doubled
          // backoff; after max_retries the reliability layer force-delivers
          // (a permanently lost message would deadlock the schedule).
          auto backoff = rule.delay;
          for (int attempt = 0; attempt < plan.max_retries &&
                                plan.hit(i, src, dst, tag, frame.seq, attempt);
               ++attempt) {
            frame.deliver_at_ns += backoff.count();
            event.attempt = attempt;
            event.delay_ns = backoff.count();
            local_events.push_back(event);
            backoff *= 2;
          }
          break;
        }
        case FaultKind::kDuplicate:
          if (plan.hit(i, src, dst, tag, frame.seq, 0)) {
            duplicate = true;
            dup_extra = rule.delay;
            event.delay_ns = rule.delay.count();
            local_events.push_back(event);
          }
          break;
        case FaultKind::kReorder:
          if (plan.hit(i, src, dst, tag, frame.seq, 0)) {
            // The message falls behind its successors: extra latency, and
            // with dedup off it is also enqueued behind the current tail.
            frame.deliver_at_ns += rule.delay.count();
            frame.reordered = true;
            event.delay_ns = rule.delay.count();
            local_events.push_back(event);
          }
          break;
        case FaultKind::kStall:
          break;  // handled in maybe_stall()
      }
    }
  }

  WireFrame dup_frame;
  if (duplicate) {
    dup_frame.payload = frame.payload;  // shares the refcounted bytes
    dup_frame.tag = tag;
    dup_frame.deliver_at_ns = frame.deliver_at_ns + dup_extra.count();
    dup_frame.seq = frame.seq;
    dup_frame.flow_id = next_flow_id_.fetch_add(1, std::memory_order_relaxed);
    if (local_dst && obs::ledger().enabled() && !dup_frame.payload.empty() &&
        !dup_frame.payload.tracked()) {
      dup_frame.ledger_bytes =
          static_cast<std::int64_t>(dup_frame.payload.size());
      obs::ledger().on_alloc(obs::MemKind::kCommBuffers,
                             obs::MemoryLedger::bucket_for_rank(dst),
                             dup_frame.ledger_bytes);
    }
  }

  transport_->send(src, dst, std::move(frame));
  if (duplicate) {
    transport_->send(src, dst, std::move(dup_frame));
  }
  for (const FaultEvent& event : local_events) {
    record_fault(event);
  }
  if (obs::health_enabled()) {
    obs::health().on_comm_progress(src);
  }
  return flow_id;
}

std::size_t Fabric::drain_edge(int src, int dst, Inbox& inbox,
                               bool reliable) {
  inbox.scratch.clear();
  const std::size_t drained = transport_->drain(src, dst, inbox.scratch);
  for (WireFrame& f : inbox.scratch) {
    inbox_insert(inbox, src, std::move(f), reliable);
  }
  inbox.scratch.clear();
  return drained;
}

void Fabric::inbox_insert(Inbox& inbox, int src, WireFrame frame,
                          bool reliable) {
  Stream& stream = inbox.streams[MailKey{src, frame.tag}];
  if (reliable) {
    // Keep the stream sorted by seq (in-order reassembly). The common
    // in-order case is a plain push_back.
    auto pos = stream.q.end();
    while (pos != stream.q.begin() && std::prev(pos)->seq > frame.seq) {
      --pos;
    }
    stream.q.insert(pos, std::move(frame));
  } else {
    // Mutation mode: raw arrival order, duplicates and all. A reordered
    // message lands behind its immediate predecessor.
    const bool reordered = frame.reordered;
    stream.q.push_back(std::move(frame));
    if (reordered && stream.q.size() >= 2) {
      std::swap(stream.q[stream.q.size() - 1],
                stream.q[stream.q.size() - 2]);
    }
  }
}

Fabric::Taken Fabric::take(int dst, int src, std::int64_t tag) {
  WEIPIPE_CHECK_MSG(src >= 0 && src < world_size(),
                    "recv from invalid rank " << src);
  WEIPIPE_CHECK_MSG(transport_->is_local(dst),
                    "recv on non-local rank " << dst);
  maybe_stall(dst);
  // Health plane: publish who this rank is about to block on. The watchdog
  // turns a long-lived publication into a STALLED verdict attributed to
  // `src`; the destructor clears it and counts a progress heartbeat (on
  // both the delivery and the CommError unwind paths).
  obs::HealthWaitScope wait_scope(dst, src, tag);
  // The wait span covers blocked-on-arrival time: from entering take() to
  // the matching message being ready (modeled delivery time included).
  const bool traced = obs::enabled();
  const std::int64_t wait_start_ns = traced ? obs::now_ns() : 0;
  Edge& e = edge(src, dst);
  Inbox& inbox = *inboxes_[static_cast<std::size_t>(dst)];
  const auto deadline = std::chrono::steady_clock::now() +
                        recv_timeout_.load(std::memory_order_relaxed);
  FaultRuntime* fr = faults_.get();
  const bool reliable = fr == nullptr || fr->plan.dedup;
  const MailKey key{src, tag};
  std::uint64_t discarded = 0;
  Taken taken;

  // Flush the spin tally even on the CommError unwind paths.
  struct SpinTally {
    Edge& e;
    std::uint64_t n = 0;
    ~SpinTally() {
      if (n > 0) {
        e.spins.fetch_add(n, std::memory_order_relaxed);
      }
    }
  } spin{e, 0};

  // On a single-CPU host spinning is pure waste: the producer cannot run
  // until this thread yields, so burning the timeslice in a pause loop only
  // delays the very send being waited on. Park immediately instead. The
  // budget itself comes from the backend — high for the in-memory mailbox,
  // low where a drain probe costs a syscall.
  static const bool kMultiCpu = std::thread::hardware_concurrency() > 1;
  const int spin_budget = kMultiCpu ? transport_->spin_hint() : 0;
  int spins_left = spin_budget;
  // Critical-path tap: the anatomy analyzer needs the blocked interval even
  // when the wait ends in an exception — record the kRecvWait span (no flow,
  // labeled with how the wait died) right before each CommError throw.
  const auto record_failed_wait = [&](const char* label) {
    if (!traced) {
      return;
    }
    obs::Span span;
    span.kind = obs::SpanKind::kRecvWait;
    span.start_ns = wait_start_ns;
    span.end_ns = obs::now_ns();
    span.rank = dst;
    span.peer = src;
    span.tag = tag;
    span.label = label;
    obs::record(span);
  };
  for (;;) {
    if (aborted_.load(std::memory_order_acquire)) {
      CommErrorInfo info;
      info.kind = CommErrorKind::kAborted;
      info.rank = dst;
      info.peer = src;
      info.tag = tag;
      record_failed_wait("recv-wait-aborted");
      throw CommError(info);
    }
    if (drain_edge(src, dst, inbox, reliable) > 0) {
      spins_left = spin_budget;  // progress: re-arm the spin budget
    }
    auto it = inbox.streams.find(key);
    Stream* stream = it != inbox.streams.end() ? &it->second : nullptr;
    if (stream != nullptr && reliable) {
      // Duplicate discard: anything below the reassembly cursor was
      // already consumed via another copy.
      while (!stream->q.empty() &&
             stream->q.front().seq < stream->next_take_seq) {
        credit_frame(stream->q.front(), dst);
        stream->q.pop_front();
        ++discarded;
      }
    }
    if (stream != nullptr && !stream->q.empty() &&
        (!reliable || stream->q.front().seq == stream->next_take_seq)) {
      // Honor the modeled delivery time: the message "is still in flight".
      const std::int64_t deliver_at_ns = stream->q.front().deliver_at_ns;
      if (deliver_at_ns <= steady_now_ns()) {
        WireFrame frame = std::move(stream->q.front());
        stream->q.pop_front();
        if (reliable) {
          stream->next_take_seq = frame.seq + 1;
        }
        credit_frame(frame, dst);
        taken.payload = std::move(frame.payload);
        taken.flow_id = frame.flow_id;
        break;
      }
      transport_->park(dst, src, ns_to_time_point(deliver_at_ns));
      continue;
    }
    // Nothing matching yet: spin briefly (the paired send is usually one
    // compute slice away), then park until the recv deadline.
    if (spins_left > 0) {
      --spins_left;
      ++spin.n;
      cpu_relax();
      continue;
    }
    if (std::chrono::steady_clock::now() >= deadline) {
      CommErrorInfo info;
      info.kind = CommErrorKind::kRecvTimeout;
      info.rank = dst;
      info.peer = src;
      info.tag = tag;
      info.expected_seq = stream != nullptr ? stream->next_take_seq : 0;
      // Exact pending count: pull everything undelivered to this rank into
      // the inbox first (this thread is the consumer of every such edge).
      for (int other = 0; other < world_size(); ++other) {
        if (other != dst) {
          drain_edge(other, dst, inbox, reliable);
        }
      }
      for (const auto& [k, s] : inbox.streams) {
        info.pending_messages += s.q.size();
      }
      record_failed_wait("recv-wait-timeout");
      throw CommError(info);
    }
    transport_->park(dst, src, deadline);
    spins_left = spin_budget;
  }

  if (discarded > 0 && fr != nullptr) {
    std::lock_guard<std::mutex> flk(fr->mu);
    fr->stats.duplicates_discarded += discarded;
  }
  decrement_clamped(e.pair.in_flight);
  {
    std::lock_guard<std::mutex> lk(e.tag_mu);
    auto tag_it = e.tags.find(tag);
    if (tag_it != e.tags.end() && tag_it->second.in_flight > 0) {
      --tag_it->second.in_flight;
    }
  }
  if (traced) {
    obs::Span span;
    span.kind = obs::SpanKind::kRecvWait;
    span.start_ns = wait_start_ns;
    span.end_ns = obs::now_ns();
    span.rank = dst;
    span.peer = src;
    span.tag = tag;
    span.bytes = static_cast<std::int64_t>(taken.payload.size());
    span.flow_id = taken.flow_id;
    obs::record(span);
  }
  return taken;
}

void run_workers(Fabric& fabric,
                 const std::function<void(int rank, Endpoint& ep)>& fn) {
  const int p = fabric.world_size();
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(p));
  std::mutex err_mu;
  std::exception_ptr first_error;
  for (int r = 0; r < p; ++r) {
    if (!fabric.is_local(r)) {
      continue;  // hosted by another rank process
    }
    threads.emplace_back([&, r] {
      try {
        // Tag the thread with its rank so every span recorded inside the
        // worker body (compute, comm, collectives) lands on rank r's track.
        obs::RankScope rank_scope(r);
        // Health heartbeat covering the whole worker body; complete() marks
        // the clean exit so only finished bodies feed the straggler window.
        obs::HealthWorkerScope health_scope(r);
        fn(r, fabric.endpoint(r));
        // A body whose last fabric op was a send may leave bytes buffered in
        // the transport (tcp pending queues); push them out while this
        // thread still owns the rank.
        fabric.flush(r);
        health_scope.complete();
      } catch (...) {
        std::lock_guard<std::mutex> lk(err_mu);
        if (!first_error) {
          first_error = std::current_exception();
        }
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  if (first_error) {
    std::rethrow_exception(first_error);
  }
}

}  // namespace weipipe::comm
