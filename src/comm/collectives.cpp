#include "comm/collectives.hpp"

#include <cstring>
#include <vector>

#include "common/check.hpp"
#include "obs/recorder.hpp"

namespace weipipe::comm {

namespace {
int ring_next(int rank, int world) { return (rank + 1) % world; }
int ring_prev(int rank, int world) { return (rank + world - 1) % world; }
int mod(int a, int m) { return ((a % m) + m) % m; }
}  // namespace

// One end-to-end span per collective call; the nested per-hop send/recv
// spans record independently and nest underneath it in the trace. A macro
// because SpanScope is a non-movable RAII type that must live in the
// caller's frame; expects `ep` and `tag_base` in scope.
#define WEIPIPE_COLLECTIVE_SPAN(kind, label_literal)  \
  obs::SpanScope collective_span_(kind);              \
  if (collective_span_.armed()) {                     \
    collective_span_.set_rank(ep.rank());             \
    collective_span_.set_tag(tag_base);               \
    collective_span_.set_label(label_literal);        \
  }

void ring_broadcast(Endpoint& ep, int root, std::span<float> buffer,
                    WirePrecision precision, std::int64_t tag_base) {
  WEIPIPE_COLLECTIVE_SPAN(obs::SpanKind::kCollective, "broadcast");
  const int p = ep.world_size();
  if (p == 1) {
    return;
  }
  const int r = ep.rank();
  // Chain: root -> root+1 -> ... -> root-1. The payload is identical at
  // every hop, so non-root ranks relay the *received* wire buffer instead
  // of re-packing: the root's single pack serves the whole chain and every
  // forward is a zero-copy handle move.
  const int pos = mod(r - root, p);  // distance from root along the chain
  Buffer wire;
  if (pos > 0) {
    wire = ep.recv_buffer(ring_prev(r, p), tag_base);
    unpack_floats(wire.span(), precision, buffer);
  } else {
    wire = pack_floats_to_buffer(
        std::span<const float>(buffer.data(), buffer.size()), precision);
  }
  if (pos < p - 1) {
    ep.send(ring_next(r, p), tag_base, std::move(wire));
  }
}

double ring_all_reduce_scalar(Endpoint& ep, double value,
                              std::int64_t tag_base) {
  WEIPIPE_COLLECTIVE_SPAN(obs::SpanKind::kCollective, "all_reduce_scalar");
  const int p = ep.world_size();
  if (p == 1) {
    return value;
  }
  const int r = ep.rank();
  auto pack = [](double v) {
    std::vector<std::uint8_t> bytes(sizeof(double));
    std::memcpy(bytes.data(), &v, sizeof(double));
    return bytes;
  };
  auto unpack = [](const std::vector<std::uint8_t>& bytes) {
    double v;
    WEIPIPE_CHECK(bytes.size() == sizeof(double));
    std::memcpy(&v, bytes.data(), sizeof(double));
    return v;
  };
  // Phase 1: chain-accumulate toward the highest rank, in rank order
  // (0 + 1 + ... + P-1): deterministic association on every run.
  double acc = value;
  if (r > 0) {
    acc = unpack(ep.recv(r - 1, tag_base)) + value;
  }
  if (r < p - 1) {
    ep.send(r + 1, tag_base, pack(acc));
  }
  // Phase 2: chain-broadcast the total back down.
  double total = acc;
  if (r < p - 1) {
    total = unpack(ep.recv(r + 1, tag_base + 1));
  }
  if (r > 0) {
    ep.send(r - 1, tag_base + 1, pack(total));
  }
  return total;
}

void ring_reduce_to_root(Endpoint& ep, int root,
                         std::span<const float> contribution,
                         std::span<float> out, WirePrecision precision,
                         std::int64_t tag_base) {
  WEIPIPE_COLLECTIVE_SPAN(obs::SpanKind::kCollective, "reduce_to_root");
  const int p = ep.world_size();
  const int r = ep.rank();
  if (p == 1) {
    if (out.data() != contribution.data()) {
      std::memcpy(out.data(), contribution.data(),
                  contribution.size() * sizeof(float));
    }
    return;
  }
  const int pos = mod(r - root, p);  // chain position; root is pos 0
  if (pos == 1) {
    // Chain head: just ship the local contribution.
    ep.send_floats(ring_next(r, p), tag_base, contribution, precision);
    return;
  }
  // Everyone else receives the running sum, adds, and forwards (or keeps).
  std::vector<float> acc(contribution.size());
  ep.recv_floats(ring_prev(r, p), tag_base,
                 std::span<float>(acc.data(), acc.size()), precision);
  for (std::size_t i = 0; i < acc.size(); ++i) {
    acc[i] += contribution[i];
  }
  if (pos == 0) {
    std::memcpy(out.data(), acc.data(), acc.size() * sizeof(float));
  } else {
    ep.send_floats(ring_next(r, p), tag_base,
                   std::span<const float>(acc.data(), acc.size()), precision);
  }
}

#undef WEIPIPE_COLLECTIVE_SPAN

}  // namespace weipipe::comm
