// google-benchmark microbenchmarks for the message-passing fabric and the
// wire packers — the substrate costs behind every trainer. With
// --kernels_json=PATH the binary instead emits a machine-readable sweep of
// payload size x wire format (pack/unpack GB/s, SIMD vs scalar) x transport
// path (byte-copy vs zero-copy Buffer ping-pong), plus the lock-free ring
// counters the traffic generated — see kernels_json.hpp.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <thread>
#include <vector>

#include "comm/fabric.hpp"
#include "comm/wire.hpp"
#include "kernels_json.hpp"

namespace weipipe::comm {
namespace {

void BM_PackFp16(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<float> values(n, 1.5f);
  for (auto _ : state) {
    auto bytes = pack_floats(values, WirePrecision::Fp16);
    benchmark::DoNotOptimize(bytes.data());
  }
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(n) *
                          4);
}
BENCHMARK(BM_PackFp16)->Arg(1 << 10)->Arg(1 << 16);

void BM_PingPong(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Fabric fabric(2);
  std::vector<float> payload(n, 1.0f);
  std::vector<float> sink(n);
  for (auto _ : state) {
    std::thread peer([&] {
      Endpoint& ep = fabric.endpoint(1);
      std::vector<float> buf(n);
      ep.recv_floats(0, 1, buf, WirePrecision::Fp32);
      ep.send_floats(0, 2, buf, WirePrecision::Fp32);
    });
    Endpoint& ep = fabric.endpoint(0);
    ep.send_floats(1, 1, payload, WirePrecision::Fp32);
    ep.recv_floats(1, 2, sink, WirePrecision::Fp32);
    peer.join();
  }
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(n) *
                          8);
}
BENCHMARK(BM_PingPong)->Arg(1 << 10)->Arg(1 << 16);

// ---- --kernels_json mode ----------------------------------------------------

// Deterministic mixed-magnitude input: exercises the full converter (normals,
// small values, sign flips) without the cost of a real RNG in the hot loop.
std::vector<float> wire_input(std::size_t n) {
  std::vector<float> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    const float base = static_cast<float>((i % 251)) - 125.0f;
    v[i] = base * (1.0f + static_cast<float>(i % 17) * 0.03125f);
  }
  return v;
}

struct WireRow {
  const char* name;  // pack_fp16 | unpack_bf16 | pack_int8 | ...
  const char* impl;  // simd | scalar
  std::size_t n;     // fp32 elements
  double gbps;       // fp32-side bytes per second (n * 4 / t)
};

// Throughput of one packed<->fp32 conversion pass, measured against the
// fp32-side byte count (the tensor being shipped), not the wire bytes.
template <typename F>
double wire_gbps(std::size_t n, int reps, F&& fn) {
  fn();  // warm
  const double secs = bench::best_seconds(reps, fn);
  return static_cast<double>(n) * 4.0 / secs / 1e9;
}

void append_wire_rows(std::vector<WireRow>& rows, std::size_t n, int reps) {
  const std::vector<float> src = wire_input(n);
  std::vector<std::uint16_t> half(n);
  std::vector<float> out(n);
  const bool simd = wire_detail::simd_available();

  if (simd) {
    rows.push_back({"pack_fp16", "simd", n, wire_gbps(n, reps, [&] {
                      wire_detail::pack_f16_simd(src.data(), n, half.data());
                    })});
    rows.push_back({"unpack_fp16", "simd", n, wire_gbps(n, reps, [&] {
                      wire_detail::unpack_f16_simd(half.data(), n,
                                                   out.data());
                    })});
    rows.push_back({"pack_bf16", "simd", n, wire_gbps(n, reps, [&] {
                      wire_detail::pack_bf16_simd(src.data(), n, half.data());
                    })});
    rows.push_back({"unpack_bf16", "simd", n, wire_gbps(n, reps, [&] {
                      wire_detail::unpack_bf16_simd(half.data(), n,
                                                    out.data());
                    })});
  }
  rows.push_back({"pack_fp16", "scalar", n, wire_gbps(n, reps, [&] {
                    wire_detail::pack_f16_scalar(src.data(), n, half.data());
                  })});
  rows.push_back({"unpack_fp16", "scalar", n, wire_gbps(n, reps, [&] {
                    wire_detail::unpack_f16_scalar(half.data(), n,
                                                   out.data());
                  })});
  rows.push_back({"pack_bf16", "scalar", n, wire_gbps(n, reps, [&] {
                    wire_detail::pack_bf16_scalar(src.data(), n, half.data());
                  })});
  rows.push_back({"unpack_bf16", "scalar", n, wire_gbps(n, reps, [&] {
                    wire_detail::unpack_bf16_scalar(half.data(), n,
                                                    out.data());
                  })});

  std::vector<std::uint8_t> q(packed_size(n, WirePrecision::Int8));
  rows.push_back({"pack_int8", "scalar", n, wire_gbps(n, reps, [&] {
                    wire_detail::pack_int8(src.data(), n, q.data());
                  })});
  rows.push_back({"unpack_int8", "scalar", n, wire_gbps(n, reps, [&] {
                    wire_detail::unpack_int8(q.data(), n, out.data());
                  })});
}

struct TransportRow {
  const char* path;   // copy | zerocopy
  std::size_t bytes;  // payload bytes per message
  double ns_per_hop;
  double gbps;
};

// One fabric per row so the ring counters attached to the JSON reflect the
// whole sweep. `hops` round trips per timed rep amortize thread start-up.
TransportRow ping_pong_row(Fabric& fabric, const char* path, std::size_t bytes,
                           bool zerocopy, int reps, int hops) {
  const std::vector<std::uint8_t> payload(bytes, 0x5A);
  auto run = [&] {
    std::thread peer([&] {
      Endpoint& ep = fabric.endpoint(1);
      for (int h = 0; h < hops; ++h) {
        if (zerocopy) {
          Buffer b = ep.recv_buffer(0, 1);
          ep.send(0, 2, std::move(b));  // relay the same storage back
        } else {
          std::vector<std::uint8_t> b = ep.recv(0, 1);
          ep.send(0, 2, b);  // fresh copy each direction
        }
      }
    });
    Endpoint& ep = fabric.endpoint(0);
    for (int h = 0; h < hops; ++h) {
      if (zerocopy) {
        Buffer b = Buffer::allocate(bytes);
        std::memcpy(b.mutable_data(), payload.data(), bytes);
        ep.send(1, 1, std::move(b));
        (void)ep.recv_buffer(1, 2);
      } else {
        ep.send(1, 1, payload);
        (void)ep.recv(1, 2);
      }
    }
    peer.join();
  };
  run();  // warm
  const double secs = bench::best_seconds(reps, run);
  const double per_hop = secs / (2.0 * hops);
  return {path, bytes, per_hop * 1e9,
          static_cast<double>(bytes) / per_hop / 1e9};
}

int write_kernels_json(const std::string& path, bool smoke) {
  const int reps = smoke ? 3 : 9;
  const std::vector<std::size_t> wire_sizes =
      smoke ? std::vector<std::size_t>{1u << 12}
            : std::vector<std::size_t>{1u << 10, 1u << 14, 1u << 18};
  std::vector<WireRow> wire_rows;
  for (std::size_t n : wire_sizes) {
    append_wire_rows(wire_rows, n, reps);
  }

  Fabric fabric(2);
  const int hops = smoke ? 64 : 256;
  const std::vector<std::size_t> payload_sizes =
      smoke ? std::vector<std::size_t>{1u << 12}
            : std::vector<std::size_t>{1u << 12, 1u << 16, 1u << 20};
  std::vector<TransportRow> transport_rows;
  for (std::size_t bytes : payload_sizes) {
    transport_rows.push_back(
        ping_pong_row(fabric, "copy", bytes, false, reps, hops));
    transport_rows.push_back(
        ping_pong_row(fabric, "zerocopy", bytes, true, reps, hops));
  }
  const RingStats ring = fabric.ring_stats();

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"bench_micro_comm\",\n");
  std::fprintf(f, "  \"simd\": \"%s\",\n  \"wire_simd\": %s,\n",
               bench::simd_label(),
               wire_detail::simd_available() ? "true" : "false");
  std::fprintf(f, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(f, "  \"kernels\": [\n");
  for (std::size_t i = 0; i < wire_rows.size(); ++i) {
    const WireRow& r = wire_rows[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"impl\": \"%s\", \"n\": %zu, "
                 "\"gbps\": %.3f}%s\n",
                 r.name, r.impl, r.n, r.gbps,
                 i + 1 < wire_rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"transport\": [\n");
  for (std::size_t i = 0; i < transport_rows.size(); ++i) {
    const TransportRow& r = transport_rows[i];
    std::fprintf(f,
                 "    {\"path\": \"%s\", \"bytes\": %zu, "
                 "\"ns_per_hop\": %.1f, \"gbps\": %.3f}%s\n",
                 r.path, r.bytes, r.ns_per_hop, r.gbps,
                 i + 1 < transport_rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f,
               "  \"ring\": {\"spins\": %llu, \"parks\": %llu, "
               "\"notifies\": %llu, \"overflow\": %llu}\n}\n",
               static_cast<unsigned long long>(ring.spins),
               static_cast<unsigned long long>(ring.parks),
               static_cast<unsigned long long>(ring.notifies),
               static_cast<unsigned long long>(ring.overflow));
  std::fclose(f);
  std::printf("wrote %s (%zu wire rows, %zu transport rows)\n", path.c_str(),
              wire_rows.size(), transport_rows.size());
  return 0;
}

}  // namespace
}  // namespace weipipe::comm

int main(int argc, char** argv) {
  weipipe::bench::KernelsJsonArgs args =
      weipipe::bench::parse_kernels_json_args(argc, argv);
  if (!args.json_path.empty()) {
    return weipipe::comm::write_kernels_json(args.json_path, args.smoke);
  }
  int rest_argc = static_cast<int>(args.rest.size());
  benchmark::Initialize(&rest_argc, args.rest.data());
  if (benchmark::ReportUnrecognizedArguments(rest_argc, args.rest.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
