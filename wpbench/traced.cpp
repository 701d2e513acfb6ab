// Traced pass: the per-layer metrics.
//
// Two sources, both at the workload's own shapes (rows = G*S, H, F, heads,
// weight chunk):
//  * the spans the program already records, via prof::run_profile once per
//    strategy (recorder and ledger on): compute split, wire waits, schedule
//    idle and critical-path shares, pool counters, simulator error, ledger
//    peaks;
//  * timed calls into each layer's public functions (GEMM orientations,
//    layer math, blocks, Adam, loss, wire packers, one fabric hop per
//    backend), each next to an in-run ceiling: the 256^3 GEMM for GF/s rows
//    and memcpy of one weight chunk for GB/s rows.
// Byte counts for GB/s rows are the bytes the call reads plus the bytes it
// writes.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <functional>
#include <map>

#include "baselines/factory.hpp"
#include "bench.hpp"
#include "comm/buffer.hpp"
#include "comm/fabric.hpp"
#include "comm/wire.hpp"
#include "common/rng.hpp"
#include "nn/adam.hpp"
#include "nn/block.hpp"
#include "nn/layer_math.hpp"
#include "nn/loss.hpp"
#include "nn/model.hpp"
#include "obs/critpath.hpp"
#include "obs/span.hpp"
#include "prof/profile.hpp"
#include "stats.hpp"
#include "tensor/ops.hpp"

namespace wpbench {

namespace {

using Clock = std::chrono::steady_clock;
using weipipe::Tensor;

constexpr std::int64_t kProfileIters = 4;
constexpr int kHopReps = 40;
constexpr int kHopWarmup = 4;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Median wall time of one call of `fn`, repeated for at least `slice`
// seconds and at least 5 times after one untimed call.
double median_call_s(const std::function<void()>& fn, double slice) {
  fn();
  std::vector<double> samples;
  const Clock::time_point start = Clock::now();
  while (samples.size() < 5 ||
         (seconds_since(start) < slice && samples.size() < 100000)) {
    const Clock::time_point t0 = Clock::now();
    fn();
    samples.push_back(seconds_since(t0));
  }
  return quartiles(samples).median;
}

Tensor random(std::vector<std::int64_t> shape, weipipe::Rng& rng,
              float stddev = 1.0f) {
  return Tensor::randn(std::move(shape), rng, 0.0f, stddev);
}

// A GF/s or GB/s row and the in-run ceiling it is read against.
struct Row {
  std::string name;
  double value = 0.0;
  std::string ceiling;
};

class Rows {
 public:
  explicit Rows(Report& report) : report_(report) {}

  void add(const std::string& name, double value, const std::string& unit,
           const std::string& ceiling = "") {
    report_.metric(name, value, unit);
    if (!ceiling.empty()) {
      rows_.push_back({name, value, ceiling});
    }
    values_[name] = value;
  }

  // {"name": {"value", "ceiling", "share"}} for every row with a ceiling.
  std::string json() const {
    std::string out = "\"ceilings\": {";
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      const double ceil = values_.at(rows_[i].ceiling);
      out += (i ? ", " : "") + json_string(rows_[i].name) +
             ": {\"value\": " + json_number(rows_[i].value) +
             ", \"ceiling\": " + json_string(rows_[i].ceiling) +
             ", \"ceiling_value\": " + json_number(ceil) +
             ", \"share\": " + json_number(rows_[i].value / ceil) + "}";
    }
    return out + "}";
  }

 private:
  Report& report_;
  std::vector<Row> rows_;
  std::map<std::string, double> values_;
};

struct Shapes {
  std::int64_t g, s, rows, h, f, nh, dh, vocab, layer_params, chunk_params;
};

Shapes shapes_of(const weipipe::TrainConfig& cfg) {
  const weipipe::ModelConfig& m = cfg.model;
  Shapes sh{};
  sh.g = cfg.microbatch_size;
  sh.s = cfg.seq_len;
  sh.rows = sh.g * sh.s;
  sh.h = m.dim;
  sh.f = m.effective_ffn_hidden();
  sh.nh = m.n_heads;
  sh.dh = m.head_dim();
  sh.vocab = m.vocab_size;
  sh.layer_params = weipipe::TransformerLayerBlock(m).param_count();
  const weipipe::Model model(m);
  for (const weipipe::ChunkSpec& c : model.make_chunks(kWorkers)) {
    sh.chunk_params = std::max(sh.chunk_params, c.param_count);
  }
  return sh;
}

// ---- tensor -----------------------------------------------------------------

void tensor_layer(const Shapes& sh, weipipe::Rng& rng, double slice,
                  Rows& rows) {
  namespace k = weipipe::kernels;
  const auto gflops = [](std::int64_t m, std::int64_t kk, std::int64_t n,
                         double s) {
    return 2.0 * static_cast<double>(m * kk * n) / s / 1e9;
  };
  // Peak: a square 256^3 product, large enough to reach the blocked
  // engine's steady state, small enough to stay in L2.
  {
    const std::int64_t n = 256;
    Tensor a = random({n, n}, rng), b = random({n, n}, rng), c({n, n});
    rows.add("tensor.gemm_peak.gflops",
             gflops(n, n, n, median_call_s([&] {
                      k::matmul(a.data(), b.data(), c.data(), n, n, n, false);
                    }, slice)),
             "GF/s");
  }
  // The FFN's first projection in each orientation the layer uses:
  // forward y = x W1^T, input grad dx = da W1, weight grad dW1 = da^T x.
  Tensor x = random({sh.rows, sh.h}, rng), w1 = random({sh.f, sh.h}, rng);
  Tensor da = random({sh.rows, sh.f}, rng);
  Tensor y({sh.rows, sh.f}), dx({sh.rows, sh.h}), dw({sh.f, sh.h});
  rows.add("tensor.matmul_bt.gflops",
           gflops(sh.rows, sh.h, sh.f, median_call_s([&] {
                    k::matmul_bt(x.data(), w1.data(), y.data(), sh.rows, sh.h,
                                 sh.f, false);
                  }, slice)),
           "GF/s", "tensor.gemm_peak.gflops");
  rows.add("tensor.matmul.gflops",
           gflops(sh.rows, sh.f, sh.h, median_call_s([&] {
                    k::matmul(da.data(), w1.data(), dx.data(), sh.rows, sh.f,
                              sh.h, false);
                  }, slice)),
           "GF/s", "tensor.gemm_peak.gflops");
  rows.add("tensor.matmul_at.gflops",
           gflops(sh.f, sh.rows, sh.h, median_call_s([&] {
                    k::matmul_at(da.data(), x.data(), dw.data(), sh.f, sh.rows,
                                 sh.h, false);
                  }, slice)),
           "GF/s", "tensor.gemm_peak.gflops");
}

// ---- nn ---------------------------------------------------------------------

void nn_layer(const weipipe::TrainConfig& cfg, const Shapes& sh,
              std::uint64_t seed, weipipe::Rng& rng, double slice,
              Rows& rows) {
  constexpr double kF = sizeof(float);
  const double rh = static_cast<double>(sh.rows * sh.h);
  const double rf = static_cast<double>(sh.rows * sh.f);
  const double fh = static_cast<double>(sh.f * sh.h);
  const auto gbps = [](double bytes, double s) { return bytes / s / 1e9; };

  // Bandwidth ceiling: memcpy of one fp32 weight chunk, the unit Adam and
  // the wire stream.
  {
    const std::size_t bytes =
        static_cast<std::size_t>(sh.chunk_params) * sizeof(float);
    std::vector<std::uint8_t> src(bytes, 1), dst(bytes);
    rows.add("mem.memcpy.GBps",
             gbps(2.0 * static_cast<double>(bytes), median_call_s([&] {
                    std::memcpy(dst.data(), src.data(), bytes);
                  }, slice)),
             "GB/s");
  }

  {
    Tensor q = random({sh.rows, sh.h}, rng), kk = random({sh.rows, sh.h}, rng);
    Tensor v = random({sh.rows, sh.h}, rng);
    Tensor dout = random({sh.rows, sh.h}, rng);
    Tensor out({sh.rows, sh.h}), lse({sh.g * sh.nh * sh.s});
    Tensor dq({sh.rows, sh.h}), dk({sh.rows, sh.h}), dv({sh.rows, sh.h});
    const double fwd = median_call_s([&] {
      weipipe::attention_forward_stream(q.data(), kk.data(), v.data(),
                                        out.data(), lse.data(), sh.g, sh.s,
                                        sh.nh, sh.dh);
    }, slice);
    const double bwd = median_call_s([&] {
      weipipe::attention_backward_stream(q.data(), kk.data(), v.data(),
                                         out.data(), lse.data(), dout.data(),
                                         dq.data(), dk.data(), dv.data(), sh.g,
                                         sh.s, sh.nh, sh.dh);
    }, slice);
    rows.add("nn.attn_fwd.ms", fwd * 1e3, "ms");
    rows.add("nn.attn_bwd.ms", bwd * 1e3, "ms");
    rows.add("nn.attn_bwd_over_fwd", bwd / fwd, "ratio");
  }

  {
    Tensor x = random({sh.rows, sh.h}, rng), gain = random({sh.h}, rng);
    Tensor y({sh.rows, sh.h}), inv({sh.rows});
    Tensor dy = random({sh.rows, sh.h}, rng);
    Tensor dx({sh.rows, sh.h}), dgain({sh.h});
    const double h = static_cast<double>(sh.h);
    const double r = static_cast<double>(sh.rows);
    rows.add("nn.rmsnorm_fwd.GBps",
             gbps(kF * (2 * rh + h + r), median_call_s([&] {
                    weipipe::rmsnorm_forward(x.data(), gain.data(), y.data(),
                                             inv.data(), sh.rows, sh.h,
                                             cfg.model.norm_eps);
                  }, slice)),
             "GB/s", "mem.memcpy.GBps");
    rows.add("nn.rmsnorm_bwd.GBps",
             gbps(kF * (3 * rh + 3 * h + r), median_call_s([&] {
                    weipipe::rmsnorm_backward(x.data(), gain.data(), inv.data(),
                                              dy.data(), dx.data(),
                                              dgain.data(), sh.rows, sh.h);
                  }, slice)),
             "GB/s", "mem.memcpy.GBps");
  }

  {
    Tensor x = random({sh.rows, sh.h}, rng);
    Tensor w1 = random({sh.f, sh.h}, rng, 0.02f);
    Tensor w3 = random({sh.f, sh.h}, rng, 0.02f);
    Tensor w2 = random({sh.h, sh.f}, rng, 0.02f);
    Tensor dy = random({sh.rows, sh.h}, rng);
    Tensor a({sh.rows, sh.f}), b({sh.rows, sh.f}), y({sh.rows, sh.h});
    Tensor dx({sh.rows, sh.h}), dw1({sh.f, sh.h}), dw3({sh.f, sh.h}),
        dw2({sh.h, sh.f});
    rows.add("nn.swiglu_fwd.GBps",
             gbps(kF * (2 * rh + 3 * fh + 2 * rf), median_call_s([&] {
                    weipipe::swiglu_forward(x.data(), w1.data(), w3.data(),
                                            w2.data(), a.data(), b.data(),
                                            y.data(), sh.rows, sh.h, sh.f);
                  }, slice)),
             "GB/s", "mem.memcpy.GBps");
    rows.add("nn.swiglu_bwd.GBps",
             gbps(kF * (3 * rh + 9 * fh + 2 * rf), median_call_s([&] {
                    weipipe::swiglu_backward(x.data(), w1.data(), w3.data(),
                                             w2.data(), a.data(), b.data(),
                                             dy.data(), dx.data(), dw1.data(),
                                             dw3.data(), dw2.data(), sh.rows,
                                             sh.h, sh.f);
                  }, slice)),
             "GB/s", "mem.memcpy.GBps");
  }

  const weipipe::CopyDataset data(sh.vocab, seed);
  const weipipe::Microbatch mb = data.make(0, sh.g, sh.s);
  {
    Tensor logits = random({sh.rows, sh.vocab}, rng);
    rows.add("nn.cross_entropy.ms", 1e3 * median_call_s([&] {
               (void)weipipe::cross_entropy_loss(logits, mb);
             }, slice),
             "ms");
  }

  {
    const std::size_t n = static_cast<std::size_t>(sh.chunk_params);
    std::vector<float> w(n, 0.5f), g(n, 1e-3f);
    weipipe::AdamShard adam(sh.chunk_params);
    rows.add("nn.adam.GBps",
             gbps(kF * 7.0 * static_cast<double>(n), median_call_s([&] {
                    adam.step(w, g, cfg.adam);
                  }, slice)),
             "GB/s", "mem.memcpy.GBps");
  }

  {
    const weipipe::TransformerLayerBlock block(cfg.model);
    std::vector<float> w(static_cast<std::size_t>(sh.layer_params));
    std::vector<float> dw(w.size());
    weipipe::Rng init = rng.fork(1);
    block.init_params(w, init);
    Tensor x = random({sh.rows, sh.h}, rng), dy = random({sh.rows, sh.h}, rng);
    weipipe::BlockCtx ctx;
    rows.add("nn.layer_fwd.ms", 1e3 * median_call_s([&] {
               ctx = weipipe::BlockCtx{};
               (void)block.forward(w, mb, x, ctx, true);
             }, slice),
             "ms");
    rows.add("nn.layer_bwd.ms", 1e3 * median_call_s([&] {
               (void)block.backward(w, mb, ctx, dy, dw);
             }, slice),
             "ms");
  }
}

// ---- comm -------------------------------------------------------------------

// Median one-way time of a weight chunk crossing a 2-rank fabric on `kind`,
// from round trips: rank 0 sends, rank 1 echoes the buffer back.
double hop_seconds(weipipe::comm::TransportKind kind, std::size_t bytes) {
  weipipe::comm::TransportSpec spec;
  spec.kind = kind;
  weipipe::comm::Fabric fabric(2, nullptr, spec);
  weipipe::comm::Buffer payload = weipipe::comm::Buffer::allocate(bytes);
  std::memset(payload.mutable_data(), 7, bytes);
  std::vector<double> rtt;
  weipipe::comm::run_workers(fabric, [&](int rank,
                                         weipipe::comm::Endpoint& ep) {
    for (int i = 0; i < kHopWarmup + kHopReps; ++i) {
      if (rank == 0) {
        const Clock::time_point t0 = Clock::now();
        ep.send(1, 1, payload);
        const weipipe::comm::Buffer back = ep.recv_buffer(1, 2);
        if (i >= kHopWarmup) {
          rtt.push_back(seconds_since(t0));
        }
        WEIPIPE_CHECK_MSG(
            back.size() == bytes &&
                std::memcmp(back.data(), payload.data(), bytes) == 0,
            "hop over " << fabric.transport_name() << " corrupted the payload");
      } else {
        ep.send(0, 2, ep.recv_buffer(0, 1));
      }
    }
  });
  return quartiles(rtt).median / 2.0;
}

void comm_layer(const weipipe::TrainConfig& cfg, const Shapes& sh,
                weipipe::Rng& rng, double slice, Rows& rows) {
  using weipipe::WirePrecision;
  const std::size_t n = static_cast<std::size_t>(sh.chunk_params);
  const Tensor values = random({sh.chunk_params}, rng);
  std::vector<std::uint8_t> packed(
      weipipe::comm::packed_size(n, WirePrecision::Fp16));
  std::vector<float> out(n);
  const double bytes = 6.0 * static_cast<double>(n);  // 4 B in, 2 B out
  for (const auto& [prec, tag] :
       {std::pair{WirePrecision::Fp16, "f16"},
        std::pair{WirePrecision::Bf16, "bf16"}}) {
    const double pack = median_call_s([&] {
      weipipe::comm::pack_floats_into(values.span(), prec, packed.data());
    }, slice);
    const double unpack = median_call_s([&] {
      weipipe::comm::unpack_floats(packed, prec, out);
    }, slice);
    rows.add(std::string("comm.pack_") + tag + ".GBps", bytes / pack / 1e9,
             "GB/s", "mem.memcpy.GBps");
    rows.add(std::string("comm.unpack_") + tag + ".GBps", bytes / unpack / 1e9,
             "GB/s", "mem.memcpy.GBps");
  }

  // One weight chunk as the workload ships it.
  const std::size_t chunk_bytes =
      weipipe::comm::packed_size(n, cfg.precision.weights);
  using weipipe::comm::TransportKind;
  for (const auto& [kind, name] :
       {std::pair{TransportKind::kInproc, "inproc"},
        std::pair{TransportKind::kShm, "shm"},
        std::pair{TransportKind::kTcp, "tcp"}}) {
    const double hop = hop_seconds(kind, chunk_bytes);
    rows.add(std::string("comm.") + name + ".hop_us", hop * 1e6, "us");
    rows.add(std::string("comm.") + name + ".GBps",
             static_cast<double>(chunk_bytes) / hop / 1e9, "GB/s",
             "mem.memcpy.GBps");
  }
}

// ---- profile pass: comm, schedule, pool, obs, sim, memory -------------------

struct SpanSums {
  double fwd = 0, bwd = 0, optim = 0, recv_wait = 0, send = 0,
         recv_transfer = 0;
  std::vector<double> steps;
};

SpanSums sum_spans(const std::vector<weipipe::obs::Span>& spans) {
  using weipipe::obs::SpanKind;
  SpanSums s;
  for (const weipipe::obs::Span& span : spans) {
    const double t = span.seconds();
    switch (span.kind) {
      case SpanKind::kForward: s.fwd += t; break;
      case SpanKind::kBackward:
      case SpanKind::kBackwardActs:
      case SpanKind::kBackwardWeights: s.bwd += t; break;
      case SpanKind::kOptimizer: s.optim += t; break;
      case SpanKind::kRecvWait: s.recv_wait += t; break;
      case SpanKind::kSendTransfer: s.send += t; break;
      case SpanKind::kRecvTransfer: s.recv_transfer += t; break;
      case SpanKind::kStep: s.steps.push_back(t); break;
      default: break;
    }
  }
  return s;
}

double anatomy_share(const weipipe::prof::ProfileReport& r,
                     weipipe::obs::PathCategory c) {
  double sum = 0.0;
  for (const weipipe::obs::StepAnatomy& a : r.anatomy) {
    const double path = a.path_seconds();
    sum += path > 0.0 ? a.seconds(c) / path : 0.0;
  }
  return r.anatomy.empty() ? 0.0 : sum / static_cast<double>(r.anatomy.size());
}

// Median untraced weipipe step, the base of obs.overhead_frac.
double untraced_weipipe_step(const weipipe::TrainConfig& cfg) {
  auto trainer = weipipe::make_trainer("weipipe", cfg, kWorkers);
  const weipipe::SyntheticDataset data(cfg.model.vocab_size, cfg.seed);
  (void)trainer->train_iteration(data, 0);
  std::vector<double> steps;
  for (std::int64_t i = 1; i <= kProfileIters; ++i) {
    const Clock::time_point t0 = Clock::now();
    (void)trainer->train_iteration(data, i);
    steps.push_back(seconds_since(t0));
  }
  return quartiles(steps).median;
}

void profile_layers(const weipipe::TrainConfig& cfg, Report& report,
                    Rows& rows) {
  const double untraced = untraced_weipipe_step(cfg);
  double dropped = 0.0;
  for (const std::string& s : kStrategies) {
    weipipe::prof::ProfileOptions opt;
    opt.strategy = s;
    opt.workers = kWorkers;
    opt.iters = kProfileIters;
    opt.warmup_iters = 1;
    opt.train = cfg;
    const weipipe::prof::ProfileReport r = weipipe::prof::run_profile(opt);
    report.attempted += r.iters;
    for (const auto& k : r.wire_kinds) {
      if (k.predicted_bytes >= 0.0 &&
          (k.measured_bytes != k.predicted_bytes ||
           k.measured_messages != k.predicted_messages)) {
        report.fail(s + " profile: wire kind " + k.kind +
                    " differs from its closed form");
      }
    }
    const SpanSums sums = sum_spans(r.spans);
    const double iters = static_cast<double>(r.iters);
    dropped += static_cast<double>(r.dropped_spans);

    const std::string sched = "sched." + s + ".";
    rows.add(sched + "fwd_s", sums.fwd / iters, "s");
    rows.add(sched + "bwd_s", sums.bwd / iters, "s");
    rows.add(sched + "optim_s", sums.optim / iters, "s");
    rows.add(sched + "idle_frac", std::max(0.0, r.measured_bubble), "frac");
    using weipipe::obs::PathCategory;
    rows.add(sched + "exposed_wire_frac",
             anatomy_share(r, PathCategory::kExposedWire), "frac");
    rows.add(sched + "blocked_recv_frac",
             anatomy_share(r, PathCategory::kBlockedRecv), "frac");
    rows.add("mem." + s + ".peak_footprint_bytes",
             r.measured_peak_footprint_bytes, "bytes");
    if (s != "sequential") {
      const std::string comm = "comm." + s + ".";
      rows.add(comm + "recv_wait_s", sums.recv_wait / iters, "s");
      rows.add(comm + "send_s", sums.send / iters, "s");
      rows.add(comm + "recv_transfer_s", sums.recv_transfer / iters, "s");
      rows.add(comm + "messages", static_cast<double>(r.wire_messages),
               "count");
    }
    if (s == "weipipe") {
      // Ring counters run from fabric construction: warmup plus measured.
      const double fabric_steps = iters + static_cast<double>(opt.warmup_iters);
      rows.add("comm.ring.parks_per_step",
               static_cast<double>(r.ring_stats.parks) / fabric_steps, "count");
      rows.add("comm.ring.spins_per_step",
               static_cast<double>(r.ring_stats.spins) / fabric_steps, "count");
      const auto& p = r.pool_stats;
      rows.add("pool.dispatches_per_step",
               static_cast<double>(p.dispatches) / iters, "count");
      rows.add("pool.serial_frac",
               static_cast<double>(p.serial_runs) /
                   static_cast<double>(std::max<std::uint64_t>(
                       1, p.dispatches + p.serial_runs)),
               "frac");
      rows.add("pool.steal_frac",
               static_cast<double>(p.steals) /
                   static_cast<double>(std::max<std::uint64_t>(1, p.chunks)),
               "frac");
      const double traced = quartiles(sums.steps).median;
      rows.add("obs.overhead_frac", traced / untraced - 1.0, "frac");
      // Absolute errors, so lower is better; the signed ones go to detail.
      const double step_error =
          r.predicted_step_seconds > 0.0
              ? r.measured_step_seconds / r.predicted_step_seconds - 1.0
              : 0.0;
      rows.add("sim.step_error_frac", std::fabs(step_error), "frac");
      rows.add("sim.bubble_error", std::fabs(r.bubble_error()), "frac");
      report.detail.push_back(
          "\"obs_overhead\": {\"untraced_step_s\": " + json_number(untraced) +
          ", \"traced_step_s\": " + json_number(traced) + "}");
      report.detail.push_back(
          "\"sim\": {\"step_error\": " + json_number(step_error) +
          ", \"bubble_error\": " + json_number(r.bubble_error()) + "}");
    }
  }
  rows.add("obs.dropped_spans", dropped, "count");
}

}  // namespace

void run_traced(const Workload& w, std::uint64_t seed, double seconds,
                Report& report) {
  use_transport(w);
  const weipipe::TrainConfig cfg = train_config(w, seed);
  const Shapes sh = shapes_of(cfg);
  weipipe::Rng rng(seed);
  // About a third of the run goes to the ~25 timed calls below; the profile
  // pass takes what its fixed iteration count takes.
  const double slice = std::clamp(seconds / 75.0, 0.02, 0.5);

  Rows rows(report);
  tensor_layer(sh, rng, slice, rows);
  nn_layer(cfg, sh, seed, rng, slice, rows);
  comm_layer(cfg, sh, rng, slice, rows);
  profile_layers(cfg, report, rows);

  report.detail.push_back(rows.json());
  report.detail.push_back(
      "\"shapes\": {\"rows\": " + std::to_string(sh.rows) +
      ", \"H\": " + std::to_string(sh.h) + ", \"F\": " + std::to_string(sh.f) +
      ", \"heads\": " + std::to_string(sh.nh) +
      ", \"chunk_params\": " + std::to_string(sh.chunk_params) + "}");
}

}  // namespace wpbench
