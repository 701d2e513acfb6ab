// WeiPipe training benchmark: the wpbench binary.
//
//   wpbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//           [--source <id>]
//
// --trace 0 runs the untraced pass and reports the end-to-end metrics;
// --trace 1 runs the traced pass and reports the per-layer metrics. The last
// line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}; the line before it holds the
// run's provenance and per-metric detail. Exit status is 0 only when every
// correctness check passed. See README.md for the metric table.
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "bench.hpp"
#include "comm/wire.hpp"
#include "common/check.hpp"

namespace wpbench {

using weipipe::ModelConfig;
using weipipe::PrecisionConfig;
using weipipe::comm::TransportKind;

namespace {

ModelConfig model(std::int64_t dim, std::int64_t heads, std::int64_t seq) {
  ModelConfig m;
  m.vocab_size = 256;
  m.dim = dim;
  m.n_layers = 4;
  m.n_heads = heads;
  m.seq_len = seq;
  return m;
}

// What the GEMM micro-kernel in tensor/gemm.cpp compiled to; this file is
// built with the same flags, so the same macros decide.
const char* gemm_isa() {
#if defined(__AVX512F__)
  return "avx512";
#elif defined(__AVX__)
  return "avx";
#else
  return "sse2";
#endif
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(' ', colon + 1));
      }
    }
  }
  return "unknown";
}

// CPU time the hypervisor gave to other guests, summed over this guest's
// CPUs (the "steal" column of /proc/stat); 0 where it is not reported. A
// run whose steal is a visible share of its length measured a loaded host.
double host_steal_seconds() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  unsigned long long v[8] = {};
  if (!(in >> cpu) || cpu != "cpu") {
    return 0.0;
  }
  for (unsigned long long& x : v) {
    in >> x;
  }
  return static_cast<double>(v[7]) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

[[noreturn]] void usage(const char* why) {
  std::cerr << "wpbench: " << why
            << "\nusage: wpbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--source <id>]\nworkloads:";
  for (const Workload& w : workloads()) {
    std::cerr << ' ' << w.name;
  }
  std::cerr << '\n';
  std::exit(2);
}

}  // namespace

const std::vector<Workload>& workloads() {
  // README.md says why each exists. N=8, G=2, P=4, vocab 256, L=4
  // throughout.
  static const std::vector<Workload> kWorkloads = [] {
    std::vector<Workload> w;
    // G*S/(12H) = 1.33: the paper's regime, attention-bound.
    w.push_back({"longctx", model(32, 4, 256), PrecisionConfig::fp32(),
                 TransportKind::kInproc, true});
    // G*S/(12H) = 0.02: GEMM- and Adam-bound, weights dwarf activations.
    w.push_back({"shortctx", model(256, 8, 32), PrecisionConfig::fp32(),
                 TransportKind::kInproc, true});
    // longctx with real pack, unpack and socket bytes on the wire.
    w.push_back({"longctx-paper-tcp", model(32, 4, 256),
                 PrecisionConfig::paper(), TransportKind::kTcp, false});
    return w;
  }();
  return kWorkloads;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) {
      return &w;
    }
  }
  return nullptr;
}

weipipe::TrainConfig train_config(const Workload& w, std::uint64_t seed) {
  weipipe::TrainConfig cfg;
  cfg.model = w.model;
  cfg.precision = w.precision;
  cfg.num_microbatches = 8;
  cfg.microbatch_size = 2;
  cfg.seq_len = w.model.seq_len;
  cfg.seed = seed;
  cfg.validate();
  return cfg;
}

void use_transport(const Workload& w) {
  weipipe::comm::TransportSpec spec;
  spec.kind = w.transport;
  weipipe::comm::set_default_transport_spec(spec);
}

std::string json_number(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace wpbench

int main(int argc, char** argv) {
  using namespace wpbench;
  std::string workload_name;
  std::string source = "unknown";
  long long seed = -1;
  double seconds = -1.0;
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) {
      usage(("missing value for " + arg).c_str());
    }
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        workload_name = value;
      } else if (arg == "--seed") {
        seed = std::stoll(value);
      } else if (arg == "--seconds") {
        seconds = std::stod(value);
      } else if (arg == "--trace") {
        trace = std::stoi(value);
      } else if (arg == "--source") {
        source = value;
      } else {
        usage(("unknown argument " + arg).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + arg).c_str());
    }
  }
  const Workload* w = find_workload(workload_name);
  if (w == nullptr) {
    usage(("unknown workload '" + workload_name + "'").c_str());
  }
  if (seed < 0 || !(seconds > 0.0) || (trace != 0 && trace != 1)) {
    usage("need --seed >= 0, --seconds > 0 and --trace 0|1");
  }

  Report report;
  const double steal_at_start = host_steal_seconds();
  try {
    if (trace == 0) {
      run_untraced(*w, static_cast<std::uint64_t>(seed), seconds, report);
    } else {
      run_traced(*w, static_cast<std::uint64_t>(seed), seconds, report);
    }
  } catch (const std::exception& e) {
    report.attempted = std::max<std::int64_t>(report.attempted, 1);
    report.fail(std::string("run aborted: ") + e.what());
  }

  for (const std::string& f : report.failures) {
    std::cerr << "wpbench: FAILED " << f << '\n';
  }

  std::string detail = "{\"provenance\": {";
  detail += "\"cpu\": " + json_string(cpu_model());
  detail += ", \"nproc\": " +
            std::to_string(std::thread::hardware_concurrency());
  detail += ", \"gemm_isa\": " + json_string(gemm_isa());
  detail += std::string(", \"wire_simd\": ") +
            (weipipe::comm::wire_detail::simd_available() ? "true" : "false");
  detail += ", \"build_type\": " + json_string(WPBENCH_BUILD_TYPE);
  detail += ", \"source\": " + json_string(source);
  detail += ", \"workload\": " + json_string(w->name);
  detail += ", \"seed\": " + std::to_string(seed);
  detail += ", \"trace\": " + std::to_string(trace);
  detail += ", \"seconds\": " + json_number(seconds) + "}";
  for (const std::string& d : report.detail) {
    detail += ", " + d;
  }
  detail += ", \"host_steal_s\": " +
            json_number(host_steal_seconds() - steal_at_start);
  detail += ", \"failed_step_frac\": " +
            json_number(static_cast<double>(report.failed) /
                        static_cast<double>(
                            std::max<std::int64_t>(1, report.attempted)));
  detail += "}";
  std::cout << detail << '\n';

  const bool correct = report.failed == 0;
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(report.attempted);
  out += ", \"failed\": " + std::to_string(report.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const Report::Metric& m = report.metrics[i];
    out += (i ? ", " : "") + json_string(m.name) + ": {\"value\": " +
           json_number(m.value) + ", \"unit\": " + json_string(m.unit) + "}";
  }
  out += "}}";
  std::cout << out << std::endl;
  return correct ? 0 : 1;
}
