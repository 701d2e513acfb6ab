#include "obs/blackbox.hpp"

#include <csignal>
#include <filesystem>
#include <fstream>
#include <set>

#include "common/check.hpp"
#include "common/stopwatch.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/health.hpp"
#include "obs/json.hpp"
#include "obs/recorder.hpp"

namespace weipipe::obs {

namespace {

std::atomic<BlackBox*> g_armed{nullptr};

// One-shot latch shared by every trigger path (watchdog, CHECK, signal,
// catch sites): only the first failure of a run writes the black box.
std::atomic<bool> g_dumped{false};

void check_failure_trampoline(const char* what) {
  blackbox_dump_once(std::string("check-failure: ") + what);
}

// ---- fatal signals ----------------------------------------------------------

constexpr int kFatalSignals[] = {SIGSEGV, SIGBUS, SIGFPE, SIGILL, SIGABRT};
constexpr std::size_t kNumFatalSignals =
    sizeof(kFatalSignals) / sizeof(kFatalSignals[0]);
void (*g_previous_handlers[kNumFatalSignals])(int) = {};

const char* signal_name(int sig) {
  switch (sig) {
    case SIGSEGV: return "SIGSEGV";
    case SIGBUS: return "SIGBUS";
    case SIGFPE: return "SIGFPE";
    case SIGILL: return "SIGILL";
    case SIGABRT: return "SIGABRT";
  }
  return "signal";
}

// Best-effort last words: dumping allocates and locks, neither of which is
// async-signal-safe — but the process is dying anyway, and a torn dump
// beats no dump. The default action is restored first so a second fault
// inside the dump terminates instead of recursing.
void fatal_signal_handler(int sig) {
  std::signal(sig, SIG_DFL);
  blackbox_dump_once(std::string("fatal-signal: ") + signal_name(sig));
  std::raise(sig);
}

void install_signal_handlers() {
  for (std::size_t i = 0; i < kNumFatalSignals; ++i) {
    g_previous_handlers[i] =
        std::signal(kFatalSignals[i], &fatal_signal_handler);
  }
}

void restore_signal_handlers() {
  for (std::size_t i = 0; i < kNumFatalSignals; ++i) {
    std::signal(kFatalSignals[i],
                g_previous_handlers[i] != SIG_ERR ? g_previous_handlers[i]
                                                  : SIG_DFL);
  }
}

// ---- span JSON --------------------------------------------------------------

SpanKind span_kind_from_name(const std::string& name) {
  static constexpr SpanKind kAll[] = {
      SpanKind::kForward,      SpanKind::kBackward,
      SpanKind::kBackwardActs, SpanKind::kBackwardWeights,
      SpanKind::kOptimizer,    SpanKind::kLoss,
      SpanKind::kSendTransfer, SpanKind::kRecvWait,
      SpanKind::kRecvTransfer, SpanKind::kCollective,
      SpanKind::kKernel,       SpanKind::kStep,
      SpanKind::kFault,
  };
  for (SpanKind k : kAll) {
    if (name == to_string(k)) {
      return k;
    }
  }
  WEIPIPE_CHECK_MSG(false, "unknown span kind '" << name << "'");
  return SpanKind::kForward;
}

// Span::label must point at static storage; labels parsed back from JSON are
// interned into a leaky pool (label vocabulary is tiny — collective names).
const char* intern_label(const std::string& label) {
  static std::mutex mu;
  static std::set<std::string>* pool = new std::set<std::string>();
  std::lock_guard<std::mutex> lk(mu);
  return pool->insert(label).first->c_str();
}

std::int64_t field_i64(const JsonValue& obj, const char* key,
                       std::int64_t fallback) {
  const JsonValue* v = obj.find(key);
  return v == nullptr ? fallback : static_cast<std::int64_t>(v->as_number());
}

}  // namespace

std::string spans_to_json(const std::vector<Span>& spans) {
  std::string out = "[";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out += i == 0 ? "\n" : ",\n";
    out += "  {\"kind\": ";
    append_json_string(out, to_string(s.kind));
    out += ", \"start_ns\": " + std::to_string(s.start_ns);
    out += ", \"end_ns\": " + std::to_string(s.end_ns);
    out += ", \"rank\": " + std::to_string(s.rank);
    out += ", \"microbatch\": " + std::to_string(s.microbatch);
    out += ", \"chunk\": " + std::to_string(s.chunk);
    out += ", \"peer\": " + std::to_string(s.peer);
    out += ", \"tag\": " + std::to_string(s.tag);
    out += ", \"bytes\": " + std::to_string(s.bytes);
    out += ", \"flow_id\": " + std::to_string(s.flow_id);
    out += ", \"act_bytes_after\": " + json_number(s.act_bytes_after);
    if (s.label != nullptr) {
      out += ", \"label\": ";
      append_json_string(out, s.label);
    }
    out += "}";
  }
  out += spans.empty() ? "]" : "\n]";
  return out;
}

std::vector<Span> spans_from_json(const JsonValue& value) {
  WEIPIPE_CHECK_MSG(value.is_array(), "span timeline must be a JSON array");
  std::vector<Span> spans;
  spans.reserve(value.array.size());
  for (const JsonValue& v : value.array) {
    WEIPIPE_CHECK_MSG(v.is_object(), "span entry must be a JSON object");
    Span s;
    const JsonValue* kind = v.find("kind");
    WEIPIPE_CHECK_MSG(kind != nullptr, "span entry missing 'kind'");
    s.kind = span_kind_from_name(kind->as_string());
    s.start_ns = field_i64(v, "start_ns", 0);
    s.end_ns = field_i64(v, "end_ns", 0);
    s.rank = static_cast<std::int32_t>(field_i64(v, "rank", -1));
    s.microbatch = field_i64(v, "microbatch", -1);
    s.chunk = field_i64(v, "chunk", -1);
    s.peer = static_cast<std::int32_t>(field_i64(v, "peer", -1));
    s.tag = field_i64(v, "tag", -1);
    s.bytes = field_i64(v, "bytes", 0);
    s.flow_id = field_i64(v, "flow_id", -1);
    if (const JsonValue* act = v.find("act_bytes_after")) {
      s.act_bytes_after = act->is_null() ? -1.0 : act->as_number();
    }
    if (const JsonValue* label = v.find("label")) {
      s.label = intern_label(label->as_string());
    }
    spans.push_back(s);
  }
  return spans;
}

// ---- BlackBox ---------------------------------------------------------------

BlackBox::BlackBox(BlackBoxOptions options) : options_(std::move(options)) {}

BlackBox::~BlackBox() { disarm(); }

void BlackBox::arm() {
  BlackBox* expected = nullptr;
  const bool took =
      g_armed.compare_exchange_strong(expected, this,
                                      std::memory_order_acq_rel);
  WEIPIPE_CHECK_MSG(took || expected == this,
                    "another obs::BlackBox is already armed");
  if (!took) {
    return;
  }
  armed_.store(true, std::memory_order_release);
  g_dumped.store(false, std::memory_order_relaxed);
  if (options_.dump_on_check_failure) {
    detail::set_check_failure_observer(&check_failure_trampoline);
  }
  if (options_.install_signal_handlers) {
    install_signal_handlers();
  }
}

void BlackBox::disarm() {
  BlackBox* expected = this;
  if (!g_armed.compare_exchange_strong(expected, nullptr,
                                       std::memory_order_acq_rel)) {
    return;
  }
  if (options_.install_signal_handlers) {
    restore_signal_handlers();
  }
  if (options_.dump_on_check_failure) {
    detail::set_check_failure_observer(nullptr);
  }
  armed_.store(false, std::memory_order_release);
}

BlackBox* BlackBox::armed() {
  return g_armed.load(std::memory_order_acquire);
}

void BlackBox::set_section(const std::string& name,
                           std::function<std::string()> provider) {
  std::lock_guard<std::mutex> lk(mu_);
  sections_[name] = std::move(provider);
}

std::string BlackBox::dump(const std::string& reason) {
  std::lock_guard<std::mutex> lk(mu_);
  // Drain every rank's flight ring at once — the dump is the quiescent
  // point (workers have either joined or are wedged; a wedged producer can
  // at worst contribute one torn span, never corrupt the ring indices).
  std::vector<Span> spans;
  std::uint64_t dropped = 0;
  if (Recorder* rec = Recorder::active()) {
    spans = rec->drain();
    dropped = rec->dropped();
  }
  const HealthReport health_report = snapshot_health();

  std::string out = "{\n  \"schema\": 1,\n  \"reason\": ";
  append_json_string(out, reason);
  out += ",\n  \"now_ns\": " + std::to_string(steady_now_ns());
  out += ",\n  \"dropped_spans\": " + std::to_string(dropped);
  out += ",\n  \"health\": ";
  {
    std::string health_json = health_report.to_json();
    while (!health_json.empty() && health_json.back() == '\n') {
      health_json.pop_back();
    }
    out += health_json;
  }
  for (const auto& [name, provider] : sections_) {
    out += ",\n  ";
    append_json_string(out, name);
    out += ": ";
    std::string body = provider ? provider() : "null";
    while (!body.empty() && body.back() == '\n') {
      body.pop_back();
    }
    out += body.empty() ? "null" : body;
  }
  out += ",\n  \"spans\": " + spans_to_json(spans);
  out += "\n}\n";

  namespace fs = std::filesystem;
  const fs::path dir(options_.dir.empty() ? "." : options_.dir);
  std::error_code ec;
  fs::create_directories(dir, ec);  // best effort; the open below reports
  const fs::path postmortem = dir / "postmortem.json";
  {
    std::ofstream f(postmortem, std::ios::binary | std::ios::trunc);
    WEIPIPE_CHECK_MSG(f.good(), "cannot write " << postmortem.string());
    f << out;
  }
  if (options_.write_perfetto) {
    std::ofstream f(dir / "postmortem_trace.json",
                    std::ios::binary | std::ios::trunc);
    if (f.good()) {
      f << spans_to_chrome_trace(spans);
    }
  }
  dumps_.fetch_add(1, std::memory_order_relaxed);
  return postmortem.string();
}

std::string BlackBox::dump_once(const std::string& reason) {
  if (g_dumped.exchange(true, std::memory_order_acq_rel)) {
    return "";
  }
  return dump(reason);
}

std::string blackbox_dump_once(const std::string& reason) {
  BlackBox* box = BlackBox::armed();
  return box == nullptr ? "" : box->dump_once(reason);
}

void reset_blackbox_after_fork() {
  // Single-threaded right after fork: plain stores suffice, but keep the
  // atomics honest. The parent's BlackBox object still exists in our
  // copy-on-write image; dropping the global pointer is what matters —
  // nothing will ever dereference it again in this process.
  g_armed.store(nullptr, std::memory_order_relaxed);
  g_dumped.store(false, std::memory_order_relaxed);
  detail::set_check_failure_observer(nullptr);
  for (std::size_t i = 0; i < kNumFatalSignals; ++i) {
    std::signal(kFatalSignals[i], SIG_DFL);
    g_previous_handlers[i] = nullptr;
  }
}

}  // namespace weipipe::obs
