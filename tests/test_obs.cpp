// Observability-layer tests: recorder/ring semantics, metrics registry JSON,
// the Chrome trace exporter (golden round-trip through the JSON parser), the
// runtime->SimResult converter, trace::write_file directory creation, and
// the measured-vs-static profile invariants on a real 4-rank run.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include "obs/chrome_trace.hpp"
#include "obs/json.hpp"
#include "obs/ledger.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "obs/timeseries.hpp"
#include "prof/bench_run.hpp"
#include "prof/profile.hpp"
#include "trace/export.hpp"
#include "trace/runtime.hpp"

namespace weipipe {
namespace {

// Sanitizer builds slow the machinery *between* ops (locks, condvars,
// instrumentation) while busy-wait compute keeps wall-clock durations, so
// measured bubbles inflate; the measured-vs-predicted envelope widens there.
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

obs::Span make_span(obs::SpanKind kind, int rank, std::int64_t start_ns,
                    std::int64_t end_ns) {
  obs::Span s;
  s.kind = kind;
  s.rank = rank;
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  return s;
}

// ---- recorder ---------------------------------------------------------------

TEST(Recorder, DisabledByDefault) {
  ASSERT_EQ(obs::Recorder::active(), nullptr);
  EXPECT_FALSE(obs::enabled());
  obs::SpanScope scope(obs::SpanKind::kForward, 0, 0);
  EXPECT_FALSE(scope.armed());  // no recorder -> never armed, never records
}

TEST(Recorder, RecordsAndDrainsAcrossRankThreads) {
  obs::Recorder recorder;
  recorder.install();
  ASSERT_TRUE(obs::enabled());

  std::vector<std::thread> threads;
  for (int r = 0; r < 3; ++r) {
    threads.emplace_back([r] {
      obs::RankScope rank_scope(r);
      for (int i = 0; i < 5; ++i) {
        obs::SpanScope scope(obs::SpanKind::kForward, i, r);
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  // Driver-thread span lands on the unranked ring.
  { obs::SpanScope scope(obs::SpanKind::kStep); }

  std::vector<obs::Span> spans = recorder.drain();
  EXPECT_EQ(spans.size(), 16u);
  EXPECT_EQ(recorder.dropped(), 0u);
  // drain() orders by (rank, start); the unranked step span sorts first.
  int last_rank = -2;
  std::int64_t last_start = 0;
  for (const obs::Span& s : spans) {
    EXPECT_LE(s.start_ns, s.end_ns);
    if (s.rank == last_rank) {
      EXPECT_GE(s.start_ns, last_start);
    } else {
      EXPECT_GT(s.rank, last_rank);
      last_rank = s.rank;
    }
    last_start = s.start_ns;
  }
  // A second drain has nothing left.
  EXPECT_TRUE(recorder.drain().empty());
  recorder.uninstall();
  EXPECT_FALSE(obs::enabled());
}

TEST(Recorder, FullRingDropsAndCounts) {
  obs::Recorder recorder({.ring_capacity = 16});
  recorder.install();
  {
    obs::RankScope rank_scope(0);
    for (int i = 0; i < 50; ++i) {
      obs::SpanScope scope(obs::SpanKind::kForward, i, 0);
    }
  }
  const std::vector<obs::Span> spans = recorder.drain();
  EXPECT_EQ(spans.size(), 16u);
  EXPECT_EQ(recorder.dropped(), 34u);
  // The ring kept the oldest spans (drop-new policy).
  EXPECT_EQ(spans.front().microbatch, 0);
  EXPECT_EQ(spans.back().microbatch, 15);
  recorder.uninstall();
}

TEST(Recorder, RankRingSurvivesWorkerRespawn) {
  obs::Recorder recorder;
  recorder.install();
  for (int generation = 0; generation < 3; ++generation) {
    std::thread worker([generation] {
      obs::RankScope rank_scope(1);
      obs::SpanScope scope(obs::SpanKind::kForward, generation, 1);
    });
    worker.join();
  }
  const std::vector<obs::Span> spans = recorder.drain();
  ASSERT_EQ(spans.size(), 3u);
  for (int g = 0; g < 3; ++g) {
    EXPECT_EQ(spans[static_cast<std::size_t>(g)].microbatch, g);
    EXPECT_EQ(spans[static_cast<std::size_t>(g)].rank, 1);
  }
  recorder.uninstall();
}

TEST(Recorder, ReservedRankRingsAreTheOnesRankThreadsRecordInto) {
  obs::Recorder recorder;
  recorder.reserve_ranks(3);
  std::vector<obs::internal::ThreadRing*> reserved;
  for (int r = 0; r < 3; ++r) {
    reserved.push_back(recorder.ring_for(r));
  }
  recorder.install();
  std::thread worker([] {
    obs::RankScope rank_scope(2);
    obs::SpanScope scope(obs::SpanKind::kForward, 7, 2);
  });
  worker.join();
  for (int r = 0; r < 3; ++r) {
    EXPECT_EQ(recorder.ring_for(r), reserved[static_cast<std::size_t>(r)]);
  }
  const std::vector<obs::Span> spans = recorder.drain();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].rank, 2);
  EXPECT_EQ(spans[0].microbatch, 7);
  recorder.uninstall();
}

TEST(Recorder, ReinstallAtSameAddressResolvesFreshRings) {
  // Regression: the per-thread ring cache must key on the install epoch, not
  // the recorder's address — consecutive stack-allocated recorders typically
  // reuse the same address, and an address-keyed cache would hand back rings
  // owned by the destroyed instance.
  for (int round = 0; round < 3; ++round) {
    obs::Recorder recorder;
    recorder.install();
    obs::RankScope rank_scope(0);
    { obs::SpanScope scope(obs::SpanKind::kForward, round, 0); }
    const std::vector<obs::Span> spans = recorder.drain();
    ASSERT_EQ(spans.size(), 1u);
    EXPECT_EQ(spans[0].microbatch, round);
    recorder.uninstall();
  }
}

// ---- metrics ----------------------------------------------------------------

TEST(Metrics, RegistryJsonRoundTrip) {
  obs::MetricsRegistry registry;
  registry.counter("wire.bytes").add(4096);
  registry.counter("wire.bytes").add(1024);
  registry.gauge("bubble").set(0.125);
  registry.gauge("peak").set_max(10.0);
  registry.gauge("peak").set_max(3.0);  // max keeps 10
  for (int i = 1; i <= 100; ++i) {
    registry.histogram("step.seconds").observe(static_cast<double>(i));
  }

  const obs::JsonParseResult parsed = obs::parse_json(registry.to_json());
  ASSERT_TRUE(parsed.ok) << parsed.error;
  const obs::JsonValue* counters = parsed.value.find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->find("wire.bytes")->as_number(), 5120.0);
  const obs::JsonValue* gauges = parsed.value.find("gauges");
  ASSERT_NE(gauges, nullptr);
  EXPECT_DOUBLE_EQ(gauges->find("bubble")->as_number(), 0.125);
  EXPECT_DOUBLE_EQ(gauges->find("peak")->as_number(), 10.0);
  const obs::JsonValue* hist = parsed.value.find("histograms");
  ASSERT_NE(hist, nullptr);
  const obs::JsonValue* step = hist->find("step.seconds");
  ASSERT_NE(step, nullptr);
  EXPECT_EQ(step->find("count")->as_number(), 100.0);
  EXPECT_DOUBLE_EQ(step->find("min")->as_number(), 1.0);
  EXPECT_DOUBLE_EQ(step->find("max")->as_number(), 100.0);
  EXPECT_DOUBLE_EQ(step->find("mean")->as_number(), 50.5);
  // Log-bucketed quantiles are estimates; check ordering and rough position.
  const double p50 = step->find("p50")->as_number();
  const double p99 = step->find("p99")->as_number();
  EXPECT_GE(p50, 25.0);
  EXPECT_LE(p50, 100.0);
  EXPECT_GE(p99, p50);

  registry.reset();
  const obs::JsonParseResult after = obs::parse_json(registry.to_json());
  ASSERT_TRUE(after.ok);
  EXPECT_EQ(after.value.find("counters")->find("wire.bytes")->as_number(),
            0.0);
}

TEST(Metrics, RegistryAliasResetClearsEveryInstrumentFamily) {
  // obs::Registry is the conventional short name; reset() zeroes counters,
  // clears gauges, and empties histograms without dropping registration.
  obs::Registry registry;
  registry.counter("c").add(7);
  registry.gauge("g").set(1.5);
  registry.histogram("h").observe(2.0);
  registry.reset();

  const obs::JsonParseResult parsed = obs::parse_json(registry.to_json());
  ASSERT_TRUE(parsed.ok) << parsed.error;
  EXPECT_EQ(parsed.value.find("counters")->find("c")->as_number(), 0.0);
  const obs::JsonValue* h = parsed.value.find("histograms")->find("h");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->find("count")->as_number(), 0.0);
  registry.counter("c").add(3);  // still usable after reset
  EXPECT_EQ(registry.counter("c").value(), 3u);
}

TEST(Metrics, HistogramQuantilesInterpolateInsideBuckets) {
  // Empty: all zeros.
  obs::Histogram empty;
  const obs::HistogramSnapshot e = empty.snapshot();
  EXPECT_EQ(e.count, 0u);
  EXPECT_DOUBLE_EQ(e.p50, 0.0);
  EXPECT_DOUBLE_EQ(e.sum, 0.0);

  // A single observation reports itself exactly at every quantile — the
  // log-bucket boundary must not leak through.
  obs::Histogram one;
  one.observe(0.0123);
  const obs::HistogramSnapshot s1 = one.snapshot();
  EXPECT_EQ(s1.count, 1u);
  EXPECT_DOUBLE_EQ(s1.p50, 0.0123);
  EXPECT_DOUBLE_EQ(s1.p90, 0.0123);
  EXPECT_DOUBLE_EQ(s1.p99, 0.0123);
  EXPECT_DOUBLE_EQ(s1.sum, 0.0123);

  // Many observations inside ONE log bucket: quantiles stay within the
  // observed [min, max] and keep their ordering instead of collapsing onto
  // the bucket's upper boundary (the pre-fix degenerate case).
  obs::Histogram tight;
  for (int i = 0; i < 100; ++i) {
    tight.observe(1.00 + 0.001 * i);  // 1.000 .. 1.099, one bucket
  }
  const obs::HistogramSnapshot st = tight.snapshot();
  EXPECT_GE(st.p50, st.min);
  EXPECT_LE(st.p50, st.max);
  EXPECT_LE(st.p50, st.p90);
  EXPECT_LE(st.p90, st.p99);
  EXPECT_LE(st.p99, st.max);
  EXPECT_LT(st.p50, st.max);  // p50 must not sit on the bucket edge
  EXPECT_NEAR(st.sum, 104.95, 1e-9);
}

TEST(Metrics, RegistrationRejectsInvalidNames) {
  EXPECT_TRUE(obs::valid_metric_name("step.seconds"));
  EXPECT_TRUE(obs::valid_metric_name("fabric.pair.0->1.messages"));
  EXPECT_TRUE(obs::valid_metric_name("mem/scratch_bytes-2"));
  EXPECT_FALSE(obs::valid_metric_name(""));
  EXPECT_FALSE(obs::valid_metric_name("has space"));
  EXPECT_FALSE(obs::valid_metric_name("quote\"d"));
  EXPECT_FALSE(obs::valid_metric_name("new\nline"));

  obs::Registry registry;
  EXPECT_NO_THROW(registry.counter("fabric.pair.0->1.messages"));
  EXPECT_THROW(registry.counter("bad name"), Error);
  EXPECT_THROW(registry.gauge(""), Error);
  EXPECT_THROW(registry.histogram("tab\there"), Error);
}

TEST(Metrics, PrometheusExpositionLiftsRankLabels) {
  obs::Registry registry;
  registry.counter("wire.bytes.rank.0").add(100);
  registry.counter("wire.bytes.rank.1").add(200);
  registry.gauge("bubble").set(0.25);
  registry.histogram("step.seconds").observe(0.5);

  const std::string prom =
      registry.to_prometheus({{"job", "profile"}, {"strategy", "weipipe"}});
  // One family for both ranks, with the trailing .rank.<N> lifted into a
  // label; the caller's labels are stamped on every sample.
  EXPECT_NE(prom.find("# TYPE weipipe_wire_bytes_rank counter"),
            std::string::npos);
  EXPECT_NE(prom.find("weipipe_wire_bytes_rank{job=\"profile\","
                      "strategy=\"weipipe\",rank=\"0\"} 100"),
            std::string::npos);
  EXPECT_NE(prom.find("weipipe_wire_bytes_rank{job=\"profile\","
                      "strategy=\"weipipe\",rank=\"1\"} 200"),
            std::string::npos);
  EXPECT_NE(prom.find("# TYPE weipipe_bubble gauge"), std::string::npos);
  // Histograms fan out into _count/_sum/quantile series.
  EXPECT_NE(prom.find("weipipe_step_seconds_count"), std::string::npos);
  EXPECT_NE(prom.find("weipipe_step_seconds_p99"), std::string::npos);
  // The exposition never emits a raw dotted name.
  EXPECT_EQ(prom.find("wire.bytes"), std::string::npos);
}

TEST(Metrics, FlatSnapshotCoversEveryInstrument) {
  obs::Registry registry;
  registry.counter("c").add(3);
  registry.gauge("g").set(1.5);
  registry.histogram("h").observe(2.0);
  registry.histogram("h").observe(4.0);

  std::map<std::string, double> flat;
  for (const auto& [name, value] : registry.flat_snapshot()) {
    flat[name] = value;
  }
  EXPECT_DOUBLE_EQ(flat.at("c"), 3.0);
  EXPECT_DOUBLE_EQ(flat.at("g"), 1.5);
  EXPECT_DOUBLE_EQ(flat.at("h.count"), 2.0);
  EXPECT_DOUBLE_EQ(flat.at("h.sum"), 6.0);
}

// ---- telemetry sampler ------------------------------------------------------

TEST(Telemetry, SamplesRegistriesAndGaugeSources) {
  obs::Registry registry;
  registry.counter("ticks").add(5);

  obs::TimeseriesOptions options;
  options.labels.job = "test";
  options.labels.strategy = "unit";
  options.watch_ledger = false;
  obs::TelemetrySampler sampler(options);
  sampler.watch_registry(&registry);
  double source_value = 1.0;
  const obs::TelemetrySampler::SourceId id = sampler.add_gauge_source(
      "telemetry.test.gauge", [&source_value] { return source_value; });

  sampler.sample_now();
  registry.counter("ticks").add(5);
  source_value = 2.0;
  sampler.sample_now();

  const obs::TimeseriesSnapshot snap = sampler.snapshot();
  EXPECT_EQ(snap.labels.job, "test");
  EXPECT_EQ(snap.samples_taken, 2);
  ASSERT_EQ(snap.sample_t_ns.size(), 2u);
  EXPECT_LT(snap.sample_t_ns[0], snap.sample_t_ns[1]);

  std::map<std::string, std::vector<double>> series;
  for (const obs::TimeseriesSeries& s : snap.series) {
    series[s.name] = s.values;
  }
  ASSERT_EQ(series.count("ticks"), 1u);
  EXPECT_EQ(series.at("ticks"), (std::vector<double>{5.0, 10.0}));
  ASSERT_EQ(series.count("telemetry.test.gauge"), 1u);
  EXPECT_EQ(series.at("telemetry.test.gauge"),
            (std::vector<double>{1.0, 2.0}));

  // Removed sources stop being sampled (new samples omit the series).
  sampler.remove_source(id);
  sampler.sample_now();
  const obs::TimeseriesSnapshot after = sampler.snapshot();
  for (const obs::TimeseriesSeries& s : after.series) {
    if (s.name == "telemetry.test.gauge") {
      ASSERT_EQ(s.values.size(), 3u);
      EXPECT_TRUE(std::isnan(s.values[2]));
    }
  }

  // Exports parse / expose.
  const obs::JsonParseResult parsed = obs::parse_json(after.to_json());
  ASSERT_TRUE(parsed.ok) << parsed.error;
  EXPECT_EQ(parsed.value.find("schema_version")->as_number(),
            static_cast<double>(obs::kTimeseriesSchemaVersion));
  EXPECT_EQ(parsed.value.find("labels")->find("job")->as_string(), "test");
  const std::string prom = after.to_prometheus();
  EXPECT_NE(prom.find("weipipe_ticks{job=\"test\",strategy=\"unit\"} 10"),
            std::string::npos);
}

TEST(Telemetry, WindowDecimatesInPlaceAndDoublesStride) {
  obs::TimeseriesOptions options;
  options.window_capacity = 4;  // clamp floor: decimate on the 5th sample
  options.watch_ledger = false;
  obs::TelemetrySampler sampler(options);
  obs::Registry registry;
  sampler.watch_registry(&registry);
  for (int i = 0; i < 32; ++i) {
    registry.gauge("v").set(static_cast<double>(i));
    sampler.sample_now();
  }
  const obs::TimeseriesSnapshot snap = sampler.snapshot();
  EXPECT_EQ(snap.samples_taken, 32);
  EXPECT_GT(snap.samples_dropped, 0);
  EXPECT_GE(snap.stride, 2);  // at least one decimation happened
  EXPECT_LE(snap.sample_t_ns.size(), 4u);
  ASSERT_FALSE(snap.series.empty());
  // The newest sample always survives decimation.
  const std::vector<double>& values = snap.series.front().values;
  ASSERT_FALSE(values.empty());
  EXPECT_DOUBLE_EQ(values.back(), 31.0);
}

TEST(Telemetry, BackgroundThreadStartStopIsClean) {
  obs::TimeseriesOptions options;
  options.sample_period_seconds = 1e-3;
  obs::TelemetrySampler sampler(options);
  sampler.watch_registry(&obs::runtime_metrics());
  sampler.start();
  EXPECT_TRUE(sampler.running());
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  sampler.stop();
  EXPECT_FALSE(sampler.running());
  // stop() takes a final edge sample, so the window is never empty.
  EXPECT_GE(sampler.snapshot().samples_taken, 1);
}

// ---- chrome trace golden round-trip ----------------------------------------

std::vector<obs::Span> golden_spans() {
  std::vector<obs::Span> spans;
  // Rank 0: forward (acquires 1 KiB), then sends flow 7 to rank 1.
  obs::Span f0 = make_span(obs::SpanKind::kForward, 0, 1'000, 5'000);
  f0.microbatch = 0;
  f0.chunk = 0;
  f0.bytes = 1024;
  f0.act_bytes_after = 1024.0;
  spans.push_back(f0);
  obs::Span send = make_span(obs::SpanKind::kSendTransfer, 0, 5'000, 6'000);
  send.peer = 1;
  send.tag = 20;
  send.bytes = 512;
  send.flow_id = 7;
  spans.push_back(send);
  // Rank 1: blocked on the message, then computes.
  obs::Span wait = make_span(obs::SpanKind::kRecvWait, 1, 2'000, 6'500);
  wait.peer = 0;
  wait.tag = 20;
  wait.bytes = 512;
  wait.flow_id = 7;
  spans.push_back(wait);
  obs::Span f1 = make_span(obs::SpanKind::kForward, 1, 6'500, 9'000);
  f1.microbatch = 0;
  f1.chunk = 1;
  spans.push_back(f1);
  // Driver step marker (unranked).
  spans.push_back(make_span(obs::SpanKind::kStep, -1, 500, 10'000));
  return spans;
}

TEST(ChromeTrace, GoldenRoundTrip) {
  const std::string json = obs::spans_to_chrome_trace(golden_spans());
  const obs::JsonParseResult parsed = obs::parse_json(json);
  ASSERT_TRUE(parsed.ok) << parsed.error;

  const obs::JsonValue* events = parsed.value.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());

  std::map<int, double> last_ts;            // per-track monotone timestamps
  std::map<std::int64_t, int> flow_starts;  // id -> count
  std::map<std::int64_t, int> flow_ends;
  int metadata = 0;
  int complete = 0;
  for (const obs::JsonValue& e : events->array) {
    const std::string& ph = e.find("ph")->as_string();
    if (ph == "M") {
      ++metadata;
      continue;
    }
    const int tid = static_cast<int>(e.find("tid")->as_number());
    const double ts = e.find("ts")->as_number();
    EXPECT_GE(ts, 0.0);  // rebased to the earliest span
    if (ph == "X") {
      ++complete;
      auto it = last_ts.find(tid);
      if (it != last_ts.end()) {
        EXPECT_GE(ts, it->second) << "track " << tid << " went backwards";
      }
      last_ts[tid] = ts;
      EXPECT_GE(e.find("dur")->as_number(), 0.0);
      ASSERT_NE(e.find("name"), nullptr);
      ASSERT_NE(e.find("args"), nullptr);
    } else if (ph == "s") {
      flow_starts[static_cast<std::int64_t>(e.find("id")->as_number())]++;
    } else if (ph == "f") {
      flow_ends[static_cast<std::int64_t>(e.find("id")->as_number())]++;
      EXPECT_EQ(e.find("bp")->as_string(), "e");
    }
  }
  EXPECT_GE(metadata, 4);  // process_name + 3 tracks (rank 0, rank 1, driver)
  EXPECT_EQ(complete, 5);
  // Every flow arrow is a matched s/f pair on the fabric-assigned id.
  EXPECT_EQ(flow_starts.size(), 1u);
  EXPECT_EQ(flow_starts, flow_ends);
  EXPECT_EQ(flow_starts.count(7), 1u);

  // The forward span carries its schedule identity.
  bool found_f0 = false;
  for (const obs::JsonValue& e : events->array) {
    if (e.find("ph")->as_string() != "X" ||
        e.find("name")->as_string() != "F" ||
        e.find("tid")->as_number() != 0.0) {
      continue;
    }
    const obs::JsonValue* args = e.find("args");
    EXPECT_EQ(args->find("microbatch")->as_number(), 0.0);
    EXPECT_EQ(args->find("chunk")->as_number(), 0.0);
    EXPECT_EQ(args->find("act_bytes_after")->as_number(), 1024.0);
    found_f0 = true;
  }
  EXPECT_TRUE(found_f0);
}

// ---- runtime -> SimResult converter -----------------------------------------

TEST(RuntimeConvert, SpansBecomeRecords) {
  const sim::SimResult result = trace::spans_to_sim_result(golden_spans());
  // Two compute spans; the step marker and comm spans add no records.
  ASSERT_EQ(result.records.size(), 2u);
  ASSERT_EQ(result.busy_seconds.size(), 2u);
  // Earliest *ranked* span (rank 0 forward at 1000 ns) defines t = 0.
  EXPECT_DOUBLE_EQ(result.records[0].start, 0.0);
  EXPECT_DOUBLE_EQ(result.records[0].end, 4e-6);
  EXPECT_EQ(result.records[0].rank, 0);
  EXPECT_EQ(result.records[1].rank, 1);
  EXPECT_DOUBLE_EQ(result.makespan, 8e-6);  // 1000 .. 9000 ns
  EXPECT_DOUBLE_EQ(result.peak_act_bytes[0], 1024.0);
  EXPECT_DOUBLE_EQ(result.p2p_bytes, 512.0);
  ASSERT_EQ(result.links.size(), 1u);
  EXPECT_EQ(result.links[0].src, 0);
  EXPECT_EQ(result.links[0].dst, 1);
  EXPECT_DOUBLE_EQ(result.links[0].bytes, 512.0);
  EXPECT_GT(result.bubble_ratio(), 0.0);
}

TEST(RuntimeConvert, EmptyAndUnrankedSpansGiveEmptyResult) {
  EXPECT_TRUE(trace::spans_to_sim_result({}).records.empty());
  std::vector<obs::Span> only_driver;
  only_driver.push_back(make_span(obs::SpanKind::kStep, -1, 0, 1'000));
  const sim::SimResult result = trace::spans_to_sim_result(only_driver);
  EXPECT_TRUE(result.records.empty());
  EXPECT_DOUBLE_EQ(result.makespan, 0.0);
}

// ---- write_file parent-directory creation -----------------------------------

TEST(WriteFile, CreatesMissingParentDirectories) {
  const std::filesystem::path root =
      std::filesystem::temp_directory_path() / "weipipe_obs_test";
  std::filesystem::remove_all(root);
  const std::filesystem::path nested = root / "a" / "b" / "trace.json";
  ASSERT_FALSE(std::filesystem::exists(root));

  trace::write_file(nested.string(), "{\"ok\":true}\n");

  ASSERT_TRUE(std::filesystem::exists(nested));
  std::FILE* f = std::fopen(nested.string().c_str(), "rb");
  ASSERT_NE(f, nullptr);
  char buf[32] = {};
  const std::size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
  std::fclose(f);
  EXPECT_EQ(std::string(buf, n), "{\"ok\":true}\n");
  std::filesystem::remove_all(root);
}

// ---- profile invariants on a real 4-rank run --------------------------------

TEST(Profile, Wzb2MeasuredPeakWithinStaticBoundAndTraceParses) {
  prof::ProfileOptions options;
  options.strategy = "wzb2";
  options.workers = 4;
  options.iters = 1;
  options.warmup_iters = 0;
  options.rounds = 2;
  // Big enough that per-message scheduler wakeups (~100 us) amortize into
  // the documented tolerance; small enough that the test stays < 1 s.
  options.unit_seconds = kSanitized ? 8e-3 : 3e-3;
  const prof::ProfileReport report = prof::run_profile(options);

  EXPECT_EQ(report.ranks, 4);
  EXPECT_TRUE(report.schedule_backed);
  EXPECT_EQ(report.dropped_spans, 0u);
  EXPECT_FALSE(report.spans.empty());
  EXPECT_GT(report.wire_messages, 0u);
  EXPECT_GT(report.max_in_flight, 0u);

  // Satellite invariant: runtime-measured peak activation bytes never exceed
  // the analyzer's static bound (the timed backend follows the program's
  // memory algebra, so this is exact equality up to rounding).
  ASSERT_GE(report.static_peak_bound_bytes, 0.0);
  EXPECT_LE(report.measured_peak_act_bytes,
            report.static_peak_bound_bytes + 0.5);

  // The engine prediction exists and both bubbles are sane fractions.
  ASSERT_GE(report.predicted_bubble, 0.0);
  EXPECT_LT(report.predicted_bubble, 1.0);
  EXPECT_GE(report.measured_bubble, 0.0);
  EXPECT_LT(report.measured_bubble, 1.0);
  // Scheduler wakeups only add idle time; allow generous slack for loaded
  // CI machines but catch nonsense (documented tolerance in
  // docs/OBSERVABILITY.md).
  EXPECT_LT(report.measured_bubble,
            report.predicted_bubble + (kSanitized ? 0.55 : 0.30));
  EXPECT_GE(report.measured_step_seconds,
            report.predicted_step_seconds * 0.5);

  // Both JSON artifacts parse; the trace's flow arrows come in matched
  // pairs with per-track monotone timestamps.
  const obs::JsonParseResult metrics = obs::parse_json(report.metrics_json);
  ASSERT_TRUE(metrics.ok) << metrics.error;
  EXPECT_NE(metrics.value.find("gauges")->find("fabric.max_in_flight"),
            nullptr);

  const obs::JsonParseResult trace = obs::parse_json(report.trace_json);
  ASSERT_TRUE(trace.ok) << trace.error;
  const obs::JsonValue* events = trace.value.find("traceEvents");
  ASSERT_NE(events, nullptr);
  std::map<int, double> last_ts;
  std::set<std::int64_t> starts;
  std::set<std::int64_t> ends;
  for (const obs::JsonValue& e : events->array) {
    const std::string& ph = e.find("ph")->as_string();
    if (ph == "X") {
      const int tid = static_cast<int>(e.find("tid")->as_number());
      const double ts = e.find("ts")->as_number();
      auto it = last_ts.find(tid);
      if (it != last_ts.end()) {
        EXPECT_GE(ts, it->second);
      }
      last_ts[tid] = ts;
    } else if (ph == "s") {
      starts.insert(static_cast<std::int64_t>(e.find("id")->as_number()));
    } else if (ph == "f") {
      ends.insert(static_cast<std::int64_t>(e.find("id")->as_number()));
    }
  }
  EXPECT_FALSE(starts.empty());
  EXPECT_EQ(starts, ends);
}

// Exposed wire in a schedule-only profile is labelled through the wire-tag
// registry the builders emit (sched/wire_tags.hpp): a weight-passing ring
// exposes only its weight and gradient flows, an activation pipeline only
// activations and their gradients.
TEST(Profile, ScheduleBackedExposedWireCarriesTheBuildersKinds) {
  const auto exposed_kinds = [](const std::string& strategy) {
    prof::ProfileOptions options;
    options.strategy = strategy;
    options.workers = 4;
    options.iters = 2;
    options.warmup_iters = 0;
    options.unit_seconds = 3e-3;
    const prof::ProfileReport report = prof::run_profile(options);
    std::set<std::string> kinds;
    for (const obs::StepAnatomy& a : report.anatomy) {
      for (const obs::WireExposure& w : a.wire) {
        kinds.insert(w.kind);
      }
    }
    return kinds;
  };
  const std::set<std::string> ring = exposed_kinds("interleave");
  EXPECT_FALSE(ring.empty());
  for (const std::string& kind : ring) {
    EXPECT_TRUE(kind == "F-weight" || kind == "B-weight" || kind == "D-grad")
        << kind;
  }
  const std::set<std::string> pipeline = exposed_kinds("zb1");
  EXPECT_FALSE(pipeline.empty());
  for (const std::string& kind : pipeline) {
    EXPECT_TRUE(kind == "activation" || kind == "act-grad") << kind;
  }
}

// Every trainer-backed strategy's measured peaks stay within the bounds
// derived for it: the analyzer's activation bound where the profile derives
// a schedule program (weipipe, 1f1b, gpipe), and the ledger's static
// footprint bounds for all four.
class ProfileTrainerBacked : public ::testing::TestWithParam<std::string> {};

TEST_P(ProfileTrainerBacked, MeasuredPeakWithinDerivedBound) {
  const std::string strategy = GetParam();
  prof::ProfileOptions options;
  options.strategy = strategy;
  options.workers = 4;
  options.iters = 1;
  options.warmup_iters = 0;
  options.train.model.vocab_size = 32;
  options.train.model.dim = 16;
  options.train.model.n_layers = 4;
  options.train.model.n_heads = 2;
  options.train.model.seq_len = 8;
  options.train.seq_len = 8;
  options.train.num_microbatches = 4;
  options.train.microbatch_size = 1;
  const prof::ProfileReport report = prof::run_profile(options);

  EXPECT_FALSE(report.schedule_backed);
  EXPECT_EQ(report.ranks, 4);
  EXPECT_FALSE(report.spans.empty());
  EXPECT_GT(report.measured_step_seconds, 0.0);
  EXPECT_GT(report.wire_messages, 0u);
  EXPECT_GT(report.measured_peak_act_bytes, 0.0);
  // The derived schedule model exists for weipipe and the pipelines, and
  // its static bound covers the measured peak (per-chunk costs are fitted
  // as maxima). FSDP has none.
  if (strategy != "fsdp") {
    ASSERT_GE(report.static_peak_bound_bytes, 0.0);
    EXPECT_LE(report.measured_peak_act_bytes,
              report.static_peak_bound_bytes + 0.5);
    ASSERT_GE(report.predicted_bubble, 0.0);
  }

  // Step spans made it into the trace (driver track).
  bool found_step = false;
  for (const obs::Span& s : report.spans) {
    if (s.kind == obs::SpanKind::kStep) {
      found_step = true;
    }
  }
  EXPECT_TRUE(found_step);

  // ---- full-footprint ledger fields -----------------------------------------
  ASSERT_EQ(report.ledger_kinds.size(),
            static_cast<std::size_t>(obs::kNumMemKinds));
  double kinds_peak_sum = 0.0;
  for (const prof::ProfileReport::LedgerKindPeak& k : report.ledger_kinds) {
    EXPECT_GE(k.peak_bytes, 0.0) << k.kind;
    // A leak-free run tears down to (near) its baseline.
    EXPECT_EQ(k.live_bytes, 0.0) << k.kind;
    kinds_peak_sum += k.peak_bytes;
  }
  EXPECT_GT(report.measured_peak_footprint_bytes, 0.0);
  // The coincident total peak can't exceed the sum of per-kind peaks.
  EXPECT_LE(report.measured_peak_footprint_bytes, kinds_peak_sum + 0.5);
  EXPECT_GT(report.max_rank_peak_footprint_bytes, 0.0);
  // Static weight/optimizer bounds exist for trainer-backed runs and cover
  // the persistent categories' peaks.
  ASSERT_GE(report.static_weights_bound_bytes, 0.0);
  ASSERT_GE(report.static_optimizer_bound_bytes, 0.0);
  for (const prof::ProfileReport::LedgerKindPeak& k : report.ledger_kinds) {
    if (k.kind == "optimizer") {
      EXPECT_LE(k.peak_bytes, report.static_optimizer_bound_bytes + 0.5);
    }
    if (k.kind == "weights") {
      EXPECT_LE(k.peak_bytes, report.static_weights_bound_bytes + 0.5);
    }
    if (k.kind == "weight_grads") {
      EXPECT_LE(k.peak_bytes, report.static_grads_bound_bytes + 0.5);
    }
  }

  // ---- per-kind wire ledger -------------------------------------------------
  ASSERT_FALSE(report.wire_kinds.empty());
  double wire_sum = 0.0;
  for (const prof::ProfileReport::WireKindVolume& w : report.wire_kinds) {
    wire_sum += w.measured_bytes;
    ASSERT_GE(w.predicted_bytes, 0.0) << w.kind;  // in the envelope
    EXPECT_EQ(w.measured_bytes, w.predicted_bytes) << w.kind;
    EXPECT_EQ(w.measured_messages, w.predicted_messages) << w.kind;
  }
  EXPECT_EQ(wire_sum, static_cast<double>(report.wire_bytes));

  // The metrics snapshot carries the new families.
  const obs::JsonParseResult metrics = obs::parse_json(report.metrics_json);
  ASSERT_TRUE(metrics.ok) << metrics.error;
  const obs::JsonValue* gauges = metrics.value.find("gauges");
  ASSERT_NE(gauges, nullptr);
  EXPECT_NE(gauges->find("mem.ledger.total_peak_bytes"), nullptr);
  EXPECT_NE(gauges->find("mem.bound.optimizer_bytes"), nullptr);
  const obs::JsonValue* counters = metrics.value.find("counters");
  ASSERT_NE(counters, nullptr);
  const bool pipeline = strategy == "1f1b" || strategy == "gpipe";
  EXPECT_NE(counters->find(pipeline ? "wire.kind.activation.bytes"
                                    : "wire.kind.F-weight.bytes"),
            nullptr);
}

INSTANTIATE_TEST_SUITE_P(Strategies, ProfileTrainerBacked,
                         ::testing::Values("weipipe", "1f1b", "gpipe",
                                           "fsdp"));

// ---- bench trajectory -------------------------------------------------------

TEST(Bench, SmokeMatrixEmitsValidTrajectoryAndSelfCompares) {
  prof::BenchOptions options;
  options.smoke = true;
  const prof::BenchReport report = prof::run_bench(options);
  EXPECT_EQ(report.schema_version, prof::kBenchSchemaVersion);
  EXPECT_EQ(report.cases.size(), prof::canonical_bench_cases(true).size());

  const std::string json = prof::bench_report_to_json(report);
  const obs::JsonParseResult parsed = obs::parse_json(json);
  ASSERT_TRUE(parsed.ok) << parsed.error;
  EXPECT_EQ(parsed.value.find("schema_version")->as_number(),
            static_cast<double>(prof::kBenchSchemaVersion));
  ASSERT_TRUE(parsed.value.find("cases")->is_array());

  for (const prof::BenchCaseResult& c : report.cases) {
    EXPECT_GT(c.step_seconds, 0.0) << c.strategy;
    EXPECT_GT(c.gflops, 0.0) << c.strategy;
    EXPECT_GT(c.measured_peak_footprint_bytes, 0.0) << c.strategy;
    EXPECT_GT(c.static_bound_total_bytes, 0.0) << c.strategy;
    for (const prof::BenchWireKind& w : c.wire) {
      if (w.predicted_bytes >= 0.0) {
        EXPECT_EQ(w.measured_bytes, w.predicted_bytes)
            << c.strategy << " " << w.kind;
      }
    }
  }

  // A trajectory never regresses against itself.
  EXPECT_TRUE(prof::compare_trajectories(json, json,
                                         prof::CompareThresholds::smoke())
                  .empty());
}

TEST(Bench, CompareFlagsDoctoredRegressions) {
  const char* baseline = R"({
    "schema_version": 1,
    "cases": [{"strategy": "weipipe", "ranks": 4, "recompute": false,
               "step_seconds": 0.010, "measured_peak_footprint_bytes": 1000,
               "wire": [{"kind": "F-weight", "measured_bytes": 5000,
                         "predicted_bytes": 5000}]}]
  })";
  const prof::CompareThresholds thr;  // step 50%, mem 25%, wire exact

  // Identical candidate passes.
  EXPECT_TRUE(prof::compare_trajectories(baseline, baseline, thr).empty());

  // Step-time blowup past the threshold is flagged.
  const char* slow = R"({
    "schema_version": 1,
    "cases": [{"strategy": "weipipe", "ranks": 4, "recompute": false,
               "step_seconds": 0.020, "measured_peak_footprint_bytes": 1000,
               "wire": [{"kind": "F-weight", "measured_bytes": 5000,
                         "predicted_bytes": 5000}]}]
  })";
  EXPECT_FALSE(prof::compare_trajectories(baseline, slow, thr).empty());

  // Any wire-byte drift is flagged (deterministic metric, zero tolerance),
  // as is a measured value that disagrees with its own closed form.
  const char* chatty = R"({
    "schema_version": 1,
    "cases": [{"strategy": "weipipe", "ranks": 4, "recompute": false,
               "step_seconds": 0.010, "measured_peak_footprint_bytes": 1000,
               "wire": [{"kind": "F-weight", "measured_bytes": 5001,
                         "predicted_bytes": 5000}]}]
  })";
  const std::vector<std::string> wire_regressions =
      prof::compare_trajectories(baseline, chatty, thr);
  EXPECT_EQ(wire_regressions.size(), 2u);  // vs baseline + vs closed form

  // Disjoint matrices are an error, not a silent pass.
  const char* other = R"({
    "schema_version": 1,
    "cases": [{"strategy": "fsdp", "ranks": 8, "recompute": true,
               "step_seconds": 0.010}]
  })";
  EXPECT_FALSE(prof::compare_trajectories(baseline, other, thr).empty());

  // Schema drift refuses to compare.
  const char* v2 = R"({"schema_version": 2, "cases": []})";
  EXPECT_FALSE(prof::compare_trajectories(baseline, v2, thr).empty());

  // Garbage input is reported, not crashed on.
  EXPECT_FALSE(prof::compare_trajectories(baseline, "not json", thr).empty());
}

TEST(Profile, StrategyListsAreDisjointAndComplete) {
  const std::vector<std::string> all = prof::profile_strategies();
  EXPECT_TRUE(std::count(all.begin(), all.end(), "wzb2") == 1);
  EXPECT_TRUE(prof::is_trainer_strategy("weipipe"));
  EXPECT_TRUE(prof::is_trainer_strategy("sequential"));
  EXPECT_FALSE(prof::is_trainer_strategy("wzb2"));
  EXPECT_FALSE(prof::is_trainer_strategy("nonsense"));
}

}  // namespace
}  // namespace weipipe
