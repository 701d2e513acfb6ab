// Critical-path step anatomy tests (obs/critpath.hpp): synthetic-span unit
// tests for the walk's invariants (exact tiling, producer jumps, spin-receive
// attribution, stall naming), analyze_steps splitting, JSON/ASCII rendering,
// and integration invariants on real profiled runs (sequential is ~all
// compute, path length equals the step window, an injected stall surfaces as
// a stall segment, and weipipe exposes less comm than the pipeline baseline
// at long context).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "comm/fabric.hpp"
#include "obs/critpath.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "prof/profile.hpp"

namespace weipipe {
namespace {

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

// The walk's tiling invariant: segments are chronological, abut exactly, and
// cover [window_start, window_end] with no overlap — so the per-category
// sums equal the critical-path length by construction, in exact ns.
void expect_tiles_window(const obs::StepAnatomy& a) {
  ASSERT_FALSE(a.segments.empty());
  EXPECT_EQ(a.segments.front().start_ns, a.window_start_ns);
  EXPECT_EQ(a.segments.back().end_ns, a.window_end_ns);
  std::int64_t covered = 0;
  for (std::size_t i = 0; i < a.segments.size(); ++i) {
    const obs::PathSegment& seg = a.segments[i];
    EXPECT_LT(seg.start_ns, seg.end_ns) << "segment " << i;
    if (i > 0) {
      EXPECT_EQ(seg.start_ns, a.segments[i - 1].end_ns) << "segment " << i;
    }
    covered += seg.end_ns - seg.start_ns;
  }
  EXPECT_EQ(covered, a.window_end_ns - a.window_start_ns);
  double category_sum = 0.0;
  for (int c = 0; c < obs::kNumPathCategories; ++c) {
    category_sum += a.category_seconds[c];
  }
  EXPECT_NEAR(category_sum, a.step_seconds(), 1e-9 + 1e-9 * category_sum);
  EXPECT_NEAR(a.path_seconds(), a.step_seconds(),
              1e-9 + 1e-9 * a.path_seconds());
}

// Rank 0 computes then sends flow 7; rank 1 waits for it, then computes.
std::vector<obs::Span> producer_consumer_spans() {
  std::vector<obs::Span> spans;
  obs::Span f0 = make_span(obs::SpanKind::kForward, 0, 1'000, 5'000);
  spans.push_back(f0);
  obs::Span send = make_span(obs::SpanKind::kSendTransfer, 0, 5'000, 6'000);
  send.peer = 1;
  send.tag = 20;
  send.flow_id = 7;
  spans.push_back(send);
  obs::Span wait = make_span(obs::SpanKind::kRecvWait, 1, 2'000, 6'500);
  wait.peer = 0;
  wait.tag = 20;
  wait.flow_id = 7;
  spans.push_back(wait);
  spans.push_back(make_span(obs::SpanKind::kForward, 1, 6'500, 9'000));
  obs::Span step = make_span(obs::SpanKind::kStep, -1, 500, 10'000);
  step.microbatch = 3;
  spans.push_back(step);
  return spans;
}

TEST(Anatomy, CategoriesTileTheWindowExactly) {
  const obs::StepAnatomy a = obs::analyze_step(producer_consumer_spans());
  EXPECT_EQ(a.step_index, 3);  // carried by the kStep marker's microbatch
  EXPECT_EQ(a.ranks, 2);
  // Window spans the ranked spans only: 1000 .. 9000.
  EXPECT_EQ(a.window_start_ns, 1'000);
  EXPECT_EQ(a.window_end_ns, 9'000);
  expect_tiles_window(a);
}

TEST(Anatomy, WaitOnProducerJumpsToProducerCompute) {
  const obs::StepAnatomy a = obs::analyze_step(producer_consumer_spans());
  // The path: r0 compute [1000,5000] -> r0 send [5000,6000] (wire) ->
  // r1 exposed tail [6000,6500] (wire) -> r1 compute [6500,9000]. The
  // consumer's 4 ms of waiting BEFORE the send completed is walked on the
  // producer, not billed as exposed comm.
  const auto ns = [&](obs::PathCategory c) {
    return static_cast<std::int64_t>(
        a.seconds(c) * 1e9 + (a.seconds(c) >= 0 ? 0.5 : -0.5));
  };
  EXPECT_EQ(ns(obs::PathCategory::kCompute), 6'500);
  EXPECT_EQ(ns(obs::PathCategory::kExposedWire), 1'500);
  EXPECT_EQ(ns(obs::PathCategory::kBlockedRecv), 0);
  EXPECT_EQ(ns(obs::PathCategory::kGap), 0);
  // Both ranks hold path residency.
  ASSERT_EQ(a.rank_attribution.size(), 2u);
  EXPECT_GT(a.rank_attribution[0].total_seconds(), 0.0);
  EXPECT_GT(a.rank_attribution[1].total_seconds(), 0.0);
}

TEST(Anatomy, SpinReceiveDoesNotBillTheWholeWaitAsWire) {
  // Regression: the receiver dequeues the instant the payload lands, so its
  // wait span ends BEFORE the producer closes the transfer span. Only the
  // overlap with the transfer is exposed wire; the rest of the wait walks
  // back into the producer's compute.
  std::vector<obs::Span> spans;
  spans.push_back(make_span(obs::SpanKind::kForward, 0, 1'000, 5'500));
  obs::Span send = make_span(obs::SpanKind::kSendTransfer, 0, 5'500, 6'200);
  send.peer = 1;
  send.tag = 20;
  send.flow_id = 9;
  spans.push_back(send);
  obs::Span wait = make_span(obs::SpanKind::kRecvWait, 1, 2'000, 6'000);
  wait.peer = 0;
  wait.tag = 20;
  wait.flow_id = 9;
  spans.push_back(wait);
  spans.push_back(make_span(obs::SpanKind::kForward, 1, 6'000, 9'000));

  const obs::StepAnatomy a = obs::analyze_step(spans);
  expect_tiles_window(a);
  // Exposed wire: [5500,6000] on r1 (transfer overlap). Everything before
  // is the producer's compute [1000,5500]; after is r1's compute.
  EXPECT_NEAR(a.seconds(obs::PathCategory::kExposedWire), 500e-9, 1e-12);
  EXPECT_NEAR(a.seconds(obs::PathCategory::kCompute), 7'500e-9, 1e-12);
  EXPECT_DOUBLE_EQ(a.seconds(obs::PathCategory::kBlockedRecv), 0.0);
}

TEST(Anatomy, UnmatchedRecvIsBlockedRecv) {
  std::vector<obs::Span> spans;
  obs::Span wait = make_span(obs::SpanKind::kRecvWait, 0, 1'000, 5'000);
  wait.peer = 1;
  wait.tag = 21;
  wait.flow_id = 42;  // no matching send anywhere in the batch
  spans.push_back(wait);
  spans.push_back(make_span(obs::SpanKind::kForward, 0, 5'000, 6'000));

  const obs::StepAnatomy a = obs::analyze_step(spans);
  expect_tiles_window(a);
  EXPECT_NEAR(a.seconds(obs::PathCategory::kBlockedRecv), 4'000e-9, 1e-12);
  EXPECT_NEAR(a.seconds(obs::PathCategory::kCompute), 1'000e-9, 1e-12);
}

TEST(Anatomy, StallFaultNamesTheFrozenEdge) {
  // Rank 1 freezes under an injected stall; rank 0's wait on it never gets
  // a send. The wait must surface as kStallFault carrying the frozen edge
  // (peer=1, the wait's tag), not as an anonymous blocked receive.
  std::vector<obs::Span> spans;
  obs::Span fault = make_span(obs::SpanKind::kFault, 1, 1'500, 4'000);
  spans.push_back(fault);
  obs::Span wait = make_span(obs::SpanKind::kRecvWait, 0, 1'000, 4'200);
  wait.peer = 1;
  wait.tag = 3;
  wait.flow_id = 77;  // frozen producer: no send ever recorded
  spans.push_back(wait);
  spans.push_back(make_span(obs::SpanKind::kForward, 0, 4'200, 6'000));

  const obs::StepAnatomy a = obs::analyze_step(spans);
  expect_tiles_window(a);
  EXPECT_DOUBLE_EQ(a.seconds(obs::PathCategory::kBlockedRecv), 0.0);
  EXPECT_NEAR(a.seconds(obs::PathCategory::kStallFault), 3'200e-9, 1e-12);
  bool named = false;
  for (const obs::PathSegment& seg : a.segments) {
    if (seg.category != obs::PathCategory::kStallFault) continue;
    EXPECT_EQ(seg.peer, 1);  // the frozen producer
    EXPECT_EQ(seg.tag, 3);   // the starved wire tag
    named = true;
  }
  EXPECT_TRUE(named);
}

TEST(Anatomy, IdleStretchesAreGaps) {
  std::vector<obs::Span> spans;
  spans.push_back(make_span(obs::SpanKind::kForward, 0, 1'000, 2'000));
  spans.push_back(make_span(obs::SpanKind::kForward, 0, 5'000, 6'000));
  const obs::StepAnatomy a = obs::analyze_step(spans);
  expect_tiles_window(a);
  EXPECT_NEAR(a.seconds(obs::PathCategory::kGap), 3'000e-9, 1e-12);
  EXPECT_NEAR(a.seconds(obs::PathCategory::kCompute), 2'000e-9, 1e-12);
}

TEST(Anatomy, EmptyInputYieldsEmptyReport) {
  const obs::StepAnatomy a = obs::analyze_step({});
  EXPECT_EQ(a.ranks, 0);
  EXPECT_TRUE(a.segments.empty());
  EXPECT_DOUBLE_EQ(a.step_seconds(), 0.0);
  EXPECT_EQ(a.ascii_timeline(), "(empty step window)\n");
}

TEST(Anatomy, AnalyzeStepsSplitsAtStepMarkers) {
  std::vector<obs::Span> spans;
  obs::Span s1 = make_span(obs::SpanKind::kStep, -1, 0, 10'000);
  s1.microbatch = 1;
  spans.push_back(s1);
  spans.push_back(make_span(obs::SpanKind::kForward, 0, 1'000, 9'000));
  obs::Span s2 = make_span(obs::SpanKind::kStep, -1, 10'000, 20'000);
  s2.microbatch = 2;
  spans.push_back(s2);
  spans.push_back(make_span(obs::SpanKind::kForward, 0, 11'000, 19'000));

  const std::vector<obs::StepAnatomy> steps = obs::analyze_steps(spans);
  ASSERT_EQ(steps.size(), 2u);
  EXPECT_EQ(steps[0].step_index, 1);
  EXPECT_EQ(steps[1].step_index, 2);
  EXPECT_EQ(steps[0].window_start_ns, 1'000);
  EXPECT_EQ(steps[0].window_end_ns, 9'000);
  EXPECT_EQ(steps[1].window_start_ns, 11'000);
  EXPECT_EQ(steps[1].window_end_ns, 19'000);
}

TEST(Anatomy, JsonParsesAndTimelineRenders) {
  obs::AnatomyOptions options;
  options.wire_kind_label = [](std::int64_t tag) {
    return tag == 20 ? std::string("activation") : std::string("other");
  };
  const obs::StepAnatomy a =
      obs::analyze_step(producer_consumer_spans(), options);

  const obs::JsonParseResult parsed = obs::parse_json(a.to_json());
  ASSERT_TRUE(parsed.ok) << parsed.error;
  EXPECT_EQ(parsed.value.find("schema_version")->as_number(),
            static_cast<double>(obs::kAnatomySchemaVersion));
  EXPECT_EQ(parsed.value.find("ranks")->as_number(), 2.0);
  ASSERT_TRUE(parsed.value.find("segments")->is_array());
  EXPECT_FALSE(parsed.value.find("segments")->array.empty());
  const obs::JsonValue* categories = parsed.value.find("categories");
  ASSERT_NE(categories, nullptr);
  EXPECT_NE(categories->find("compute"), nullptr);
  EXPECT_NE(categories->find("exposed_wire"), nullptr);

  // The classifier names the wire kinds in both report and JSON.
  ASSERT_FALSE(a.wire.empty());
  EXPECT_EQ(a.wire[0].kind, "activation");

  const std::string timeline = a.ascii_timeline(60);
  EXPECT_NE(timeline.find("r0"), std::string::npos);
  EXPECT_NE(timeline.find("r1"), std::string::npos);
  EXPECT_NE(timeline.find('C'), std::string::npos);
  EXPECT_NE(timeline.find('W'), std::string::npos);

  const std::string summary = a.summary();
  EXPECT_NE(summary.find("critical path"), std::string::npos);
  EXPECT_NE(summary.find("activation"), std::string::npos);
}

// ---- integration: real profiled runs ----------------------------------------

prof::ProfileOptions small_trainer_options(const std::string& strategy) {
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
  return options;
}

TEST(AnatomyIntegration, PathLengthEqualsStepWindow) {
  const std::uint64_t steps_before =
      obs::runtime_metrics().counter("step.index").value();
  const prof::ProfileReport report =
      prof::run_profile(small_trainer_options("weipipe"));
  // Every trainer bumps the uniform process-global step counter.
  EXPECT_GT(obs::runtime_metrics().counter("step.index").value(),
            steps_before);
  ASSERT_FALSE(report.anatomy.empty());
  for (const obs::StepAnatomy& a : report.anatomy) {
    expect_tiles_window(a);
    EXPECT_GT(a.seconds(obs::PathCategory::kCompute), 0.0);
    const double frac = a.exposed_comm_fraction();
    EXPECT_GE(frac, 0.0);
    EXPECT_LE(frac, 1.0);
  }
  EXPECT_GE(report.mean_exposed_comm_fraction(), 0.0);
}

TEST(AnatomyIntegration, SequentialIsAlmostAllCompute) {
  prof::ProfileOptions options = small_trainer_options("sequential");
  options.workers = 1;
  // Big enough that traced compute dwarfs the per-op gaps (span scope entry,
  // loss bookkeeping, data staging) that a micro model would expose.
  options.train.model.dim = 64;
  options.train.model.seq_len = 64;
  options.train.seq_len = 64;
  const prof::ProfileReport report = prof::run_profile(options);
  ASSERT_FALSE(report.anatomy.empty());
  for (const obs::StepAnatomy& a : report.anatomy) {
    expect_tiles_window(a);
    EXPECT_EQ(a.ranks, 1);
    // No fabric, no waits: the single rank's step is compute end to end,
    // modulo small scheduling gaps between spans.
    EXPECT_GT(a.compute_fraction(), kSanitized ? 0.70 : 0.85);
    EXPECT_DOUBLE_EQ(a.seconds(obs::PathCategory::kExposedWire), 0.0);
    EXPECT_DOUBLE_EQ(a.seconds(obs::PathCategory::kBlockedRecv), 0.0);
  }
}

TEST(AnatomyIntegration, InjectedStallSurfacesAsStallSegment) {
  prof::ProfileOptions options = small_trainer_options("weipipe");
  // Freeze rank 1 mid-step for a hold long enough to dwarf compute; the
  // aborted step's waits must be attributed to the stall, not generic
  // blocked-recv, and the stall span itself lands on the frozen rank.
  options.fault_spec = "stall:rank=1:op=25:ms=50";
  const prof::ProfileReport report = prof::run_profile(options);
  ASSERT_TRUE(report.fault_injected);
  ASSERT_FALSE(report.anatomy.empty());
  double stall_seconds = 0.0;
  for (const obs::StepAnatomy& a : report.anatomy) {
    expect_tiles_window(a);
    stall_seconds += a.seconds(obs::PathCategory::kStallFault);
  }
  EXPECT_GT(stall_seconds, 0.0);
}

TEST(AnatomyIntegration, WeipipeExposesLessCommThanPipelineAtLongContext) {
  if (kSanitized) {
    GTEST_SKIP() << "sanitizer scheduling distorts the timing comparison";
  }
  // The paper's operating regime: G*S/(12H) = 2*256/(12*16) = 2.7 > 1, so a
  // microbatch's activations outweigh a layer's weights. Every link is a
  // modeled 10 MB/s wire, so the comparison is between how the two
  // schedules expose the same wire, not how fast the host copies bytes in
  // memory. The same gate, with the same margin, runs in CI via
  // `weipipe_cli anatomy --gate-vs`.
  prof::ProfileOptions options = small_trainer_options("weipipe");
  options.iters = 4;
  options.warmup_iters = 1;
  options.train.model.dim = 16;
  options.train.model.seq_len = 256;
  options.train.seq_len = 256;
  options.train.microbatch_size = 2;
  options.train.num_microbatches = 8;
  options.link_model = comm::uniform_link(10e6, 0.0);
  const prof::ProfileReport weipipe = prof::run_profile(options);
  options.strategy = "1f1b";
  const prof::ProfileReport pipeline = prof::run_profile(options);

  ASSERT_FALSE(weipipe.anatomy.empty());
  ASSERT_FALSE(pipeline.anatomy.empty());
  EXPECT_LT(weipipe.mean_exposed_comm_fraction() +
                prof::kExposedCommGateMargin,
            pipeline.mean_exposed_comm_fraction())
      << "weipipe should hide weight circulation behind compute better "
         "than the pipeline baseline exposes activation transfers";
}

}  // namespace
}  // namespace weipipe
