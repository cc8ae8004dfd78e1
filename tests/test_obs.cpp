// Observability subsystem tests: metrics primitives, the span tracer and
// its Chrome-trace export, stage-scoped forward accounting — and the
// acceptance sweep from the PR issue: a 3 objectives x 4 targets NiN grid
// whose cache and forward counters must land on exactly the numbers the
// serving algebra predicts (1 profile + M searches + N*M tails).
//
// Each TEST runs as its own ctest process, but we still reset the global
// registry/tracer at the start of every test that reads them — the unit
// under test is process-global state.
#include <gtest/gtest.h>

#include <cctype>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "data/synthetic.hpp"
#include "io/json_writer.hpp"
#include "obs/metrics.hpp"
#include "obs/stage_scope.hpp"
#include "obs/trace.hpp"
#include "serve/sweep.hpp"
#include "zoo/zoo.hpp"

namespace mupod {
namespace {

// ---------------------------------------------------------------------------
// Minimal recursive-descent JSON well-formedness checker. The repo has a
// JSON *writer* but deliberately no parser; this is just enough grammar to
// assert that exported documents are syntactically valid JSON (the schema
// details are asserted with targeted substring checks).
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& s) : s_(s) {}
  bool valid() {
    i_ = 0;
    if (!value()) return false;
    ws();
    return i_ == s_.size();
  }

 private:
  bool value() {
    ws();
    if (i_ >= s_.size()) return false;
    switch (s_[i_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object() {
    ++i_;  // '{'
    ws();
    if (peek() == '}') { ++i_; return true; }
    while (true) {
      ws();
      if (!string()) return false;
      ws();
      if (peek() != ':') return false;
      ++i_;
      if (!value()) return false;
      ws();
      if (peek() == ',') { ++i_; continue; }
      if (peek() == '}') { ++i_; return true; }
      return false;
    }
  }
  bool array() {
    ++i_;  // '['
    ws();
    if (peek() == ']') { ++i_; return true; }
    while (true) {
      if (!value()) return false;
      ws();
      if (peek() == ',') { ++i_; continue; }
      if (peek() == ']') { ++i_; return true; }
      return false;
    }
  }
  bool string() {
    if (peek() != '"') return false;
    ++i_;
    while (i_ < s_.size()) {
      const char c = s_[i_];
      if (c == '"') { ++i_; return true; }
      if (static_cast<unsigned char>(c) < 0x20) return false;  // raw control char
      if (c == '\\') {
        ++i_;
        if (i_ >= s_.size()) return false;
        const char e = s_[i_];
        if (e == 'u') {
          for (int k = 1; k <= 4; ++k)
            if (i_ + static_cast<std::size_t>(k) >= s_.size() ||
                !std::isxdigit(static_cast<unsigned char>(s_[i_ + static_cast<std::size_t>(k)])))
              return false;
          i_ += 4;
        } else if (std::string("\"\\/bfnrt").find(e) == std::string::npos) {
          return false;
        }
      }
      ++i_;
    }
    return false;  // unterminated
  }
  bool number() {
    const std::size_t start = i_;
    if (peek() == '-') ++i_;
    while (std::isdigit(static_cast<unsigned char>(peek()))) ++i_;
    if (peek() == '.') {
      ++i_;
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++i_;
    }
    if (peek() == 'e' || peek() == 'E') {
      ++i_;
      if (peek() == '+' || peek() == '-') ++i_;
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++i_;
    }
    return i_ > start && std::isdigit(static_cast<unsigned char>(s_[i_ - 1]));
  }
  bool literal(const char* lit) {
    for (const char* p = lit; *p != '\0'; ++p, ++i_)
      if (i_ >= s_.size() || s_[i_] != *p) return false;
    return true;
  }
  void ws() {
    while (i_ < s_.size() && (s_[i_] == ' ' || s_[i_] == '\t' || s_[i_] == '\n' || s_[i_] == '\r'))
      ++i_;
  }
  char peek() const { return i_ < s_.size() ? s_[i_] : '\0'; }

  const std::string& s_;
  std::size_t i_ = 0;
};

bool json_well_formed(const std::string& s) { return JsonChecker(s).valid(); }

int count_occurrences(const std::string& hay, const std::string& needle) {
  int n = 0;
  for (std::size_t p = hay.find(needle); p != std::string::npos; p = hay.find(needle, p + 1)) ++n;
  return n;
}

struct ObsReset {
  // Start every test from a clean slate and leave the process-global
  // switches the way the rest of the suite expects (off).
  ObsReset() {
    set_metrics_enabled(false);
    set_tracing_enabled(false);
    metrics().reset();
    tracer().clear();
  }
  ~ObsReset() {
    set_metrics_enabled(false);
    set_tracing_enabled(false);
  }
};

// --------------------------------------------------------------- metrics --

TEST(Metrics, CheckerAcceptsAndRejectsTheRightDocuments) {
  // Trust-but-verify the test helper itself.
  EXPECT_TRUE(json_well_formed(R"({"a":[1,2.5,-3e2],"b":{"c":null,"d":"x\né"}})"));
  EXPECT_TRUE(json_well_formed("[]"));
  EXPECT_FALSE(json_well_formed(R"({"a":1)"));        // unterminated object
  EXPECT_FALSE(json_well_formed(R"({"a":01x})"));     // trailing garbage in number
  EXPECT_FALSE(json_well_formed(R"(["unclosed)"));    // unterminated string
  EXPECT_FALSE(json_well_formed(R"({"a":1}{)"));      // trailing garbage
  EXPECT_FALSE(json_well_formed("{\"a\":\"\x01\"}")); // raw control char
}

TEST(Metrics, CounterSumsConcurrentIncrements) {
  ObsReset reset;
  Counter c;
  constexpr int kThreads = 4, kPerThread = 20000;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t)
    ts.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) c.add(1);
    });
  for (std::thread& t : ts) t.join();
  EXPECT_EQ(c.value(), static_cast<std::int64_t>(kThreads) * kPerThread);
  c.reset();
  EXPECT_EQ(c.value(), 0);
}

TEST(Metrics, GaugeSetIsLastWriterWinsAndAddAccumulates) {
  Gauge g;
  g.set(42);
  g.set(7);
  EXPECT_EQ(g.value(), 7);
  g.add(3);
  g.add(-10);
  EXPECT_EQ(g.value(), 0);
}

TEST(Metrics, HistogramBucketsBoundsAndOverflow) {
  HistogramMetric h({1.0, 2.0, 4.0});
  h.record(0.5);   // <= 1
  h.record(1.0);   // <= 1 (bounds are inclusive)
  h.record(3.0);   // <= 4
  h.record(100.0); // overflow
  const std::vector<std::int64_t> counts = h.counts();
  ASSERT_EQ(counts.size(), 4u);  // 3 bounds + overflow
  EXPECT_EQ(counts[0], 2);
  EXPECT_EQ(counts[1], 0);
  EXPECT_EQ(counts[2], 1);
  EXPECT_EQ(counts[3], 1);
  EXPECT_EQ(h.count(), 4);
  EXPECT_DOUBLE_EQ(h.sum(), 104.5);
}

TEST(Metrics, RegistryHandlesAreStableAndResetKeepsRegistrations) {
  ObsReset reset;
  Counter& a = metrics().counter("test.handle.stability");
  a.add(5);
  Counter& b = metrics().counter("test.handle.stability");
  EXPECT_EQ(&a, &b);  // same instrument, so cached handles stay valid
  metrics().reset();
  EXPECT_EQ(a.value(), 0);  // value zeroed...
  const MetricsSnapshot snap = metrics().snapshot();
  bool found = false;
  for (const auto& c : snap.counters)
    if (c.name == "test.handle.stability") found = true;
  EXPECT_TRUE(found);  // ...but the registration survives
}

TEST(Metrics, SnapshotIsSortedQueryableAndJsonClean) {
  ObsReset reset;
  metrics().counter("test.z.last").add(3);
  metrics().counter("test.a.first").add(1);
  metrics().gauge("test.gauge").set(-4);
  metrics().histogram("test.hist", {1.0, 10.0}).record(5.0);

  const MetricsSnapshot snap = metrics().snapshot();
  ASSERT_GE(snap.counters.size(), 2u);
  for (std::size_t i = 1; i < snap.counters.size(); ++i)
    EXPECT_LT(snap.counters[i - 1].name, snap.counters[i].name);  // sorted (std::map order)
  EXPECT_EQ(snap.counter("test.z.last"), 3);
  EXPECT_EQ(snap.counter("does.not.exist"), 0);

  JsonWriter j;
  snap.write_json(j);
  ASSERT_TRUE(j.complete());
  EXPECT_TRUE(json_well_formed(j.str()));
  EXPECT_NE(j.str().find("\"test.a.first\""), std::string::npos);
  EXPECT_NE(j.str().find("\"test.hist\""), std::string::npos);
  EXPECT_NE(snap.render_text().find("test.gauge"), std::string::npos);
}

TEST(Metrics, HistogramPercentileInterpolatesWithinTheCrossingBucket) {
  // Hand-built buckets keep the arithmetic checkable: bounds {10, 20, 30},
  // two samples in (0, 10], two in (10, 20].
  const std::vector<double> bounds{10.0, 20.0, 30.0};
  const std::vector<std::int64_t> counts{2, 2, 0, 0};
  // rank(q) = q * (total - 1) + 1: q=0 is the first sample, q=1 the last.
  EXPECT_DOUBLE_EQ(histogram_percentile(bounds, counts, 0.0), 5.0);    // rank 1 of 2 in (0, 10]
  EXPECT_DOUBLE_EQ(histogram_percentile(bounds, counts, 0.5), 12.5);   // rank 2.5 -> (10, 20]
  EXPECT_DOUBLE_EQ(histogram_percentile(bounds, counts, 1.0), 20.0);   // rank 4 = bucket top
  // q is clamped; empty histograms report 0.
  EXPECT_DOUBLE_EQ(histogram_percentile(bounds, counts, 2.0), 20.0);
  EXPECT_DOUBLE_EQ(histogram_percentile(bounds, {0, 0, 0, 0}, 0.5), 0.0);
  // Ranks landing in the overflow bucket cap at the last bound — a
  // fixed-bucket histogram cannot resolve beyond its range.
  EXPECT_DOUBLE_EQ(histogram_percentile(bounds, {0, 0, 0, 5}, 0.99), 30.0);
  // A negative first bound extends the first bucket's lower edge.
  EXPECT_DOUBLE_EQ(histogram_percentile({-10.0, 10.0}, {1, 0, 0}, 0.0), -10.0);
}

TEST(Metrics, HistogramSummaryReportsCountSumMeanAndQuantiles) {
  ObsReset reset;
  HistogramMetric& h = metrics().histogram("test.summary", {1.0, 2.0, 4.0});
  for (const double x : {0.5, 1.5, 1.5, 3.0, 3.0, 3.0, 100.0}) h.record(x);

  const HistogramSummary s = h.summary();
  EXPECT_EQ(s.count, 7);
  EXPECT_DOUBLE_EQ(s.sum, 112.5);
  EXPECT_DOUBLE_EQ(s.mean, 112.5 / 7.0);
  // Buckets: {1, 2, 3, 1}. rank(0.5) = 4 -> bucket (2, 4] at frac 1/3.
  EXPECT_DOUBLE_EQ(s.p50, 2.0 + 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(s.p50, h.percentile(0.5));
  // p99's rank lands on the overflow sample: capped at the last bound.
  EXPECT_DOUBLE_EQ(s.p99, 4.0);
  EXPECT_LE(s.p50, s.p90);
  EXPECT_LE(s.p90, s.p99);

  // The snapshot view computes the identical numbers from its copied
  // buckets (this is what bench reports and serve_tool print).
  const MetricsSnapshot snap = metrics().snapshot();
  for (const auto& hv : snap.histograms) {
    if (hv.name != "test.summary") continue;
    EXPECT_DOUBLE_EQ(hv.percentile(0.5), s.p50);
    const HistogramSummary s2 = hv.summary();
    EXPECT_EQ(s2.count, s.count);
    EXPECT_DOUBLE_EQ(s2.p99, s.p99);
  }

  // write_json carries the summary quantiles alongside the raw buckets.
  JsonWriter j;
  snap.write_json(j);
  ASSERT_TRUE(j.complete());
  EXPECT_NE(j.str().find("\"p50\""), std::string::npos);
  EXPECT_NE(j.str().find("\"p99\""), std::string::npos);
}

// ----------------------------------------------------------------- trace --

TEST(Trace, RingBufferKeepsNewestCountsDropped) {
  Tracer t(4);
  for (int i = 0; i < 6; ++i) {
    TraceEvent e;
    e.name = "e" + std::to_string(i);
    e.ts_us = static_cast<std::uint64_t>(i);
    t.record(std::move(e));
  }
  EXPECT_EQ(t.size(), 4u);
  EXPECT_EQ(t.dropped(), 2);
  const std::vector<TraceEvent> evs = t.events();
  ASSERT_EQ(evs.size(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(evs[static_cast<std::size_t>(i)].name,
                                        "e" + std::to_string(i + 2));  // oldest 2 gone
  t.clear();
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.dropped(), 0);
}

TEST(Trace, ScopedSpanIsInertWhenTracingDisabled) {
  ObsReset reset;
  {
    ScopedSpan span("should.not.record");
    span.arg("k", 1);
    EXPECT_FALSE(span.active());
  }
  EXPECT_EQ(tracer().size(), 0u);
}

TEST(Trace, ScopedSpanRecordsNestingAndArgs) {
  ObsReset reset;
  set_tracing_enabled(true);
  {
    ScopedSpan outer("test.outer");
    outer.arg("cells", 12);
    {
      ScopedSpan inner("test.inner", "unit");
      inner.arg("k", 7);
    }
  }
  set_tracing_enabled(false);
  const std::vector<TraceEvent> evs = tracer().events();
  ASSERT_EQ(evs.size(), 2u);
  // Inner closes first, so it lands first; nesting shows in the times.
  EXPECT_EQ(evs[0].name, "test.inner");
  EXPECT_STREQ(evs[0].category, "unit");
  ASSERT_EQ(evs[0].n_args, 1);
  EXPECT_STREQ(evs[0].args[0].first, "k");
  EXPECT_EQ(evs[0].args[0].second, 7);
  EXPECT_EQ(evs[1].name, "test.outer");
  EXPECT_GE(evs[0].ts_us, evs[1].ts_us);  // inner starts after outer
  EXPECT_LE(evs[0].ts_us + evs[0].dur_us, evs[1].ts_us + evs[1].dur_us);  // and ends inside it
}

TEST(Trace, ChromeTraceJsonIsValidAndCarriesTheSchema) {
  ObsReset reset;
  set_tracing_enabled(true);
  {
    ScopedSpan a("test.span.a");
    a.arg("forwards", 640);
    ScopedSpan b("test.span.b");
  }
  set_tracing_enabled(false);

  const std::string json = tracer().chrome_trace_json();
  EXPECT_TRUE(json_well_formed(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"droppedEvents\":0"), std::string::npos);
  // One complete ("X") event per span, each with the required fields.
  EXPECT_EQ(count_occurrences(json, "\"ph\":\"X\""), 2);
  EXPECT_EQ(count_occurrences(json, "\"pid\":1"), 2);
  EXPECT_EQ(count_occurrences(json, "\"ts\":"), 2);
  EXPECT_EQ(count_occurrences(json, "\"dur\":"), 2);
  EXPECT_NE(json.find("\"name\":\"test.span.a\""), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"forwards\":640}"), std::string::npos);
}

// ----------------------------------------------------- stage attribution --

TEST(StageScope, ChargesForwardsToTheActiveStageAndRestoresOnExit) {
  ObsReset reset;
  set_metrics_enabled(true);
  EXPECT_EQ(current_forward_stage(), ForwardStage::kOther);
  {
    ForwardStageScope profile(ForwardStage::kProfile);
    EXPECT_EQ(current_forward_stage(), ForwardStage::kProfile);
    note_forwards(8);
    {
      ForwardStageScope sigma(ForwardStage::kSigma);
      note_forwards(3);
    }
    // Inner scope restored the outer attribution.
    EXPECT_EQ(current_forward_stage(), ForwardStage::kProfile);
    note_forwards(2);
  }
  EXPECT_EQ(current_forward_stage(), ForwardStage::kOther);
  note_forwards(5);  // unscoped work lands in the kOther bucket
  set_metrics_enabled(false);

  const MetricsSnapshot snap = metrics().snapshot();
  EXPECT_EQ(snap.counter("stage.profile.forwards"), 10);
  EXPECT_EQ(snap.counter("stage.sigma.forwards"), 3);
  EXPECT_EQ(snap.counter("stage.other.forwards"), 5);
}

TEST(StageScope, DisabledMetricsRecordNothing) {
  ObsReset reset;
  {
    ForwardStageScope scope(ForwardStage::kObjective);
    note_forwards(100);
  }
  EXPECT_EQ(metrics().snapshot().counter("stage.objective.forwards"), 0);
}

// ------------------------------------------------------- acceptance sweep --
//
// The PR's acceptance criterion: with metrics enabled, a 3-objective x
// 4-target sweep over the NiN zoo model must report its forward passes
// split by stage and land the cache counters exactly where the serving
// algebra says: 12 queries = 1 charged profile + 11 profile hits, 4 sigma
// searches + 8 memo hits, 12 allocation tails, 0 plan replays — and the
// trace exported from the run must be valid Chrome-trace JSON.

TEST(ObsAcceptance, NinSweepStageAccountingCacheCountersAndTrace) {
  ZooOptions zo;
  zo.num_classes = 10;
  zo.seed = 97;
  zo.data_seed = 55;
  zo.calibration_images = 8;
  zo.head_images = 96;
  ZooModel m = build_model("nin", zo);

  DatasetConfig dc;
  dc.num_classes = 10;
  dc.channels = m.channels;
  dc.height = m.height;
  dc.width = m.width;
  dc.seed = 55;
  SyntheticImageDataset ds(dc);

  PlanServiceConfig scfg;
  scfg.pipeline.harness.profile_images = 8;
  scfg.pipeline.harness.eval_images = 96;
  scfg.pipeline.harness.metric = AccuracyMetric::kLabels;
  scfg.pipeline.profiler.points = 5;
  scfg.pipeline.profiler.reps_per_point = 1;
  PlanService service(scfg);
  const PlanKey key = service.register_network(m.net, m.analyzed, ds);

  // Enable instrumentation only for the sweep itself: the zoo build above
  // issues its own forwards, which belong to nobody's stage budget.
  ObsReset reset;
  set_metrics_enabled(true);
  set_tracing_enabled(true);

  SweepSpec spec;
  spec.accuracy_targets = {0.02, 0.05, 0.10, 0.15};  // M = 4
  ObjectiveSpec uniform;
  uniform.name = "uniform";
  uniform.rho.assign(m.analyzed.size(), 1);
  spec.objectives = {objective_input_bits(m.net, m.analyzed),
                     objective_mac_energy(m.net, m.analyzed), uniform};  // N = 3
  const SweepResult sweep = run_sweep(service, key, spec);
  set_metrics_enabled(false);
  set_tracing_enabled(false);
  ASSERT_EQ(sweep.cells.size(), 12u);

  // Cache disposition: charged-once accounting across the 12 queries.
  const CacheStats s = service.stats();
  EXPECT_EQ(s.profile_misses, 1);
  EXPECT_EQ(s.profile_hits, 11);
  EXPECT_EQ(s.sigma_misses, 4);
  EXPECT_EQ(s.sigma_hits, 8);
  EXPECT_EQ(s.plan_misses, 12);
  EXPECT_EQ(s.plan_hits, 0);

  // The same numbers must be visible through the metrics registry (that is
  // what a serve operator actually scrapes).
  const MetricsSnapshot snap = metrics().snapshot();
  EXPECT_EQ(snap.counter("serve.profile.hits"), 11);
  EXPECT_EQ(snap.counter("serve.sigma.hits"), 8);
  EXPECT_EQ(snap.counter("serve.plan.misses"), 12);
  EXPECT_EQ(snap.counter("serve.plan.hits"), 0);

  // Forward passes split by stage: every pipeline stage reports nonzero
  // work, and the split exactly accounts for the harness's own total —
  // the paper's optimization-cost currency, now attributable.
  const std::int64_t harness_fwd = snap.counter("stage.harness.forwards");
  const std::int64_t profile_fwd = snap.counter("stage.profile.forwards");
  const std::int64_t sigma_fwd = snap.counter("stage.sigma.forwards");
  const std::int64_t objective_fwd = snap.counter("stage.objective.forwards");
  EXPECT_GT(harness_fwd, 0);
  EXPECT_GT(profile_fwd, 0);
  EXPECT_GT(sigma_fwd, 0);
  EXPECT_GT(objective_fwd, 0);
  EXPECT_EQ(harness_fwd + profile_fwd + sigma_fwd + objective_fwd, service.forward_count(key));
  // One sigma search per target, with converged brackets in-histogram.
  for (const auto& h : snap.histograms) {
    if (h.name == "sigma.search.evaluations") {
      EXPECT_EQ(h.count, 4);
    }
  }

  // The trace of the sweep exports as valid Chrome-trace JSON carrying the
  // stage and serve spans.
  const std::string json = tracer().chrome_trace_json();
  EXPECT_TRUE(json_well_formed(json));
  EXPECT_EQ(count_occurrences(json, "\"name\":\"serve.plan\""), 12);
  EXPECT_EQ(count_occurrences(json, "\"name\":\"serve.sigma\""), 4);
  EXPECT_EQ(count_occurrences(json, "\"name\":\"serve.profile\""), 1);
  EXPECT_EQ(count_occurrences(json, "\"name\":\"sweep.run\""), 1);
  EXPECT_EQ(count_occurrences(json, "\"name\":\"stage.profile\""), 1);
  EXPECT_EQ(count_occurrences(json, "\"name\":\"stage.sigma\""), 4);
  EXPECT_GE(count_occurrences(json, "\"name\":\"stage.objective\""), 12);
}

}  // namespace
}  // namespace mupod
