// Request-tracing battery (src/obs/trace, and the request lanes the
// inference server records into it):
//
//  1. Tracer ring wraparound: dropped-event accounting and the
//     per-thread chronological-order invariant under concurrent
//     recorders (this file is in the `sanitize` ctest label, so the
//     TSan lane exercises the ring mutex and the relaxed counters).
//  2. The acceptance chaos run: a deadline-laden burst through
//     InferenceServer, asserting that EVERY request ends with a connected
//     lane (submit -> dispatch -> resolve sharing one trace_id, present
//     in the Chrome-trace export) that carries its terminal status, and
//     for every request that reached a batch, that batch's id.
#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <cctype>
#include <cstring>
#include <future>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "data/synthetic.hpp"
#include "infer/server.hpp"
#include "zoo/zoo.hpp"

namespace mupod {
namespace {

// Minimal recursive-descent JSON well-formedness checker (the repo has a
// writer but deliberately no parser; schema details are asserted with
// targeted substring checks). Same shape as the one in test_obs.cpp.
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
    ++i_;
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
    ++i_;
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
      if (static_cast<unsigned char>(c) < 0x20) return false;
      if (c == '\\') {
        ++i_;
        if (i_ >= s_.size()) return false;
      }
      ++i_;
    }
    return false;
  }
  bool number() {
    const std::size_t start = i_;
    if (peek() == '-') ++i_;
    while (i_ < s_.size() && (std::isdigit(static_cast<unsigned char>(s_[i_])) ||
                              s_[i_] == '.' || s_[i_] == 'e' || s_[i_] == 'E' ||
                              s_[i_] == '+' || s_[i_] == '-'))
      ++i_;
    return i_ > start;
  }
  bool literal(const char* lit) {
    const std::size_t n = std::string(lit).size();
    if (s_.compare(i_, n, lit) != 0) return false;
    i_ += n;
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

// Mirrors trace.cpp's append_hex: how async/flow events spell their
// Perfetto correlation "id" in the Chrome-trace export.
std::string hex_id(std::uint64_t v) {
  std::string out = "0x";
  bool started = false;
  for (int shift = 60; shift >= 0; shift -= 4) {
    const int nib = static_cast<int>((v >> shift) & 0xF);
    if (nib == 0 && !started && shift != 0) continue;
    started = true;
    out += "0123456789abcdef"[nib];
  }
  return out;
}

// ----------------------------------------------------- tracer ring buffer --

TEST(TracerRing, WrapDropsOldestCountsDroppedAndKeepsChronology) {
  Tracer t(8);
  for (int i = 0; i < 20; ++i) {
    TraceEvent e;
    e.name = "ev";
    e.ts_us = static_cast<std::uint64_t>(i);
    e.args[0] = {"seq", i};
    e.n_args = 1;
    t.record(std::move(e));
  }
  EXPECT_EQ(t.size(), 8u);
  EXPECT_EQ(t.capacity(), 8u);
  EXPECT_EQ(t.dropped(), 12);

  // events() is oldest-first: exactly the newest 8, in recording order.
  const std::vector<TraceEvent> evs = t.events();
  ASSERT_EQ(evs.size(), 8u);
  for (std::size_t i = 0; i < evs.size(); ++i)
    EXPECT_EQ(evs[i].args[0].second, static_cast<std::int64_t>(12 + i));

  t.clear();
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.dropped(), 0);
}

TEST(TracerRing, ConcurrentRecordersStayPerThreadChronologicalAcrossWrap) {
  // A ring far smaller than the event volume, hammered from 4 threads:
  // every event is accounted (retained + dropped == recorded), and the
  // retained subsequence of each thread is strictly ordered — wraparound
  // may drop a prefix, never shuffle.
  Tracer t(64);
  constexpr int kThreads = 4, kPerThread = 2000;
  std::vector<std::thread> ts;
  for (int tid = 0; tid < kThreads; ++tid) {
    ts.emplace_back([&t, tid] {
      for (int i = 0; i < kPerThread; ++i) {
        TraceEvent e;
        e.name = "ev";
        e.args[0] = {"thread", tid};
        e.args[1] = {"seq", i};
        e.n_args = 2;
        t.record(std::move(e));
      }
    });
  }
  for (std::thread& th : ts) th.join();

  EXPECT_EQ(t.size(), 64u);
  EXPECT_EQ(static_cast<std::int64_t>(t.size()) + t.dropped(),
            static_cast<std::int64_t>(kThreads) * kPerThread);

  std::map<std::int64_t, std::int64_t> last_seq;  // thread -> last seen seq
  for (const TraceEvent& e : t.events()) {
    ASSERT_EQ(e.n_args, 2);
    const std::int64_t tid = e.args[0].second;
    const std::int64_t seq = e.args[1].second;
    const auto it = last_seq.find(tid);
    if (it != last_seq.end()) {
      EXPECT_LT(it->second, seq) << "thread " << tid << " events out of order";
    }
    last_seq[tid] = seq;
  }
}

// -------------------------------------------------- chaos acceptance sweep --

struct ChaosFixture {
  ZooModel model;
  std::unique_ptr<SyntheticImageDataset> dataset;
};

const ChaosFixture& chaos_fixture() {
  static ChaosFixture* f = [] {
    auto* fx = new ChaosFixture();
    ZooOptions zo;
    zo.num_classes = 10;
    zo.seed = 606;
    zo.data_seed = 8;
    zo.calibration_images = 8;
    zo.head_images = 0;
    fx->model = build_tiny_cnn(zo);
    DatasetConfig dc;
    dc.num_classes = 10;
    dc.height = 16;
    dc.width = 16;
    dc.seed = 8;
    fx->dataset = std::make_unique<SyntheticImageDataset>(dc);
    return fx;
  }();
  return *f;
}

TEST(TraceChaos, EveryRequestHasAConnectedLaneCarryingItsTerminalStatus) {
  const ChaosFixture& f = chaos_fixture();
  tracer().clear();
  set_tracing_enabled(true);

  // --- batched serving with deadline-doomed requests ----------------------
  InferenceServerConfig icfg;
  icfg.batch.max_batch = 4;
  icfg.batch.max_wait_us = 2000;
  icfg.max_queue = 64;
  InferenceServer server(icfg);
  server.register_model("tiny", f.model.net, f.model.analyzed);
  server.start();

  std::vector<std::future<InferenceResult>> futs;
  for (int i = 0; i < 24; ++i) {
    Tensor img(Shape({1, 3, 16, 16}));
    f.dataset->render_image(i, img, 0);
    InferOptions opts;
    if (i % 6 == 5) opts.deadline_us = 1;  // doomed: expires before any batch cuts
    futs.push_back(server.submit(std::move(img), opts));
  }
  std::vector<InferenceResult> infer_results;
  for (auto& fu : futs) infer_results.push_back(fu.get());
  server.stop();
  set_tracing_enabled(false);

  // --- acceptance: every request -> a connected lane with its outcome -----
  const std::vector<TraceEvent> events = tracer().events();
  EXPECT_EQ(tracer().dropped(), 0);  // the ring held the whole chaos run

  // Per trace id: the phases on the lane, the 'e' event's status arg and
  // the 'n' dispatch event's batch arg.
  struct Lane {
    std::set<char> phases;
    std::vector<std::int64_t> statuses;
    std::vector<std::int64_t> batches;
  };
  const auto arg = [](const TraceEvent& e, const char* key) -> const std::int64_t* {
    for (int i = 0; i < e.n_args; ++i)
      if (std::strcmp(e.args[i].first, key) == 0) return &e.args[i].second;
    return nullptr;
  };
  std::map<std::uint64_t, Lane> lanes;
  for (const TraceEvent& e : events) {
    if (!e.ctx.valid()) continue;
    Lane& lane = lanes[e.ctx.trace_id];
    lane.phases.insert(e.ph);
    const std::int64_t* status = e.ph == 'e' ? arg(e, "status") : nullptr;
    const std::int64_t* batch = e.ph == 'n' ? arg(e, "batch") : nullptr;
    if (status != nullptr) lane.statuses.push_back(*status);
    if (batch != nullptr) lane.batches.push_back(*batch);
  }

  const std::string chrome = tracer().chrome_trace_json();
  EXPECT_TRUE(json_well_formed(chrome));

  int failed = 0;
  for (const InferenceResult& r : infer_results) {
    SCOPED_TRACE("request " + std::to_string(r.id));
    ASSERT_NE(r.trace_id, 0u);
    const auto it = lanes.find(r.trace_id);
    ASSERT_NE(it, lanes.end());
    const Lane& lane = it->second;
    // A connected lane: async begin + end and a flow arrow, all sharing
    // one trace id.
    EXPECT_TRUE(lane.phases.count('b'));
    EXPECT_TRUE(lane.phases.count('e'));
    EXPECT_TRUE(lane.phases.count('s') || lane.phases.count('t') || lane.phases.count('f'));
    // And the Chrome export carries the same lane under the hex id.
    EXPECT_NE(chrome.find("\"id\":\"" + hex_id(r.trace_id) + "\""), std::string::npos);

    // The lane's end names the terminal status the caller saw, for every
    // request (expired ones included).
    ASSERT_EQ(lane.statuses.size(), 1u);
    EXPECT_EQ(lane.statuses[0], static_cast<int>(r.status));

    // A request that reached a batch was dispatched exactly once, into the
    // batch its result names; one that never did has no dispatch event.
    if (r.status == InferStatus::kOk) {
      EXPECT_GE(r.batch_id, 0);
    }
    if (r.batch_id >= 0) {
      ASSERT_EQ(lane.batches.size(), 1u);
      EXPECT_EQ(lane.batches[0], r.batch_id);
    } else {
      EXPECT_TRUE(lane.batches.empty());
    }
    if (r.status != InferStatus::kOk) ++failed;
  }
  EXPECT_GE(failed, 1);  // the doomed deadlines actually failed
  tracer().clear();
}

}  // namespace
}  // namespace mupod
