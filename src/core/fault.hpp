// Reusable fault-injection seam.
//
// Grown out of tests/fault_injection.hpp (PR 1), where it corrupted layer
// activations to prove the pipeline degrades gracefully. The inference
// server (src/infer) needs the same machinery one level up — batches that
// stall, fail, or return poisoned outputs — so the schedule/kind
// vocabulary and the delegating FaultyLayer live here now, plus a
// FaultInjector registry of *named fault points* that production code can
// consult cheaply and tests/benches can arm deterministically.
//
// Two scheduling modes, both deterministic:
//   * counter windows (first_call / period / last_call): the Nth calls of a
//     fault point fire, reproducibly, independent of thread interleaving at
//     the point itself (each point keeps its own call counter);
//   * seeded probability (probability >= 0): call i fires iff a hash of
//     (seed, i) falls under `probability` — a pre-committed coin-flip
//     sequence, so two runs (or two injectors) with the same seed see the
//     same schedule.
//
// Fault kinds split into data faults (kNaN / kInf / kSaturate — poison the
// payload) and node faults (kDelay — injected latency; kDrop — the
// operation never completes). FaultyLayer applies data faults to its
// output tensor and honors kDelay as a stall; kDrop is meaningless for a
// layer (a forward cannot "not return") and passes through. The
// inference server's "infer.forward" point honors all five.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <utility>

#include "nn/layer.hpp"

namespace mupod {

enum class FaultKind {
  kNaN,       // quiet NaNs
  kInf,       // +infinity
  kSaturate,  // finite but absurdly large (~1e6) — degrades fits, not isfinite
  kDelay,     // injected latency: the operation completes, late
  kDrop,      // the operation never completes (dead / unresponsive node)
};

inline const char* fault_kind_name(FaultKind k) {
  switch (k) {
    case FaultKind::kNaN: return "nan";
    case FaultKind::kInf: return "inf";
    case FaultKind::kSaturate: return "saturate";
    case FaultKind::kDelay: return "delay";
    case FaultKind::kDrop: return "drop";
  }
  return "?";
}

// Which calls of a fault point fire. Calls are counted per point (or per
// FaultyLayer instance), starting at 0.
struct FaultSchedule {
  FaultKind kind = FaultKind::kNaN;
  int first_call = 0;                               // first faulty call
  int period = 1;                                   // every Nth call after first
  int last_call = std::numeric_limits<int>::max();  // inclusive
  double fraction = 0.25;        // fraction of elements poisoned (data kinds)
  std::int64_t delay_us = 1000;  // injected latency (kDelay)
  // Seeded-probability mode: when >= 0, overrides the counter window — call
  // i fires iff hash(seed, i) maps below `probability`.
  double probability = -1.0;
  std::uint64_t seed = 0;
};

// Deterministic per-call coin flip for probability mode (splitmix64 over
// seed ^ call). Exposed so tests can pre-compute a schedule.
inline bool fault_coin(std::uint64_t seed, int call, double probability) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * static_cast<std::uint64_t>(call + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  z ^= z >> 31;
  return static_cast<double>(z >> 11) * 0x1.0p-53 < probability;
}

// Does call number `call` of a point with this schedule fire?
inline bool fault_fires(const FaultSchedule& s, int call) {
  if (s.probability >= 0.0) return fault_coin(s.seed, call, s.probability);
  if (call < s.first_call || call > s.last_call) return false;
  if (s.period > 1 && (call - s.first_call) % s.period != 0) return false;
  return true;
}

// Poisons a strided subset of `data` according to the (data-kind) schedule.
inline void fault_poison(std::span<float> data, const FaultSchedule& s) {
  if (data.empty()) return;
  const auto n = static_cast<std::size_t>(std::clamp(s.fraction, 0.0, 1.0) *
                                          static_cast<double>(data.size()));
  const std::size_t stride = n > 0 ? std::max<std::size_t>(data.size() / n, 1) : data.size();
  float v = 0.0f;
  switch (s.kind) {
    case FaultKind::kNaN: v = std::numeric_limits<float>::quiet_NaN(); break;
    case FaultKind::kInf: v = std::numeric_limits<float>::infinity(); break;
    case FaultKind::kSaturate: v = 1e6f; break;
    case FaultKind::kDelay:
    case FaultKind::kDrop: return;  // node faults carry no payload corruption
  }
  for (std::size_t i = 0; i < data.size(); i += stride) data[i] = v;
}

// The fault a consulted point should apply right now.
struct FaultAction {
  FaultKind kind = FaultKind::kNaN;
  std::int64_t delay_us = 0;  // meaningful for kDelay
  double fraction = 0.25;     // meaningful for data kinds
};

// Registry of named fault points. Production code consults check(point) at
// its seams (cheap when nothing is armed); tests and chaos benches arm
// schedules by name. Thread-safe; each point counts its own calls so a
// counter-window schedule fires on deterministic call numbers regardless
// of which thread reaches the point.
class FaultInjector {
 public:
  void arm(const std::string& point, FaultSchedule schedule) {
    std::lock_guard<std::mutex> lk(mu_);
    auto& p = points_[point];
    if (p == nullptr) p = std::make_unique<Point>();
    p->schedule = schedule;
    p->armed = true;
  }

  void disarm(const std::string& point) {
    std::lock_guard<std::mutex> lk(mu_);
    if (auto it = points_.find(point); it != points_.end()) it->second->armed = false;
  }

  // Counts a call at `point` and returns the fault to apply, if any.
  std::optional<FaultAction> check(const std::string& point) {
    Point* p = nullptr;
    {
      std::lock_guard<std::mutex> lk(mu_);
      auto it = points_.find(point);
      if (it == points_.end() || !it->second->armed) return std::nullopt;
      p = it->second.get();
    }
    const int call = p->calls.fetch_add(1, std::memory_order_relaxed);
    FaultSchedule s;
    {
      std::lock_guard<std::mutex> lk(mu_);
      s = p->schedule;
    }
    if (!fault_fires(s, call)) return std::nullopt;
    p->fired.fetch_add(1, std::memory_order_relaxed);
    return FaultAction{s.kind, s.delay_us, s.fraction};
  }

  std::int64_t calls(const std::string& point) const { return field(point, &Point::calls); }
  std::int64_t fired(const std::string& point) const { return field(point, &Point::fired); }

 private:
  struct Point {
    FaultSchedule schedule;
    bool armed = false;
    std::atomic<int> calls{0};
    std::atomic<std::int64_t> fired{0};
  };

  template <typename T>
  std::int64_t field(const std::string& point, std::atomic<T> Point::* m) const {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = points_.find(point);
    return it != points_.end() ? (it->second.get()->*m).load(std::memory_order_relaxed) : 0;
  }

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Point>> points_;
};

// Wraps any Layer and corrupts its output on schedule. The mutable call
// counter mirrors how a real intermittent hardware fault presents: the
// same layer works on some forward passes and emits garbage on others.
class FaultyLayer final : public Layer {
 public:
  FaultyLayer(std::unique_ptr<Layer> inner, FaultSchedule schedule)
      : inner_(std::move(inner)), schedule_(schedule) {}

  LayerKind kind() const override { return inner_->kind(); }
  Shape output_shape(std::span<const Shape> in) const override {
    return inner_->output_shape(in);
  }
  bool analyzable() const override { return inner_->analyzable(); }
  LayerCost cost(std::span<const Shape> in) const override { return inner_->cost(in); }
  const Tensor* weights() const override { return inner_->weights(); }
  Tensor* mutable_weights() override { return inner_->mutable_weights(); }
  const Tensor* bias() const override { return inner_->bias(); }
  Tensor* mutable_bias() override { return inner_->mutable_bias(); }

  void forward(std::span<const Tensor* const> in, Tensor& out) const override {
    inner_->forward(in, out);
    if (!armed_) return;
    const int call = calls_++;
    if (!fault_fires(schedule_, call)) return;
    switch (schedule_.kind) {
      case FaultKind::kDelay:
        std::this_thread::sleep_for(std::chrono::microseconds(schedule_.delay_us));
        break;
      case FaultKind::kDrop:
        break;  // a forward cannot "not return"; node-level concept only
      default:
        fault_poison(out.span(), schedule_);
        break;
    }
  }

  int calls() const { return calls_; }
  void reset_calls() { calls_ = 0; }
  // Disarmed, the wrapper is a transparent pass-through and calls are not
  // counted — used so weight calibration sees the healthy network.
  void arm(bool on) { armed_ = on; }

 private:
  std::unique_ptr<Layer> inner_;
  FaultSchedule schedule_;
  mutable int calls_ = 0;
  bool armed_ = true;
};

}  // namespace mupod
