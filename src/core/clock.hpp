// One steady-clock timeline for the whole process.
//
// Every subsystem that reasons about deadlines — the inference server's
// batcher and per-request deadlines (src/infer), the telemetry exporter's
// flush period (src/obs) — needs timestamps that are (a) monotonic and
// (b) directly comparable across subsystems, so a deadline computed by
// one layer can be waited on by another. mono_origin pins the origin at
// the first call; mono_now_us is microseconds since then. The decision
// logic built on these timestamps (BatchPolicy, the exporter's due())
// takes explicit now_us parameters and never reads the clock
// itself, so it stays fake-clock-testable; only the threads driving it
// call mono_now_us.
#pragma once

#include <chrono>
#include <cstdint>

namespace mupod {

// Inline (C++17 single-instance function-local static) rather than living
// in mupod_core, so layers below core — mupod_obs needs timestamps for
// telemetry records — share the same origin without a link cycle.
inline std::chrono::steady_clock::time_point mono_origin() {
  static const auto origin = std::chrono::steady_clock::now();
  return origin;
}

inline std::int64_t mono_now_us() {
  return std::chrono::duration_cast<std::chrono::microseconds>(std::chrono::steady_clock::now() -
                                                               mono_origin())
      .count();
}

}  // namespace mupod
