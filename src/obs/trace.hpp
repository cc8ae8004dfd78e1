// Tracer: nested wall-clock spans with a bounded ring-buffer store and a
// Chrome-trace (chrome://tracing / Perfetto) JSON exporter.
//
// Spans answer the question metrics cannot: *where* the wall-clock of a
// profile, a sigma search, or an N×M sweep actually goes, and how the
// concurrent PlanService tails interleave on the pool. Usage is RAII:
//
//   {
//     ScopedSpan span("stage.profile");
//     ...
//     span.arg("forwards", n);   // attached to the exported event
//   }
//
// Recording is gated behind a relaxed atomic flag (tracing_enabled,
// default off); a disabled ScopedSpan costs one branch and touches no
// shared state. Completed spans land in a fixed-capacity ring buffer —
// when it wraps, the oldest events are dropped (and counted), never
// reallocated, so tracing has bounded memory no matter how long a serve
// process runs.
//
// REQUEST CORRELATION. A serving request crosses threads — submitter,
// batcher — and uncorrelated local spans cannot reconstruct its path.
// TraceContext is the correlation unit:
//
//   trace_id   one per request, minted at the entry point
//              (InferenceServer::submit)
//   span_id    one per span within the trace
//   parent_id  span_id of the enclosing span (0 at the root)
//
// Propagation is ambient: TraceContextScope installs a context into
// thread-local state, and every ScopedSpan constructed while it is
// active becomes a child of it (and installs its own context for spans
// nested deeper). Handing work to another thread means carrying the
// TraceContext in the work item and installing a TraceContextScope on
// the executing thread — the PlanService stage spans then correlate to
// the dispatch that triggered them without PlanService knowing anything
// about requests. Cross-thread request timelines additionally record
// async events (trace_async: 'b' begin / 'n' instant / 'e' end, all
// sharing the trace id) and flow arrows (trace_flow: 's'/'t'/'f'), so
// one request renders as a single connected lane in Perfetto.
//
// The exporter emits the Trace Event Format's "X" (complete) events with
// microsecond timestamps relative to the tracer epoch, plus the async
// ("b"/"n"/"e") and flow ("s"/"t"/"f") events above; load the file via
// chrome://tracing or https://ui.perfetto.dev. JSON is produced by the
// same src/io/json_writer the CLI tools use, so escaping and non-finite
// handling are uniform (see test_json_writer.cpp for the edge cases).
#pragma once

#include <array>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace mupod {

// Correlation ids carried by one request across threads and subsystems.
// A default-constructed context is invalid (trace_id 0): every recording
// call propagating it is then a no-op, so disabled tracing costs nothing.
struct TraceContext {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_id = 0;
  bool valid() const { return trace_id != 0; }
};

// Mints a fresh root context (process-unique nonzero ids) when tracing is
// enabled; an invalid context otherwise.
TraceContext mint_trace();
// Child context: same trace, fresh span id, parent = ctx's span.
// Invalid input propagates invalid output.
TraceContext child_span(const TraceContext& ctx);

// Ambient per-thread context. ScopedSpan picks it up automatically; work
// handed across threads re-installs it with TraceContextScope.
TraceContext current_trace_context();

class TraceContextScope {
 public:
  explicit TraceContextScope(const TraceContext& ctx);
  ~TraceContextScope();
  TraceContextScope(const TraceContextScope&) = delete;
  TraceContextScope& operator=(const TraceContextScope&) = delete;

 private:
  TraceContext prev_;
};

struct TraceEvent {
  std::string name;
  const char* category = "mupod";   // literal; "mupod" unless set by the span
  char ph = 'X';                    // 'X' complete; 'b'/'n'/'e' async; 's'/'t'/'f' flow
  std::uint64_t ts_us = 0;          // start, microseconds since tracer epoch
  std::uint64_t dur_us = 0;         // 'X' events only
  int tid = 0;                      // obs_thread_slot() of the recording thread
  TraceContext ctx;                 // exported as args + async/flow id when valid
  // Up to kMaxArgs integer arguments ({"forwards": 640}-style).
  static constexpr int kMaxArgs = 4;
  std::array<std::pair<const char*, std::int64_t>, kMaxArgs> args{};
  int n_args = 0;
};

class Tracer {
 public:
  explicit Tracer(std::size_t capacity = 1 << 14);

  // Current time in microseconds since the tracer epoch (process-stable).
  std::uint64_t now_us() const;

  void record(TraceEvent e);

  // Retained events in recording order (per-thread chronological: one
  // thread's events always appear in the order it recorded them).
  std::vector<TraceEvent> events() const;
  std::size_t size() const;
  std::size_t capacity() const { return capacity_; }
  // Events overwritten because the ring wrapped.
  std::int64_t dropped() const;
  void clear();

  // Full Chrome-trace JSON document: {"traceEvents": [...], ...}.
  std::string chrome_trace_json() const;

 private:
  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::vector<TraceEvent> ring_;
  std::size_t next_ = 0;     // ring insert position
  bool wrapped_ = false;
  std::int64_t dropped_ = 0;
  std::uint64_t epoch_us_;   // steady_clock at construction
};

// Process-global tracer and its master switch (default off).
Tracer& tracer();
bool tracing_enabled();
void set_tracing_enabled(bool enabled);

// One-shot async event on a request timeline: ph 'b' opens the lane at
// the entry point, 'n' marks milestones (collected, dispatched), 'e'
// closes it at resolution. Inert when tracing is disabled or ctx is
// invalid; the optional (k, v) pair lands in args.
void trace_async(char ph, const char* name, const TraceContext& ctx,
                 const char* k = nullptr, std::int64_t v = 0);
// One-shot flow event ('s' start / 't' step / 'f' finish): Perfetto draws
// arrows between the lanes of the threads that recorded them, connecting
// submit -> batch -> resolve across the thread hop.
void trace_flow(char ph, const char* name, const TraceContext& ctx);

// RAII span against the global tracer. Inert when tracing was disabled at
// construction time. When an ambient TraceContext is active on the
// constructing thread, the span becomes a child span of it (and installs
// its own context for the duration, so deeper spans chain correctly).
// `name` is copied at destruction; `category` and arg keys must be string
// literals (stored by pointer).
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, const char* category = "mupod");
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  bool active() const { return active_; }
  const TraceContext& context() const { return ctx_; }
  // Attaches an integer argument to the exported event (ignored when
  // inactive; at most TraceEvent::kMaxArgs are kept).
  void arg(const char* key, std::int64_t value);

 private:
  bool active_;
  const char* name_;
  const char* category_;
  std::uint64_t start_us_ = 0;
  TraceContext ctx_;        // this span's own context (child of ambient)
  TraceContext prev_ctx_;   // ambient context to restore on destruction
  bool installed_ = false;  // whether ctx_ was installed as ambient
  std::array<std::pair<const char*, std::int64_t>, TraceEvent::kMaxArgs> args_{};
  int n_args_ = 0;
};

// Convenience: tracer().chrome_trace_json() written via write_json_file;
// false on I/O error.
bool write_chrome_trace(const std::string& path);

}  // namespace mupod
