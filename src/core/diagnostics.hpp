// Structured pipeline diagnostics.
//
// Every stage of the paper's pipeline is an empirical measurement — the
// Eq. 5 linear fits, the Sec. V-C binary search, the Eq. 8 simplex solve —
// and each can silently go wrong (poisoned activations, degenerate fits,
// failed brackets, non-converged solvers). Rather than asserting or
// emitting a confident-but-invalid allocation, each stage reports what it
// saw and what fallback it applied into a DiagnosticSink that travels with
// the PipelineResult and is rendered by src/io/report.cpp.
#pragma once

#include <mutex>
#include <string>
#include <vector>

namespace mupod {

enum class DiagSeverity {
  kInfo,     // something noteworthy; no degradation
  kWarning,  // a measurement was degraded; a fallback preserved validity
  kError,    // a stage failed outright; a conservative fallback is in effect
};

enum class PipelineStage {
  kHarness,      // profiling/eval set construction (Sec. V-A substrate)
  kProfile,      // Eq. 5 lambda/theta fits
  kSigmaSearch,  // Sec. V-C binary search for sigma_YL
  kAllocate,     // Eq. 8 simplex solve + format derivation
  kValidate,     // real-quantization validation / refinement loop
  kWeightSearch, // Sec. V-E weight bitwidth search
  kIo,           // profile/report (de)serialization
  kServe,        // PlanService cache lifecycle: accepted and rejected
                 // profile loads
};

const char* severity_name(DiagSeverity s);
const char* stage_name(PipelineStage s);

struct Diagnostic {
  DiagSeverity severity = DiagSeverity::kInfo;
  PipelineStage stage = PipelineStage::kHarness;
  // Network node id the diagnostic is attributed to; -1 = whole pipeline.
  int layer = -1;
  std::string message;      // what was observed
  std::string remediation;  // what the pipeline did about it
};

// One-line human-readable rendering: "[warning] profile layer 3: ...".
std::string format_diagnostic(const Diagnostic& d);

// Append-only collector threaded through the pipeline stages. Value
// semantics so it can live inside PipelineResult.
//
// Thread safety: report() and the counting accessors are internally
// synchronized, so concurrent sweep tails (or a PlanService entry's
// waiters) may share one sink. entries() returns a reference and is the
// one quiescence-requiring accessor: call it only after the writers have
// joined (the renderers all run post-join). snapshot() is the safe
// concurrent alternative. Copy/move synchronize on the source.
class DiagnosticSink {
 public:
  DiagnosticSink() = default;
  DiagnosticSink(const DiagnosticSink& other) : entries_(other.snapshot()) {}
  DiagnosticSink(DiagnosticSink&& other) noexcept {
    std::lock_guard<std::mutex> lk(other.mu_);
    entries_ = std::move(other.entries_);
  }
  DiagnosticSink& operator=(const DiagnosticSink& other) {
    if (this != &other) {
      std::vector<Diagnostic> copy = other.snapshot();
      std::lock_guard<std::mutex> lk(mu_);
      entries_ = std::move(copy);
    }
    return *this;
  }
  DiagnosticSink& operator=(DiagnosticSink&& other) noexcept {
    if (this != &other) {
      std::vector<Diagnostic> moved = [&] {
        std::lock_guard<std::mutex> lk(other.mu_);
        return std::move(other.entries_);
      }();
      std::lock_guard<std::mutex> lk(mu_);
      entries_ = std::move(moved);
    }
    return *this;
  }

  void report(Diagnostic d) {
    std::lock_guard<std::mutex> lk(mu_);
    entries_.push_back(std::move(d));
  }
  void report(DiagSeverity severity, PipelineStage stage, int layer, std::string message,
              std::string remediation = std::string());

  // Reference to the underlying entries; requires writer quiescence (see
  // class comment). All in-tree callers read after the producing stages
  // have joined.
  const std::vector<Diagnostic>& entries() const { return entries_; }
  // Concurrent-safe copy.
  std::vector<Diagnostic> snapshot() const {
    std::lock_guard<std::mutex> lk(mu_);
    return entries_;
  }

  bool empty() const {
    std::lock_guard<std::mutex> lk(mu_);
    return entries_.empty();
  }
  std::size_t size() const {
    std::lock_guard<std::mutex> lk(mu_);
    return entries_.size();
  }
  void clear() {
    std::lock_guard<std::mutex> lk(mu_);
    entries_.clear();
  }

  int count(DiagSeverity severity) const;
  int count(PipelineStage stage) const;
  // Entries matching both a stage and a minimum severity.
  int count(PipelineStage stage, DiagSeverity at_least) const;
  bool has_errors() const { return count(DiagSeverity::kError) > 0; }
  bool has_warnings() const { return count(DiagSeverity::kWarning) > 0; }

 private:
  mutable std::mutex mu_;
  std::vector<Diagnostic> entries_;
};

// Null-safe reporting helper: every stage takes an optional sink.
inline void diag_report(DiagnosticSink* sink, DiagSeverity severity, PipelineStage stage,
                        int layer, std::string message, std::string remediation = std::string()) {
  if (sink != nullptr)
    sink->report(severity, stage, layer, std::move(message), std::move(remediation));
}

}  // namespace mupod
