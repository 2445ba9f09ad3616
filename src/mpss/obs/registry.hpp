#pragma once
// Process-wide, thread-safe aggregation point of the observability subsystem
// (S40/S43, see DESIGN.md).
//
// Three jobs:
//   * a global named-counter store that concurrent paths (BatchSolver workers,
//     the schedule executor, parallel experiment sweeps) bump or merge into
//     without any plumbing through their call sites;
//   * a global named-histogram store (lock-free obs::Histogram per name) for
//     the same paths' latency/size distributions;
//   * the process-wide default TraceSink that obs::emit() falls back to when an
//     engine was not handed an explicit sink (how the CLI tools turn tracing on
//     globally), plus the id wells for event sequence numbers and span ids.
//
// The registry never owns the sink -- callers attach/detach a sink they own and
// must keep alive while attached.
//
// Test-isolation contract: reset() restores every piece of *data* state --
// counters are dropped, histograms zeroed in place, and the event-sequence and
// span-id wells rewound to their initial values -- so a test case (or one leg
// of a differential run) that calls reset() first produces a trace that is
// byte-identical across runs and orderings. reset() deliberately does NOT
// detach the sink (attachment is ownership, not data), and it must not run
// concurrently with emitting threads (the ids it rewinds would be reused).

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string_view>

#include "mpss/obs/counters.hpp"
#include "mpss/obs/histogram.hpp"

namespace mpss::obs {

class TraceSink;

class Registry {
 public:
  /// The process-wide registry.
  static Registry& global();

  /// Thread-safe counter bump.
  void add(std::string_view name, std::uint64_t delta = 1);

  /// Thread-safe merge of a locally accumulated Counters (the per-thread
  /// pattern: accumulate privately, merge once).
  void merge(const Counters& counters);

  /// Copy of the current counters.
  [[nodiscard]] Counters snapshot() const;

  /// The named global histogram, created on first use. The returned reference
  /// is valid for the process lifetime (entries are never deallocated, only
  /// zeroed by reset()), so hot paths look the name up once and cache it;
  /// record() on the result is lock-free.
  [[nodiscard]] Histogram& histogram(std::string_view name);

  /// Value snapshot of every named histogram (statistically consistent).
  [[nodiscard]] HistogramMap histogram_snapshot() const;

  /// Restores counters, histograms, and the event-sequence, span-id and
  /// trace-id counters to their initial state (see the test-isolation contract
  /// above). The attached sink stays attached.
  void reset();

  /// Attaches (or with nullptr detaches) the process-wide default sink.
  void attach_sink(TraceSink* sink) { sink_.store(sink, std::memory_order_release); }
  [[nodiscard]] TraceSink* sink() const {
    return sink_.load(std::memory_order_acquire);
  }

  /// Next global event sequence number (shared by all sinks so interleavings
  /// across threads stay reconstructible).
  std::uint64_t next_seq() { return seq_.fetch_add(1, std::memory_order_relaxed); }

  /// Next span id (1-based; 0 means "no span" throughout the trace model).
  std::uint64_t next_span_id() {
    return span_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  /// Next distributed-trace id: a per-process nonce (constant for the process
  /// lifetime, so in-process differential runs stay deterministic) in the high
  /// 32 bits, a counter rewound by reset() in the low 32. Never 0. Trace ids
  /// use the full 64-bit range, so they travel as decimal *strings* wherever
  /// JSON numbers are doubles (net/protocol.hpp).
  std::uint64_t next_trace_id();

 private:
  Registry() = default;

  mutable std::mutex mutex_;
  Counters counters_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
  std::atomic<TraceSink*> sink_{nullptr};
  std::atomic<std::uint64_t> seq_{0};
  std::atomic<std::uint64_t> span_seq_{0};
  std::atomic<std::uint64_t> trace_seq_{0};
};

}  // namespace mpss::obs
