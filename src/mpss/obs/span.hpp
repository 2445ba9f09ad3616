#pragma once
// Hierarchical spans of the observability subsystem (S43, see DESIGN.md).
//
// A span is a named, timed region of a solve (solve -> phase -> round -> ...).
// SpanScope is the RAII handle: construction emits a kSpanBegin event, the
// destructor a kSpanEnd carrying the measured duration. Parenthood is tracked
// through a thread-local stack of open spans, so nesting falls out of scoping
// with no plumbing: the innermost open span's id is stamped into *every*
// TraceEvent emitted on the thread (TraceEvent::span), which is what lets
// tools/mpss_trace --report attribute time per phase/round and --chrome
// reconstruct a Chrome/Perfetto timeline from a flat JSONL stream.
//
// Cost model (the S43 overhead budget): with no sink attached anywhere a
// SpanScope is one pointer test in the constructor and one branch in the
// destructor -- no clock read, no id allocation, no string copy. With a sink,
// a span costs two events plus two steady-clock reads; spans mark units of
// work that are at least a max-flow computation, so this is noise. Unlike
// plain events, span events carry a real timestamp even in builds without
// -DMPSS_TRACING (the clock is read anyway for the duration).

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>

#include "mpss/obs/trace.hpp"

namespace mpss::obs {

/// Process-unique span identifier (obs::Registry allocates them; 0 = no span).
using SpanId = std::uint64_t;

/// Id of the innermost span open on the calling thread, 0 when none. This is
/// what obs::emit() stamps into TraceEvent::span.
[[nodiscard]] SpanId current_span();

/// The distributed-tracing context of the calling thread. A context carries a
/// process-crossing trace id plus the span a *root* span on this thread should
/// parent under -- either a span of this process on another thread
/// (local_parent: how a BatchSolver worker's service.request span nests under
/// the reader thread's net.request span) or a span of a peer process
/// (remote_parent: how the server's net.request span nests under the client's
/// client.solve span; recorded as TraceEvent::remote_parent and resolved by
/// mpss_trace's multi-file merge). Non-root spans ignore both parent fields --
/// the thread-local stack already knows their parent.
struct TraceContext {
  std::uint64_t trace_id = 0;
  SpanId local_parent = 0;
  SpanId remote_parent = 0;
};

/// The context active on the calling thread (all-zero when none).
[[nodiscard]] TraceContext current_trace();

/// RAII installer: makes `context` the calling thread's trace context for the
/// scope's lifetime and restores the previous one on exit. The trace id is
/// stamped into every TraceEvent emitted on the thread while installed.
///
/// A context carrying a parent (local or remote) RE-ROOTS the scope: the
/// thread's open-span stack is stashed and cleared, so the next span opened
/// inside the scope is a root that adopts the context's parent -- not a child
/// of whatever wrapper span the surrounding thread had open (a long-lived
/// worker-loop span must not capture request-scoped work that logically
/// belongs to the submitter's net.request span). A parentless context leaves
/// the stack alone.
class TraceContextScope {
 public:
  explicit TraceContextScope(TraceContext context);
  ~TraceContextScope();

  TraceContextScope(const TraceContextScope&) = delete;
  TraceContextScope& operator=(const TraceContextScope&) = delete;

 private:
  TraceContext saved_;
  SpanId saved_span_ = 0;
  bool stashed_ = false;
};

/// Small dense index (0, 1, 2, ...) identifying the calling thread in trace
/// exports -- stable for the thread's lifetime, unlike std::thread::id compact
/// enough for a Chrome-trace "tid" field.
[[nodiscard]] std::uint64_t thread_index();

/// RAII span. `sink == nullptr` falls back to the process-wide sink attached
/// to obs::Registry::global(); if that is also absent the scope is inactive
/// and costs one branch. Spans must be strictly nested per thread (automatic
/// when they live on the stack).
class SpanScope {
 public:
  SpanScope(TraceSink* sink, std::string_view label);
  ~SpanScope();

  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  /// False when no sink was reachable at construction (nothing is emitted).
  [[nodiscard]] bool active() const { return id_ != 0; }
  /// This span's id; 0 when inactive.
  [[nodiscard]] SpanId id() const { return id_; }
  /// Seconds since construction (0 when inactive).
  [[nodiscard]] double elapsed_seconds() const;

 private:
  TraceSink* sink_ = nullptr;
  SpanId id_ = 0;
  SpanId parent_ = 0;          // stamped into begin/end events (b field)
  SpanId restore_ = 0;         // previous thread-local top, restored on exit
  SpanId remote_parent_ = 0;   // peer-process parent adopted from the context
  std::uint64_t trace_ = 0;    // trace id adopted from the context
  std::string label_;
  std::chrono::steady_clock::time_point start_{};
};

}  // namespace mpss::obs
