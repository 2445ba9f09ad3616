#pragma once
// Concurrent batch-solve service (S44, see DESIGN.md).
//
// The solve() facade is synchronous and single-instance. Every batch-shaped
// caller in the repo -- the experiment sweeps, the adversary search, the bench
// harnesses -- had grown its own thread-pool loop around it. BatchSolver is the
// shared service those loops port to:
//
//   * a fixed set of worker threads pumping a bounded, priority-ordered
//     admission queue (backpressure: try_submit reports kQueueFull, submit
//     blocks);
//   * per-request soft deadlines and cooperative cancellation, delivered to
//     the engines through SolveOptions::cancel and surfaced as
//     SolveStatus::kDeadlineExceeded / kCancelled -- never as exceptions;
//   * an LRU result cache keyed by the canonical (instance, options)
//     fingerprint (service/fingerprint.hpp), so sweeps that revisit a cell
//     (the adversary search re-scoring a mutated-then-reverted instance, a
//     bench's repeat iterations) pay one solve. Entries are immutable and
//     shared (CachedResult): a hit holds a reference, never a copy made
//     under the cache lock, and an entry served over the wire keeps its
//     encoded bytes so later wire hits re-encode nothing. The daemon's
//     readers check the cache with lookup() and answer a hit without
//     queuing it; a miss is submitted as usual and its worker checks again
//     when it dequeues the request, so a duplicate queued behind the first
//     solve of its key is still a hit. Hits are counted where they are
//     served and misses where they are solved: every solve counts exactly
//     one hit or one miss;
//   * telemetry through the obs Registry: service.cache_{hits,misses,
//     evictions} counters, the service.queue_wait_us histogram, and one
//     "service.request" span + "service.done" counter event per request.
//
// Results come back as std::future<SolveResult>; solve_many() is the one-shot
// wrapper that submits a span of instances and returns results in input order.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "mpss/solve.hpp"
#include "mpss/util/cancel.hpp"

namespace mpss {

/// One unit of service work: an instance, the solve knobs, and the service-
/// level scheduling hints (neither affects the solve's result -- the cache
/// deliberately ignores them).
struct SolveRequest {
  Instance instance;
  SolveOptions options;

  /// Soft deadline: once passed, the solve is abandoned at the next engine
  /// checkpoint and resolves with status kDeadlineExceeded. The default never
  /// fires. When set, the service installs its own CancelToken carrying this
  /// deadline for the duration of the run; a caller-provided `options.cancel`
  /// token is still honoured up to dispatch (a request cancelled while queued
  /// never runs) -- to compose mid-run cancellation WITH a deadline, put the
  /// deadline on your own token via CancelToken::set_deadline instead.
  CancelToken::Clock::time_point deadline = CancelToken::Clock::time_point::max();

  /// Admission-queue priority: higher runs first; ties dispatch FIFO.
  int priority = 0;

  /// Distributed-tracing context (0/0 = untraced): the worker that executes
  /// this request installs {trace_id, parent_span} as its trace context, so
  /// the service.request span -- opened on the worker thread -- parents under
  /// the submitter's span (the daemon's net.request) across the thread hop,
  /// and every event of the solve carries the trace id. `parent_span` is a
  /// span id of THIS process (cross-process parents stay in net/ -- the
  /// server resolves the wire header into its own net.request span first).
  std::uint64_t trace_id = 0;
  std::uint64_t parent_span = 0;
};

/// How an admission attempt ended.
enum class SubmitStatus {
  kAccepted,   // queued; the submission's future will resolve
  kQueueFull,  // try_submit only: bounded queue at capacity, request dropped
  kShutdown,   // service is shutting down, request dropped
};

/// Stable lowercase name ("accepted", "queue_full", "shutdown").
[[nodiscard]] const char* submit_status_name(SubmitStatus status);

/// Outcome of submit()/try_submit(). The future is valid only when accepted.
struct Submission {
  SubmitStatus status = SubmitStatus::kShutdown;
  std::future<SolveResult> future;

  [[nodiscard]] bool accepted() const { return status == SubmitStatus::kAccepted; }
};

/// One result in the cache: immutable once stored and shared by every hit.
class CachedResult {
 public:
  explicit CachedResult(SolveResult result) : result_(std::move(result)) {}

  CachedResult(const CachedResult&) = delete;
  CachedResult& operator=(const CachedResult&) = delete;

  /// The result as its solve produced it (no per-request annotations).
  [[nodiscard]] const SolveResult& result() const { return result_; }

  /// The result's wire element (append_result_json, result_json.hpp). The
  /// first caller encodes it and every later one shares those bytes; safe to
  /// call from any thread. Encoded on first use rather than at insert, so
  /// only results actually served as wire hits ever hold the bytes.
  [[nodiscard]] const std::string& encoded() const;

 private:
  SolveResult result_;
  mutable std::once_flag encode_once_;
  mutable std::string encoded_;
};

struct BatchSolverOptions {
  /// Worker threads; 0 means hardware_concurrency (at least 1).
  std::size_t threads = 0;
  /// Admission-queue capacity; 0 means unbounded (try_submit never reports
  /// kQueueFull and submit never blocks).
  std::size_t queue_capacity = 256;
  /// LRU result-cache entries; 0 disables caching entirely.
  std::size_t cache_capacity = 128;
};

/// Multi-threaded solve service. Construction starts the workers; destruction
/// (or shutdown()) stops admission, drains every queued request, and joins --
/// no accepted future is ever abandoned. A request whose run throws resolves
/// its future with that exception; the worker keeps serving.
class BatchSolver {
 public:
  explicit BatchSolver(BatchSolverOptions options = BatchSolverOptions{});
  ~BatchSolver();

  BatchSolver(const BatchSolver&) = delete;
  BatchSolver& operator=(const BatchSolver&) = delete;

  [[nodiscard]] std::size_t worker_count() const;

  /// Queues a request, blocking while the bounded queue is full (the
  /// backpressure path for producers that must not drop work). Returns
  /// kShutdown without queuing when the service is stopping.
  [[nodiscard]] Submission submit(SolveRequest request);

  /// Non-blocking admission: kQueueFull instead of waiting when the bounded
  /// queue is at capacity.
  [[nodiscard]] Submission try_submit(SolveRequest request);

  /// Instance-first blocking submit: no deadline, priority 0 (the serving
  /// benchmark's in-process reference path calls this form).
  [[nodiscard]] Submission submit(Instance instance, SolveOptions options);

  /// The stored result for (instance, options), or null. The daemon's
  /// readers call this and answer a hit without queuing it. A hit counts in
  /// cache_stats() and service.cache_hits and emits service.cache_hit plus
  /// the service.done that completes the request; a miss counts nothing
  /// here -- the caller submits the request, and the worker that dequeues it
  /// looks up again and counts the hit or the miss.
  [[nodiscard]] std::shared_ptr<const CachedResult> lookup(
      const Instance& instance, const SolveOptions& options);

  /// Solves every instance under the same options and returns the results in
  /// input order (the one-shot batch API). Blocks until all are done.
  [[nodiscard]] std::vector<SolveResult> solve_many(
      std::span<const Instance> instances,
      const SolveOptions& options = SolveOptions{});

  /// Monotonic mirror of the service.cache_* Registry counters, scoped to
  /// this instance (tests assert on these; dashboards read the Registry).
  struct CacheStats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
  };
  [[nodiscard]] CacheStats cache_stats() const;

  /// Requests currently queued (excludes in-flight solves). Advisory: the
  /// value may be stale by the time the caller acts on it.
  [[nodiscard]] std::size_t queue_depth() const;

  /// Stops admission (further submits report kShutdown), drains the queue,
  /// and joins the workers. Idempotent, and every caller returns only after
  /// the drain; the destructor calls it.
  void shutdown();

 private:
  struct Pending;
  class Impl;

  void worker_loop();
  Submission admit(SolveRequest&& request, bool blocking);
  void execute(Pending pending, std::uint64_t queue_wait_us);
  [[nodiscard]] SolveResult serve(const SolveRequest& request,
                                  std::uint64_t queue_wait_us);

  std::unique_ptr<Impl> impl_;
};

/// One-shot convenience: spins up a BatchSolver (with `threads` workers; 0 =
/// hardware concurrency), solves every instance under `options`, and returns
/// the results in input order.
[[nodiscard]] std::vector<SolveResult> solve_many(
    std::span<const Instance> instances,
    const SolveOptions& options = SolveOptions{}, std::size_t threads = 0);

}  // namespace mpss
