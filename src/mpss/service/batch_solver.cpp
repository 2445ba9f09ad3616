#include "mpss/service/batch_solver.hpp"

#include <algorithm>
#include <condition_variable>
#include <exception>
#include <list>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <utility>

#include "mpss/obs/registry.hpp"
#include "mpss/obs/span.hpp"
#include "mpss/obs/trace.hpp"
#include "mpss/result_json.hpp"
#include "mpss/service/fingerprint.hpp"

namespace mpss {

const char* submit_status_name(SubmitStatus status) {
  switch (status) {
    case SubmitStatus::kAccepted: return "accepted";
    case SubmitStatus::kQueueFull: return "queue_full";
    case SubmitStatus::kShutdown: return "shutdown";
  }
  return "unknown";
}

/// One admitted request waiting in (or popped from) the queue.
struct BatchSolver::Pending {
  int priority = 0;
  std::uint64_t seq = 0;  // admission order; the FIFO tiebreak within a priority
  SolveRequest request;
  std::promise<SolveResult> promise;
  CancelToken::Clock::time_point enqueued{};

  /// Max-heap order: higher priority first, then lower seq (older) first.
  [[nodiscard]] bool heap_before(const Pending& other) const {
    if (priority != other.priority) return priority < other.priority;
    return seq > other.seq;
  }
};

class BatchSolver::Impl {
 public:
  explicit Impl(const BatchSolverOptions& options)
      : options_(options),
        queue_wait_us_(
            obs::Registry::global().histogram("service.queue_wait_us")) {}

  BatchSolverOptions options_;
  // Looked up once (the lookup takes the registry mutex and may allocate);
  // record() on it is lock-free. Registry histograms are never destroyed.
  obs::Histogram& queue_wait_us_;

  mutable std::mutex queue_mutex_;
  std::condition_variable work_available_;
  std::condition_variable space_available_;
  std::vector<Pending> queue_;  // heap ordered by Pending::heap_before
  std::uint64_t next_seq_ = 0;
  bool stopping_ = false;

  // LRU cache: most recent at the list front; the map indexes list nodes.
  using Entry = std::pair<std::uint64_t, std::shared_ptr<const CachedResult>>;
  mutable std::mutex cache_mutex_;
  std::list<Entry> lru_;
  std::unordered_map<std::uint64_t, std::list<Entry>::iterator> cache_index_;
  CacheStats cache_stats_;

  // Declared after the state they use; joined (by shutdown()) before the
  // Impl is destroyed.
  std::vector<std::thread> workers_;
  std::once_flag joined_;

  /// The entry under `key`, counted as a hit (service.cache_hits and the
  /// service.cache_hit event), or null with nothing counted.
  [[nodiscard]] std::shared_ptr<const CachedResult> cache_get(std::uint64_t key) {
    std::shared_ptr<const CachedResult> entry;
    {
      std::scoped_lock lock(cache_mutex_);
      auto it = cache_index_.find(key);
      if (it == cache_index_.end()) return nullptr;
      lru_.splice(lru_.begin(), lru_, it->second);
      ++cache_stats_.hits;
      entry = it->second->second;
    }
    obs::Registry::global().add("service.cache_hits");
    obs::emit(nullptr, obs::EventKind::kCounter, "service.cache_hit", key);
    return entry;
  }

  void count_miss(std::uint64_t key) {
    {
      std::scoped_lock lock(cache_mutex_);
      ++cache_stats_.misses;
    }
    obs::Registry::global().add("service.cache_misses");
    obs::emit(nullptr, obs::EventKind::kCounter, "service.cache_miss", key);
  }

  void cache_put(std::uint64_t key, const SolveResult& result,
                 std::uint64_t* evicted) {
    // The copy is made before the lock; inserting is a pointer move.
    auto entry = std::make_shared<const CachedResult>(result);
    std::scoped_lock lock(cache_mutex_);
    auto it = cache_index_.find(key);
    if (it != cache_index_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      return;  // a concurrent miss on the same key beat us to the insert
    }
    lru_.emplace_front(key, std::move(entry));
    cache_index_.emplace(key, lru_.begin());
    while (lru_.size() > options_.cache_capacity) {
      cache_index_.erase(lru_.back().first);
      lru_.pop_back();
      ++cache_stats_.evictions;
      ++*evicted;
    }
  }
};

BatchSolver::BatchSolver(BatchSolverOptions options)
    : impl_(std::make_unique<Impl>(options)) {
  std::size_t threads = options.threads;
  if (threads == 0) threads = std::max(1u, std::thread::hardware_concurrency());
  impl_->workers_.reserve(threads);
  try {
    for (std::size_t i = 0; i < threads; ++i) {
      impl_->workers_.emplace_back([this] { worker_loop(); });
    }
  } catch (...) {
    shutdown();  // join the workers already started before unwinding
    throw;
  }
}

BatchSolver::~BatchSolver() { shutdown(); }

void BatchSolver::shutdown() {
  {
    std::scoped_lock lock(impl_->queue_mutex_);
    impl_->stopping_ = true;
  }
  impl_->work_available_.notify_all();
  impl_->space_available_.notify_all();
  // The workers drain the queue, then exit. call_once makes a concurrent
  // second caller wait for the same joins instead of returning early.
  std::call_once(impl_->joined_, [this] {
    for (std::thread& worker : impl_->workers_) worker.join();
  });
}

std::size_t BatchSolver::worker_count() const { return impl_->workers_.size(); }

Submission BatchSolver::admit(SolveRequest&& request, bool blocking) {
  Submission submission;
  {
    std::unique_lock lock(impl_->queue_mutex_);
    const std::size_t capacity = impl_->options_.queue_capacity;
    if (blocking && capacity != 0) {
      impl_->space_available_.wait(lock, [&] {
        return impl_->stopping_ || impl_->queue_.size() < capacity;
      });
    }
    if (impl_->stopping_) {
      submission.status = SubmitStatus::kShutdown;
      return submission;
    }
    if (capacity != 0 && impl_->queue_.size() >= capacity) {
      submission.status = SubmitStatus::kQueueFull;
      obs::Registry::global().add("service.rejected_full");
      return submission;
    }
    Pending pending{request.priority, impl_->next_seq_++, std::move(request),
                    std::promise<SolveResult>{}, CancelToken::Clock::now()};
    submission.status = SubmitStatus::kAccepted;
    submission.future = pending.promise.get_future();
    impl_->queue_.push_back(std::move(pending));
    std::push_heap(impl_->queue_.begin(), impl_->queue_.end(),
                   [](const Pending& a, const Pending& b) {
                     return a.heap_before(b);
                   });
    obs::Registry::global().add("service.submitted");
  }
  impl_->work_available_.notify_one();
  return submission;
}

Submission BatchSolver::submit(SolveRequest request) {
  return admit(std::move(request), /*blocking=*/true);
}

Submission BatchSolver::try_submit(SolveRequest request) {
  return admit(std::move(request), /*blocking=*/false);
}

Submission BatchSolver::submit(Instance instance, SolveOptions options) {
  return submit(SolveRequest{std::move(instance), std::move(options)});
}

const std::string& CachedResult::encoded() const {
  std::call_once(encode_once_, [this] { append_result_json(result_, encoded_); });
  return encoded_;
}

std::shared_ptr<const CachedResult> BatchSolver::lookup(
    const Instance& instance, const SolveOptions& options) {
  if (impl_->options_.cache_capacity == 0) return nullptr;
  const auto start = std::chrono::steady_clock::now();
  std::shared_ptr<const CachedResult> hit =
      impl_->cache_get(solve_fingerprint(instance, options));
  if (hit) {
    obs::emit(nullptr, obs::EventKind::kCounter, "service.done",
              static_cast<std::uint64_t>(hit->result().status), /*b=*/1,
              std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            start)
                  .count());
  }
  return hit;
}

void BatchSolver::worker_loop() {
  for (;;) {
    std::optional<Pending> pending;
    {
      std::unique_lock lock(impl_->queue_mutex_);
      impl_->work_available_.wait(
          lock, [&] { return impl_->stopping_ || !impl_->queue_.empty(); });
      if (impl_->queue_.empty()) return;  // stopping, queue drained
      std::pop_heap(impl_->queue_.begin(), impl_->queue_.end(),
                    [](const Pending& a, const Pending& b) {
                      return a.heap_before(b);
                    });
      pending.emplace(std::move(impl_->queue_.back()));
      impl_->queue_.pop_back();
    }
    impl_->space_available_.notify_one();
    auto wait_us = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            CancelToken::Clock::now() - pending->enqueued)
            .count());
    impl_->queue_wait_us_.record(wait_us);
    execute(std::move(*pending), wait_us);
  }
}

void BatchSolver::execute(Pending pending, std::uint64_t queue_wait_us) {
  // Whatever the run throws -- an InternalError from the engines, a failing
  // trace sink, bad_alloc -- resolves this request's future, never the
  // worker: the waiter sees the exception and the worker keeps serving.
  try {
    pending.promise.set_value(serve(pending.request, queue_wait_us));
  } catch (...) {
    pending.promise.set_exception(std::current_exception());
  }
}

namespace {

/// Stamps the service-side request telemetry into a result's counters, the
/// channel solve() results already use for engine telemetry. The daemon reads
/// these to build its completion-log records.
void annotate(SolveResult& result, std::uint64_t queue_wait_us, bool cache_hit) {
  result.stats.counters.set("service.queue_wait_us", queue_wait_us);
  result.stats.counters.set("service.cache_hit", cache_hit ? 1 : 0);
}

}  // namespace

SolveResult BatchSolver::serve(const SolveRequest& request,
                               std::uint64_t queue_wait_us) {
  // The per-request counter event carries the queue wait, so offline tools
  // (mpss_trace's service table, --prom) can rebuild the distribution from a
  // trace file alone.
  obs::emit(nullptr, obs::EventKind::kCounter, "service.queue_wait",
            queue_wait_us);
  // Adopt the submitter's trace context: service.request becomes a root span
  // on this worker whose parent is the submitter's span in this process (the
  // daemon's net.request), and everything the engines emit below carries the
  // trace id. An untraced request installs the empty context, which is the
  // worker's resting state anyway.
  obs::TraceContextScope trace_scope(
      obs::TraceContext{request.trace_id, request.parent_span, 0});
  obs::SpanScope request_span(nullptr, "service.request");

  std::optional<std::uint64_t> key;
  if (impl_->options_.cache_capacity != 0) {
    key = solve_fingerprint(request.instance, request.options);
    if (std::shared_ptr<const CachedResult> hit = impl_->cache_get(*key)) {
      obs::emit(nullptr, obs::EventKind::kCounter, "service.done",
                static_cast<std::uint64_t>(hit->result().status), /*b=*/1,
                request_span.elapsed_seconds());
      // The copy happens here, outside the cache lock.
      SolveResult cached = hit->result();
      annotate(cached, queue_wait_us, /*cache_hit=*/true);
      return cached;
    }
    impl_->count_miss(*key);
  }

  SolveOptions run_options = request.options;
  CancelToken deadline_token;
  if (request.deadline != CancelToken::Clock::time_point::max()) {
    deadline_token.set_deadline(request.deadline);
    // A caller token that fired while the request was queued still wins: honour
    // it now, before the deadline token replaces it for the run.
    if (run_options.cancel != nullptr && run_options.cancel->cancel_requested()) {
      SolveResult cancelled;
      cancelled.status = SolveStatus::kCancelled;
      cancelled.error_detail = "solve abandoned: cancellation requested";
      obs::emit(nullptr, obs::EventKind::kCounter, "service.done",
                static_cast<std::uint64_t>(cancelled.status), /*b=*/0,
                request_span.elapsed_seconds());
      annotate(cancelled, queue_wait_us, /*cache_hit=*/false);
      return cancelled;
    }
    run_options.cancel = &deadline_token;
  }

  SolveResult result = solve(request.instance, run_options);
  obs::emit(nullptr, obs::EventKind::kCounter, "service.done",
            static_cast<std::uint64_t>(result.status), /*b=*/0,
            request_span.elapsed_seconds());
  // Steady-state memory telemetry (S46): a request whose engine ran entirely
  // out of this worker's pooled scratch arena -- capacity present, zero
  // fallback heap blocks -- counts as arena-warm. After each worker's first
  // request the warm fraction should sit at 1; a drift downwards means the
  // workload outgrew the pooled capacity.
  if (result.stats.counters.value("mem.arena_bytes") != 0 &&
      result.stats.counters.value("mem.fallback_allocs") == 0) {
    obs::Registry::global().add("service.arena_warm_solves");
  }
  if (key && result.ok()) {
    std::uint64_t evicted = 0;
    impl_->cache_put(*key, result, &evicted);
    if (evicted != 0) {
      obs::Registry::global().add("service.cache_evictions", evicted);
      obs::emit(nullptr, obs::EventKind::kCounter, "service.cache_evict", *key,
                evicted);
    }
  }
  // Annotate AFTER cache_put so the cached copy stays clean -- a later hit
  // gets ITS queue wait stamped, not this request's.
  annotate(result, queue_wait_us, /*cache_hit=*/false);
  return result;
}

std::vector<SolveResult> BatchSolver::solve_many(
    std::span<const Instance> instances, const SolveOptions& options) {
  std::vector<Submission> submissions;
  submissions.reserve(instances.size());
  for (const Instance& instance : instances) {
    SolveRequest request{instance, options};
    Submission submission = submit(std::move(request));
    if (!submission.accepted()) {
      throw std::logic_error(
          std::string("BatchSolver::solve_many: submit returned ") +
          submit_status_name(submission.status));
    }
    submissions.push_back(std::move(submission));
  }
  std::vector<SolveResult> results;
  results.reserve(submissions.size());
  for (Submission& submission : submissions) {
    results.push_back(submission.future.get());
  }
  return results;
}

BatchSolver::CacheStats BatchSolver::cache_stats() const {
  std::scoped_lock lock(impl_->cache_mutex_);
  return impl_->cache_stats_;
}

std::size_t BatchSolver::queue_depth() const {
  std::scoped_lock lock(impl_->queue_mutex_);
  return impl_->queue_.size();
}

std::vector<SolveResult> solve_many(std::span<const Instance> instances,
                                    const SolveOptions& options,
                                    std::size_t threads) {
  BatchSolverOptions service;
  service.threads = threads;
  service.queue_capacity = 0;  // one-shot: admit the whole span up front
  BatchSolver solver(service);
  return solver.solve_many(instances, options);
}

}  // namespace mpss
