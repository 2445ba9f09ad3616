#include "mpss/util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "mpss/obs/registry.hpp"
#include "mpss/obs/span.hpp"

namespace mpss {

void parallel_for(std::size_t count, const std::function<void(std::size_t)>& body,
                  std::size_t threads) {
  if (count == 0) return;
  if (threads == 0) {
    threads = std::thread::hardware_concurrency();
    if (threads == 0) threads = 1;
  }
  threads = std::min(threads, count);
  // One registry merge per call, not per item: concurrent bodies must not
  // serialize on the registry mutex.
  {
    obs::Counters local;
    local.add("pool.parallel_for.calls");
    local.add("pool.parallel_for.items", count);
    obs::Registry::global().merge(local);
  }
  if (threads == 1) {
    obs::SpanScope worker_span(nullptr, "pool.parallel_for.worker");
    for (std::size_t i = 0; i < count; ++i) body(i);
    return;
  }

  std::atomic<std::size_t> next{0};
  std::exception_ptr first_error;
  std::mutex error_mutex;
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&] {
      obs::SpanScope worker_span(nullptr, "pool.parallel_for.worker");
      for (;;) {
        std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= count) return;
        try {
          body(i);
        } catch (...) {
          std::scoped_lock lock(error_mutex);
          if (!first_error) first_error = std::current_exception();
        }
      }
    });
  }
  for (auto& worker : workers) worker.join();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace mpss
