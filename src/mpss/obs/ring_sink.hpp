#pragma once
// Lock-free per-thread trace buffering (S43, see DESIGN.md).
//
// MemorySink and JsonlSink serialize every record() on one mutex, which is
// fine for single-threaded engine runs but puts a global lock on the hot emit
// path when the executor or a parallel_for sweep traces concurrently. RingSink
// removes it: each recording thread owns a fixed-capacity single-producer /
// single-consumer ring, record() is two atomic loads, a slot write and one
// release store -- no lock, no syscall, wait-free for the producer. A full
// ring drops the *newest* event (counted in dropped()) rather than blocking
// or overwriting history; bounded memory is the contract.
//
// flush() drains every thread's ring, restores the global interleaving by
// TraceEvent::seq, and forwards to the downstream sink (any TraceSink --
// JSONL file, memory, another ring). drain() does the same but returns the
// events instead. Both may run concurrently with record(); they only consume
// events whose slot writes happen-before the observed tail.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "mpss/obs/trace.hpp"

namespace mpss::obs {

class RingSink final : public TraceSink {
 public:
  /// `capacity` slots per recording thread (rounded up to 1); `downstream`
  /// receives the drained events on flush()/destruction (not owned, may be
  /// null -- then events wait for drain() and flush() is a no-op).
  explicit RingSink(std::size_t capacity = 4096, TraceSink* downstream = nullptr);
  ~RingSink() override;

  /// Wait-free for the calling thread (after its first call, which registers
  /// the thread's ring under a mutex once).
  void record(const TraceEvent& event) override;

  /// Drains all rings to the downstream sink in seq order, then flushes it.
  /// No-op without a downstream.
  void flush() override;

  /// Drains all rings and returns the events in seq order (bypassing the
  /// downstream). The tests and the trace tool use this.
  [[nodiscard]] std::vector<TraceEvent> drain();

  /// Events discarded because a ring was full. Each drain (flush()/drain()/
  /// destruction) also publishes the delta since the previous drain to the
  /// Registry's "trace.dropped" counter, so silent loss shows up in scrapes.
  [[nodiscard]] std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

 private:
  struct Buffer;

  Buffer& local_buffer();
  /// Consumes every ring; caller holds consumer_mutex_.
  std::vector<TraceEvent> consume();

  const std::size_t capacity_;
  TraceSink* downstream_;
  const std::uint64_t id_;  // process-unique; keys the thread-local ring cache
  std::atomic<std::uint64_t> dropped_{0};
  std::uint64_t published_dropped_ = 0;  // guarded by consumer_mutex_
  mutable std::mutex consumer_mutex_;  // registration + one-consumer-at-a-time
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

}  // namespace mpss::obs
