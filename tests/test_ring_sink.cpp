// Lock-free per-thread trace rings (S43): seq-ordered drain, bounded-memory
// drop accounting, downstream forwarding on flush/destruction, and concurrent
// producers from parallel_for (the TSan CI job runs this suite to certify
// the acquire/release protocol).

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "mpss/obs/registry.hpp"
#include "mpss/obs/ring_sink.hpp"
#include "mpss/obs/trace.hpp"
#include "mpss/util/thread_pool.hpp"

namespace mpss::obs {
namespace {

TraceEvent event_with_seq(std::uint64_t seq) {
  TraceEvent event;
  event.kind = EventKind::kCounter;
  event.label = "ring.test";
  event.a = seq;
  event.seq = seq;
  return event;
}

TEST(RingSink, DrainReturnsEventsInSeqOrder) {
  RingSink ring(64);
  // Record deliberately out of seq order (one thread, shuffled seqs).
  for (std::uint64_t seq : {5u, 1u, 9u, 3u, 7u}) ring.record(event_with_seq(seq));
  auto events = ring.drain();
  ASSERT_EQ(events.size(), 5u);
  EXPECT_TRUE(std::is_sorted(events.begin(), events.end(),
                             [](const TraceEvent& a, const TraceEvent& b) {
                               return a.seq < b.seq;
                             }));
  EXPECT_EQ(events.front().seq, 1u);
  EXPECT_EQ(events.back().seq, 9u);
  // Drained: a second drain is empty.
  EXPECT_TRUE(ring.drain().empty());
  EXPECT_EQ(ring.dropped(), 0u);
}

TEST(RingSink, FullRingDropsNewestAndCounts) {
  RingSink ring(4);
  for (std::uint64_t seq = 0; seq < 10; ++seq) ring.record(event_with_seq(seq));
  EXPECT_EQ(ring.dropped(), 6u);
  auto events = ring.drain();
  // Drop-newest: the *first* capacity events survive (history is never
  // overwritten; bounded memory is the contract).
  ASSERT_EQ(events.size(), 4u);
  for (std::uint64_t seq = 0; seq < 4; ++seq) EXPECT_EQ(events[seq].seq, seq);

  // After a drain the ring has room again.
  ring.record(event_with_seq(100));
  EXPECT_EQ(ring.drain().size(), 1u);
}

TEST(RingSink, DrainPublishesDropDeltaToRegistryCounter) {
  std::uint64_t before = Registry::global().snapshot().value("trace.dropped");
  RingSink ring(4);
  for (std::uint64_t seq = 0; seq < 10; ++seq) ring.record(event_with_seq(seq));
  // Drops are published at drain time (the record path stays lock-free), and
  // as a delta: a second drain with no new drops must not double-count.
  (void)ring.drain();
  std::uint64_t after = Registry::global().snapshot().value("trace.dropped");
  EXPECT_EQ(after - before, 6u);
  (void)ring.drain();
  EXPECT_EQ(Registry::global().snapshot().value("trace.dropped"), after);
}

TEST(RingSink, FlushForwardsToDownstreamInOrder) {
  MemorySink downstream;
  RingSink ring(64, &downstream);
  for (std::uint64_t seq : {2u, 0u, 1u}) ring.record(event_with_seq(seq));
  EXPECT_EQ(downstream.size(), 0u);  // nothing forwarded before flush
  ring.flush();
  auto events = downstream.events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].seq, 0u);
  EXPECT_EQ(events[2].seq, 2u);
}

TEST(RingSink, FlushWithoutDownstreamIsANoOp) {
  RingSink ring(8);
  ring.record(event_with_seq(1));
  ring.flush();  // must not lose the buffered event
  EXPECT_EQ(ring.drain().size(), 1u);
}

TEST(RingSink, DestructorDrainsToDownstream) {
  MemorySink downstream;
  {
    RingSink ring(64, &downstream);
    ring.record(event_with_seq(3));
    ring.record(event_with_seq(4));
  }
  EXPECT_EQ(downstream.size(), 2u);
}

TEST(RingSink, ConcurrentProducersLoseNothingWithinCapacity) {
  RingSink ring(4096);
  constexpr std::size_t kEvents = 3000;  // < capacity per thread
  parallel_for(kEvents, [&ring](std::size_t i) {
    emit(&ring, EventKind::kCounter, "stress", i);
  }, 4);
  auto events = ring.drain();
  EXPECT_EQ(ring.dropped(), 0u);
  ASSERT_EQ(events.size(), kEvents);
  // Global seq order restored across the per-thread rings; seqs unique.
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LT(events[i - 1].seq, events[i].seq);
  }
}

TEST(RingSink, ConcurrentDrainWhileRecordingLosesNoRecordedEvent) {
  RingSink ring(1 << 16);
  constexpr std::size_t kEvents = 5000;
  std::vector<TraceEvent> collected;
  std::atomic<bool> done{false};
  std::thread consumer([&] {
    while (!done.load(std::memory_order_acquire)) {
      auto batch = ring.drain();
      collected.insert(collected.end(), batch.begin(), batch.end());
    }
  });
  parallel_for(kEvents, [&ring](std::size_t i) {
    emit(&ring, EventKind::kCounter, "live", i);
  }, 4);
  done.store(true, std::memory_order_release);
  consumer.join();
  auto rest = ring.drain();
  collected.insert(collected.end(), rest.begin(), rest.end());
  EXPECT_EQ(ring.dropped(), 0u);
  ASSERT_EQ(collected.size(), kEvents);
  std::vector<std::uint64_t> seqs;
  seqs.reserve(collected.size());
  for (const TraceEvent& e : collected) seqs.push_back(e.seq);
  std::sort(seqs.begin(), seqs.end());
  EXPECT_EQ(std::unique(seqs.begin(), seqs.end()), seqs.end());
}

TEST(RingSink, ServesAsRegistryDefaultSinkForEmit) {
  RingSink ring(64);
  Registry::global().attach_sink(&ring);
  emit(nullptr, EventKind::kCounter, "via.ring", 11);
  Registry::global().attach_sink(nullptr);
  auto events = ring.drain();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].label, "via.ring");
  EXPECT_EQ(events[0].a, 11u);
}

TEST(RingSink, SinkIdsPreventStaleThreadCacheReuse) {
  // Destroy a ring, then create another that may reuse its address: the
  // thread-local cache is keyed by process-unique sink id, so the second
  // ring must start empty and receive only its own events.
  auto first = std::make_unique<RingSink>(16);
  first->record(event_with_seq(1));
  first.reset();
  RingSink second(16);
  second.record(event_with_seq(2));
  auto events = second.drain();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].seq, 2u);
}

}  // namespace
}  // namespace mpss::obs
