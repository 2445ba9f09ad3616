// Hardening tests (S48): deadlines, retries, and fault injection. Every test
// here asserts the same contract from a different angle -- a network failure
// surfaces as a TYPED error (FrameError with the right kind, or a
// ProtocolError) or a successful retry, within its deadline; never a hang,
// never a dropped future, and the daemon keeps serving afterwards.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "mpss/net/client.hpp"
#include "mpss/net/deadline.hpp"
#include "mpss/net/framing.hpp"
#include "mpss/net/metrics_http.hpp"
#include "mpss/net/protocol.hpp"
#include "mpss/net/server.hpp"
#include "mpss/obs/registry.hpp"
#include "mpss/solve.hpp"
#include "support/fault_proxy.hpp"

namespace mpss::net {
namespace {

using Clock = std::chrono::steady_clock;

Instance small_instance() {
  return Instance({Job{Q(0), Q(8), Q(6)}, Job{Q(2), Q(4), Q(6)},
                   Job{Q(2), Q(4), Q(4)}},
                  2);
}

struct SocketPair {
  ScopedFd a;
  ScopedFd b;

  SocketPair() {
    int fds[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    a = ScopedFd(fds[0]);
    b = ScopedFd(fds[1]);
  }
};

ScopedFd raw_connect(std::uint16_t port) {
  ScopedFd fd(::socket(AF_INET, SOCK_STREAM, 0));
  EXPECT_TRUE(fd.valid());
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(port);
  EXPECT_EQ(::inet_pton(AF_INET, "127.0.0.1", &address.sin_addr), 1);
  EXPECT_EQ(::connect(fd.get(), reinterpret_cast<const sockaddr*>(&address),
                      sizeof address),
            0);
  return fd;
}

std::uint64_t counter(const char* name) {
  return obs::Registry::global().snapshot().value(name);
}

/// Waits (bounded) for the peer to close: returns true when recv reports EOF
/// or a reset within `ms`.
bool peer_closed_within(int fd, std::int64_t ms) {
  auto deadline = Deadline::after_ms(ms);
  char byte;
  for (;;) {
    std::int64_t left = deadline.remaining_ms();
    if (left == 0) return false;
    pollfd poll_fd{fd, POLLIN, 0};
    int ready = ::poll(&poll_fd, 1, static_cast<int>(left));
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) return false;
    ssize_t n = ::recv(fd, &byte, 1, 0);
    if (n == 0) return true;                      // orderly close
    if (n < 0) return errno == ECONNRESET;        // reset also counts
  }
}

// ---- deadline & backoff primitives -----------------------------------------

TEST(Deadline, ClampPicksTheTighterBound) {
  Deadline never = Deadline::never();
  EXPECT_FALSE(never.armed());
  EXPECT_FALSE(never.expired());
  EXPECT_EQ(never.remaining_ms(), -1);
  EXPECT_EQ(never.clamp_ms(250), 250);
  EXPECT_EQ(never.clamp_ms(0), 0);

  Deadline budget = Deadline::after_ms(10'000);
  EXPECT_TRUE(budget.armed());
  std::int64_t clamped = budget.clamp_ms(250);
  EXPECT_EQ(clamped, 250);  // op timeout is tighter than a 10s budget
  std::int64_t unlimited_op = budget.clamp_ms(0);
  EXPECT_GT(unlimited_op, 9'000);  // budget is the only bound
  EXPECT_LE(unlimited_op, 10'000);

  Deadline tiny = Deadline::after_ms(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_TRUE(tiny.expired());
  EXPECT_EQ(tiny.remaining_ms(), 0);
  EXPECT_EQ(tiny.clamp_ms(250), 0);
}

TEST(Deadline, BackoffIsBoundedAndReproducible) {
  std::uint64_t state_a = 42, state_b = 42;
  for (int attempt = 0; attempt < 12; ++attempt) {
    std::int64_t a = backoff_full_jitter(attempt, 10, 2'000, state_a);
    std::int64_t b = backoff_full_jitter(attempt, 10, 2'000, state_b);
    EXPECT_EQ(a, b) << "same seed, same schedule";
    EXPECT_GE(a, 0);
    std::int64_t ceiling = attempt < 8 ? (10ll << attempt) : 2'000;
    EXPECT_LE(a, std::min<std::int64_t>(ceiling, 2'000));
  }
  // Degenerate bases retry immediately rather than dividing by zero.
  std::uint64_t state = 7;
  EXPECT_EQ(backoff_full_jitter(3, 0, 100, state), 0);
  // Huge attempt counts saturate at the cap instead of shifting into UB.
  EXPECT_LE(backoff_full_jitter(63, 10, 2'000, state), 2'000);
}

// ---- framing: typed failure taxonomy ---------------------------------------

TEST(FramingTyped, CleanEofIsFalseNotAnError) {
  SocketPair pair;
  pair.a.close();
  std::string payload;
  EXPECT_FALSE(read_frame(pair.b.get(), payload));
}

TEST(FramingTyped, PrefixTruncationIsKindTruncated) {
  SocketPair pair;
  const char half_prefix[2] = {0, 0};
  ASSERT_EQ(::send(pair.a.get(), half_prefix, 2, 0), 2);
  pair.a.close();
  std::string payload;
  try {
    (void)read_frame(pair.b.get(), payload);
    FAIL() << "expected FrameError";
  } catch (const FrameError& error) {
    EXPECT_EQ(error.kind(), FrameError::Kind::kTruncated);
    EXPECT_NE(std::string(error.what()).find("2 of 4"), std::string::npos)
        << error.what();
  }
}

TEST(FramingTyped, PayloadTruncationIsKindTruncated) {
  SocketPair pair;
  const unsigned char prefix[4] = {0, 0, 0, 10};
  ASSERT_EQ(::send(pair.a.get(), prefix, 4, 0), 4);
  ASSERT_EQ(::send(pair.a.get(), "abc", 3, 0), 3);
  pair.a.close();
  std::string payload;
  try {
    (void)read_frame(pair.b.get(), payload);
    FAIL() << "expected FrameError";
  } catch (const FrameError& error) {
    EXPECT_EQ(error.kind(), FrameError::Kind::kTruncated);
    EXPECT_NE(std::string(error.what()).find("3 of 10"), std::string::npos)
        << error.what();
  }
}

TEST(FramingTyped, OversizeIsKindOversize) {
  SocketPair pair;
  const unsigned char huge[4] = {0x7f, 0xff, 0xff, 0xff};
  ASSERT_EQ(::send(pair.a.get(), huge, 4, 0), 4);
  std::string payload;
  try {
    (void)read_frame(pair.b.get(), payload, /*max_bytes=*/1 << 20);
    FAIL() << "expected FrameError";
  } catch (const FrameError& error) {
    EXPECT_EQ(error.kind(), FrameError::Kind::kOversize);
  }
}

TEST(FramingTyped, IdleDeadlineIsKindTimeout) {
  SocketPair pair;
  std::string payload;
  auto started = Clock::now();
  try {
    (void)read_frame(pair.b.get(), payload, kMaxFrameBytes,
                     ReadDeadlines{.idle_ms = 100});
    FAIL() << "expected FrameError";
  } catch (const FrameError& error) {
    EXPECT_EQ(error.kind(), FrameError::Kind::kTimeout);
  }
  auto waited = std::chrono::duration_cast<std::chrono::milliseconds>(
      Clock::now() - started);
  EXPECT_GE(waited.count(), 90);
  EXPECT_LT(waited.count(), 3'000) << "deadline must not balloon";
}

TEST(FramingTyped, SlowlorisMidFrameIsKindTimeout) {
  SocketPair pair;
  // One prefix byte arrives, then silence: the frame deadline (armed at that
  // byte) must cut the read off even though the idle deadline never fires.
  std::atomic<bool> done{false};
  std::thread dribbler([&] {
    const char byte = 0;
    ::send(pair.a.get(), &byte, 1, 0);
    while (!done.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  });
  std::string payload;
  try {
    (void)read_frame(pair.b.get(), payload, kMaxFrameBytes,
                     ReadDeadlines{.frame_ms = 150});
    ADD_FAILURE() << "expected FrameError";
  } catch (const FrameError& error) {
    EXPECT_EQ(error.kind(), FrameError::Kind::kTimeout);
    EXPECT_NE(std::string(error.what()).find("mid-frame"), std::string::npos)
        << error.what();
  }
  done.store(true);
  dribbler.join();
}

TEST(FramingTyped, RecvSocketTimeoutIsKindTimeout) {
  SocketPair pair;
  set_recv_timeout(pair.b.get(), 100, "test");
  std::string payload;
  try {
    (void)read_frame(pair.b.get(), payload);
    FAIL() << "expected FrameError";
  } catch (const FrameError& error) {
    EXPECT_EQ(error.kind(), FrameError::Kind::kTimeout);
  }
}

// ---- framing: short writes (satellite: write_frame audit) ------------------

TEST(FramingShortWrite, TinySndbufStillDeliversWholeFrame) {
  SocketPair pair;
  int tiny = 1;  // the kernel clamps to its floor; the point is "far smaller
                 // than the frame", forcing many partial sends
  ASSERT_EQ(::setsockopt(pair.a.get(), SOL_SOCKET, SO_SNDBUF, &tiny,
                         sizeof tiny),
            0);
  std::string big(1 << 20, 'z');
  for (std::size_t i = 0; i < big.size(); i += 4097) big[i] = char('a' + i % 23);
  std::string received;
  std::thread reader([&] {
    std::string payload;
    ASSERT_TRUE(read_frame(pair.b.get(), payload));
    received = std::move(payload);
  });
  write_frame(pair.a.get(), big);
  reader.join();
  EXPECT_EQ(received, big);
}

TEST(FramingShortWrite, SendTimeoutOnFullWindowIsKindTimeout) {
  SocketPair pair;
  set_send_timeout(pair.a.get(), 100, "test");
  // Nobody reads from pair.b: the pipe fills, SO_SNDTIMEO fires mid-frame.
  std::string big(8 << 20, 'x');
  try {
    write_frame(pair.a.get(), big);
    FAIL() << "expected FrameError";
  } catch (const FrameError& error) {
    EXPECT_EQ(error.kind(), FrameError::Kind::kTimeout);
    EXPECT_NE(std::string(error.what()).find("SO_SNDTIMEO"), std::string::npos)
        << error.what();
  }
}

TEST(FramingShortWrite, PeerGoneIsKindReset) {
  SocketPair pair;
  pair.b.close();
  std::string payload(1 << 16, 'y');
  try {
    write_frame(pair.a.get(), payload);
    FAIL() << "expected FrameError";
  } catch (const FrameError& error) {
    EXPECT_EQ(error.kind(), FrameError::Kind::kReset);
  }
}

// ---- the real server: read deadlines, truncation, inflight cap -------------

TEST(ServerHardening, TruncatedFrameAgainstRealServerIsCountedAndSurvived) {
  SolveServerOptions options;
  options.service.threads = 1;
  SolveServer server(options);
  std::uint64_t frame_errors_before = counter("net.frame_errors");

  {
    ScopedFd raw = raw_connect(server.port());
    const char half_prefix[2] = {0, 1};
    ASSERT_EQ(::send(raw.get(), half_prefix, 2, 0), 2);
  }  // close with the prefix half-sent: the reader sees mid-frame EOF

  // The error is counted (poll briefly; the reader thread races us)...
  auto deadline = Deadline::after_ms(3'000);
  while (counter("net.frame_errors") == frame_errors_before &&
         !deadline.expired()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GT(counter("net.frame_errors"), frame_errors_before);

  // ...and the daemon still serves the next client.
  SolveClient client("127.0.0.1", server.port());
  SolveResult result = client.solve(small_instance());
  EXPECT_TRUE(result.ok());
}

TEST(ServerHardening, SlowlorisClientIsCutOffByFrameDeadline) {
  SolveServerOptions options;
  options.service.threads = 1;
  options.frame_timeout_ms = 200;
  SolveServer server(options);
  std::uint64_t timeouts_before = counter("net.timeouts");

  ScopedFd raw = raw_connect(server.port());
  const char byte = 0;  // one prefix byte, then silence
  ASSERT_EQ(::send(raw.get(), &byte, 1, 0), 1);
  EXPECT_TRUE(peer_closed_within(raw.get(), 5'000))
      << "server must drop the dribbling connection";
  EXPECT_GT(counter("net.timeouts"), timeouts_before);

  // The daemon survives and serves an honest client afterwards.
  SolveClient client("127.0.0.1", server.port());
  EXPECT_EQ(client.health().at("status").as_string(), "ok");
}

TEST(ServerHardening, IdleTimeoutClosesQuietConnections) {
  SolveServerOptions options;
  options.service.threads = 1;
  options.idle_timeout_ms = 150;
  SolveServer server(options);

  ScopedFd raw = raw_connect(server.port());  // connect, say nothing
  EXPECT_TRUE(peer_closed_within(raw.get(), 5'000));
}

TEST(ServerHardening, InflightCapStillAnswersDeepPipelines) {
  SolveServerOptions options;
  options.service.threads = 1;
  options.max_inflight_per_connection = 2;
  SolveServer server(options);

  ScopedFd raw = raw_connect(server.port());
  constexpr int kRequests = 24;
  for (int i = 0; i < kRequests; ++i) {
    Request request;
    request.id = static_cast<std::uint64_t>(i + 1);
    request.verb = Verb::kHealth;
    write_frame(raw.get(), encode_request(request));
  }
  std::string payload;
  for (int i = 0; i < kRequests; ++i) {
    ASSERT_TRUE(read_frame(raw.get(), payload)) << "response " << i;
    Response response = decode_response(payload);
    EXPECT_EQ(response.id, static_cast<std::uint64_t>(i + 1))
        << "responses stay FIFO under the cap";
    EXPECT_TRUE(response.ok);
  }
}

TEST(ServerHardening, RetryAndTimeoutCountersAreExposed) {
  SolveServerOptions options;
  options.service.threads = 1;
  SolveServer server(options);
  SolveClient client("127.0.0.1", server.port());
  std::string exposition = client.metrics();
  EXPECT_NE(exposition.find("mpss_net_retries_total"), std::string::npos)
      << "net.retries must be present even at zero";
  EXPECT_NE(exposition.find("mpss_net_timeouts_total"), std::string::npos)
      << "net.timeouts must be present even at zero";
}

// ---- metrics endpoint: slowloris -------------------------------------------

TEST(MetricsHardening, SlowClientCannotPinTheScrapeEndpoint) {
  MetricsHttpServer server("127.0.0.1", 0, /*head_timeout_ms=*/150);
  std::uint64_t slow_before = counter("net.metrics_slow_clients");

  // A client that connects and never finishes its request head.
  ScopedFd slow = raw_connect(server.port());
  ASSERT_EQ(::send(slow.get(), "GET /met", 8, 0), 8);  // never the blank line
  EXPECT_TRUE(peer_closed_within(slow.get(), 5'000))
      << "endpoint must cut the slowloris off";
  EXPECT_GT(counter("net.metrics_slow_clients"), slow_before);

  // And an honest scrape right after succeeds.
  ScopedFd fast = raw_connect(server.port());
  const char request[] = "GET /metrics HTTP/1.0\r\n\r\n";
  ASSERT_EQ(::send(fast.get(), request, sizeof request - 1, 0),
            static_cast<ssize_t>(sizeof request - 1));
  std::string response;
  char buffer[4096];
  ssize_t n;
  while ((n = ::recv(fast.get(), buffer, sizeof buffer, 0)) > 0) {
    response.append(buffer, static_cast<std::size_t>(n));
  }
  EXPECT_EQ(response.rfind("HTTP/1.0 200 OK\r\n", 0), 0u) << response;
}

// ---- client retries --------------------------------------------------------

/// A server that truncates its first `flaky_responses` replies mid-frame and
/// answers honestly afterwards: the deterministic stand-in for "the network
/// ate the response", driving the client's retry path without randomness.
class FlakyServer {
 public:
  explicit FlakyServer(int flaky_responses)
      : flaky_responses_(flaky_responses),
        listen_fd_(bind_listen_ipv4("127.0.0.1", 0, "FlakyServer")),
        port_(bound_port(listen_fd_.get(), "FlakyServer")) {
    acceptor_ = std::thread([this] { serve(); });
  }

  ~FlakyServer() {
    ::shutdown(listen_fd_.get(), SHUT_RDWR);
    if (acceptor_.joinable()) acceptor_.join();
  }

  [[nodiscard]] std::uint16_t port() const { return port_; }
  [[nodiscard]] int connections() const { return connections_.load(); }

 private:
  void serve() {
    for (;;) {
      int raw = ::accept(listen_fd_.get(), nullptr, nullptr);
      if (raw < 0) {
        if (errno == EINTR) continue;
        return;
      }
      ScopedFd fd(raw);
      connections_.fetch_add(1);
      std::string payload;
      try {
        while (read_frame(fd.get(), payload)) {
          Request request = decode_request(payload);
          json::Value health;
          health.set("status", "ok");
          health.set("protocol", static_cast<double>(kProtocolVersion));
          std::string response =
              encode_payload_response(request.id, "health", std::move(health));
          if (flaky_responses_ > 0) {
            --flaky_responses_;
            // Two bytes of the length prefix, then FIN: the client sees
            // kTruncated mid-prefix.
            const char stub[2] = {0, 0};
            ::send(fd.get(), stub, 2, MSG_NOSIGNAL);
            break;
          }
          write_frame(fd.get(), response);
        }
      } catch (const FrameError&) {
        // client went away; accept the next connection
      }
    }
  }

  int flaky_responses_;
  ScopedFd listen_fd_;
  std::uint16_t port_;
  std::atomic<int> connections_{0};
  std::thread acceptor_;
};

TEST(ClientRetry, TruncatedResponseIsRetriedOnAFreshConnection) {
  FlakyServer server(/*flaky_responses=*/2);
  std::uint64_t retries_before = counter("net.retries");

  SolveClientOptions options;
  options.request_budget_ms = 10'000;
  options.retry.max_attempts = 4;
  options.retry.backoff_ms = 1;
  options.retry.backoff_max_ms = 20;
  options.retry.jitter_seed = 99;
  SolveClient client("127.0.0.1", server.port(), options);

  json::Value health = client.health();  // two truncations, then success
  EXPECT_EQ(health.at("status").as_string(), "ok");
  EXPECT_EQ(server.connections(), 3) << "one per attempt, fresh each time";
  EXPECT_GE(counter("net.retries"), retries_before + 2);
}

TEST(ClientRetry, RetriesExhaustedSurfacesTheTypedError) {
  FlakyServer server(/*flaky_responses=*/100);  // never heals
  SolveClientOptions options;
  options.retry.max_attempts = 2;
  options.retry.backoff_ms = 1;
  options.retry.jitter_seed = 7;
  SolveClient client("127.0.0.1", server.port(), options);
  try {
    (void)client.health();
    FAIL() << "expected FrameError";
  } catch (const FrameError& error) {
    EXPECT_EQ(error.kind(), FrameError::Kind::kTruncated);
  }
  EXPECT_EQ(server.connections(), 2) << "max_attempts bounds the connections";
}

TEST(ClientRetry, ShutdownVerbIsNeverRetried) {
  FlakyServer server(/*flaky_responses=*/100);
  SolveClientOptions options;
  options.retry.max_attempts = 5;
  options.retry.backoff_ms = 1;
  SolveClient client("127.0.0.1", server.port(), options);
  EXPECT_THROW((void)client.request_shutdown(), FrameError);
  EXPECT_EQ(server.connections(), 1)
      << "a lost shutdown ack must not re-send the verb";
}

TEST(ClientRetry, RequestBudgetBoundsTheWholeRoundTrip) {
  // A stalling proxy in front of a healthy server: without the budget the
  // client would block for the full io timeout times max_attempts.
  SolveServerOptions server_options;
  server_options.service.threads = 1;
  SolveServer server(server_options);

  FaultProxyOptions proxy_options;
  proxy_options.upstream_port = server.port();
  proxy_options.seed = 5;
  proxy_options.fault_probability = 1.0;
  proxy_options.max_fault_offset = 0;  // cut before the first byte moves
  FaultProxy proxy(proxy_options);

  SolveClientOptions options;
  options.connect_timeout_ms = 1'000;
  options.io_timeout_ms = 5'000;  // far looser than the budget
  options.request_budget_ms = 600;
  options.retry.max_attempts = 10;
  options.retry.backoff_ms = 1;
  options.retry.jitter_seed = 3;

  auto started = Clock::now();
  try {
    SolveClient client("127.0.0.1", proxy.port(), options);
    (void)client.health();
    // A lucky fault draw (e.g. truncate-at-0 resolving instantly) can still
    // succeed; the bound below is what matters.
  } catch (const FrameError&) {
  } catch (const ProtocolError&) {
  } catch (const std::runtime_error&) {
  }
  auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      Clock::now() - started);
  EXPECT_LT(elapsed.count(), 3'000)
      << "budget must cap the round trip well under io_timeout * attempts";
}

// ---- the fault sweep -------------------------------------------------------

/// The deterministic seed matrix: for every seed the client either succeeds
/// (possibly after retries) or throws a TYPED error, within its budget. The
/// server must stay healthy throughout and drain cleanly afterwards -- no
/// hang, no dropped future, no stuck thread.
TEST(FaultSweep, EveryFaultResolvesTypedWithinDeadline) {
  SolveServerOptions server_options;
  server_options.service.threads = 2;
  server_options.frame_timeout_ms = 400;  // truncated requests release readers
  SolveServer server(server_options);

  int successes = 0, typed_failures = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    FaultProxyOptions proxy_options;
    proxy_options.upstream_port = server.port();
    proxy_options.seed = seed;
    proxy_options.fault_probability = 1.0;
    proxy_options.max_fault_offset = 96;
    proxy_options.delay_ms = 10;
    FaultProxy proxy(proxy_options);

    SolveClientOptions options;
    options.connect_timeout_ms = 1'000;
    options.io_timeout_ms = 300;
    options.request_budget_ms = 2'500;
    options.retry.max_attempts = 4;
    options.retry.backoff_ms = 2;
    options.retry.backoff_max_ms = 20;
    options.retry.jitter_seed = seed;

    auto started = Clock::now();
    try {
      SolveClient client("127.0.0.1", proxy.port(), options);
      SolveResult result = client.solve(small_instance());
      EXPECT_TRUE(result.ok());
      ++successes;
    } catch (const FrameError&) {
      ++typed_failures;
    } catch (const ProtocolError&) {
      ++typed_failures;
    } catch (const std::runtime_error&) {
      ++typed_failures;  // connect-path failure: typed, expected
    }
    auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
        Clock::now() - started);
    EXPECT_LT(elapsed.count(), 8'000) << "seed " << seed << " blocked too long";

    FaultProxyStats stats = proxy.stats();
    EXPECT_GE(stats.connections, 1u) << "seed " << seed;
    EXPECT_GE(stats.faults_injected, 1u) << "seed " << seed;
  }
  EXPECT_EQ(successes + typed_failures, 10) << "every call must resolve";

  // The daemon is still healthy after the whole sweep...
  SolveClient direct("127.0.0.1", server.port());
  EXPECT_EQ(direct.health().at("status").as_string(), "ok");
  direct.close();
  // ...and drains without hanging (the test would time out otherwise).
  server.shutdown();
}

TEST(FaultSweep, DownstreamFaultsAreHealedByRetries) {
  // Faults only on server->client responses: the server always executes the
  // request, the client sometimes loses the answer. With enough attempts and
  // the result cache absorbing duplicates, every call must succeed.
  SolveServerOptions server_options;
  server_options.service.threads = 2;
  SolveServer server(server_options);

  FaultProxyOptions proxy_options;
  proxy_options.upstream_port = server.port();
  proxy_options.seed = 20'26;
  proxy_options.fault_probability = 1.0;  // every connection drawn a fault;
                                          // truncate/reset/stall break it,
                                          // delay/short-write do not
  proxy_options.max_fault_offset = 64;
  proxy_options.faults_downstream_only = true;
  FaultProxy proxy(proxy_options);

  std::uint64_t retries_before = counter("net.retries");
  int successes = 0;
  for (int i = 0; i < 8; ++i) {
    SolveClientOptions options;
    options.connect_timeout_ms = 1'000;
    options.io_timeout_ms = 300;
    options.request_budget_ms = 5'000;
    options.retry.max_attempts = 8;
    options.retry.backoff_ms = 1;
    options.retry.backoff_max_ms = 10;
    options.retry.jitter_seed = static_cast<std::uint64_t>(i + 1);
    try {
      SolveClient client("127.0.0.1", proxy.port(), options);
      if (client.solve(small_instance()).ok()) ++successes;
    } catch (const std::exception& error) {
      ADD_FAILURE() << "request " << i << " failed past retries: "
                    << error.what();
    }
  }
  EXPECT_EQ(successes, 8);
  // Deterministic under the fixed seeds: the schedule breaks at least one
  // first attempt, so the healed requests are visible in the counter.
  EXPECT_GT(counter("net.retries"), retries_before);
  FaultProxyStats stats = proxy.stats();
  EXPECT_EQ(stats.faults_injected, stats.connections);
  EXPECT_GT(stats.connections, 8u) << "retries opened extra connections";
}

// ---------------------------------------------------------------------------
// Fuzz regressions: hostile documents that once reached an unchecked
// double -> integer cast (undefined behavior under UBSan) in the decode
// paths. Each pin asserts the typed rejection; none may crash or hang.
// ---------------------------------------------------------------------------

TEST(FuzzRegression, HugeIdIsRejectedNotCast) {
  // 1e300 passed the old `raw == floor(raw)` check, then hit an undefined
  // static_cast<uint64_t>. Must surface as kBadRequest.
  EXPECT_THROW(
      decode_request(R"({"v":1,"id":1e300,"verb":"health"})"),
      ProtocolError);
  EXPECT_THROW(
      decode_request(R"({"v":1,"id":1e309,"verb":"health"})"),
      ProtocolError);
}

TEST(FuzzRegression, HugeMachinesIsRejectedNotCast) {
  EXPECT_THROW(
      instance_from_json(R"({"mpss_instance":1,"machines":1e300,"jobs":[]})"),
      std::invalid_argument);
  // 1e309 overflows strtod to +inf; inf must fail the same bound check.
  EXPECT_THROW(
      instance_from_json(R"({"mpss_instance":1,"machines":1e309,"jobs":[]})"),
      std::invalid_argument);
}

TEST(FuzzRegression, HostileSolveFieldsAreRejectedNotCast) {
  const std::string prefix =
      R"({"v":1,"id":1,"verb":"solve","instance":)"
      R"({"mpss_instance":1,"machines":2,"jobs":[["0","4","2"]]})";
  // lp_grid, priority, deadline_ms each cast to an integer type after parse.
  EXPECT_THROW(decode_request(prefix + R"(,"options":{"lp_grid":1e300}})"),
               ProtocolError);
  EXPECT_THROW(decode_request(prefix + R"(,"priority":1e300})"),
               ProtocolError);
  EXPECT_THROW(decode_request(prefix + R"(,"priority":-1e300})"),
               ProtocolError);
  EXPECT_THROW(decode_request(prefix + R"(,"deadline_ms":1e300})"),
               ProtocolError);
  // deadline_ms once checked only `raw < 0`, which NaN-shaped inputs (and
  // anything past 2^53) slipped past. strtod has no NaN literal in JSON, but
  // huge values exercised the same cast.
  EXPECT_THROW(decode_request(prefix + R"(,"deadline_ms":9e18})"),
               ProtocolError);
}

TEST(FuzzRegression, HugeScheduleIndicesAreRejectedNotCast) {
  // A hostile *response* (malicious or corrupted server) with an unbounded
  // slice job index or machine count must be rejected, not cast.
  const std::string response =
      R"({"v":1,"id":1,"ok":true,"results":[{"status":"ok",)"
      R"("error_detail":"","energy":1.0,)"
      R"("schedule":{"type":"exact","machines":1e300,"slices":[]}}]})";
  EXPECT_THROW(decode_response(response), ProtocolError);
  const std::string bad_job =
      R"({"v":1,"id":1,"ok":true,"results":[{"status":"ok",)"
      R"("error_detail":"","energy":1.0,)"
      R"("schedule":{"type":"exact","machines":1,)"
      R"("slices":[[0,0.0,1.0,1.0,1e300]]}}]})";
  EXPECT_THROW(decode_response(bad_job), ProtocolError);
}

}  // namespace
}  // namespace mpss::net
