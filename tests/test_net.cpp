// The network layer (S45): framing robustness, protocol codec fidelity, and
// the solve daemon's end-to-end contracts -- loopback results bit-identical to
// the in-process facade, graceful drain resolving every accepted request, and
// cancellation of outstanding work when a client disconnects.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "mpss/core/instance_json.hpp"
#include "mpss/net/client.hpp"
#include "mpss/net/framing.hpp"
#include "mpss/net/protocol.hpp"
#include "mpss/net/server.hpp"
#include "mpss/obs/registry.hpp"
#include "mpss/obs/trace.hpp"
#include "mpss/util/json.hpp"
#include "mpss/solve.hpp"
#include "mpss/util/random.hpp"
#include "mpss/workload/generators.hpp"

namespace mpss::net {
namespace {

Instance small_instance() {
  return Instance({Job{Q(0), Q(8), Q(6)}, Job{Q(2), Q(4), Q(6)},
                   Job{Q(2), Q(4), Q(4)}},
                  2);
}

Instance fractional_instance() {
  return Instance({Job{Q(0), Q(1, 2), Q(2, 3)}, Job{Q(1, 3), Q(5, 6), Q(1, 7)},
                   Job{Q(1, 4), Q(2), Q(3, 2)}, Job{Q(0), Q(2), Q(1)}},
                  2);
}

Instance heavy_instance(std::uint64_t seed) {
  return generate_uniform({.jobs = 48, .machines = 4, .horizon = 96,
                           .max_window = 10, .max_work = 8}, seed);
}

/// A connected AF_UNIX socket pair: the cheapest way to exercise framing and
/// raw protocol bytes without a real TCP listener.
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

/// Raw TCP connection to a server, for speaking malformed bytes at it.
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

// ---- framing ---------------------------------------------------------------

TEST(Framing, RoundTripsPayloads) {
  SocketPair pair;
  for (const std::string& payload :
       {std::string(""), std::string("x"), std::string(100000, 'q'),
        std::string("\0\x01\xff binary \n", 12)}) {
    write_frame(pair.a.get(), payload);
    std::string read_back;
    ASSERT_TRUE(read_frame(pair.b.get(), read_back));
    EXPECT_EQ(read_back, payload);
  }
}

TEST(Framing, CleanEofAtBoundaryReturnsFalse) {
  SocketPair pair;
  write_frame(pair.a.get(), "last");
  pair.a.close();
  std::string payload;
  ASSERT_TRUE(read_frame(pair.b.get(), payload));
  EXPECT_EQ(payload, "last");
  EXPECT_FALSE(read_frame(pair.b.get(), payload));
}

TEST(Framing, TruncationInsidePrefixOrPayloadThrows) {
  {
    SocketPair pair;
    const char half_prefix[2] = {0, 0};
    ASSERT_EQ(::send(pair.a.get(), half_prefix, 2, 0), 2);
    pair.a.close();
    std::string payload;
    EXPECT_THROW((void)read_frame(pair.b.get(), payload), FrameError);
  }
  {
    SocketPair pair;
    const unsigned char prefix[4] = {0, 0, 0, 10};  // promises 10 bytes
    ASSERT_EQ(::send(pair.a.get(), prefix, 4, 0), 4);
    ASSERT_EQ(::send(pair.a.get(), "abc", 3, 0), 3);  // delivers 3
    pair.a.close();
    std::string payload;
    EXPECT_THROW((void)read_frame(pair.b.get(), payload), FrameError);
  }
}

TEST(Framing, OversizedFramesAreRejectedOnBothSides) {
  SocketPair pair;
  EXPECT_THROW(write_frame(pair.a.get(), std::string(64, 'x'), /*max_bytes=*/63),
               FrameError);
  // A hostile prefix announcing more than the cap must throw before any
  // allocation of that size.
  const unsigned char huge[4] = {0x7f, 0xff, 0xff, 0xff};
  ASSERT_EQ(::send(pair.a.get(), huge, 4, 0), 4);
  std::string payload;
  EXPECT_THROW((void)read_frame(pair.b.get(), payload, /*max_bytes=*/1 << 20),
               FrameError);
}

TEST(Framing, FuzzedStreamsNeverCrash) {
  // Random byte streams into the reader: every outcome must be a clean EOF,
  // a parsed (garbage) frame, or FrameError -- never a crash or a hang. The
  // cap keeps hostile length prefixes from allocating.
  Xoshiro256 rng(20260808);
  for (int round = 0; round < 200; ++round) {
    SocketPair pair;
    std::size_t length = static_cast<std::size_t>(rng.below(64));
    std::string bytes(length, '\0');
    for (char& c : bytes) c = static_cast<char>(rng() & 0xff);
    ASSERT_EQ(::send(pair.a.get(), bytes.data(), bytes.size(), 0),
              static_cast<ssize_t>(bytes.size()));
    pair.a.close();
    std::string payload;
    try {
      while (read_frame(pair.b.get(), payload, /*max_bytes=*/4096)) {
      }
    } catch (const FrameError&) {
      // expected for most random streams
    }
  }
}

// ---- protocol codec --------------------------------------------------------

TEST(Protocol, RequestRoundTrips) {
  Request request;
  request.id = 42;
  request.verb = Verb::kSolveMany;
  request.instances = {fractional_instance(), small_instance()};
  request.options.engine = Engine::kFast;
  request.options.fast_epsilon = 1e-7;
  request.priority = 3;
  request.deadline_ms = 250;

  Request decoded = decode_request(encode_request(request));
  EXPECT_EQ(decoded.id, request.id);
  EXPECT_EQ(decoded.verb, request.verb);
  ASSERT_EQ(decoded.instances.size(), 2u);
  EXPECT_EQ(decoded.instances[0], request.instances[0]);
  EXPECT_EQ(decoded.instances[1], request.instances[1]);
  EXPECT_EQ(decoded.options.engine, Engine::kFast);
  EXPECT_EQ(decoded.options.fast_epsilon, 1e-7);
  EXPECT_EQ(decoded.priority, 3);
  EXPECT_EQ(decoded.deadline_ms, 250);
}

TEST(Protocol, RetiredWarmStartKeysAreIgnored) {
  // Older clients sent exact_incremental / fast_incremental; warm starts no
  // longer travel (they never changed an exact result), and decoding ignores
  // the keys instead of rejecting the request.
  SolveOptions decoded = solve_options_from_json_value(json::parse(
      R"({"engine":"fast","exact_incremental":false,"fast_incremental":false})"));
  EXPECT_EQ(decoded.engine, Engine::kFast);
  EXPECT_TRUE(decoded.exact.incremental);
  json::Value encoded = solve_options_to_json_value(decoded);
  EXPECT_EQ(encoded.find("exact_incremental"), nullptr);
  EXPECT_EQ(encoded.find("fast_incremental"), nullptr);
}

TEST(Protocol, ResultRoundTripsBitIdentically) {
  SolveResult original = solve(fractional_instance());
  ASSERT_TRUE(original.ok());
  ASSERT_NE(original.exact_schedule(), nullptr);

  SolveResult decoded = result_from_json_value(result_to_json_value(original));
  EXPECT_EQ(decoded.status, original.status);
  EXPECT_EQ(decoded.error_detail, original.error_detail);
  EXPECT_EQ(decoded.energy, original.energy);  // bit-equal doubles
  ASSERT_NE(decoded.exact_schedule(), nullptr);
  const Schedule& a = *original.exact_schedule();
  const Schedule& b = *decoded.exact_schedule();
  ASSERT_EQ(a.machines(), b.machines());
  for (std::size_t machine = 0; machine < a.machines(); ++machine) {
    auto sa = a.machine(machine);
    auto sb = b.machine(machine);
    ASSERT_EQ(sa.size(), sb.size());
    for (std::size_t i = 0; i < sa.size(); ++i) {
      EXPECT_EQ(sa[i], sb[i]);  // exact rational slices
    }
  }
}

TEST(Protocol, DecodersRejectBadDocuments) {
  auto code_of = [](std::string_view payload) {
    try {
      (void)decode_request(payload);
    } catch (const ProtocolError& error) {
      return error.code();
    }
    return ErrorCode::kInternal;  // "did not throw" sentinel
  };
  EXPECT_EQ(code_of("not json"), ErrorCode::kBadRequest);
  EXPECT_EQ(code_of(R"({"id":1,"verb":"solve"})"), ErrorCode::kUnsupportedVersion);
  EXPECT_EQ(code_of(R"({"v":2,"id":1,"verb":"solve"})"),
            ErrorCode::kUnsupportedVersion);
  EXPECT_EQ(code_of(R"({"v":1,"id":1,"verb":"conquer"})"), ErrorCode::kUnknownVerb);
  EXPECT_EQ(code_of(R"({"v":1,"id":1,"verb":"solve"})"), ErrorCode::kBadRequest);
  EXPECT_EQ(code_of(R"({"v":1,"id":1,"verb":"solve","instance":7})"),
            ErrorCode::kBadRequest);
}

TEST(Protocol, ErrorResponsesCarryCodeAndDetail) {
  std::string wire = encode_error_response(9, ErrorCode::kQueueFull, "full up");
  Response response = decode_response(wire);
  EXPECT_EQ(response.id, 9u);
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(response.code, ErrorCode::kQueueFull);
  EXPECT_EQ(response.detail, "full up");
}

TEST(Protocol, TraceContextRoundTripsAsDecimalStrings) {
  Request request;
  request.id = 7;
  request.verb = Verb::kSolve;
  request.instances = {small_instance()};
  // A trace id above 2^53 is exactly the case doubles would corrupt; the
  // codec must carry it as a decimal string and decode it bit-exactly.
  request.trace_id = 18347587744294764545ull;
  request.parent_span = 3;

  std::string wire = encode_request(request);
  EXPECT_NE(wire.find("\"trace\""), std::string::npos);
  EXPECT_NE(wire.find("\"18347587744294764545\""), std::string::npos);
  Request decoded = decode_request(wire);
  EXPECT_EQ(decoded.trace_id, 18347587744294764545ull);
  EXPECT_EQ(decoded.parent_span, 3u);

  // An untraced request must not grow a trace member, and decoding one
  // yields the zero context.
  request.trace_id = 0;
  request.parent_span = 0;
  wire = encode_request(request);
  EXPECT_EQ(wire.find("\"trace\""), std::string::npos);
  decoded = decode_request(wire);
  EXPECT_EQ(decoded.trace_id, 0u);
  EXPECT_EQ(decoded.parent_span, 0u);

  // Numeric (non-string) trace ids are a protocol error, not a silent
  // truncation through double.
  EXPECT_THROW(
      (void)decode_request(
          R"({"v":1,"id":1,"verb":"health","trace":{"id":123}})"),
      ProtocolError);
}

TEST(Protocol, NamesRoundTrip) {
  for (Verb verb : {Verb::kSolve, Verb::kSolveMany, Verb::kStats, Verb::kHealth,
                    Verb::kMetrics, Verb::kShutdown}) {
    EXPECT_EQ(verb_from_name(verb_name(verb)), verb);
  }
  EXPECT_FALSE(verb_from_name("conquer").has_value());
  for (ErrorCode code :
       {ErrorCode::kBadFrame, ErrorCode::kBadRequest,
        ErrorCode::kUnsupportedVersion, ErrorCode::kUnknownVerb,
        ErrorCode::kQueueFull, ErrorCode::kShutdown, ErrorCode::kInternal}) {
    EXPECT_EQ(error_code_from_name(error_code_name(code)), code);
  }
  EXPECT_FALSE(error_code_from_name("nope").has_value());
}

// ---- server end-to-end -----------------------------------------------------

TEST(SolveServer, LoopbackSolveIsBitIdenticalToInProcess) {
  SolveServer server;
  SolveClient client("127.0.0.1", server.port());

  for (const Instance& instance : {small_instance(), fractional_instance()}) {
    SolveResult local = solve(instance);
    SolveResult remote = client.solve(instance);
    EXPECT_EQ(remote.status, local.status);
    EXPECT_EQ(remote.error_detail, local.error_detail);
    EXPECT_EQ(remote.energy, local.energy);  // bit-equal, not approximately
    ASSERT_NE(remote.exact_schedule(), nullptr);
    ASSERT_NE(local.exact_schedule(), nullptr);
    ASSERT_EQ(remote.exact_schedule()->machines(),
              local.exact_schedule()->machines());
    for (std::size_t m = 0; m < local.exact_schedule()->machines(); ++m) {
      auto remote_slices = remote.exact_schedule()->machine(m);
      auto local_slices = local.exact_schedule()->machine(m);
      ASSERT_EQ(remote_slices.size(), local_slices.size());
      for (std::size_t i = 0; i < local_slices.size(); ++i) {
        EXPECT_EQ(remote_slices[i], local_slices[i]);
      }
    }
  }
  server.shutdown();
}

TEST(SolveServer, SolveManyPreservesOrderAndOptionsTravel) {
  SolveServer server;
  SolveClient client("127.0.0.1", server.port());
  std::vector<Instance> instances = {small_instance(), fractional_instance(),
                                     small_instance().with_machines(1)};
  SolveOptions options;
  options.engine = Engine::kFast;
  std::vector<SolveResult> remote = client.solve_many(instances, options);
  ASSERT_EQ(remote.size(), instances.size());
  for (std::size_t i = 0; i < instances.size(); ++i) {
    SolveResult local = solve(instances[i], options);
    EXPECT_EQ(remote[i].status, local.status);
    EXPECT_EQ(remote[i].energy, local.energy);
    EXPECT_NE(remote[i].fast_schedule(), nullptr);  // fast engine travelled
  }
  server.shutdown();
}

TEST(SolveServer, SolveLevelFailuresComeBackAsStatuses) {
  SolveServer server;
  SolveClient client("127.0.0.1", server.port());
  SolveOptions bad;
  bad.engine = Engine::kLp;
  bad.lp_grid = 1;
  SolveResult result = client.solve(small_instance(), bad);
  EXPECT_EQ(result.status, SolveStatus::kInvalidOptions);
  EXPECT_FALSE(result.error_detail.empty());  // error_detail over the wire
  server.shutdown();
}

TEST(SolveServer, PowerSpecTravelsWithTheInstance) {
  SolveServer server;
  SolveClient client("127.0.0.1", server.port());
  Instance cube = small_instance();
  Instance square = cube.with_power(PowerSpec::alpha(2.0));
  EXPECT_EQ(client.solve(cube).energy, solve(cube).energy);
  EXPECT_EQ(client.solve(square).energy, solve(square).energy);
  EXPECT_NE(client.solve(cube).energy, client.solve(square).energy);
  server.shutdown();
}

TEST(SolveServer, StatsAndHealthVerbs) {
  SolveServer server;
  SolveClient client("127.0.0.1", server.port());
  json::Value health = client.health();
  EXPECT_EQ(health.at("status").as_string(), "ok");
  EXPECT_EQ(health.at("protocol").as_double(),
            static_cast<double>(kProtocolVersion));

  (void)client.solve(small_instance());
  (void)client.solve(small_instance());  // cache hit
  json::Value stats = client.stats();
  EXPECT_EQ(stats.at("cache").at("hits").as_double(), 1.0);
  EXPECT_EQ(stats.at("cache").at("misses").as_double(), 1.0);
  EXPECT_GE(stats.at("workers").as_double(), 1.0);
  server.shutdown();
}

TEST(SolveServer, CacheIsSharedAcrossConnections) {
  SolveServer server;
  SolveClient first("127.0.0.1", server.port());
  (void)first.solve(small_instance());
  SolveClient second("127.0.0.1", server.port());
  (void)second.solve(small_instance());
  json::Value stats = second.stats();
  EXPECT_EQ(stats.at("cache").at("hits").as_double(), 1.0);
  server.shutdown();
}

TEST(SolveServer, MalformedRequestsGetErrorResponsesAndTheConnectionSurvives) {
  SolveServer server;
  ScopedFd raw = raw_connect(server.port());

  write_frame(raw.get(), "this is not json");
  std::string payload;
  ASSERT_TRUE(read_frame(raw.get(), payload));
  Response bad = decode_response(payload);
  EXPECT_FALSE(bad.ok);
  EXPECT_EQ(bad.code, ErrorCode::kBadRequest);

  write_frame(raw.get(), R"({"v":99,"id":5,"verb":"solve"})");
  ASSERT_TRUE(read_frame(raw.get(), payload));
  EXPECT_EQ(decode_response(payload).code, ErrorCode::kUnsupportedVersion);

  // The connection is still serviceable after two bad requests.
  Request request;
  request.id = 6;
  request.verb = Verb::kHealth;
  write_frame(raw.get(), encode_request(request));
  ASSERT_TRUE(read_frame(raw.get(), payload));
  EXPECT_TRUE(decode_response(payload).ok);
  server.shutdown();
}

TEST(SolveServer, DeadlineTravelsAndExpires) {
  SolveServerOptions options;
  options.service.threads = 1;
  SolveServer server(std::move(options));
  SolveClient client("127.0.0.1", server.port());
  // A 48-job exact solve cannot finish in 1ms; the daemon must report
  // kDeadlineExceeded through the normal result path, not an error payload.
  SolveResult result = client.solve(heavy_instance(1), SolveOptions{},
                                    /*priority=*/0, /*deadline_ms=*/1);
  EXPECT_EQ(result.status, SolveStatus::kDeadlineExceeded);
  EXPECT_FALSE(result.error_detail.empty());
  server.shutdown();
}

TEST(SolveServer, GracefulDrainResolvesEveryAcceptedRequest) {
  SolveServerOptions options;
  options.service.threads = 2;
  SolveServer server(std::move(options));

  // Pipeline several non-trivial solves plus a shutdown verb on one raw
  // connection WITHOUT reading responses. The daemon's reader ingests frames
  // in order, so by the time the shutdown verb is handled every earlier solve
  // has been accepted; the drain contract then demands all of them resolve
  // and their responses be written before the listener closes.
  ScopedFd raw = raw_connect(server.port());
  constexpr std::uint64_t kSolves = 4;
  for (std::uint64_t i = 0; i < kSolves; ++i) {
    Request request;
    request.id = i + 1;
    request.verb = Verb::kSolve;
    request.instances.push_back(heavy_instance(i + 1));
    write_frame(raw.get(), encode_request(request));
  }
  Request shutdown_request;
  shutdown_request.id = kSolves + 1;
  shutdown_request.verb = Verb::kShutdown;
  write_frame(raw.get(), encode_request(shutdown_request));

  std::string payload;
  for (std::uint64_t i = 0; i < kSolves; ++i) {
    ASSERT_TRUE(read_frame(raw.get(), payload)) << "response " << i;
    Response response = decode_response(payload);
    EXPECT_EQ(response.id, i + 1);
    ASSERT_TRUE(response.ok);
    ASSERT_EQ(response.results.size(), 1u);
    EXPECT_EQ(response.results[0].status, SolveStatus::kOk);
  }
  ASSERT_TRUE(read_frame(raw.get(), payload));  // the shutdown ack, FIFO-last
  Response ack = decode_response(payload);
  EXPECT_EQ(ack.id, kSolves + 1);
  EXPECT_TRUE(ack.ok);
  EXPECT_FALSE(read_frame(raw.get(), payload));  // then a clean close

  server.wait();  // the verb-initiated shutdown completes on its own
}

TEST(SolveServer, DisconnectCancelsOutstandingWork) {
  SolveServerOptions options;
  options.service.threads = 1;  // one worker: requests queue behind each other
  SolveServer server(std::move(options));

  // Big enough that the lone worker cannot drain the queue in the gap between
  // the client vanishing and the reader thread observing EOF -- the S46 kernel
  // made heavy_instance-sized solves fast enough to lose that race.
  auto slow_instance = [](std::uint64_t seed) {
    return generate_uniform({.jobs = 96, .machines = 4, .horizon = 96,
                             .max_window = 10, .max_work = 8}, seed);
  };

  std::uint64_t cancelled_before =
      obs::Registry::global().snapshot().value("net.cancelled_on_disconnect");
  {
    ScopedFd raw = raw_connect(server.port());
    for (std::uint64_t i = 0; i < 6; ++i) {
      Request request;
      request.id = i + 1;
      request.verb = Verb::kSolve;
      request.instances.push_back(slow_instance(i + 10));
      write_frame(raw.get(), encode_request(request));
    }
    // Wait until the reader has ingested at least one frame, then vanish.
    std::string payload;
    ASSERT_TRUE(read_frame(raw.get(), payload));
  }  // raw closes: the daemon should cancel whatever is still pending

  // The reader notices EOF asynchronously; give it a bounded window (it only
  // needs one scheduling slice) before tearing the server down.
  std::uint64_t cancelled_after = cancelled_before;
  for (int spin = 0; spin < 400 && cancelled_after == cancelled_before; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    cancelled_after =
        obs::Registry::global().snapshot().value("net.cancelled_on_disconnect");
  }
  // Shutdown completes promptly because the abandoned solves stop at their
  // next checkpoint instead of running to completion.
  server.shutdown();
  EXPECT_GT(cancelled_after, cancelled_before);
}

TEST(SolveServer, ShutdownIsIdempotentAndRejectsLateClients) {
  SolveServer server;
  std::uint16_t port = server.port();
  server.shutdown();
  server.shutdown();  // second call is a no-op
  EXPECT_THROW(SolveClient("127.0.0.1", port), std::runtime_error);
}

// ---- distributed tracing (S47) ---------------------------------------------

/// Attaches `sink` to the global registry for the test's scope.
struct ScopedSink {
  explicit ScopedSink(obs::TraceSink* sink) {
    obs::Registry::global().attach_sink(sink);
  }
  ~ScopedSink() { obs::Registry::global().attach_sink(nullptr); }
};

TEST(SolveServer, TraceLinksClientAndServerSpansAcrossLoopback) {
  obs::MemorySink sink;
  ScopedSink attach(&sink);

  SolveServer server;
  SolveClient client("127.0.0.1", server.port());
  ASSERT_TRUE(client.solve(small_instance()).ok());
  server.shutdown();  // drain: every server-side span is closed and recorded

  // Loopback means both processes' spans land in the one global sink, which
  // is exactly what lets this test assert the full parent chain: the engine's
  // solve span must be a transitive child of the client's client.solve span,
  // crossing the wire (remote_parent) and the worker handoff (local_parent).
  std::vector<obs::TraceEvent> events = sink.events();
  auto begin_of = [&events](std::string_view label) -> const obs::TraceEvent* {
    for (const obs::TraceEvent& event : events) {
      if (event.kind == obs::EventKind::kSpanBegin && event.label == label) {
        return &event;
      }
    }
    return nullptr;
  };

  const obs::TraceEvent* client_span = begin_of("client.solve");
  ASSERT_NE(client_span, nullptr);
  ASSERT_NE(client_span->trace, 0u);  // the client minted a trace id

  const obs::TraceEvent* net_span = begin_of("net.request");
  ASSERT_NE(net_span, nullptr);
  EXPECT_EQ(net_span->trace, client_span->trace);
  // The wire hop: net.request is a root span in the server whose parent lives
  // in the peer process, carried as remote_parent (b stays 0).
  EXPECT_EQ(net_span->b, 0u);
  EXPECT_EQ(net_span->remote_parent, client_span->a);

  const obs::TraceEvent* service_span = begin_of("service.request");
  ASSERT_NE(service_span, nullptr);
  EXPECT_EQ(service_span->trace, client_span->trace);
  // The thread hop: the worker's span re-roots onto the reader's net.request
  // span (local_parent), not the pool's long-lived pool.task wrapper.
  EXPECT_EQ(service_span->b, net_span->a);

  const obs::TraceEvent* engine_span = begin_of("optimal.solve");
  ASSERT_NE(engine_span, nullptr);
  EXPECT_EQ(engine_span->trace, client_span->trace);
  EXPECT_EQ(engine_span->b, service_span->a);
  // Transitivity: optimal.solve -> service.request -> net.request ~> (remote)
  // client.solve, all under one trace id. QED for the S47 acceptance chain.
}

TEST(SolveServer, UntracedRequestsStayUntraced) {
  // No sink: the client must not stamp a trace context into the request, and
  // nothing in the daemon path may crash on the all-zero context.
  SolveServer server;
  SolveClient client("127.0.0.1", server.port());
  ASSERT_TRUE(client.solve(small_instance()).ok());
  json::Value stats = client.stats();
  EXPECT_GE(stats.at("uptime_seconds").as_double(), 0.0);
  server.shutdown();
}

TEST(SolveServer, MetricsVerbReturnsPrometheusText) {
  SolveServer server;
  SolveClient client("127.0.0.1", server.port());
  (void)client.solve(small_instance());
  std::string text = client.metrics();
  EXPECT_NE(text.find("# TYPE mpss_net_requests_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("mpss_net_requests_total"), std::string::npos);
  // Every non-comment line is "name[{labels}] value".
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    auto space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    EXPECT_NO_THROW((void)std::stod(line.substr(space + 1))) << line;
  }
  server.shutdown();
}

TEST(SolveServer, StatsReportLatencyPercentilesAfterTracedSolves) {
  SolveServer server;
  SolveClient client("127.0.0.1", server.port());
  (void)client.solve(small_instance());
  (void)client.solve(fractional_instance());
  json::Value stats = client.stats();
  const json::Value* latency = stats.find("latency");
  ASSERT_NE(latency, nullptr);
  const json::Value* request_us = latency->find("net.request_us");
  ASSERT_NE(request_us, nullptr);
  EXPECT_GE(request_us->at("count").as_double(), 2.0);
  EXPECT_GT(request_us->at("p50").as_double(), 0.0);
  EXPECT_LE(request_us->at("p50").as_double(),
            request_us->at("p99").as_double());
  server.shutdown();
}

TEST(SolveServer, SlowLogEmitsOneJsonRecordPerRequest) {
  std::ostringstream log;
  SolveServerOptions options;
  options.slow_ms = 0;  // threshold 0: log every request
  options.request_log = &log;
  SolveServer server(std::move(options));
  SolveClient client("127.0.0.1", server.port());
  ASSERT_TRUE(client.solve(small_instance()).ok());
  ASSERT_TRUE(client.solve(small_instance()).ok());  // cache hit
  server.shutdown();

  std::istringstream lines(log.str());
  std::string line;
  std::size_t solves = 0;
  bool saw_cache_hit = false;
  while (std::getline(lines, line)) {
    json::Value record = json::parse(line);  // machine-parseable or bust
    EXPECT_EQ(record.at("event").as_string(), "request");
    if (record.at("verb").as_string() != "solve") continue;
    ++solves;
    EXPECT_EQ(record.at("status").as_string(), "ok");
    EXPECT_EQ(record.at("engine").as_string(), "exact");
    EXPECT_GE(record.at("wall_us").as_double(), 0.0);
    EXPECT_GE(record.at("queue_wait_us").as_double(), 0.0);
    saw_cache_hit = saw_cache_hit || record.at("cache_hit").as_bool();
  }
  EXPECT_EQ(solves, 2u);
  EXPECT_TRUE(saw_cache_hit);  // the second solve was served from cache
  EXPECT_GE(obs::Registry::global().snapshot().value("net.slow_requests"), 2u);
}

}  // namespace
}  // namespace mpss::net
