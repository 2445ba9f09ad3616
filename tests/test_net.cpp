// The network layer (S45): framing robustness, protocol codec fidelity, and
// the solve daemon's end-to-end contracts -- loopback results bit-identical to
// the in-process facade, graceful drain resolving every accepted request, and
// cancellation of outstanding work when a client disconnects.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <bit>
#include <chrono>
#include <cstring>
#include <latch>
#include <optional>
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
#include "mpss/result_json.hpp"
#include "mpss/util/json.hpp"
#include "mpss/solve.hpp"
#include "mpss/util/random.hpp"
#include "mpss/workload/generators.hpp"
#include "support/reference_protocol.hpp"

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

Instance tiny_instance(std::uint64_t seed) {
  return generate_uniform({.jobs = 3, .machines = 2, .horizon = 8,
                           .max_window = 4, .max_work = 3}, seed);
}

/// The sixteen instances of the golden solve_many frame.
std::vector<Instance> golden_many_instances() {
  std::vector<Instance> instances;
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    instances.push_back(tiny_instance(seed));
  }
  return instances;
}

// ---- golden wire frames ------------------------------------------------------
// encode_results_response output captured from the document-model encoder the
// streaming one replaced. Every byte is part of the protocol: a change here is
// a wire change, not a refactor.

constexpr std::string_view kGoldenExact =
    R"json({"v":1,"id":1,"ok":true,"results":[{"status":"ok","error_detail":"","ene)json"
    R"json(rgy":2.7746419591484139,"schedule":{"type":"exact","machines":2,"slices")json"
    R"json(:[[0,"0","1/4","4/3",0],[0,"1/4","1/3","4/3",0],[0,"1/3","1/2","4/3",0],)json"
    R"json([0,"1/2","5/6","6/7",2],[0,"5/6","2","6/7",2],[1,"0","1/4","32/49",3],[1)json"
    R"json(,"1/4","1/3","6/7",2],[1,"1/3","1/2","6/7",2],[1,"1/2","23/32","32/49",1)json"
    R"json(],[1,"23/32","5/6","32/49",3],[1,"5/6","2","32/49",3]]}}]})json";

constexpr std::string_view kGoldenFast =
    R"json({"v":1,"id":2,"ok":true,"results":[{"status":"ok","error_detail":"","ene)json"
    R"json(rgy":2.7746419591484139,"schedule":{"type":"fast","machines":2,"slices":)json"
    R"json([[0,0,0.25,1.3333333333333333,0],[0,0.25,0.33333333333333331,1.333333333)json"
    R"json(3333333,0],[0,0.33333333333333331,0.5,1.3333333333333333,0],[0,0.5,0.833)json"
    R"json(33333333333337,0.8571428571428571,2],[0,0.83333333333333337,2,0.85714285)json"
    R"json(71428571,2],[1,0.25,0.33333333333333331,0.8571428571428571,2],[1,0.33333)json"
    R"json(333333333331,0.5,0.8571428571428571,2],[1,0,0.25,0.65306122448979587,3],)json"
    R"json([1,0.5,0.71875,0.65306122448979587,1],[1,0.71875,0.83333333333333337,0.6)json"
    R"json(5306122448979587,3],[1,0.83333333333333337,2,0.65306122448979587,3]]}}]})json";

constexpr std::string_view kGoldenNone =
    R"json({"v":1,"id":3,"ok":true,"results":[{"status":"ok","error_detail":"","ene)json"
    R"json(rgy":76,"schedule":{"type":"none"}}]})json";

constexpr std::string_view kGoldenFailed =
    R"json({"v":1,"id":4,"ok":true,"results":[{"status":"invalid_options","error_de)json"
    R"json(tail":"SolveOptions: lp_grid must be >= 2 (got 1)","energy":0,"schedule")json"
    R"json(:{"type":"none"}}]})json";

constexpr std::string_view kGoldenSolveMany =
    R"json({"v":1,"id":5,"ok":true,"results":[{"status":"ok","error_detail":"","ene)json"
    R"json(rgy":16.75,"schedule":{"type":"exact","machines":2,"slices":[[0,"5","6",)json"
    R"json("3/2",0],[0,"6","7","3/2",0],[0,"7","8","2",1],[1,"6","7","1",2],[1,"7",)json"
    R"json("8","1",2]]}},{"status":"ok","error_detail":"","energy":4,"schedule":{"t)json"
    R"json(ype":"exact","machines":2,"slices":[[0,"0","2","1",2],[0,"5","6","1",1],)json"
    R"json([0,"7","8","1",0]]}},{"status":"ok","error_detail":"","energy":33,"sched)json"
    R"json(ule":{"type":"exact","machines":2,"slices":[[0,"0","2","1",0],[0,"2","3")json"
    R"json(,"1",0],[0,"3","5","1",1],[0,"6","7","3",2],[1,"2","3","1",1]]}},{"statu)json"
    R"json(s":"ok","error_detail":"","energy":38,"schedule":{"type":"exact","machin)json"
    R"json(es":2,"slices":[[0,"2","3","1",1],[0,"3","4","3",0],[0,"4","6","1",1],[1)json"
    R"json(,"3","4","2",2]]}},{"status":"ok","error_detail":"","energy":11,"schedul)json"
    R"json(e":{"type":"exact","machines":2,"slices":[[0,"1","2","1",0],[0,"5","7",")json"
    R"json(1",1],[0,"7","8","2",2]]}},{"status":"ok","error_detail":"","energy":11.)json"
    R"json(4375,"schedule":{"type":"exact","machines":2,"slices":[[0,"2","3","3/4",)json"
    R"json(2],[0,"3","5","3/2",1],[0,"5","6","1",0],[0,"6","8","1",0],[1,"3","5","3)json"
    R"json(/4",2],[1,"5","6","3/4",2]]}},{"status":"ok","error_detail":"","energy":)json"
    R"json(35.111111111111114,"schedule":{"type":"exact","machines":2,"slices":[[0,)json"
    R"json("0","1","3",1],[0,"2","4","1/3",0],[0,"4","5","2",2],[1,"4","5","1/3",0])json"
    R"json(]}},{"status":"ok","error_detail":"","energy":2.25,"schedule":{"type":"e)json"
    R"json(xact","machines":2,"slices":[[0,"5","7","1/2",2],[0,"7","8","1",0],[1,"7)json"
    R"json(","8","1",1]]}},{"status":"ok","error_detail":"","energy":7.5,"schedule")json"
    R"json(:{"type":"exact","machines":2,"slices":[[0,"0","2","3/2",0],[0,"3","4",")json"
    R"json(1/2",2],[0,"4","6","1/2",1],[0,"6","7","1/2",2],[1,"4","6","1/2",2]]}},{)json"
    R"json("status":"ok","error_detail":"","energy":4.6875,"schedule":{"type":"exac)json"
    R"json(t","machines":2,"slices":[[0,"3","4","1",2],[0,"4","5","1",2],[0,"5","6")json"
    R"json(,"1",2],[0,"6","8","3/4",0],[1,"4","5","3/4",1],[1,"5","17/3","3/4",0],[)json"
    R"json(1,"17/3","6","3/4",1]]}},{"status":"ok","error_detail":"","energy":10.11)json"
    R"json(1111111111111,"schedule":{"type":"exact","machines":2,"slices":[[0,"0",")json"
    R"json(3","1/3",1],[0,"3","5","1",2],[0,"7","8","2",0]]}},{"status":"ok","error)json"
    R"json(_detail":"","energy":60.75,"schedule":{"type":"exact","machines":2,"slic)json"
    R"json(es":[[0,"1","3","3/2",0],[0,"4","5","3",2],[0,"6","7","3",1]]}},{"status)json"
    R"json(":"ok","error_detail":"","energy":12.6875,"schedule":{"type":"exact","ma)json"
    R"json(chines":2,"slices":[[0,"2","5","3/4",0],[0,"5","6","1",2],[0,"6","7","2")json"
    R"json(,1],[0,"7","8","1",2],[1,"5","6","3/4",0],[1,"6","7","1",2]]}},{"status")json"
    R"json(:"ok","error_detail":"","energy":29.560000000000002,"schedule":{"type":")json"
    R"json(exact","machines":2,"slices":[[0,"2","5","4/5",2],[0,"5","6","3",0],[0,")json"
    R"json(6","7","4/5",1],[1,"5","21/4","4/5",1],[1,"21/4","6","4/5",2]]}},{"statu)json"
    R"json(s":"ok","error_detail":"","energy":3.5625,"schedule":{"type":"exact","ma)json"
    R"json(chines":2,"slices":[[0,"0","3","1",1],[0,"3","7","1/2",2],[1,"3","7","1/)json"
    R"json(4",0]]}},{"status":"ok","error_detail":"","energy":7.8888888888888884,"s)json"
    R"json(chedule":{"type":"exact","machines":2,"slices":[[0,"1","2","2/3",2],[0,")json"
    R"json(2","4","3/2",0],[0,"5","7","1/2",1],[1,"2","4","2/3",2]]}}]})json";

constexpr std::string_view kGoldenLargeId =
    R"json({"v":1,"id":4294967303,"ok":true,"results":[{"status":"ok","error_detail)json"
    R"json(":"","energy":76,"schedule":{"type":"exact","machines":2,"slices":[[0,"0)json"
    R"json(","2","1",0],[0,"2","4","3",1],[0,"4","8","1",0],[1,"2","4","2",2]]}}]})json";

SolveOptions engine_options(Engine engine, std::size_t lp_grid = 8) {
  SolveOptions options;
  options.engine = engine;
  options.lp_grid = lp_grid;
  return options;
}

/// One golden frame: the request that produces it and the pinned bytes.
struct GoldenFrame {
  const char* name;
  std::uint64_t id;
  std::vector<Instance> instances;
  SolveOptions options;
  std::string_view bytes;
};

std::vector<GoldenFrame> golden_frames() {
  return {
      {"exact", 1, {fractional_instance()}, SolveOptions{}, kGoldenExact},
      {"fast", 2, {fractional_instance()}, engine_options(Engine::kFast), kGoldenFast},
      {"none", 3, {small_instance()}, engine_options(Engine::kLp), kGoldenNone},
      {"failed", 4, {small_instance()}, engine_options(Engine::kLp, 1), kGoldenFailed},
      {"solve_many", 5, golden_many_instances(), SolveOptions{}, kGoldenSolveMany},
      {"large_id", (std::uint64_t{1} << 32) + 7, {small_instance()}, SolveOptions{},
       kGoldenLargeId},
  };
}

Request golden_request(const GoldenFrame& frame) {
  Request request;
  request.id = frame.id;
  request.verb = frame.instances.size() == 1 ? Verb::kSolve : Verb::kSolveMany;
  request.instances = frame.instances;
  request.options = frame.options;
  return request;
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
  json::Value encoded = solve_options_to_json_value(decoded);
  EXPECT_EQ(encoded.find("exact_incremental"), nullptr);
  EXPECT_EQ(encoded.find("fast_incremental"), nullptr);
}

TEST(Protocol, ResultRoundTripsBitIdentically) {
  SolveResult original = solve(fractional_instance());
  ASSERT_TRUE(original.ok());
  ASSERT_NE(original.exact_schedule(), nullptr);

  Response response = decode_response(
      encode_results_response(7, std::span<const SolveResult>(&original, 1)));
  ASSERT_EQ(response.results.size(), 1u);
  const SolveResult& decoded = response.results[0];
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

TEST(Protocol, GoldenResultFramesArePinnedByteForByte) {
  for (const GoldenFrame& frame : golden_frames()) {
    std::vector<SolveResult> results;
    for (const Instance& instance : frame.instances) {
      results.push_back(solve(instance, frame.options));
    }
    EXPECT_EQ(encode_results_response(frame.id, results), frame.bytes) << frame.name;
  }
}

/// Flip/insert/delete a few bytes, seeded (the mpss_fuzz mutation).
std::string mutate(std::string text, Xoshiro256& rng) {
  const std::size_t edits = 1 + rng.below(4);
  for (std::size_t edit = 0; edit < edits && !text.empty(); ++edit) {
    const std::size_t position = rng.below(text.size());
    switch (rng.below(3)) {
      case 0: text[position] = static_cast<char>(rng.below(256)); break;
      case 1: text.insert(position, 1, "{}[]\",:0123456789eE.-"[rng.below(21)]); break;
      default: text.erase(position, 1); break;
    }
  }
  return text;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

void expect_same_result(const SolveResult& got, const SolveResult& want) {
  EXPECT_EQ(got.status, want.status);
  EXPECT_EQ(got.error_detail, want.error_detail);
  EXPECT_TRUE(same_bits(got.energy, want.energy)) << got.energy << " vs " << want.energy;
  ASSERT_EQ(got.schedule.index(), want.schedule.index());
  if (const Schedule* exact = want.exact_schedule()) {
    const Schedule& other = *got.exact_schedule();
    ASSERT_EQ(other.machines(), exact->machines());
    for (std::size_t m = 0; m < exact->machines(); ++m) {
      std::span<const Slice> a = other.machine(m);
      std::span<const Slice> b = exact->machine(m);
      ASSERT_EQ(a.size(), b.size());
      for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
    }
  } else if (const FastSchedule* fast = want.fast_schedule()) {
    const FastSchedule& other = *got.fast_schedule();
    ASSERT_EQ(other.machines.size(), fast->machines.size());
    for (std::size_t m = 0; m < fast->machines.size(); ++m) {
      ASSERT_EQ(other.machines[m].size(), fast->machines[m].size());
      for (std::size_t i = 0; i < fast->machines[m].size(); ++i) {
        const FastSlice& a = other.machines[m][i];
        const FastSlice& b = fast->machines[m][i];
        EXPECT_TRUE(same_bits(a.start, b.start) && same_bits(a.end, b.end) &&
                    same_bits(a.speed, b.speed) && a.job == b.job);
      }
    }
  }
}

/// Decodes `text` with the one-pass decoder and the document reference: both
/// must return equal Responses or throw the same ErrorCode.
void expect_decoders_agree(const std::string& text) {
  std::optional<Response> got, want;
  std::optional<ErrorCode> got_error, want_error;
  try {
    got = decode_response(text);
  } catch (const ProtocolError& error) {
    got_error = error.code();
  }
  try {
    want = reference::decode_response(text);
  } catch (const ProtocolError& error) {
    want_error = error.code();
  }
  ASSERT_EQ(got.has_value(), want.has_value()) << text;
  if (!got) {
    EXPECT_EQ(got_error, want_error) << text;
    return;
  }
  EXPECT_EQ(got->id, want->id);
  EXPECT_EQ(got->ok, want->ok);
  EXPECT_EQ(got->code, want->code);
  EXPECT_EQ(got->detail, want->detail);
  EXPECT_EQ(got->payload, want->payload) << text;
  ASSERT_EQ(got->results.size(), want->results.size()) << text;
  for (std::size_t i = 0; i < got->results.size(); ++i) {
    expect_same_result(got->results[i], want->results[i]);
  }
}

TEST(Protocol, OnePassDecoderAgreesWithTheDocumentReference) {
  std::vector<std::string> documents;
  for (const GoldenFrame& frame : golden_frames()) documents.emplace_back(frame.bytes);
  json::Value stats;
  stats.set("queue_depth", 0);
  stats.set("latency", json::Value(json::Object{}));
  documents.push_back(encode_payload_response(8, "stats", stats));
  documents.push_back(encode_error_response(9, ErrorCode::kQueueFull, "full \"up\""));
  const std::string slice = R"([0,"0","1/2","3",1])";
  const std::string result = R"({"status":"ok","error_detail":"","energy":1.5,)"
                             R"("schedule":{"type":"exact","machines":1,"slices":[)" +
                             slice + "]}}";
  // Shapes the encoder never writes but a peer may: reordered and repeated
  // members, ignored members that do not fit the schema, escapes, literals
  // past double's range, a version error behind a schema error.
  const std::vector<std::string> edges = {
      R"({"results":[)" + result + R"(],"ok":true,"id":3,"v":1})",
      R"({"v":1,"id":3,"ok":true,"results":[{"schedule":{"slices":[)" + slice +
          R"(],"machines":1,"type":"exact"},"energy":2,"error_detail":"","status":"ok"}]})",
      R"({"v":1,"id":3,"ok":true,"results":[{"status":"ok","error_detail":"","energy":0,)"
      R"("schedule":{"type":"none","machines":"x","slices":7}}]})",
      R"({"v":1,"id":1,"results":[{"status":"bogus"}],"ok":false,)"
      R"("error":{"code":"internal","detail":"x"}})",
      R"({"v":2,"id":1,"ok":true,"results":[{"status":"bogus"}]})",
      R"({"v":1,"id":1,"ok":true,"results":[{"status":"bogus"}],"x":tru})",
      R"({"v":1,"v":2,"id":1,"ok":true,"results":[)" + result + R"(],"results":7})",
      R"({"v":1,"id":1,"ok":true,"results":[{"status":"ok","error_detail":"\n",)"
      R"("energy":1e400,"schedule":{"type":"exact","machines":1,"slices":)"
      R"([[0,"0","1/2","3",1]]}}]})",
      R"({"v":1,"id":1,"ok":true,"results":[{"status":"ok","error_detail":"","energy":)"
      R"(-1e-400,"schedule":{"type":"fast","machines":2,"slices":[[1,4.9e-324,)"
      R"(2.4e-324,1.7976931348623159e308,0]]}}]})",
      R"({"v":1,"id":1,"ok":true,"results":[{"status":"ok","error_detail":"","energy":0,)"
      R"("schedule":{"type":"exact","machines":1,"slices":[[0,"1/0","1","1",0]]}}]})",
      R"({"v":1,"id":1,"ok":true,"results":[{"status":"ok","error_detail":"","energy":0,)"
      R"("schedule":{"type":"exact","machines":1,"slices":[[0,"1","2","1"]]}}]})",
      R"({"v":1,"id":1,"ok":true,"results":[]})",
      R"({"v":1,"id":1,"ok":true,"x":)" + std::string(100, '[') + std::string(100, ']') + "}",
      R"({"v":1,"id":1,"ok":true,"stats":{"a":[1,2,{"b":null}]}})",
      R"({"v":1,"id":-1,"ok":true,"results":[]})",
      "[1]", "\"v\"", "7", "", "{}", "{\"v\":1}",
  };
  // Machine counts around the idle-machine bound: refused before anything
  // is allocated when they exceed the slices by more than kMaxIdleMachines.
  auto with_machines = [&](const char* type, const std::string& machines,
                           const std::string& slices) {
    return R"({"v":1,"id":1,"ok":true,"results":[{"status":"ok","error_detail":"",)"
           R"("energy":0,"schedule":{"type":")" +
           std::string(type) + R"(","machines":)" + machines + R"(,"slices":[)" +
           slices + "]}}]}";
  };
  const std::string limit = std::to_string(kMaxIdleMachines + 1);
  const std::string over = std::to_string(kMaxIdleMachines + 2);
  const std::vector<std::string> sized = {
      with_machines("exact", "2e15", slice),
      with_machines("fast", "2e15", "[0,0,1,1,0]"),
      with_machines("exact", limit, slice),
      with_machines("fast", over, "[0,0,1,1,0]"),
      with_machines("exact", over, slice + "," + slice),
  };
  for (const std::string& document : sized) {
    std::optional<ErrorCode> code;
    try {
      (void)decode_response(document);
    } catch (const ProtocolError& error) {
      code = error.code();
    }
    EXPECT_EQ(code, document == sized[2] || document == sized[4]
                        ? std::nullopt
                        : std::optional(ErrorCode::kBadRequest))
        << document;
  }
  documents.insert(documents.end(), sized.begin(), sized.end());
  documents.insert(documents.end(), edges.begin(), edges.end());
  Xoshiro256 rng(20261019);
  for (const std::string& document : documents) {
    expect_decoders_agree(document);
    for (int round = 0; round < 300; ++round) {
      expect_decoders_agree(mutate(document, rng));
    }
  }
}

TEST(Protocol, StreamingEncoderMatchesTheDocumentSerializer) {
  std::vector<SolveResult> results;
  Xoshiro256 rng(7);
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    Instance instance = generate_uniform(
        {.jobs = 6, .machines = 3, .horizon = 12, .max_window = 5, .max_work = 4}, seed);
    for (Engine engine : {Engine::kExact, Engine::kFast, Engine::kLp, Engine::kOa}) {
      results.push_back(solve(instance, engine_options(engine)));
    }
  }
  SolveResult odd;
  odd.status = SolveStatus::kInfeasible;
  odd.error_detail = std::string("quote \" slash \\ tab \t nul ") + '\0' + " \x1f end \xc3\xa9";
  FastSchedule fast;
  fast.machines.resize(2);
  for (double value : {0.0, -0.0, 1e15, -1e15, 999999999999999.0, 1e-320, 1.5,
                       1.7976931348623157e308, 1e16 + 2, 0.1}) {
    fast.machines[1].push_back(FastSlice{value, -value, value * 3, 9});
  }
  odd.schedule = std::move(fast);
  results.push_back(odd);
  for (int i = 0; i < 2000; ++i) {
    SolveResult random;
    random.energy = std::bit_cast<double>(rng());
    results.push_back(random);
  }
  for (const SolveResult& result : results) {
    std::string streamed;
    append_result_json(result, streamed);
    EXPECT_EQ(streamed, json::serialize(reference::result_to_json_value(result)));
  }
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

TEST(SolveServer, HitsServedFromStoredBytesWriteTheGoldenFrames) {
  SolveServer server;
  ScopedFd raw = raw_connect(server.port());
  auto exchange = [&](const Request& request) {
    write_frame(raw.get(), encode_request(request));
    std::string payload;
    EXPECT_TRUE(read_frame(raw.get(), payload));
    return payload;
  };
  std::size_t solves = 0;
  for (const GoldenFrame& frame : golden_frames()) {
    const Request request = golden_request(frame);
    // First frame: misses, encoded by the writer. Then hits: stored bytes
    // encoded by the first of them and spliced by every later one.
    for (int round = 0; round < 3; ++round) {
      EXPECT_EQ(exchange(request), frame.bytes) << frame.name << " round " << round;
      solves += frame.instances.size();
    }
  }
  // Every solve counts exactly one hit or one miss. Only ok results are
  // cached, so the failed frame misses every time.
  BatchSolver::CacheStats cache = server.solver().cache_stats();
  EXPECT_EQ(cache.hits + cache.misses, solves);
  EXPECT_EQ(cache.misses, 16u + 1u + 1u + 1u + 3u + 1u);
  server.shutdown();
}

TEST(SolveServer, QueuedDuplicatesOfAMissAreHits) {
  SolveServerOptions options;
  options.service.threads = 1;
  SolveServer server(std::move(options));
  SolveClient client("127.0.0.1", server.port());
  // Every copy misses on the reader (the cache is cold when the frame is
  // decoded); the worker's own check turns all but the first into hits.
  constexpr std::size_t kCopies = 6;
  const std::vector<Instance> copies(kCopies, fractional_instance());
  const std::vector<SolveResult> results = client.solve_many(copies);
  ASSERT_EQ(results.size(), kCopies);
  const SolveResult local = solve(fractional_instance());
  for (const SolveResult& result : results) expect_same_result(result, local);
  BatchSolver::CacheStats cache = server.solver().cache_stats();
  EXPECT_EQ(cache.misses, 1u);
  EXPECT_EQ(cache.hits, kCopies - 1);
  server.shutdown();
}

TEST(SolveServer, ConcurrentFirstHitsShareOneEncoding) {
  SolveServer server;
  {
    SolveClient primer("127.0.0.1", server.port());
    ASSERT_TRUE(primer.solve(fractional_instance()).ok());  // stored, no bytes yet
  }
  const SolveResult local = solve(fractional_instance());
  constexpr int kHitsPerClient = 5;
  std::latch start(2);
  std::vector<std::vector<SolveResult>> seen(2);
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < 2; ++c) {
    clients.emplace_back([&, c] {
      SolveClient client("127.0.0.1", server.port());
      start.arrive_and_wait();  // both readers reach the unencoded entry together
      for (int i = 0; i < kHitsPerClient; ++i) {
        seen[c].push_back(client.solve(fractional_instance()));
      }
    });
  }
  for (std::thread& client : clients) client.join();
  for (const auto& results : seen) {
    ASSERT_EQ(results.size(), static_cast<std::size_t>(kHitsPerClient));
    for (const SolveResult& result : results) expect_same_result(result, local);
  }
  BatchSolver::CacheStats cache = server.solver().cache_stats();
  EXPECT_EQ(cache.hits, 2u * kHitsPerClient);
  EXPECT_EQ(cache.misses, 1u);
  server.shutdown();
}

std::uint64_t histogram_count(const char* name) {
  obs::HistogramMap histograms = obs::Registry::global().histogram_snapshot();
  auto it = histograms.find(name);
  return it == histograms.end() ? 0 : it->second.count;
}

TEST(SolveServer, StoredHitsAddNoEncodeStageAndLogTheirStages) {
  std::ostringstream log;
  SolveServerOptions options;
  options.slow_ms = 0;
  options.request_log = &log;
  SolveServer server(std::move(options));
  SolveClient client("127.0.0.1", server.port());
  ASSERT_TRUE(client.solve(small_instance()).ok());  // miss: the writer encodes
  ASSERT_TRUE(client.solve(small_instance()).ok());  // first hit: bytes stored
  const std::uint64_t encodes = histogram_count("net.encode_us");
  const std::uint64_t decodes = histogram_count("net.decode_us");
  const std::uint64_t requests = histogram_count("net.request_us");
  constexpr std::uint64_t kHits = 3;
  for (std::uint64_t i = 0; i < kHits; ++i) {
    ASSERT_TRUE(client.solve(small_instance()).ok());
  }
  std::string metrics = client.metrics();
  server.shutdown();
  EXPECT_EQ(histogram_count("net.encode_us"), encodes);
  EXPECT_GE(histogram_count("net.decode_us"), decodes + kHits);
  EXPECT_EQ(histogram_count("net.request_us"), requests + kHits);
  EXPECT_NE(metrics.find("mpss_net_decode_us_count"), std::string::npos);
  EXPECT_NE(metrics.find("mpss_net_encode_us_count"), std::string::npos);

  std::vector<json::Value> solves;
  std::istringstream lines(log.str());
  std::string line;
  while (std::getline(lines, line)) {
    json::Value record = json::parse(line);
    if (record.at("verb").as_string() == "solve") solves.push_back(std::move(record));
  }
  ASSERT_EQ(solves.size(), 2 + kHits);
  EXPECT_FALSE(solves[0].at("cache_hit").as_bool());
  for (std::size_t i = 1; i < solves.size(); ++i) {
    EXPECT_TRUE(solves[i].at("cache_hit").as_bool());
    EXPECT_EQ(solves[i].at("encode_us").as_double(), 0.0);
    EXPECT_GE(solves[i].at("decode_us").as_double(), 0.0);
  }
}

}  // namespace
}  // namespace mpss::net
