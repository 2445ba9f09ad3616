#pragma once
// Versioned JSON wire protocol of the solve daemon (S45, see DESIGN.md).
//
// Every frame (net/framing.hpp) carries one JSON document. Requests:
//
//   {"v":1,"id":7,"verb":"solve","instance":{...},      // core/instance_json
//    "options":{"engine":"exact",...},                  // optional
//    "priority":0,"deadline_ms":500,                    // optional hints
//    "trace":{"id":"8589934593","parent":"2"}}          // optional trace ctx
//
// Verbs: "solve" (one instance), "solve_many" ("instances":[...], results in
// input order), "stats", "health", "metrics" (Prometheus text exposition),
// "shutdown" (graceful drain, ack first).
//
// The optional "trace" member carries the client's distributed-tracing
// context: its trace id and the client-side span the server's spans should
// parent under. Both are 64-bit and travel as *decimal strings* -- JSON
// numbers here are doubles, which silently truncate above 2^53. Additive and
// ignored by pre-trace servers, so the protocol version stays 1.
// Responses echo the request id; per-connection response order is request
// order (the daemon pipelines solves but writes in FIFO order):
//
//   {"v":1,"id":7,"ok":true,"results":[{"status":"ok","error_detail":"",
//       "energy":42.5,"schedule":{"type":"exact","machines":2,
//       "slices":[[0,"0","1/2","3",1],...]}}]}          // [m,start,end,speed,job]
//   {"v":1,"id":8,"ok":true,"stats":{...}}              // verb-shaped payloads
//   {"v":1,"id":9,"ok":false,"error":{"code":"bad_request","detail":"..."}}
//
// Error payloads carry transport/admission failures (the ErrorCode below);
// solve-level failures are NOT transport errors -- they come back ok:true with
// the result's status ("invalid_options", "infeasible", ...) and its
// error_detail, exactly as the in-process facade reports them. Exact schedules
// travel as rational strings and energies at max_digits10, so a decoded result
// is bit-identical to the in-process one.

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "mpss/core/instance_json.hpp"
#include "mpss/solve.hpp"
#include "mpss/util/json.hpp"

namespace mpss::net {

/// Bumped on any incompatible change to the document schemas above. The
/// server rejects other versions with kUnsupportedVersion (it never guesses).
inline constexpr std::uint32_t kProtocolVersion = 1;

enum class Verb { kSolve, kSolveMany, kStats, kHealth, kMetrics, kShutdown };

/// Stable lowercase name ("solve", "solve_many", "stats", "health", "metrics",
/// "shutdown") and its inverse (nullopt for unknown names).
[[nodiscard]] const char* verb_name(Verb verb);
[[nodiscard]] std::optional<Verb> verb_from_name(std::string_view name);

/// Transport/admission error codes of the "error" payload. SubmitStatus maps
/// here (kQueueFull, kShutdown); SolveStatus stays in the result payload.
enum class ErrorCode {
  kBadFrame,            // unframeable stream (oversized/truncated); fatal
  kBadRequest,          // JSON or schema violation in an otherwise good frame
  kUnsupportedVersion,  // "v" missing or != kProtocolVersion
  kUnknownVerb,
  kQueueFull,           // SubmitStatus::kQueueFull surfaced to the client
  kShutdown,            // SubmitStatus::kShutdown: daemon is draining
  kInternal,            // engine InternalError (a server-side bug)
};

/// Stable snake_case name ("bad_frame", ...) and its inverse.
[[nodiscard]] const char* error_code_name(ErrorCode code);
[[nodiscard]] std::optional<ErrorCode> error_code_from_name(std::string_view name);

/// A protocol-level failure: carries the wire error code alongside the detail.
/// Thrown by the decoders (and by the client when the server reports an
/// error payload).
class ProtocolError : public std::runtime_error {
 public:
  ProtocolError(ErrorCode code, const std::string& detail)
      : std::runtime_error(detail), code_(code) {}

  [[nodiscard]] ErrorCode code() const { return code_; }

 private:
  ErrorCode code_;
};

/// One decoded request. `instances` holds one element for kSolve and N for
/// kSolveMany; it is empty for the parameterless verbs.
struct Request {
  std::uint64_t id = 0;
  Verb verb = Verb::kHealth;
  std::vector<Instance> instances;
  SolveOptions options;        // wire-expressible knobs only; pointers stay null
  int priority = 0;
  std::int64_t deadline_ms = 0;  // soft deadline relative to receipt; 0 = none
  std::uint64_t trace_id = 0;    // distributed trace id; 0 = untraced request
  std::uint64_t parent_span = 0;  // client-side span to parent under (with
                                  // trace_id; a span id of the *client* process)
};

[[nodiscard]] std::string encode_request(const Request& request);
/// Throws ProtocolError (kBadRequest / kUnsupportedVersion / kUnknownVerb).
[[nodiscard]] Request decode_request(std::string_view payload);

/// The wire-expressible subset of SolveOptions (engine + every serializable
/// result-shaping knob; the pointer knobs -- power, trace, cancel -- do not
/// travel, nor do the warm-start switches, which never change an exact result).
/// Members absent from the JSON keep their defaults; unknown keys (including
/// the retired exact_incremental / fast_incremental) are ignored.
[[nodiscard]] json::Value solve_options_to_json_value(const SolveOptions& options);
[[nodiscard]] SolveOptions solve_options_from_json_value(const json::Value& value);

/// SolveResult codec: status + error_detail + energy + schedule. SolveStats
/// telemetry stays server-side (the daemon's Registry aggregates it).
[[nodiscard]] json::Value result_to_json_value(const SolveResult& result);
[[nodiscard]] SolveResult result_from_json_value(const json::Value& value);

[[nodiscard]] std::string encode_results_response(
    std::uint64_t id, std::span<const SolveResult> results);
/// Verb-shaped success payload under `key` ("stats", "health", "shutdown").
[[nodiscard]] std::string encode_payload_response(std::uint64_t id,
                                                  std::string_view key,
                                                  json::Value payload);
[[nodiscard]] std::string encode_error_response(std::uint64_t id, ErrorCode code,
                                                std::string_view detail);

/// A decoded response, in whichever of the three shapes it arrived.
struct Response {
  std::uint64_t id = 0;
  bool ok = false;
  ErrorCode code = ErrorCode::kInternal;  // when !ok
  std::string detail;                     // when !ok
  std::vector<SolveResult> results;       // "results" responses
  json::Value payload;                    // verb-shaped payload, else null
};

/// Throws ProtocolError(kBadRequest) on malformed documents.
[[nodiscard]] Response decode_response(std::string_view payload);

}  // namespace mpss::net
