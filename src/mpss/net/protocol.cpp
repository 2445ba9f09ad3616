#include "mpss/net/protocol.hpp"

#include <charconv>
#include <cmath>
#include <utility>

namespace mpss::net {
namespace {

/// Wraps the JSON layer's std::invalid_argument into kBadRequest so callers
/// see one failure type for "the peer sent nonsense".
template <typename Fn>
auto bad_request_scope(Fn&& fn) -> decltype(fn()) {
  try {
    return fn();
  } catch (const ProtocolError&) {
    throw;  // already coded
  } catch (const std::exception& error) {
    throw ProtocolError(ErrorCode::kBadRequest, error.what());
  }
}

/// The largest double that is still an exact integer (2^53). Every checked
/// double -> integer conversion below bounds by it BEFORE casting: a cast
/// from a double past the target's range (a hostile "id": 1e300, inf) is
/// undefined behavior, and NaN slips through naive `raw < 0` guards because
/// every comparison against NaN is false. All checks are therefore written in
/// the accepting direction (`raw >= lo && raw <= hi`), which NaN fails.
constexpr double kMaxExactDouble = 9007199254740992.0;

/// Checked double -> non-negative integer: rejects NaN, infinities,
/// negatives, fractions, and anything past 2^53. Throws invalid_argument
/// (bad_request_scope recodes it) naming `what`.
std::uint64_t checked_u64(double raw, const char* what) {
  if (!(raw >= 0.0 && raw <= kMaxExactDouble && raw == std::floor(raw))) {
    throw std::invalid_argument(std::string("protocol: ") + what +
                                " must be a non-negative integer (<= 2^53)");
  }
  return static_cast<std::uint64_t>(raw);
}

std::uint64_t id_from(const json::Value& document) {
  if (const json::Value* id = document.find("id")) {
    double raw = id->as_double();
    if (!(raw >= 0.0 && raw <= kMaxExactDouble && raw == std::floor(raw))) {
      throw ProtocolError(ErrorCode::kBadRequest,
                          "protocol: id must be a non-negative integer");
    }
    return static_cast<std::uint64_t>(raw);
  }
  return 0;
}

void check_version(const json::Value& document) {
  const json::Value* version = document.find("v");
  if (version == nullptr || !version->is_number() ||
      version->as_double() != static_cast<double>(kProtocolVersion)) {
    throw ProtocolError(ErrorCode::kUnsupportedVersion,
                        "protocol: expected v=" + std::to_string(kProtocolVersion));
  }
}

json::Value schedule_to_json(const SolveResult& result) {
  json::Value out;
  if (const Schedule* exact = result.exact_schedule()) {
    out.set("type", "exact");
    out.set("machines", exact->machines());
    json::Array slices;
    slices.reserve(exact->slice_count());
    for (std::size_t machine = 0; machine < exact->machines(); ++machine) {
      for (const Slice& slice : exact->machine(machine)) {
        slices.push_back(json::Array{
            json::Value(machine), json::Value(slice.start.to_string()),
            json::Value(slice.end.to_string()), json::Value(slice.speed.to_string()),
            json::Value(slice.job)});
      }
    }
    out.set("slices", std::move(slices));
  } else if (const FastSchedule* fast = result.fast_schedule()) {
    out.set("type", "fast");
    out.set("machines", fast->machines.size());
    json::Array slices;
    slices.reserve(fast->slice_count());
    for (std::size_t machine = 0; machine < fast->machines.size(); ++machine) {
      for (const FastSlice& slice : fast->machines[machine]) {
        slices.push_back(json::Array{json::Value(machine), json::Value(slice.start),
                                     json::Value(slice.end), json::Value(slice.speed),
                                     json::Value(slice.job)});
      }
    }
    out.set("slices", std::move(slices));
  } else {
    out.set("type", "none");
  }
  return out;
}

std::size_t slice_machine(const json::Array& fields, std::size_t machines) {
  double raw = fields[0].as_double();
  if (raw < 0 || raw >= static_cast<double>(machines) || raw != std::floor(raw)) {
    throw std::invalid_argument("protocol: slice machine index out of range");
  }
  return static_cast<std::size_t>(raw);
}

std::size_t slice_job(const json::Value& value) {
  return static_cast<std::size_t>(
      checked_u64(value.as_double(), "slice job index"));
}

void schedule_from_json(const json::Value& value, SolveResult& result) {
  const std::string& type = value.at("type").as_string();
  if (type == "none") return;
  double machines_raw = value.at("machines").as_double();
  if (!(machines_raw >= 1.0 && machines_raw <= kMaxExactDouble &&
        machines_raw == std::floor(machines_raw))) {
    throw std::invalid_argument("protocol: schedule machines must be >= 1");
  }
  auto machines = static_cast<std::size_t>(machines_raw);
  const json::Array& slices = value.at("slices").as_array();
  if (type == "exact") {
    Schedule schedule(machines);
    for (const json::Value& row : slices) {
      const json::Array& fields = row.as_array();
      if (fields.size() != 5) {
        throw std::invalid_argument(
            "protocol: slices must be [machine, start, end, speed, job]");
      }
      schedule.add(slice_machine(fields, machines),
                   Slice{Q::from_string(fields[1].as_string()),
                         Q::from_string(fields[2].as_string()),
                         Q::from_string(fields[3].as_string()),
                         slice_job(fields[4])});
    }
    result.schedule = std::move(schedule);
  } else if (type == "fast") {
    FastSchedule schedule;
    schedule.machines.resize(machines);
    for (const json::Value& row : slices) {
      const json::Array& fields = row.as_array();
      if (fields.size() != 5) {
        throw std::invalid_argument(
            "protocol: slices must be [machine, start, end, speed, job]");
      }
      schedule.machines[slice_machine(fields, machines)].push_back(
          FastSlice{fields[1].as_double(), fields[2].as_double(),
                    fields[3].as_double(), slice_job(fields[4])});
    }
    result.schedule = std::move(schedule);
  } else {
    throw std::invalid_argument("protocol: unknown schedule type '" + type + "'");
  }
}

/// Parses a trace-context field: a full 64-bit value encoded as a decimal
/// string (doubles cannot carry ids above 2^53 exactly, so numbers are
/// rejected -- a client that sent one would get back corrupted parenting).
std::uint64_t trace_field(const json::Value& value, const char* what) {
  if (!value.is_string()) {
    throw ProtocolError(ErrorCode::kBadRequest,
                        std::string("protocol: trace ") + what +
                            " must be a decimal string");
  }
  const std::string& text = value.as_string();
  std::uint64_t parsed = 0;
  auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), parsed);
  if (ec != std::errc{} || end != text.data() + text.size()) {
    throw ProtocolError(ErrorCode::kBadRequest,
                        std::string("protocol: trace ") + what +
                            " is not a 64-bit decimal value");
  }
  return parsed;
}

json::Value response_header(std::uint64_t id, bool ok) {
  json::Value out;
  out.set("v", static_cast<double>(kProtocolVersion));
  out.set("id", static_cast<double>(id));
  out.set("ok", ok);
  return out;
}

}  // namespace

const char* verb_name(Verb verb) {
  switch (verb) {
    case Verb::kSolve: return "solve";
    case Verb::kSolveMany: return "solve_many";
    case Verb::kStats: return "stats";
    case Verb::kHealth: return "health";
    case Verb::kMetrics: return "metrics";
    case Verb::kShutdown: return "shutdown";
  }
  return "unknown";
}

std::optional<Verb> verb_from_name(std::string_view name) {
  if (name == "solve") return Verb::kSolve;
  if (name == "solve_many") return Verb::kSolveMany;
  if (name == "stats") return Verb::kStats;
  if (name == "health") return Verb::kHealth;
  if (name == "metrics") return Verb::kMetrics;
  if (name == "shutdown") return Verb::kShutdown;
  return std::nullopt;
}

const char* error_code_name(ErrorCode code) {
  switch (code) {
    case ErrorCode::kBadFrame: return "bad_frame";
    case ErrorCode::kBadRequest: return "bad_request";
    case ErrorCode::kUnsupportedVersion: return "unsupported_version";
    case ErrorCode::kUnknownVerb: return "unknown_verb";
    case ErrorCode::kQueueFull: return "queue_full";
    case ErrorCode::kShutdown: return "shutdown";
    case ErrorCode::kInternal: return "internal";
  }
  return "unknown";
}

std::optional<ErrorCode> error_code_from_name(std::string_view name) {
  if (name == "bad_frame") return ErrorCode::kBadFrame;
  if (name == "bad_request") return ErrorCode::kBadRequest;
  if (name == "unsupported_version") return ErrorCode::kUnsupportedVersion;
  if (name == "unknown_verb") return ErrorCode::kUnknownVerb;
  if (name == "queue_full") return ErrorCode::kQueueFull;
  if (name == "shutdown") return ErrorCode::kShutdown;
  if (name == "internal") return ErrorCode::kInternal;
  return std::nullopt;
}

json::Value solve_options_to_json_value(const SolveOptions& options) {
  json::Value out;
  out.set("engine", engine_name(options.engine));
  out.set("fast_epsilon", options.fast_epsilon);
  out.set("avr_peeling", options.avr.enable_peeling);
  out.set("lp_grid", options.lp_grid);
  out.set("lp_max_speed_hint", options.lp_max_speed_hint);
  return out;
}

SolveOptions solve_options_from_json_value(const json::Value& value) {
  SolveOptions options;
  if (const json::Value* engine = value.find("engine")) {
    std::optional<Engine> parsed = engine_from_name(engine->as_string());
    if (!parsed) {
      throw std::invalid_argument("protocol: unknown engine '" +
                                  engine->as_string() + "'");
    }
    options.engine = *parsed;
  }
  if (const json::Value* v = value.find("fast_epsilon")) {
    options.fast_epsilon = v->as_double();
  }
  if (const json::Value* v = value.find("avr_peeling")) {
    options.avr.enable_peeling = v->as_bool();
  }
  if (const json::Value* v = value.find("lp_grid")) {
    options.lp_grid = static_cast<std::size_t>(
        checked_u64(v->as_double(), "lp_grid"));
  }
  if (const json::Value* v = value.find("lp_max_speed_hint")) {
    options.lp_max_speed_hint = v->as_double();
  }
  return options;
}

json::Value result_to_json_value(const SolveResult& result) {
  json::Value out;
  out.set("status", solve_status_name(result.status));
  out.set("error_detail", result.error_detail);
  out.set("energy", result.energy);
  out.set("schedule", schedule_to_json(result));
  return out;
}

SolveResult result_from_json_value(const json::Value& value) {
  SolveResult result;
  std::optional<SolveStatus> status =
      solve_status_from_name(value.at("status").as_string());
  if (!status) {
    throw std::invalid_argument("protocol: unknown solve status '" +
                                value.at("status").as_string() + "'");
  }
  result.status = *status;
  result.error_detail = value.at("error_detail").as_string();
  result.energy = value.at("energy").as_double();
  schedule_from_json(value.at("schedule"), result);
  return result;
}

std::string encode_request(const Request& request) {
  json::Value out;
  out.set("v", static_cast<double>(kProtocolVersion));
  out.set("id", static_cast<double>(request.id));
  out.set("verb", verb_name(request.verb));
  if (request.verb == Verb::kSolve) {
    out.set("instance", instance_to_json_value(request.instances.at(0)));
    out.set("options", solve_options_to_json_value(request.options));
  } else if (request.verb == Verb::kSolveMany) {
    json::Array instances;
    instances.reserve(request.instances.size());
    for (const Instance& instance : request.instances) {
      instances.push_back(instance_to_json_value(instance));
    }
    out.set("instances", std::move(instances));
    out.set("options", solve_options_to_json_value(request.options));
  }
  if (request.priority != 0) out.set("priority", static_cast<double>(request.priority));
  if (request.deadline_ms != 0) {
    out.set("deadline_ms", static_cast<double>(request.deadline_ms));
  }
  if (request.trace_id != 0) {
    json::Value trace;
    trace.set("id", std::to_string(request.trace_id));
    trace.set("parent", std::to_string(request.parent_span));
    out.set("trace", std::move(trace));
  }
  return json::serialize(out);
}

Request decode_request(std::string_view payload) {
  return bad_request_scope([&] {
    json::Value document = json::parse(payload);
    check_version(document);
    Request request;
    request.id = id_from(document);
    const std::string& verb = document.at("verb").as_string();
    std::optional<Verb> parsed = verb_from_name(verb);
    if (!parsed) {
      throw ProtocolError(ErrorCode::kUnknownVerb,
                          "protocol: unknown verb '" + verb + "'");
    }
    request.verb = *parsed;
    if (request.verb == Verb::kSolve) {
      request.instances.push_back(instance_from_json_value(document.at("instance")));
    } else if (request.verb == Verb::kSolveMany) {
      for (const json::Value& element : document.at("instances").as_array()) {
        request.instances.push_back(instance_from_json_value(element));
      }
    }
    if (const json::Value* options = document.find("options")) {
      request.options = solve_options_from_json_value(*options);
    }
    if (const json::Value* priority = document.find("priority")) {
      double raw = priority->as_double();
      if (!(raw >= -2147483648.0 && raw <= 2147483647.0 &&
            raw == std::floor(raw))) {
        throw ProtocolError(ErrorCode::kBadRequest,
                            "protocol: priority must be an integer in int range");
      }
      request.priority = static_cast<int>(raw);
    }
    if (const json::Value* deadline = document.find("deadline_ms")) {
      double raw = deadline->as_double();
      // Accepting-direction check: NaN fails every comparison, so `raw < 0`
      // alone would wave NaN through to an undefined cast.
      if (!(raw >= 0.0 && raw <= kMaxExactDouble && raw == std::floor(raw))) {
        throw ProtocolError(ErrorCode::kBadRequest,
                            "protocol: deadline_ms must be >= 0");
      }
      request.deadline_ms = static_cast<std::int64_t>(raw);
    }
    if (const json::Value* trace = document.find("trace")) {
      request.trace_id = trace_field(trace->at("id"), "id");
      if (const json::Value* parent = trace->find("parent")) {
        request.parent_span = trace_field(*parent, "parent");
      }
    }
    return request;
  });
}

std::string encode_results_response(std::uint64_t id,
                                    std::span<const SolveResult> results) {
  json::Value out = response_header(id, true);
  json::Array encoded;
  encoded.reserve(results.size());
  for (const SolveResult& result : results) {
    encoded.push_back(result_to_json_value(result));
  }
  out.set("results", std::move(encoded));
  return json::serialize(out);
}

std::string encode_payload_response(std::uint64_t id, std::string_view key,
                                    json::Value payload) {
  json::Value out = response_header(id, true);
  out.set(std::string(key), std::move(payload));
  return json::serialize(out);
}

std::string encode_error_response(std::uint64_t id, ErrorCode code,
                                  std::string_view detail) {
  json::Value out = response_header(id, false);
  json::Value error;
  error.set("code", error_code_name(code));
  error.set("detail", detail);
  out.set("error", std::move(error));
  return json::serialize(out);
}

Response decode_response(std::string_view payload) {
  return bad_request_scope([&] {
    json::Value document = json::parse(payload);
    check_version(document);
    Response response;
    response.id = id_from(document);
    response.ok = document.at("ok").as_bool();
    if (!response.ok) {
      const json::Value& error = document.at("error");
      const std::string& code = error.at("code").as_string();
      std::optional<ErrorCode> parsed = error_code_from_name(code);
      if (!parsed) {
        throw ProtocolError(ErrorCode::kBadRequest,
                            "protocol: unknown error code '" + code + "'");
      }
      response.code = *parsed;
      response.detail = error.at("detail").as_string();
      return response;
    }
    if (const json::Value* results = document.find("results")) {
      for (const json::Value& element : results->as_array()) {
        response.results.push_back(result_from_json_value(element));
      }
    } else {
      // Verb-shaped payload: keep the whole document for the caller.
      response.payload = document;
    }
    return response;
  });
}

}  // namespace mpss::net
