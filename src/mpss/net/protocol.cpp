#include "mpss/net/protocol.hpp"

#include <charconv>
#include <exception>
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

// Every double -> integer conversion below goes through json::is_integer_in
// first: it rejects NaN, infinities, fractions and out-of-range values before
// the cast, whose behavior past the target's range is undefined.
using json::is_integer_in;
using json::kMaxExactInteger;

/// Checked double -> non-negative integer: rejects NaN, infinities,
/// negatives, fractions, and anything past 2^53. Throws invalid_argument
/// (bad_request_scope recodes it) naming `what`.
std::uint64_t checked_u64(double raw, const char* what) {
  if (!is_integer_in(raw, 0.0, kMaxExactInteger)) {
    throw std::invalid_argument(std::string("protocol: ") + what +
                                " must be a non-negative integer (<= 2^53)");
  }
  return static_cast<std::uint64_t>(raw);
}

std::uint64_t id_from(const json::Value& document) {
  if (const json::Value* id = document.find("id")) {
    double raw = id->as_double();
    if (!is_integer_in(raw, 0.0, kMaxExactInteger)) {
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
      if (!is_integer_in(raw, -2147483648.0, 2147483647.0)) {
        throw ProtocolError(ErrorCode::kBadRequest,
                            "protocol: priority must be an integer in int range");
      }
      request.priority = static_cast<int>(raw);
    }
    if (const json::Value* deadline = document.find("deadline_ms")) {
      double raw = deadline->as_double();
      if (!is_integer_in(raw, 0.0, kMaxExactInteger)) {
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

ResultsResponseBuilder::ResultsResponseBuilder(std::uint64_t id) {
  out_ = R"({"v":)";
  json::write_number(static_cast<double>(kProtocolVersion), out_);
  out_ += R"(,"id":)";
  json::write_number(static_cast<double>(id), out_);
  out_ += R"(,"ok":true,"results":[)";
}

void ResultsResponseBuilder::add(const SolveResult& result) {
  if (count_++ != 0) out_.push_back(',');
  append_result_json(result, out_);
}

void ResultsResponseBuilder::add_encoded(std::string_view result_json) {
  if (count_++ != 0) out_.push_back(',');
  out_ += result_json;
}

std::string ResultsResponseBuilder::finish() && {
  out_ += "]}";
  return std::move(out_);
}

std::string encode_results_response(std::uint64_t id,
                                    std::span<const SolveResult> results) {
  ResultsResponseBuilder builder(id);
  for (const SolveResult& result : results) builder.add(result);
  return std::move(builder).finish();
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
    // One pass: "results" streams straight into SolveResults; every other
    // top-level member (all small) is read into a document and checked in
    // the order below, so a response is judged the same whatever its member
    // order. A results element that does not fit the schema is remembered,
    // not thrown at once: the rest of the text must still be JSON, a wrong
    // version still reports as such, and an ok:false response never looks
    // at its results.
    json::Cursor cursor(payload);
    if (cursor.peek() != json::Cursor::Kind::kObject) {
      (void)cursor.read_value();
      cursor.finish();
      check_version(json::Value());  // not an object: there is no "v"
    }
    json::Object members;
    std::optional<std::vector<SolveResult>> results;
    std::exception_ptr results_error;
    if (cursor.begin_object()) {
      do {
        std::string_view key = cursor.key();
        if (key == "results" && !results) {
          results.emplace();
          const json::Cursor::Mark start = cursor.mark();
          try {
            if (cursor.begin_array()) {
              do {
                results->push_back(read_result_json(cursor));
              } while (cursor.next_element());
            }
          } catch (const json::SyntaxError&) {
            throw;
          } catch (...) {
            results_error = std::current_exception();
            cursor.rewind(start);
            cursor.skip_value();
          }
        } else {
          std::string name(key);
          members.emplace_back(std::move(name), cursor.read_value());
        }
      } while (cursor.next_member());
    }
    cursor.finish();
    json::Value document(std::move(members));
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
    if (results) {
      if (results_error) std::rethrow_exception(results_error);
      response.results = std::move(*results);
    } else {
      // Verb-shaped payload: keep the whole document for the caller.
      response.payload = std::move(document);
    }
    return response;
  });
}

}  // namespace mpss::net
