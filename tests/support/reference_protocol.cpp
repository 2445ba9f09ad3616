#include "support/reference_protocol.hpp"

#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "mpss/result_json.hpp"

namespace mpss::net::reference {
namespace {

using json::is_integer_in;
using json::kMaxExactInteger;

template <typename Fn>
auto bad_request_scope(Fn&& fn) -> decltype(fn()) {
  try {
    return fn();
  } catch (const ProtocolError&) {
    throw;
  } catch (const std::exception& error) {
    throw ProtocolError(ErrorCode::kBadRequest, error.what());
  }
}

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

json::Value schedule_to_json(const SolveResult& result) {
  json::Value out;
  if (const Schedule* exact = result.exact_schedule()) {
    out.set("type", "exact");
    out.set("machines", exact->machines());
    json::Array slices;
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
  if (!is_integer_in(raw, 0.0, static_cast<double>(machines - 1))) {
    throw std::invalid_argument("protocol: slice machine index out of range");
  }
  return static_cast<std::size_t>(raw);
}

std::size_t slice_job(const json::Value& value) {
  return static_cast<std::size_t>(checked_u64(value.as_double(), "slice job index"));
}

const json::Array& slice_fields(const json::Value& row) {
  const json::Array& fields = row.as_array();
  if (fields.size() != 5) {
    throw std::invalid_argument(
        "protocol: slices must be [machine, start, end, speed, job]");
  }
  return fields;
}

void schedule_from_json(const json::Value& value, SolveResult& result) {
  const std::string& type = value.at("type").as_string();
  if (type == "none") return;
  double machines_raw = value.at("machines").as_double();
  if (!is_integer_in(machines_raw, 1.0, kMaxExactInteger)) {
    throw std::invalid_argument("protocol: schedule machines must be >= 1");
  }
  auto machines = static_cast<std::size_t>(machines_raw);
  const json::Array& slices = value.at("slices").as_array();
  if (machines > slices.size() + kMaxIdleMachines) {
    throw std::invalid_argument(
        "protocol: schedule machines exceed its slices by more than 65536");
  }
  if (type == "exact") {
    Schedule schedule(machines);
    for (const json::Value& row : slices) {
      const json::Array& fields = slice_fields(row);
      schedule.add(slice_machine(fields, machines),
                   Slice{Q::from_string(fields[1].as_string()),
                         Q::from_string(fields[2].as_string()),
                         Q::from_string(fields[3].as_string()), slice_job(fields[4])});
    }
    result.schedule = std::move(schedule);
  } else if (type == "fast") {
    FastSchedule schedule;
    schedule.machines.resize(machines);
    for (const json::Value& row : slices) {
      const json::Array& fields = slice_fields(row);
      schedule.machines[slice_machine(fields, machines)].push_back(
          FastSlice{fields[1].as_double(), fields[2].as_double(),
                    fields[3].as_double(), slice_job(fields[4])});
    }
    result.schedule = std::move(schedule);
  } else {
    throw std::invalid_argument("protocol: unknown schedule type '" + type + "'");
  }
}

}  // namespace

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
      response.payload = document;
    }
    return response;
  });
}

}  // namespace mpss::net::reference
