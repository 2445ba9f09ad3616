#include "mpss/result_json.hpp"

#include <optional>
#include <stdexcept>
#include <string_view>
#include <utility>

namespace mpss {
namespace {

void append_quoted(const Q& value, std::string& out) {
  out.push_back('"');
  value.append_to(out);  // digits, '-' and '/': nothing to escape
  out.push_back('"');
}

void append_index(std::size_t index, std::string& out) {
  json::write_number(static_cast<double>(index), out);
}

void append_schedule(const SolveResult& result, std::string& out) {
  if (const Schedule* exact = result.exact_schedule()) {
    out += R"({"type":"exact","machines":)";
    append_index(exact->machines(), out);
    out += R"(,"slices":[)";
    bool first = true;
    for (std::size_t machine = 0; machine < exact->machines(); ++machine) {
      for (const Slice& slice : exact->machine(machine)) {
        out += first ? "[" : ",[";
        first = false;
        append_index(machine, out);
        out.push_back(',');
        append_quoted(slice.start, out);
        out.push_back(',');
        append_quoted(slice.end, out);
        out.push_back(',');
        append_quoted(slice.speed, out);
        out.push_back(',');
        append_index(slice.job, out);
        out.push_back(']');
      }
    }
    out += "]}";
  } else if (const FastSchedule* fast = result.fast_schedule()) {
    out += R"({"type":"fast","machines":)";
    append_index(fast->machines.size(), out);
    out += R"(,"slices":[)";
    bool first = true;
    for (std::size_t machine = 0; machine < fast->machines.size(); ++machine) {
      for (const FastSlice& slice : fast->machines[machine]) {
        out += first ? "[" : ",[";
        first = false;
        append_index(machine, out);
        out.push_back(',');
        json::write_number(slice.start, out);
        out.push_back(',');
        json::write_number(slice.end, out);
        out.push_back(',');
        json::write_number(slice.speed, out);
        out.push_back(',');
        append_index(slice.job, out);
        out.push_back(']');
      }
    }
    out += "]}";
  } else {
    out += R"({"type":"none"})";
  }
}

[[noreturn]] void missing(const char* field) {
  throw std::invalid_argument("json: missing field '" + std::string(field) + "'");
}

// Every double -> integer conversion below goes through json::is_integer_in
// first: it rejects NaN, infinities, fractions and out-of-range values before
// the cast, whose behavior past the target's range is undefined.
std::size_t read_index(json::Cursor& cursor, double hi, const char* what) {
  double raw = cursor.read_number();
  if (!json::is_integer_in(raw, 0.0, hi)) {
    throw std::invalid_argument(std::string("protocol: ") + what);
  }
  return static_cast<std::size_t>(raw);
}

/// Reads one slice row's five fields, after its '['.
template <typename Time, typename ReadTime>
void read_row(json::Cursor& cursor, std::size_t machines, ReadTime read_time,
              std::size_t& machine, Time (&times)[3], std::size_t& job) {
  auto next = [&] {
    if (!cursor.next_element()) {
      throw std::invalid_argument(
          "protocol: slices must be [machine, start, end, speed, job]");
    }
  };
  machine = read_index(cursor, static_cast<double>(machines - 1),
                       "slice machine index out of range");
  for (Time& time : times) {
    next();
    time = read_time();
  }
  next();
  job = read_index(cursor, json::kMaxExactInteger,
                   "slice job index must be a non-negative integer (<= 2^53)");
  if (cursor.next_element()) {
    throw std::invalid_argument(
        "protocol: slices must be [machine, start, end, speed, job]");
  }
}

enum class ScheduleType { kNone, kExact, kFast };

void read_slices(json::Cursor& cursor, ScheduleType type, std::size_t machines,
                 SolveResult& result) {
  auto open_row = [&] {
    if (!cursor.begin_array()) {
      throw std::invalid_argument(
          "protocol: slices must be [machine, start, end, speed, job]");
    }
  };
  if (machines > kMaxIdleMachines) {
    // Count the rows before allocating a slot per machine.
    const json::Cursor::Mark at = cursor.mark();
    std::size_t rows = 0;
    if (cursor.begin_array()) {
      do {
        cursor.skip_value();
        ++rows;
      } while (cursor.next_element());
    }
    cursor.rewind(at);
    if (machines - kMaxIdleMachines > rows) {
      throw std::invalid_argument(
          "protocol: schedule machines exceed its slices by more than 65536");
    }
  }
  std::size_t machine = 0;
  std::size_t job = 0;
  if (type == ScheduleType::kExact) {
    Schedule schedule(machines);
    if (cursor.begin_array()) {
      do {
        open_row();
        Q times[3];
        read_row(cursor, machines, [&] { return Q::from_string(cursor.read_string()); },
                 machine, times, job);
        schedule.add(machine, Slice{std::move(times[0]), std::move(times[1]),
                                    std::move(times[2]), job});
      } while (cursor.next_element());
    }
    result.schedule = std::move(schedule);
  } else {
    FastSchedule schedule;
    schedule.machines.resize(machines);
    if (cursor.begin_array()) {
      do {
        open_row();
        double times[3];
        read_row(cursor, machines, [&] { return cursor.read_number(); }, machine,
                 times, job);
        schedule.machines[machine].push_back(
            FastSlice{times[0], times[1], times[2], job});
      } while (cursor.next_element());
    }
    result.schedule = std::move(schedule);
  }
}

/// The schedule member. The slices are decoded as they stream past when the
/// type and machine count came first (the encoder's order); otherwise their
/// position is remembered and they are read once the object is closed. A
/// "none" schedule ignores whatever else it carries.
void read_schedule(json::Cursor& cursor, SolveResult& result) {
  std::optional<std::string> type_name;
  std::optional<double> machines_raw;
  std::optional<json::Cursor::Mark> slices_at;
  bool slices_done = false;
  ScheduleType type = ScheduleType::kNone;
  std::size_t machines = 0;
  auto resolve = [&] {
    if (*type_name == "exact") type = ScheduleType::kExact;
    else if (*type_name == "fast") type = ScheduleType::kFast;
    else if (*type_name != "none") {
      throw std::invalid_argument("protocol: unknown schedule type '" + *type_name +
                                  "'");
    }
    if (type == ScheduleType::kNone) return;
    if (!machines_raw) missing("machines");
    if (!json::is_integer_in(*machines_raw, 1.0, json::kMaxExactInteger)) {
      throw std::invalid_argument("protocol: schedule machines must be >= 1");
    }
    machines = static_cast<std::size_t>(*machines_raw);
  };
  if (cursor.begin_object()) {
    do {
      std::string_view key = cursor.key();
      if (key == "type" && !type_name) {
        type_name.emplace(cursor.read_string());
      } else if (key == "machines" && !machines_raw) {
        // Kept raw: a "none" schedule never looks at it.
        machines_raw = cursor.peek() == json::Cursor::Kind::kNumber
                           ? cursor.read_number()
                           : (cursor.skip_value(), -1.0);
      } else if (key == "slices" && !slices_at && !slices_done) {
        if (type_name && machines_raw) {
          resolve();
          if (type != ScheduleType::kNone) {
            read_slices(cursor, type, machines, result);
            slices_done = true;
          }
        }
        if (!slices_done) {
          slices_at = cursor.mark();
          cursor.skip_value();
        }
      } else {
        cursor.skip_value();
      }
    } while (cursor.next_member());
  }
  if (!type_name) missing("type");
  resolve();
  if (type == ScheduleType::kNone || slices_done) return;
  if (!slices_at) missing("slices");
  const json::Cursor::Mark end = cursor.mark();
  cursor.rewind(*slices_at);
  read_slices(cursor, type, machines, result);
  cursor.rewind(end);
}

}  // namespace

void append_result_json(const SolveResult& result, std::string& out) {
  out += R"({"status":)";
  json::write_string(solve_status_name(result.status), out);
  out += R"(,"error_detail":)";
  json::write_string(result.error_detail, out);
  out += R"(,"energy":)";
  json::write_number(result.energy, out);
  out += R"(,"schedule":)";
  append_schedule(result, out);
  out.push_back('}');
}

SolveResult read_result_json(json::Cursor& cursor) {
  SolveResult result;
  bool have_status = false, have_detail = false, have_energy = false,
       have_schedule = false;
  if (cursor.begin_object()) {
    do {
      std::string_view key = cursor.key();
      if (key == "status" && !have_status) {
        std::string_view name = cursor.read_string();
        std::optional<SolveStatus> status = solve_status_from_name(name);
        if (!status) {
          throw std::invalid_argument("protocol: unknown solve status '" +
                                      std::string(name) + "'");
        }
        result.status = *status;
        have_status = true;
      } else if (key == "error_detail" && !have_detail) {
        result.error_detail = cursor.read_string();
        have_detail = true;
      } else if (key == "energy" && !have_energy) {
        result.energy = cursor.read_number();
        have_energy = true;
      } else if (key == "schedule" && !have_schedule) {
        read_schedule(cursor, result);
        have_schedule = true;
      } else {
        cursor.skip_value();
      }
    } while (cursor.next_member());
  }
  if (!have_status) missing("status");
  if (!have_detail) missing("error_detail");
  if (!have_energy) missing("energy");
  if (!have_schedule) missing("schedule");
  return result;
}

}  // namespace mpss
