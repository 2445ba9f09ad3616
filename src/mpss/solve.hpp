#pragma once
// Unified solve() facade (S41, see DESIGN.md): one entry point over every
// scheduling engine the library implements.
//
// The per-engine free functions (optimal_schedule, optimal_schedule_fast,
// oa_schedule, avr_schedule, lp_baseline) remain the primary API for callers
// that want an engine's full result type. The facade serves callers that treat
// the engine as a knob -- the CLI tools, the benches, and comparative
// experiments -- and gives them a common result shape: a status code instead of
// an exception for predictable input errors, one energy number, the schedule
// (exact or double-precision, whichever the engine produces), and the engine's
// obs::SolveStats telemetry.

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <variant>

#include "mpss/core/job.hpp"
#include "mpss/core/optimal.hpp"
#include "mpss/core/optimal_fast.hpp"
#include "mpss/core/power.hpp"
#include "mpss/core/schedule.hpp"
#include "mpss/obs/stats.hpp"
#include "mpss/online/avr.hpp"
#include "mpss/util/cancel.hpp"

namespace mpss {

/// The scheduling engines reachable through solve().
enum class Engine {
  kExact,  // optimal_schedule: the paper's combinatorial algorithm, exact Q
  kFast,   // optimal_schedule_fast: same structure over doubles
  kOa,     // oa_schedule: Optimal Available, re-planning at every arrival
  kAvr,    // avr_schedule: Average Rate (needs integral release/deadlines)
  kLp,     // lp_baseline: discretized-speed LP upper bound
};

/// Stable lowercase name ("exact", "fast", "oa", "avr", "lp") for CLI flags and
/// table headers.
[[nodiscard]] const char* engine_name(Engine engine);

/// Inverse of engine_name: the one engine-flag parser for CLI tools, examples,
/// and benches. Round-trips every Engine (engine_from_name(engine_name(e)) ==
/// e) and additionally accepts the historical CLI alias "opt" for the exact
/// engine. Unknown names yield nullopt -- the caller owns the error message.
[[nodiscard]] std::optional<Engine> engine_from_name(std::string_view name);

/// How a solve() call ended. Predictable input problems come back as statuses;
/// exceptions are reserved for InternalError (broken invariants -- a bug, not
/// an input).
enum class SolveStatus {
  kOk,
  kInvalidInstance,   // engine rejected the input (e.g. AVR on fractional times)
  kInvalidOptions,    // SolveOptions::validate() rejected the knobs
  kInfeasible,        // LP grid's top speed too low for the instance
  kUnbounded,         // LP reported unbounded (cannot happen on valid input)
  kCancelled,         // a CancelToken's request_cancel() fired mid-solve
  kDeadlineExceeded,  // a CancelToken's soft deadline passed mid-solve
};

/// Stable lowercase name ("ok", "invalid_instance", "invalid_options",
/// "infeasible", "unbounded", "cancelled", "deadline_exceeded").
[[nodiscard]] const char* solve_status_name(SolveStatus status);

/// Inverse of solve_status_name (exact names only); nullopt for unknown names.
[[nodiscard]] std::optional<SolveStatus> solve_status_from_name(
    std::string_view name);

/// Knobs of solve(). Default-constructed options run the exact engine with the
/// library defaults and P(s) = s^3.
struct SolveOptions {
  Engine engine = Engine::kExact;

  /// Power function used to measure the returned energy (and to drive the LP
  /// objective). Null means "use the instance's PowerSpec" (whose default is
  /// P(s) = s^3); a non-null pointer overrides the spec -- the escape hatch
  /// for arbitrary callables the serializable spec cannot express. Not owned;
  /// must outlive the call.
  const PowerFunction* power = nullptr;

  /// Exact engine (also the planner inside OA).
  OptimalOptions exact;

  /// Fast engine: relative tolerance of the flow-saturation tests, in
  /// (0, kFastEpsilonLimit). The fast engine always warm-starts its rounds;
  /// the rebuild-every-round reference path is reachable only through
  /// FastOptimalOptions::incremental.
  double fast_epsilon = 1e-9;

  /// AVR engine.
  AvrOptions avr;

  /// LP engine: number of speed levels (>= 2) and optional top-speed override.
  std::size_t lp_grid = 8;
  double lp_max_speed_hint = 0.0;

  /// THE trace-sink knob. solve() is the single place that resolves which sink
  /// an engine sees; precedence, highest first:
  ///
  ///   1. this field,
  ///   2. the process-wide default attached to obs::Registry::global().
  ///
  /// The facade resolves the chain eagerly and hands every engine an explicit
  /// sink, so the engines' own Registry fallback never triggers on this path.
  /// Not owned; must outlive the call.
  obs::TraceSink* trace = nullptr;

  /// Cooperative cancellation / soft deadline, polled before dispatch and (for
  /// the offline engines) at phase and round boundaries. A fired token turns
  /// into SolveStatus::kCancelled / kDeadlineExceeded, never an exception.
  /// Not owned; must outlive the call. BatchSolver populates this per request.
  const CancelToken* cancel = nullptr;

  /// Checks the knobs that have constrained domains (`lp_grid >= 2`,
  /// `0 < fast_epsilon < kFastEpsilonLimit`, `lp_max_speed_hint >= 0`).
  /// Returns the first violation's message, or nullopt when the options are
  /// usable. solve() calls this up front and reports failures as
  /// kInvalidOptions.
  [[nodiscard]] std::optional<std::string> validate() const;
};

/// Common result shape of every engine.
struct SolveResult {
  SolveStatus status = SolveStatus::kOk;
  /// Human-readable reason, set uniformly whenever status != kOk (the
  /// rejecting check's message, the engine's invalid-instance explanation, the
  /// LP's infeasibility note, ...). Empty exactly when ok(). The wire protocol
  /// forwards it verbatim in its error payload.
  std::string error_detail;

  /// Energy of the produced schedule under the options' power function
  /// (the LP engine reports its objective). 0 when status != kOk.
  double energy = 0.0;

  /// The schedule, when the engine produces one: exact engines yield Schedule,
  /// the fast engine yields FastSchedule, the LP engine yields no schedule
  /// (it is an energy bound). Monostate also on failure.
  std::variant<std::monostate, Schedule, FastSchedule> schedule;

  /// The engine's telemetry (fields the engine does not exercise stay 0).
  obs::SolveStats stats;

  [[nodiscard]] bool ok() const { return status == SolveStatus::kOk; }

  /// The exact schedule, or null if this result does not hold one.
  [[nodiscard]] const Schedule* exact_schedule() const {
    return std::get_if<Schedule>(&schedule);
  }
  /// The double-precision schedule, or null if this result does not hold one.
  [[nodiscard]] const FastSchedule* fast_schedule() const {
    return std::get_if<FastSchedule>(&schedule);
  }

  /// Feasibility violations of whichever schedule variant this result holds:
  /// count_violations (exact check) for Schedule, count_fast_violations with
  /// `fast_tolerance` for FastSchedule, and 0 when there is no schedule (the
  /// LP engine, or a failed solve). Saves callers the std::variant visitation.
  [[nodiscard]] std::size_t violations(const Instance& instance,
                                       double fast_tolerance = 1e-7) const;
};

/// Runs the selected engine on `instance`. Never throws on predictable input
/// problems (those come back as statuses); InternalError still propagates.
[[nodiscard]] SolveResult solve(const Instance& instance,
                                const SolveOptions& options = SolveOptions{});

/// Thin delegating wrapper over the Instance form, for callers holding loose
/// (jobs, machines) pairs. Instance validation failures (machines == 0, a job
/// with release >= deadline) come back as kInvalidInstance instead of the
/// constructor's exception, matching the facade's no-throw contract.
[[nodiscard]] SolveResult solve(std::vector<Job> jobs, std::size_t machines,
                                const SolveOptions& options = SolveOptions{});

}  // namespace mpss
