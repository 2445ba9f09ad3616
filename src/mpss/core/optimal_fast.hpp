#pragma once
// Double-precision fast path of the offline optimal algorithm (S31).
//
// The exact engine (core/optimal.hpp) pays arbitrary-precision rational costs to
// make the paper's equality tests literal. This is the engineering counterpart a
// production system would deploy: the same phase/round/flow structure over IEEE
// doubles with relative-epsilon acceptance tests. It trades certainty for speed
// (order-of-magnitude; see bench_offline and experiment E13) and is validated
// against the exact engine in tests -- energies agree to ~1e-9 relative on every
// sampled instance. Both engines run one phase/round loop (core/optimal.cpp),
// templated on the number type; only the numeric policy differs.
//
// The fast path returns its own lightweight schedule type: re-encoding binary
// doubles as exact rationals would launder approximation into "exact" data.

#include <cstddef>
#include <vector>

#include "mpss/core/job.hpp"
#include "mpss/core/power.hpp"
#include "mpss/obs/stats.hpp"
#include "mpss/util/cancel.hpp"

namespace mpss {

/// One execution piece in the double-precision schedule.
struct FastSlice {
  double start;
  double end;
  double speed;
  std::size_t job;
};

/// Per-machine slices plus measurement helpers (mirrors Schedule, in double).
struct FastSchedule {
  std::vector<std::vector<FastSlice>> machines;

  [[nodiscard]] std::size_t slice_count() const;
  [[nodiscard]] double energy(const PowerFunction& p) const;
  [[nodiscard]] double work_on(std::size_t job) const;
  [[nodiscard]] double max_speed() const;
};

struct FastOptimalResult {
  FastSchedule schedule;
  std::vector<double> phase_speeds;  // descending (within tolerance)
  std::size_t flow_computations = 0;
  /// Telemetry mirroring the exact engine's (phases/rounds/removals, flow-kernel
  /// work, wall time) so bench_offline can compare the two paths event-for-event.
  obs::SolveStats stats;
};

/// Approximate feasibility: window containment and machine overlap within
/// `tolerance` (absolute, in time units), work completion within `tolerance`
/// relative. Returns the number of violations (0 = feasible).
[[nodiscard]] std::size_t count_fast_violations(const Instance& instance,
                                                const FastSchedule& schedule,
                                                double tolerance = 1e-7);

/// Exclusive upper bound of the fast path's epsilon: valid tolerances lie in
/// (0, kFastEpsilonLimit). The engine rejects anything else with
/// std::invalid_argument, and SolveOptions::validate() with kInvalidOptions.
inline constexpr double kFastEpsilonLimit = 0.1;

/// Knobs for the fast path (the subset of OptimalOptions that applies here).
struct FastOptimalOptions {
  /// Relative tolerance of the flow-saturation tests, in (0, kFastEpsilonLimit)
  /// (looser values risk misclassifying phases on near-degenerate instances --
  /// experiment E13).
  double epsilon = 1e-9;
  /// Warm-started phase rounds (the default): build the flow network once per
  /// phase, then per removal round retract the victim's flow, rescale source
  /// capacities, and resume Dinic. `false` rebuilds every round. Unlike the
  /// exact engine the two paths agree only within the usual double tolerances
  /// (flow splits are rounding-sensitive), not bit for bit.
  bool incremental = true;
  /// Cooperative cancellation / soft deadline, polled at phase and round
  /// boundaries (util/cancel.hpp); the engine throws CancelledError when the
  /// token fires. Null never fires. Not owned; must outlive the call.
  const CancelToken* cancel = nullptr;
};

/// The offline algorithm over doubles. `epsilon` is the relative tolerance of the
/// flow-saturation tests (default 1e-9; looser values risk misclassifying phases
/// on near-degenerate instances -- experiment E13 quantifies this). With a
/// non-null `trace`, emits the same event stream as the exact engine under
/// "optimal_fast.*" labels.
[[nodiscard]] FastOptimalResult optimal_schedule_fast(const Instance& instance,
                                                      double epsilon = 1e-9,
                                                      obs::TraceSink* trace = nullptr);

/// As above with the full option set (incremental warm starts, cancellation).
/// `trace` records the "optimal_fast.*" event stream; null falls back to the
/// process-wide sink in obs::Registry.
[[nodiscard]] FastOptimalResult optimal_schedule_fast(const Instance& instance,
                                                      const FastOptimalOptions& options,
                                                      obs::TraceSink* trace = nullptr);

}  // namespace mpss
