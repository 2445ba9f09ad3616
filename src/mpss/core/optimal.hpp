#pragma once
// The paper's primary contribution (Section 2): a strongly combinatorial,
// polynomial-time algorithm computing energy-optimal multi-processor schedules
// with migration, for any convex non-decreasing power function.
//
// Outline (Fig. 2 of the paper). The optimal schedule processes each job at one
// constant speed (Lemma 1); grouping jobs by speed partitions them into sets
// J_1, ..., J_p with s_1 > ... > s_p. Phase i recovers J_i:
//
//   * maintain a candidate set J (initially all remaining jobs); in every round,
//     reserve m_j = min(n_j, m - sum_{l<i} m_lj) processors per atomic interval
//     (Lemma 3), set s = W / P (total work over reserved processing time), and ask
//     a max-flow network G(J, m, s) whether J can be feasibly scheduled at uniform
//     speed s on the reservation;
//   * if the max-flow value reaches W/s, J is exactly J_i (Lemma 5); otherwise an
//     unsaturated sink edge exposes a job that provably does not belong to J_i
//     (Lemma 4) -- remove it and repeat.
//
// The flow on edge (u_k, v_j) is the processing time of job k inside interval I_j;
// each interval's sequential working schedule is McNaughton-wrapped onto the
// reserved processors. Phases claim the lowest-numbered free processors, so faster
// sets sit on lower machine indices (the Lemma 6 normal form).
//
// All arithmetic is exact (mpss::Q), making the "flow value == W/s" test literal.
//
// Note the power function does not appear: the optimal *schedule* is the same for
// every convex non-decreasing P (the algorithm minimizes speeds lexicographically);
// P only enters when measuring the energy of the result.

#include <cstddef>
#include <vector>

#include "mpss/core/intervals.hpp"
#include "mpss/core/job.hpp"
#include "mpss/core/schedule.hpp"
#include "mpss/obs/stats.hpp"
#include "mpss/util/cancel.hpp"
#include "mpss/util/rational.hpp"

namespace mpss {

/// Diagnostics for one phase of the algorithm.
struct PhaseInfo {
  /// Job indices (into the instance) forming J_i.
  std::vector<std::size_t> jobs;
  /// The uniform speed s_i of this set.
  Q speed;
  /// m_ij: processors reserved in each atomic interval (indexed like the
  /// decomposition's intervals).
  std::vector<std::size_t> machines_per_interval;
  /// Max-flow computations spent identifying this set (1 + number of removals).
  std::size_t rounds = 0;
};

/// Output of the offline algorithm: the schedule plus the full phase structure
/// (which the structural property tests and the OA(m) analysis hooks inspect).
struct OptimalResult {
  /// job_phase value for jobs that belong to no phase (zero work).
  static constexpr std::size_t kNoPhase = static_cast<std::size_t>(-1);

  Schedule schedule;
  IntervalDecomposition intervals;
  std::vector<PhaseInfo> phases;
  /// Total max-flow computations (sum of phase rounds).
  std::size_t flow_computations = 0;
  /// Telemetry: phase/round/removal counts plus flow-kernel work and wall time.
  /// `stats.flow_computations` mirrors the field above; `stats.phases` equals
  /// `phases.size()`.
  obs::SolveStats stats;
  /// Index into `phases` per job (kNoPhase for zero-work jobs), filled once by
  /// optimal_schedule() so speed_of_job is O(1) instead of a phase scan.
  std::vector<std::size_t> job_phase;

  /// Speed at which `job` is processed. Returns 0 for zero-work jobs (which
  /// belong to no phase) and for indices the instance does not contain.
  [[nodiscard]] Q speed_of_job(std::size_t job) const;

  /// Number of distinct speed levels p.
  [[nodiscard]] std::size_t level_count() const { return phases.size(); }
};

/// Ablation knobs (experiment E12). The paper's Lemma 4 licenses removing only a
/// job whose edge into an *unsaturated* interval vertex carries slack; the
/// ablated policy removes an arbitrary candidate instead, demonstrating why the
/// principled rule matters (wrong sets J_i -> higher energy, or broken phase
/// structure). Production callers use the default.
struct OptimalOptions {
  enum class RemovalPolicy {
    kPaperRule,        // line 10 of Fig. 2 -- provably correct
    kRandomCandidate,  // ABLATION ONLY: drop a random candidate when the flow
                       // falls short
  };
  RemovalPolicy removal_policy = RemovalPolicy::kPaperRule;
  std::uint64_t ablation_seed = 0;  // PRNG seed for kRandomCandidate
  /// Warm-started phase rounds (the default): build the flow network once per
  /// phase, then per removal round retract the victim's flow, rescale the
  /// source capacities to the new speed, and resume Dinic from the carried
  /// feasible flow. `false` rebuilds the network from scratch every round (the
  /// differential reference path). The two paths produce bit-identical results
  /// -- phases, speeds, and schedules -- see DESIGN.md "Warm-start invariant".
  bool incremental = true;
  /// Cooperative cancellation / soft deadline, polled at phase and round
  /// boundaries (util/cancel.hpp). When the token fires the engine throws
  /// CancelledError; the solve() facade turns that into kCancelled /
  /// kDeadlineExceeded. Null (the default) never fires. Not owned; must
  /// outlive the call.
  const CancelToken* cancel = nullptr;
};

/// Computes an energy-optimal schedule for `instance` (Theorem 1 of the paper).
/// Optimality holds simultaneously for every convex non-decreasing power function.
/// Never fails on valid instances: with unbounded speeds every instance is
/// feasible. Runs in polynomial time (O(n) phases, each O(n) max-flow rounds).
[[nodiscard]] OptimalResult optimal_schedule(const Instance& instance);

/// As above with ablation/cancellation options; with kRandomCandidate the
/// result is feasible but may be suboptimal (and phase speeds may not
/// decrease). May throw InternalError if the ablated removals empty a
/// candidate set, and CancelledError when `options.cancel` fires.
///
/// `trace` records phase boundaries, per-round flow values, and candidate
/// removals as obs events; null falls back to the process-wide sink in
/// obs::Registry (itself null by default -> no emission). The solve() facade
/// is the preferred way to drive tracing (it owns sink resolution; see
/// SolveOptions::trace) -- this parameter serves direct engine callers.
[[nodiscard]] OptimalResult optimal_schedule(const Instance& instance,
                                             const OptimalOptions& options,
                                             obs::TraceSink* trace = nullptr);

/// Convenience: the optimal energy under power function `p` (computes the schedule
/// and measures it).
[[nodiscard]] double optimal_energy(const Instance& instance, const PowerFunction& p);

namespace detail {

/// One round of the offline engine at a caller-chosen speed: builds G(J, m, s)
/// over every positive-work job with min(n_j, m) processors reserved per atomic
/// interval and reports whether the max flow saturates every source edge
/// (w_k / s each). ext/bounded_speed decides speed-cap feasibility with it; not
/// a supported entry point of its own.
[[nodiscard]] bool fits_at_speed(const Instance& instance, const Q& speed);

}  // namespace detail

}  // namespace mpss
