// The offline algorithm of Fig. 2, written once and instantiated twice: over
// exact rationals (optimal_schedule) and over doubles (optimal_schedule_fast).
// The phase/round/warm-start loop, the network builder, and the flow
// retraction are shared; a numeric policy carries only what genuinely differs
// between the two number types (see DESIGN.md S31, "Warm-start invariant").

#include "mpss/core/optimal.hpp"

#include <algorithm>
#include <numeric>
#include <span>
#include <string>

#include "mpss/core/mcnaughton.hpp"
#include "mpss/core/optimal_fast.hpp"
#include "mpss/flow/dinic.hpp"
#include "mpss/obs/histogram.hpp"
#include "mpss/obs/span.hpp"
#include "mpss/obs/trace.hpp"
#include "mpss/util/arena.hpp"
#include "mpss/util/error.hpp"
#include "mpss/util/random.hpp"

namespace mpss {
namespace {

constexpr std::size_t kNone = static_cast<std::size_t>(-1);

bool positive(const Q& value) { return value.sign() > 0; }
bool positive(double value) { return value > 0.0; }
double to_double(const Q& value) { return value.to_double(); }
double to_double(double value) { return value; }

/// One engine's names: the error-message prefix plus every span, event,
/// counter, and histogram label (perfbench, mpss_trace, and the tests read
/// them, so they are part of the observable contract).
struct Labels {
  const char* engine;
  const char* solve;
  const char* phase;
  const char* round;
  const char* intervals;
  const char* warm_start;
  const char* removal;
  const char* ablated_removal;
  const char* arena;
  const char* round_us;
  const char* rounds_per_phase;
  const char* resume_bfs;
};

/// check_internal with the engine's name in the message, built only on failure.
void require(bool condition, const Labels& labels, const char* what) {
  if (!condition) throw InternalError(std::string(labels.engine) + ": " + what);
}

/// Atomic intervals in double precision (exact points converted, then dedup'd).
struct FastIntervals {
  std::vector<double> points;

  explicit FastIntervals(const Instance& instance) {
    points.reserve(instance.size() * 2);
    for (const Job& job : instance.jobs()) {
      points.push_back(job.release.to_double());
      points.push_back(job.deadline.to_double());
    }
    std::sort(points.begin(), points.end());
    points.erase(std::unique(points.begin(), points.end()), points.end());
    if (points.size() == 1) points.clear();
  }

  [[nodiscard]] std::size_t count() const {
    return points.empty() ? 0 : points.size() - 1;
  }
  [[nodiscard]] double start(std::size_t j) const { return points[j]; }
  [[nodiscard]] double end(std::size_t j) const { return points[j + 1]; }
  [[nodiscard]] double length(std::size_t j) const { return end(j) - start(j); }
};

/// Exact policy: rationals, so every saturation test is a literal equality
/// and every retraction lands exactly on zero.
struct ExactPolicy {
  using Num = Q;
  using Chunk = mpss::Chunk;
  using Net = FlowNetwork<Q>;
  static constexpr Labels kLabels{
      "optimal_schedule",       "optimal.solve",         "optimal.phase",
      "optimal.round",          "optimal.intervals",     "optimal.warm_start",
      "optimal.lemma4_removal", "optimal.ablated_removal", "optimal.arena",
      "optimal.round_us",       "optimal.rounds_per_phase", "optimal.resume_bfs"};
  /// A resumed closing flow has the optimal value but not necessarily the
  /// rebuild path's per-edge split, so the phase closes with a from-zero solve.
  static constexpr bool kCanonicalClose = true;

  const Instance& instance;
  bool speeds_must_decrease;  // false under the random-removal ablation
  IntervalDecomposition intervals;
  OptimalResult result;

  ExactPolicy(const Instance& instance_in, bool paper_rule)
      : instance(instance_in),
        speeds_must_decrease(paper_rule),
        intervals(instance_in.jobs()),
        result{Schedule(instance_in.machines()), intervals, {}, 0, {}, {}} {}

  [[nodiscard]] const Q& work(std::size_t job) const { return instance.job(job).work; }
  [[nodiscard]] ActiveBitmap active_bitmap() const {
    return make_active_bitmap(instance.jobs(), intervals);
  }
  [[nodiscard]] bool fits(const Q& flow, const Q& target) const { return flow == target; }
  [[nodiscard]] bool sink_has_slack(const Net& net, Net::EdgeId edge) const {
    return !net.saturated(edge);
  }
  [[nodiscard]] bool job_has_slack(const Net& net, Net::EdgeId edge) const {
    return !net.saturated(edge);
  }
  void set_capacity(Net& net, Net::EdgeId edge, Q capacity) const {
    net.set_capacity(edge, std::move(capacity));
  }
  void retract_shared(Net& net, Net::EdgeId edge, const Q& amount) const {
    net.retract_flow(edge, amount);
  }
  void check_drained(const Q& residue) const {
    require(residue.sign() == 0, kLabels, "flow retraction left residue");
  }

  void close_phase(const std::vector<std::size_t>& jobs, const Q& speed,
                   std::span<const std::size_t> reserved, std::size_t rounds) {
    require(!speeds_must_decrease || result.phases.empty() ||
                speed < result.phases.back().speed,
            kLabels, "phase speeds must strictly decrease");
    PhaseInfo phase;
    phase.jobs = jobs;
    phase.speed = speed;
    phase.machines_per_interval.assign(reserved.begin(), reserved.end());
    phase.rounds = rounds;
    result.phases.push_back(std::move(phase));
  }

  /// McNaughton-wraps interval j's chunks onto its reserved processors. All sink
  /// edges are saturated (F == P), so the interval carries exactly
  /// machines * |I_j| units of processing time.
  void pack(std::size_t j, std::size_t first_machine, std::size_t machines,
            const Q& speed, std::span<const Chunk> chunks) {
    require(!chunks.empty(), kLabels, "reserved interval received no flow");
    mcnaughton_pack(result.schedule, intervals.start(j), intervals.length(j),
                    first_machine, machines, speed, chunks);
  }

  void finish() {
    result.job_phase.assign(instance.size(), OptimalResult::kNoPhase);
    for (std::size_t i = 0; i < result.phases.size(); ++i) {
      for (std::size_t job : result.phases[i].jobs) result.job_phase[job] = i;
    }
  }
};

/// Double policy: relative-epsilon acceptance tests, and clamps that absorb
/// the ulp-level drift between a job's edge flows and their sum.
struct FastPolicy {
  using Num = double;
  struct Chunk {
    std::size_t job;
    double duration;
  };
  using Net = FlowNetwork<double>;
  static constexpr Labels kLabels{
      "optimal_schedule_fast",       "optimal_fast.solve",
      "optimal_fast.phase",          "optimal_fast.round",
      "optimal_fast.intervals",      "optimal_fast.warm_start",
      "optimal_fast.lemma4_removal", "optimal_fast.ablated_removal",
      "optimal_fast.arena",          "optimal_fast.round_us",
      "optimal_fast.rounds_per_phase", "optimal_fast.resume_bfs"};
  /// Flow splits are rounding-sensitive anyway; the fast engine extracts the
  /// resumed flow as is.
  static constexpr bool kCanonicalClose = false;

  const Instance& instance;
  double epsilon;
  FastIntervals intervals;
  std::vector<double> job_work;
  FastOptimalResult result;

  FastPolicy(const Instance& instance_in, double epsilon_in)
      : instance(instance_in), epsilon(epsilon_in), intervals(instance_in) {
    job_work.reserve(instance.size());
    for (const Job& job : instance.jobs()) job_work.push_back(job.work.to_double());
    result.schedule.machines.resize(instance.machines());
  }

  [[nodiscard]] double work(std::size_t job) const { return job_work[job]; }
  /// Containment padded by 1e-15: converted endpoints can drift by an ulp.
  [[nodiscard]] ActiveBitmap active_bitmap() const {
    ActiveBitmap active(intervals.count(), instance.size());
    for (std::size_t k = 0; k < instance.size(); ++k) {
      double release = instance.job(k).release.to_double();
      double deadline = instance.job(k).deadline.to_double();
      for (std::size_t j = 0; j < intervals.count(); ++j) {
        if (release <= intervals.start(j) + 1e-15 &&
            intervals.end(j) <= deadline + 1e-15) {
          active.set(j, k);
        }
      }
    }
    return active;
  }
  [[nodiscard]] bool fits(double flow, double target) const {
    return flow >= target * (1.0 - epsilon);
  }
  [[nodiscard]] bool sink_has_slack(const Net& net, Net::EdgeId edge) const {
    double cap = net.capacity(edge);
    double gap = cap - net.flow(edge);
    return !(gap <= epsilon * (1.0 + cap));
  }
  [[nodiscard]] bool job_has_slack(const Net& net, Net::EdgeId edge) const {
    return net.flow(edge) < net.capacity(edge) * (1.0 - epsilon);
  }
  /// Never below the carried flow, so drift cannot trip set_capacity's
  /// capacity >= flow precondition (a sealed victim keeps any sub-epsilon
  /// leftover, inert).
  void set_capacity(Net& net, Net::EdgeId edge, double capacity) const {
    net.set_capacity(edge, std::max(capacity, net.flow(edge)));
  }
  void retract_shared(Net& net, Net::EdgeId edge, double amount) const {
    net.retract_flow(edge, std::min(amount, net.flow(edge)));
  }
  void check_drained(double /*residue*/) const {}

  void close_phase(const std::vector<std::size_t>& /*jobs*/, double speed,
                   std::span<const std::size_t> /*reserved*/, std::size_t /*rounds*/) {
    result.phase_speeds.push_back(speed);
  }

  /// Wraps interval j's chunks over its reserved machines, dropping sub-epsilon
  /// pieces and sub-rounding window remainders.
  void pack(std::size_t j, std::size_t first_machine, std::size_t /*machines*/,
            double speed, std::span<const Chunk> chunks) {
    const double length = intervals.length(j);
    std::size_t machine = first_machine;
    double offset = 0.0;
    for (const Chunk& chunk : chunks) {
      double duration = std::min(chunk.duration, length);
      while (duration > epsilon * length) {
        double available = length - offset;
        if (available <= 1e-12 * length) {
          // Sub-rounding remainder of the machine window: move on before it
          // collapses into a zero-length slice (ulp of the absolute time can
          // exceed the remainder).
          ++machine;
          offset = 0.0;
          continue;
        }
        double piece = std::min(duration, available);
        double begin = intervals.start(j) + offset;
        double finish = intervals.start(j) + std::min(offset + piece, length);
        if (begin < finish) {
          result.schedule.machines[machine].push_back(
              FastSlice{begin, finish, speed, chunk.job});
        }
        offset += piece;
        duration -= piece;
        if (offset >= length * (1.0 - 1e-12)) {
          ++machine;
          offset = 0.0;
        }
      }
    }
  }

  void finish() {}
};

/// One phase's flow network G(J, m, s) plus the bookkeeping needed to read
/// per-(job, interval) processing times back out of the solved flow and to
/// edit capacities in place between rounds. Edge vectors are addressed by
/// position in the candidate set the network was *built* for; on the
/// incremental path the round loop maps current candidate positions back to
/// build positions.
template <class Num>
struct RoundNetwork {
  using EdgeId = typename FlowNetwork<Num>::EdgeId;
  FlowNetwork<Num> net;
  std::size_t source = 0;
  std::size_t sink = 0;
  std::vector<EdgeId> source_edges;                        // u_0 -> u_k
  std::vector<std::vector<std::size_t>> job_edge_interval;  // per job: interval j
  std::vector<std::vector<EdgeId>> job_edges;               // per job: edge ids
  std::vector<EdgeId> sink_edges;                           // v_j -> v_0 (mj > 0)
  std::vector<std::size_t> sink_edge_interval;              // interval j of each
  std::vector<std::size_t> interval_sink_edge;              // inverse (kNone if none)
};

/// m_j * |I_j|: the processing time a reservation of `machines` offers in I_j.
template <class Policy>
typename Policy::Num reserved_time(const Policy& policy, std::size_t j,
                                   std::size_t machines) {
  using Num = typename Policy::Num;
  return policy.intervals.length(j) * Num(static_cast<std::int64_t>(machines));
}

/// Builds G(J, m, s): source -> job vertices (capacity w_k / s), job -> interval
/// vertices for the intervals where the job is active and processors are reserved
/// (capacity |I_j|), interval -> sink (capacity m_j * |I_j|).
template <class Policy>
RoundNetwork<typename Policy::Num> build_network(
    const Policy& policy, const std::vector<std::size_t>& candidates,
    const ActiveBitmap& active, std::span<const std::size_t> count_active,
    std::span<const std::size_t> reserved, const typename Policy::Num& speed,
    Arena& scratch) {
  RoundNetwork<typename Policy::Num> round;
  round.net.set_scratch_arena(&scratch);
  const std::size_t interval_count = policy.intervals.count();

  std::size_t live_intervals = 0;
  std::size_t job_edge_count = 0;
  for (std::size_t j = 0; j < interval_count; ++j) {
    if (reserved[j] == 0) continue;
    ++live_intervals;
    job_edge_count += count_active[j];
  }
  round.net.reserve_nodes(2 + candidates.size() + live_intervals);
  round.net.reserve_edges(candidates.size() + job_edge_count + live_intervals);

  round.source = round.net.add_node();
  std::size_t first_job_node = round.net.add_nodes(candidates.size());

  std::span<std::size_t> interval_node =
      scratch.alloc_array<std::size_t>(interval_count, kNone);
  for (std::size_t j = 0; j < interval_count; ++j) {
    if (reserved[j] > 0) interval_node[j] = round.net.add_node();
  }
  round.sink = round.net.add_node();

  round.source_edges.reserve(candidates.size());
  round.job_edges.resize(candidates.size());
  round.job_edge_interval.resize(candidates.size());
  for (std::size_t pos = 0; pos < candidates.size(); ++pos) {
    std::size_t job = candidates[pos];
    round.source_edges.push_back(round.net.add_edge(
        round.source, first_job_node + pos, policy.work(job) / speed));
    for (std::size_t j = 0; j < interval_count; ++j) {
      if (reserved[j] == 0 || !active.test(j, job)) continue;
      round.job_edges[pos].push_back(round.net.add_edge(
          first_job_node + pos, interval_node[j], policy.intervals.length(j)));
      round.job_edge_interval[pos].push_back(j);
    }
  }
  round.interval_sink_edge.assign(interval_count, kNone);
  for (std::size_t j = 0; j < interval_count; ++j) {
    if (reserved[j] == 0) continue;
    round.interval_sink_edge[j] = round.sink_edges.size();
    round.sink_edges.push_back(round.net.add_edge(interval_node[j], round.sink,
                                                  reserved_time(policy, j, reserved[j])));
    round.sink_edge_interval.push_back(j);
  }
  return round;
}

/// Retracts `amount` flow entering build-position `bpos`'s job vertex, greedily
/// over its job->interval edges. Every unit of flow sits on a length-3 path
/// (source, u_k, v_j, sink) because the network is strictly layered, so each
/// retraction is an edge triple and no general flow decomposition is needed.
/// Returns the number of per-edge-triple retraction operations performed (the
/// flow.retracted_units telemetry).
template <class Policy>
std::uint64_t retract_job_flow(const Policy& policy,
                               RoundNetwork<typename Policy::Num>& round,
                               std::size_t bpos, typename Policy::Num amount) {
  using Num = typename Policy::Num;
  std::uint64_t operations = 0;
  for (std::size_t idx = 0; idx < round.job_edges[bpos].size(); ++idx) {
    if (!positive(amount)) break;
    const auto edge = round.job_edges[bpos][idx];
    const Num& carried = round.net.flow(edge);
    if (!positive(carried)) continue;
    Num delta = std::min(carried, amount);
    std::size_t j = round.job_edge_interval[bpos][idx];
    round.net.retract_flow(edge, delta);
    policy.retract_shared(round.net, round.source_edges[bpos], delta);
    policy.retract_shared(round.net, round.sink_edges[round.interval_sink_edge[j]],
                          delta);
    amount -= delta;
    ++operations;
  }
  policy.check_drained(amount);
  return operations;
}

/// The options the loop itself reads (each engine's option struct maps onto it).
struct LoopOptions {
  bool incremental = true;
  bool paper_rule = true;
  std::uint64_t ablation_seed = 0;
  const CancelToken* cancel = nullptr;
};

/// Fig. 2: phases of Lemma-4 rounds, warm-started within a phase, writing the
/// schedule, phase record, and telemetry into `policy.result`.
template <class Policy>
void run_phases(Policy& policy, const LoopOptions& options, obs::TraceSink* trace) {
  using Num = typename Policy::Num;
  using Chunk = typename Policy::Chunk;
  const Labels& labels = Policy::kLabels;
  const Instance& instance = policy.instance;
  auto& result = policy.result;
  Xoshiro256 ablation_rng(options.ablation_seed);
  const std::size_t interval_count = policy.intervals.count();
  const std::size_t m = instance.machines();

  // Per-solve scratch arena (S46): pooled per thread, so repeat solves on a
  // BatchSolver worker reuse one warmed arena. Declared before any
  // RoundNetwork so the networks' scratch spans die first. The fallback-alloc
  // delta over this solve is the steady-state-allocation telemetry.
  ScopedArena scratch;
  const std::uint64_t arena_fallback_base = scratch->stats().fallback_allocs;
  // Span opens before the timer starts and closes after the timer is read, so
  // the solve span provably covers stats.wall_seconds (the --report coverage
  // criterion).
  obs::SpanScope solve_span(trace, labels.solve);
  obs::ScopedTimer timer;
  result.stats.counters.set(labels.intervals, interval_count);
  obs::emit(trace, obs::EventKind::kSolveStart, labels.solve, instance.size(), m);

  // Jobs with positive work; zero-work jobs are trivially complete.
  std::vector<std::size_t> remaining;
  for (std::size_t k = 0; k < instance.size(); ++k) {
    if (positive(policy.work(k))) remaining.push_back(k);
  }

  // Row j, column k: is job k active in interval I_j (I_j inside its window)?
  ActiveBitmap active = policy.active_bitmap();
  // Bit k set iff job k is in the current phase's candidate set; ANDed against
  // bitmap rows for the per-round n_j recount, and doubling as the membership
  // test when the phase's jobs are dropped from `remaining`. Fixed-shape
  // interval tables live in the scratch arena.
  std::span<std::uint64_t> candidate_mask = scratch->alloc_array<std::uint64_t>(
      ActiveBitmap::words_for(instance.size()), std::uint64_t{0});

  // used[j]: processors already occupied in I_j by earlier (faster) phases.
  std::span<std::size_t> used =
      scratch->alloc_array<std::size_t>(interval_count, std::size_t{0});
  std::span<std::size_t> count_active =
      scratch->alloc_array<std::size_t>(interval_count, std::size_t{0});

  std::uint64_t warm_starts = 0;
  std::uint64_t retracted_units = 0;
  std::uint64_t resume_bfs = 0;

  // Per-solve distributions (S43): folded into stats.histograms on return.
  obs::HistogramData round_us;          // wall microseconds per flow round
  obs::HistogramData rounds_per_phase;  // Lemma-4 chain length per phase
  obs::HistogramData resume_bfs_hist;   // BFS passes per warm-started resume

  std::size_t phase_count = 0;
  std::vector<Chunk> chunks;  // one interval's sequential working schedule

  while (!remaining.empty()) {
    // ---- one phase: identify the next job set J_i and its speed s_i ----
    poll_cancellation(options.cancel);
    obs::SpanScope phase_span(trace, labels.phase);
    std::vector<std::size_t> candidates = remaining;  // invariant: J_i is a subset
    std::ranges::fill(candidate_mask, 0);
    for (std::size_t job : candidates) ActiveBitmap::mask_set(candidate_mask, job);
    std::size_t rounds = 0;
    const std::size_t phase_index = phase_count;
    obs::emit(trace, obs::EventKind::kPhaseStart, labels.phase, phase_index,
              candidates.size());

    std::span<std::size_t> reserved =
        scratch->alloc_array<std::size_t>(interval_count, std::size_t{0});
    Num speed{};
    RoundNetwork<Num> round;
    // Maps current candidate position -> position at network build time (the
    // index into round.source_edges / round.job_edges). Identity right after a
    // build; kept in sync with `candidates` erases on the incremental path.
    std::vector<std::size_t> built_pos;
    bool built = false;      // round.net holds a usable network (incremental only)
    bool canonical = true;   // round.net's flow came from a from-zero solve

    for (;;) {
      // Round boundary: the network is consistent here (no half-applied
      // retraction), making this the fine-grained cancellation checkpoint.
      poll_cancellation(options.cancel);
      obs::SpanScope round_span(trace, labels.round);
      obs::ScopedHistogramTimer round_timer(round_us);
      require(!candidates.empty(), labels,
              "candidate set emptied; Lemma 4 invariant broken");
      ++rounds;
      ++result.flow_computations;

      // Reserve m_j = min(n_j, m - used_j) processors per interval (Lemma 3).
      // Within a phase n_j only shrinks, so on the incremental path a changed
      // reservation is a capacity *decrease* on an existing sink edge; the
      // victim's retraction already lowered the carried flow below the new cap
      // (see DESIGN.md "Warm-start invariant").
      Num offered{};  // P
      Num work{};     // W
      for (std::size_t j = 0; j < interval_count; ++j) {
        count_active[j] = active.row_and_popcount(j, candidate_mask);
        const std::size_t r = std::min(count_active[j], m - used[j]);
        if (built && r != reserved[j]) {
          policy.set_capacity(round.net, round.sink_edges[round.interval_sink_edge[j]],
                              reserved_time(policy, j, r));
        }
        reserved[j] = r;
        if (r > 0) offered += reserved_time(policy, j, r);
      }
      for (std::size_t job : candidates) work += policy.work(job);
      require(positive(offered), labels, "no processing capacity left for pending jobs");
      speed = work / offered;

      Num flow_value;
      if (!built) {
        round = build_network(policy, candidates, active, count_active, reserved, speed,
                              *scratch);
        built_pos.resize(candidates.size());
        std::iota(built_pos.begin(), built_pos.end(), std::size_t{0});
        built = options.incremental;  // rebuild path: tear down every round
        flow_value = round.net.max_flow(round.source, round.sink);
        canonical = true;
      } else {
        // Warm start: rescale the surviving source capacities to the new speed
        // and resume Dinic from the carried flow. The new speed can *exceed*
        // the old one (a removal can shed more reserved time than work), so a
        // source edge may have to drain down to its shrunken capacity first.
        for (std::size_t pos = 0; pos < candidates.size(); ++pos) {
          const auto edge = round.source_edges[built_pos[pos]];
          Num cap = policy.work(candidates[pos]) / speed;
          Num excess = round.net.flow(edge) - cap;
          if (positive(excess)) {
            retracted_units +=
                retract_job_flow(policy, round, built_pos[pos], std::move(excess));
          }
          policy.set_capacity(round.net, edge, std::move(cap));
        }
        flow_value = round.net.max_flow_resume(round.source, round.sink);
        ++warm_starts;
        resume_bfs += round.net.kernel_stats().bfs_rounds;
        resume_bfs_hist.record(round.net.kernel_stats().bfs_rounds);
        canonical = false;
        obs::emit(trace, obs::EventKind::kCounter, labels.warm_start, phase_index,
                  rounds, static_cast<double>(round.net.kernel_stats().bfs_rounds));
      }
      result.stats.flow_bfs_rounds += round.net.kernel_stats().bfs_rounds;
      result.stats.flow_augmenting_paths += round.net.kernel_stats().augmenting_paths;
      // value = attained flow as a fraction of the target F_G = W/s = P; 1.0
      // (within the policy's tolerance) on the round that closes the phase.
      obs::emit(trace, obs::EventKind::kFlowRound, labels.round, phase_index, rounds,
                to_double(flow_value / offered));

      // Target F_G = W / s = P: all source and sink edges saturated.
      if (policy.fits(flow_value, offered)) {
        if (Policy::kCanonicalClose && !canonical) {
          // The resumed flow has the optimal *value* but not necessarily the
          // rebuild path's per-edge split, and the schedule is extracted from
          // per-edge flows. Re-solve from zero on the reused network: dead
          // vertices (sealed source edges, drained intervals) are invisible to
          // Dinic, so this reproduces the fresh-build flow bit for bit.
          Num confirm = round.net.max_flow(round.source, round.sink);
          result.stats.flow_bfs_rounds += round.net.kernel_stats().bfs_rounds;
          result.stats.flow_augmenting_paths +=
              round.net.kernel_stats().augmenting_paths;
          require(confirm == flow_value, labels,
                  "canonical re-solve changed the flow value");
        }
        break;
      }

      std::size_t victim_pos = kNone;
      if (options.paper_rule) {
        // Lemma 4: pick a sink edge (v_j, v_0) with slack, then a job active in
        // I_j whose edge (u_k, v_j) is below capacity; that job is not in J_i.
        for (std::size_t e = 0; e < round.sink_edges.size() && victim_pos == kNone; ++e) {
          if (!policy.sink_has_slack(round.net, round.sink_edges[e])) continue;
          std::size_t j = round.sink_edge_interval[e];
          for (std::size_t pos = 0; pos < candidates.size(); ++pos) {
            const std::size_t bpos = built_pos[pos];
            for (std::size_t idx = 0; idx < round.job_edge_interval[bpos].size(); ++idx) {
              if (round.job_edge_interval[bpos][idx] != j) continue;
              if (policy.job_has_slack(round.net, round.job_edges[bpos][idx])) {
                victim_pos = pos;
              }
              break;  // a job has at most one edge per interval
            }
            if (victim_pos != kNone) break;
          }
        }
        require(victim_pos != kNone, labels,
                "flow below target but no removable job found");
        ++result.stats.candidate_removals;
        obs::emit(trace, obs::EventKind::kCandidateRemoved, labels.removal,
                  phase_index, candidates[victim_pos]);
      } else {
        // Ablated removal (experiment E12): drop a random candidate. Feasibility
        // of the final schedule survives; optimality does not.
        victim_pos = ablation_rng.below(candidates.size());
        ++result.stats.candidate_removals;
        obs::emit(trace, obs::EventKind::kCandidateRemoved, labels.ablated_removal,
                  phase_index, candidates[victim_pos]);
      }

      if (built) {
        // Retract the victim's flow (leaving a feasible flow on the surviving
        // jobs) and seal its source edge so resumed searches cannot refill it.
        const auto edge = round.source_edges[built_pos[victim_pos]];
        Num carried = round.net.flow(edge);
        if (positive(carried)) {
          retracted_units +=
              retract_job_flow(policy, round, built_pos[victim_pos], std::move(carried));
        }
        policy.set_capacity(round.net, edge, Num{});
        built_pos.erase(built_pos.begin() + static_cast<std::ptrdiff_t>(victim_pos));
      }
      ActiveBitmap::mask_clear(candidate_mask, candidates[victim_pos]);
      candidates.erase(candidates.begin() + static_cast<std::ptrdiff_t>(victim_pos));
    }

    // ---- phase found: record it and extend the schedule ----
    policy.close_phase(candidates, speed, reserved, rounds);

    // Per interval: chunks t_kj (flow on (u_k, v_j)), in candidate order, packed
    // onto the reserved processors, which are the lowest-numbered free ones
    // (used_j .. used_j+m_j-1).
    for (std::size_t j = 0; j < interval_count; ++j) {
      if (reserved[j] == 0) continue;
      chunks.clear();
      for (std::size_t pos = 0; pos < candidates.size(); ++pos) {
        const std::size_t bpos = built_pos[pos];
        for (std::size_t idx = 0; idx < round.job_edge_interval[bpos].size(); ++idx) {
          if (round.job_edge_interval[bpos][idx] != j) continue;
          const Num& t = round.net.flow(round.job_edges[bpos][idx]);
          if (positive(t)) chunks.push_back(Chunk{candidates[pos], t});
          break;
        }
      }
      policy.pack(j, used[j], reserved[j], speed, chunks);
      used[j] += reserved[j];
    }
    obs::emit(trace, obs::EventKind::kPhaseEnd, labels.phase, phase_index, rounds,
              to_double(speed));
    rounds_per_phase.record(rounds);
    ++phase_count;

    // Drop the scheduled jobs from the remaining set; the candidate mask holds
    // exactly the phase's jobs at this point, giving an O(1) membership test.
    std::vector<std::size_t> next;
    next.reserve(remaining.size() - candidates.size());
    for (std::size_t job : remaining) {
      if (!ActiveBitmap::mask_test(candidate_mask, job)) next.push_back(job);
    }
    remaining = std::move(next);
  }
  policy.finish();

  result.stats.phases = phase_count;
  result.stats.flow_computations = result.flow_computations;
  result.stats.counters.set("flow.warm_starts", warm_starts);
  result.stats.counters.set("flow.retracted_units", retracted_units);
  result.stats.counters.set("flow.resume_bfs", resume_bfs);
  const Arena::Stats& arena_stats = scratch->stats();
  result.stats.counters.set("mem.arena_bytes", arena_stats.capacity_bytes);
  result.stats.counters.set("mem.arena_reuses", arena_stats.reuses);
  result.stats.counters.set("mem.fallback_allocs",
                            arena_stats.fallback_allocs - arena_fallback_base);
  obs::emit(trace, obs::EventKind::kCounter, labels.arena, arena_stats.capacity_bytes,
            arena_stats.fallback_allocs - arena_fallback_base,
            static_cast<double>(arena_stats.reuses));
  if (!round_us.empty()) result.stats.histograms[labels.round_us] = round_us;
  if (!rounds_per_phase.empty()) {
    result.stats.histograms[labels.rounds_per_phase] = rounds_per_phase;
  }
  if (!resume_bfs_hist.empty()) {
    result.stats.histograms[labels.resume_bfs] = resume_bfs_hist;
  }
  obs::emit(trace, obs::EventKind::kSolveEnd, labels.solve, phase_count,
            result.flow_computations);
  result.stats.wall_seconds = timer.elapsed_seconds();
}

}  // namespace

Q OptimalResult::speed_of_job(std::size_t job) const {
  if (job < job_phase.size()) {
    std::size_t phase = job_phase[job];
    return phase == kNoPhase ? Q(0) : phases[phase].speed;
  }
  // Indices past the instance (or hand-built results without the index): scan.
  for (const PhaseInfo& phase : phases) {
    if (std::find(phase.jobs.begin(), phase.jobs.end(), job) != phase.jobs.end()) {
      return phase.speed;
    }
  }
  return Q(0);  // zero-work jobs belong to no phase
}

OptimalResult optimal_schedule(const Instance& instance) {
  return optimal_schedule(instance, OptimalOptions{});
}

OptimalResult optimal_schedule(const Instance& instance, const OptimalOptions& options,
                               obs::TraceSink* trace) {
  const bool paper_rule =
      options.removal_policy == OptimalOptions::RemovalPolicy::kPaperRule;
  ExactPolicy policy(instance, paper_rule);
  run_phases(policy,
             LoopOptions{options.incremental, paper_rule, options.ablation_seed,
                         options.cancel},
             trace);
  return std::move(policy.result);
}

FastOptimalResult optimal_schedule_fast(const Instance& instance,
                                        const FastOptimalOptions& options,
                                        obs::TraceSink* trace) {
  check_arg(options.epsilon > 0.0 && options.epsilon < kFastEpsilonLimit,
            "optimal_schedule_fast: bad epsilon");
  FastPolicy policy(instance, options.epsilon);
  run_phases(policy, LoopOptions{options.incremental, true, 0, options.cancel}, trace);
  return std::move(policy.result);
}

double optimal_energy(const Instance& instance, const PowerFunction& p) {
  return optimal_schedule(instance).schedule.energy(p);
}

namespace detail {

bool fits_at_speed(const Instance& instance, const Q& speed) {
  ExactPolicy policy(instance, true);
  std::vector<std::size_t> jobs;
  for (std::size_t k = 0; k < instance.size(); ++k) {
    if (positive(policy.work(k))) jobs.push_back(k);
  }
  if (jobs.empty()) return true;

  ScopedArena scratch;
  const std::size_t interval_count = policy.intervals.count();
  ActiveBitmap active = policy.active_bitmap();
  std::span<std::uint64_t> mask = scratch->alloc_array<std::uint64_t>(
      ActiveBitmap::words_for(instance.size()), std::uint64_t{0});
  for (std::size_t job : jobs) ActiveBitmap::mask_set(mask, job);
  std::span<std::size_t> count_active =
      scratch->alloc_array<std::size_t>(interval_count, std::size_t{0});
  std::span<std::size_t> reserved =
      scratch->alloc_array<std::size_t>(interval_count, std::size_t{0});
  for (std::size_t j = 0; j < interval_count; ++j) {
    count_active[j] = active.row_and_popcount(j, mask);
    reserved[j] = std::min(count_active[j], instance.machines());
  }

  RoundNetwork<Q> round =
      build_network(policy, jobs, active, count_active, reserved, speed, *scratch);
  Q demand;  // sum of w_k / speed: every source edge saturated
  for (const auto edge : round.source_edges) demand += round.net.capacity(edge);
  return round.net.max_flow(round.source, round.sink) == demand;
}

}  // namespace detail

}  // namespace mpss
