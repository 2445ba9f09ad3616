// The unified solve() facade (S41): every engine reachable through one entry
// point, agreeing with the per-engine free functions, reporting predictable
// input problems as statuses instead of exceptions, and carrying telemetry.

#include <gtest/gtest.h>

#include "mpss/core/optimal.hpp"
#include "mpss/core/optimal_fast.hpp"
#include "mpss/lp/lp_baseline.hpp"
#include "mpss/obs/registry.hpp"
#include "mpss/obs/trace.hpp"
#include "mpss/online/avr.hpp"
#include "mpss/online/oa.hpp"
#include "mpss/solve.hpp"
#include "mpss/workload/generators.hpp"

namespace mpss {
namespace {

Instance test_instance() {
  return generate_uniform({.jobs = 10, .machines = 3, .horizon = 20,
                           .max_window = 8, .max_work = 6}, 42);
}

SolveResult run(const Instance& instance, Engine engine,
                const PowerFunction* p = nullptr) {
  SolveOptions options;
  options.engine = engine;
  options.power = p;
  return solve(instance, options);
}

TEST(Solve, NamesAreStable) {
  EXPECT_STREQ(engine_name(Engine::kExact), "exact");
  EXPECT_STREQ(engine_name(Engine::kFast), "fast");
  EXPECT_STREQ(engine_name(Engine::kOa), "oa");
  EXPECT_STREQ(engine_name(Engine::kAvr), "avr");
  EXPECT_STREQ(engine_name(Engine::kLp), "lp");
  EXPECT_STREQ(solve_status_name(SolveStatus::kOk), "ok");
  EXPECT_STREQ(solve_status_name(SolveStatus::kInvalidInstance),
               "invalid_instance");
  EXPECT_STREQ(solve_status_name(SolveStatus::kInvalidOptions),
               "invalid_options");
  EXPECT_STREQ(solve_status_name(SolveStatus::kInfeasible), "infeasible");
  EXPECT_STREQ(solve_status_name(SolveStatus::kUnbounded), "unbounded");
  EXPECT_STREQ(solve_status_name(SolveStatus::kCancelled), "cancelled");
  EXPECT_STREQ(solve_status_name(SolveStatus::kDeadlineExceeded),
               "deadline_exceeded");
}

TEST(Solve, EngineNamesRoundTripThroughTheInverseParser) {
  for (Engine engine : {Engine::kExact, Engine::kFast, Engine::kOa, Engine::kAvr,
                        Engine::kLp}) {
    SCOPED_TRACE(engine_name(engine));
    auto parsed = engine_from_name(engine_name(engine));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, engine);
  }
  // Historical CLI alias.
  ASSERT_TRUE(engine_from_name("opt").has_value());
  EXPECT_EQ(*engine_from_name("opt"), Engine::kExact);
  EXPECT_FALSE(engine_from_name("").has_value());
  EXPECT_FALSE(engine_from_name("EXACT").has_value());
  EXPECT_FALSE(engine_from_name("greedy").has_value());
}

TEST(Solve, StatusNamesRoundTripThroughTheInverseParser) {
  for (SolveStatus status :
       {SolveStatus::kOk, SolveStatus::kInvalidInstance,
        SolveStatus::kInvalidOptions, SolveStatus::kInfeasible,
        SolveStatus::kUnbounded, SolveStatus::kCancelled,
        SolveStatus::kDeadlineExceeded}) {
    SCOPED_TRACE(solve_status_name(status));
    auto parsed = solve_status_from_name(solve_status_name(status));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, status);
  }
  EXPECT_FALSE(solve_status_from_name("failed").has_value());
  EXPECT_FALSE(solve_status_from_name("").has_value());
}

TEST(Solve, ViolationsHelperDispatchesOverScheduleVariants) {
  Instance instance = test_instance();
  // Exact schedule -> exact checker.
  SolveResult exact = run(instance, Engine::kExact);
  ASSERT_TRUE(exact.ok());
  EXPECT_EQ(exact.violations(instance), 0u);
  EXPECT_EQ(exact.violations(instance),
            count_violations(instance, *exact.exact_schedule()));
  // Fast schedule -> tolerance checker.
  SolveResult fast = run(instance, Engine::kFast);
  ASSERT_TRUE(fast.ok());
  EXPECT_EQ(fast.violations(instance), 0u);
  EXPECT_EQ(fast.violations(instance),
            count_fast_violations(instance, *fast.fast_schedule()));
  // No schedule (LP bound, failed solve) -> 0 by definition.
  SolveResult lp = run(instance, Engine::kLp);
  ASSERT_TRUE(lp.ok());
  EXPECT_EQ(lp.violations(instance), 0u);
  SolveOptions bad;
  bad.engine = Engine::kLp;
  bad.lp_grid = 1;
  EXPECT_EQ(solve(instance, bad).violations(instance), 0u);
}

TEST(Solve, ExactEngineReportsNumericSubstrateCounters) {
  SolveResult result = run(test_instance(), Engine::kExact);
  ASSERT_TRUE(result.ok());
  // The exact engine is wall-to-wall Q arithmetic: the small path must carry
  // essentially all of it on a word-sized instance.
  EXPECT_GT(result.stats.counters.value("bigint.small_hits"), 0u);
  EXPECT_GT(result.stats.counters.value("rational.norm_small"), 0u);
  EXPECT_GT(result.stats.counters.value("bigint.small_hits"),
            100 * result.stats.counters.value("bigint.promotions"));
}

TEST(Solve, FacadeTraceKnobWinsOverRegistryDefault) {
  Instance instance = test_instance();
  // SolveOptions::trace wins over the process-wide Registry sink -- the only
  // other level in the (now two-level) precedence chain.
  obs::MemorySink facade_sink, registry_sink;
  obs::Registry::global().attach_sink(&registry_sink);
  SolveOptions options;
  options.engine = Engine::kExact;
  options.trace = &facade_sink;
  ASSERT_TRUE(solve(instance, options).ok());
  obs::Registry::global().attach_sink(nullptr);
  EXPECT_GE(facade_sink.count(obs::EventKind::kSolveStart), 1u);
  EXPECT_EQ(registry_sink.count(obs::EventKind::kSolveStart), 0u);

  // With the knob unset, the Registry default is what the engines see.
  obs::MemorySink fallback_sink;
  obs::Registry::global().attach_sink(&fallback_sink);
  SolveOptions defaulted;
  defaulted.engine = Engine::kAvr;
  ASSERT_TRUE(solve(instance, defaulted).ok());
  obs::Registry::global().attach_sink(nullptr);
  EXPECT_GE(fallback_sink.count(obs::EventKind::kSolveStart), 1u);
}

TEST(Solve, ExactEngineReturnsScheduleAndPhaseTelemetry) {
  Instance instance = test_instance();
  SolveResult result = run(instance, Engine::kExact);
  ASSERT_TRUE(result.ok());
  ASSERT_NE(result.exact_schedule(), nullptr);
  EXPECT_EQ(result.fast_schedule(), nullptr);
  EXPECT_GT(result.energy, 0.0);
  EXPECT_GE(result.stats.phases, 1u);
  EXPECT_GE(result.stats.flow_computations, result.stats.phases);
  EXPECT_GT(result.stats.flow_bfs_rounds, 0u);
  EXPECT_GT(result.stats.wall_seconds, 0.0);
  EXPECT_TRUE(check_schedule(instance, *result.exact_schedule()).feasible);
}

TEST(Solve, FastEngineReturnsFastScheduleMatchingExactStructure) {
  Instance instance = test_instance();
  SolveResult fast = run(instance, Engine::kFast);
  ASSERT_TRUE(fast.ok());
  ASSERT_NE(fast.fast_schedule(), nullptr);
  EXPECT_EQ(fast.exact_schedule(), nullptr);
  EXPECT_GT(fast.energy, 0.0);
  EXPECT_GE(fast.stats.phases, 1u);
  EXPECT_GT(fast.stats.wall_seconds, 0.0);

  // Same algorithm over doubles: phase/round structure agrees with exact here.
  SolveResult exact = run(instance, Engine::kExact);
  EXPECT_EQ(fast.stats.phases, exact.stats.phases);
  EXPECT_EQ(fast.stats.flow_computations, exact.stats.flow_computations);
  EXPECT_NEAR(fast.energy, exact.energy, 1e-6 * exact.energy);
}

TEST(Solve, OaEngineAggregatesInnerSolves) {
  Instance instance = test_instance();
  SolveResult result = run(instance, Engine::kOa);
  ASSERT_TRUE(result.ok());
  ASSERT_NE(result.exact_schedule(), nullptr);
  EXPECT_GE(result.stats.replans, 1u);
  // Inner exact solves merged in: at least one phase per replanning event.
  EXPECT_GE(result.stats.phases, result.stats.replans);
  EXPECT_GE(result.stats.flow_computations, result.stats.phases);
  EXPECT_GT(result.stats.wall_seconds, 0.0);
}

TEST(Solve, AvrEngineReportsPeels) {
  Instance instance = test_instance();
  SolveResult result = run(instance, Engine::kAvr);
  ASSERT_TRUE(result.ok());
  ASSERT_NE(result.exact_schedule(), nullptr);
  EXPECT_GT(result.energy, 0.0);
  EXPECT_GT(result.stats.counters.value("avr.unit_intervals"), 0u);
  EXPECT_GT(result.stats.wall_seconds, 0.0);
}

TEST(Solve, LpEngineIsAScheduleFreeEnergyBound) {
  Instance instance = test_instance();
  SolveResult lp = run(instance, Engine::kLp);
  ASSERT_TRUE(lp.ok());
  EXPECT_EQ(lp.exact_schedule(), nullptr);
  EXPECT_EQ(lp.fast_schedule(), nullptr);
  EXPECT_GT(lp.stats.simplex_pivots, 0u);
  EXPECT_GT(lp.stats.counters.value("lp.variables"), 0u);
  // Discretized-speed LP upper-bounds the true optimum.
  SolveResult exact = run(instance, Engine::kExact);
  EXPECT_GE(lp.energy, exact.energy * (1.0 - 1e-9));
}

TEST(Solve, FacadeEnergyMatchesTheFreeFunctions) {
  Instance instance = test_instance();
  AlphaPower p(2.5);
  EXPECT_DOUBLE_EQ(run(instance, Engine::kExact, &p).energy,
                   optimal_energy(instance, p));
  EXPECT_DOUBLE_EQ(run(instance, Engine::kFast, &p).energy,
                   optimal_schedule_fast(instance).schedule.energy(p));
  EXPECT_DOUBLE_EQ(run(instance, Engine::kOa, &p).energy, oa_energy(instance, p));
  EXPECT_DOUBLE_EQ(run(instance, Engine::kAvr, &p).energy,
                   avr_energy(instance, p));
  EXPECT_DOUBLE_EQ(run(instance, Engine::kLp, &p).energy,
                   lp_baseline(instance, p, 8).energy);
}

TEST(Solve, DefaultPowerIsCube) {
  Instance instance = test_instance();
  AlphaPower cube(3.0);
  EXPECT_DOUBLE_EQ(run(instance, Engine::kExact).energy,
                   run(instance, Engine::kExact, &cube).energy);
}

TEST(Solve, PredictableInputProblemsBecomeStatusesNotThrows) {
  // AVR requires integral release/deadline times.
  Instance fractional(std::vector<Job>{Job{Q(1, 2), Q(3, 2), Q(1)}}, 1);
  SolveOptions avr;
  avr.engine = Engine::kAvr;
  SolveResult rejected = solve(fractional, avr);
  EXPECT_EQ(rejected.status, SolveStatus::kInvalidInstance);
  EXPECT_FALSE(rejected.ok());
  EXPECT_FALSE(rejected.error_detail.empty());
  EXPECT_EQ(rejected.energy, 0.0);
  EXPECT_EQ(rejected.exact_schedule(), nullptr);

  // The LP grid needs at least two speed levels -- an options problem, caught
  // by SolveOptions::validate() before any engine runs.
  SolveOptions lp;
  lp.engine = Engine::kLp;
  lp.lp_grid = 1;
  SolveResult bad_grid = solve(test_instance(), lp);
  EXPECT_EQ(bad_grid.status, SolveStatus::kInvalidOptions);
  EXPECT_FALSE(bad_grid.error_detail.empty());
}

TEST(Solve, InvalidKnobsBecomeStatusesNotThrows) {
  Instance instance = test_instance();
  {
    SolveOptions options;
    options.lp_grid = 1;
    ASSERT_TRUE(options.validate().has_value());
    SolveResult result = solve(instance, options);
    EXPECT_EQ(result.status, SolveStatus::kInvalidOptions);
    EXPECT_FALSE(result.error_detail.empty());
  }
  {
    SolveOptions options;
    options.fast_epsilon = 0.0;
    ASSERT_TRUE(options.validate().has_value());
    EXPECT_EQ(solve(instance, options).status, SolveStatus::kInvalidOptions);
  }
  {
    SolveOptions options;
    options.fast_epsilon = -1e-9;
    EXPECT_EQ(solve(instance, options).status, SolveStatus::kInvalidOptions);
  }
  // At or above kFastEpsilonLimit the fast engine itself would reject the
  // tolerance; validate() must catch it first, as an options problem.
  for (double epsilon : {0.1, 1e308}) {
    SolveOptions options;
    options.engine = Engine::kFast;
    options.fast_epsilon = epsilon;
    ASSERT_TRUE(options.validate().has_value()) << epsilon;
    EXPECT_EQ(solve(instance, options).status, SolveStatus::kInvalidOptions) << epsilon;
  }
  {
    SolveOptions options;
    options.lp_max_speed_hint = -1.0;
    EXPECT_EQ(solve(instance, options).status, SolveStatus::kInvalidOptions);
  }
  // Defaults validate clean.
  EXPECT_FALSE(SolveOptions{}.validate().has_value());
}

TEST(Solve, LpGridTooLowForTheInstanceIsInfeasible) {
  // Force an absurdly low top speed: the grid cannot carry the workload.
  SolveOptions options;
  options.engine = Engine::kLp;
  options.lp_max_speed_hint = 1e-6;
  SolveResult result = solve(test_instance(), options);
  EXPECT_EQ(result.status, SolveStatus::kInfeasible);
  EXPECT_FALSE(result.error_detail.empty());
}

TEST(Solve, TraceSinkInOptionsSeesTheEngineRun) {
  Instance instance = test_instance();
  for (Engine engine : {Engine::kExact, Engine::kFast, Engine::kOa, Engine::kAvr,
                        Engine::kLp}) {
    SCOPED_TRACE(engine_name(engine));
    obs::MemorySink sink;
    SolveOptions options;
    options.engine = engine;
    options.trace = &sink;
    SolveResult result = solve(instance, options);
    ASSERT_TRUE(result.ok());
    EXPECT_GE(sink.count(obs::EventKind::kSolveStart), 1u);
    EXPECT_GE(sink.count(obs::EventKind::kSolveEnd), 1u);
  }
}

}  // namespace
}  // namespace mpss
