// Golden pin of both offline engines' complete output. Every row records, for
// one engine variant on one instance: the energy under P(s) = s^3 as a hex
// double, the slice count, the solve's work counts (phases, flow computations,
// candidate removals, BFS rounds, augmenting paths), a digest of every slice,
// and the phase speeds (exact rationals for the exact engine, hex doubles for
// the fast one). Comparison is exact string equality, so any change to the
// phase/round loop that moves a single floating-point operation, a flow split,
// or a Dinic pass shows up as a diff.
//
// The fast rows assume IEEE double arithmetic without fused multiply-add
// contraction (the x86-64 default). Regenerate after an intentional change by
// running build/tests/test_offline_golden with the flags
//   --gtest_also_run_disabled_tests --gtest_filter='*RegenerateGoldenFile'
// and review the diff of data/golden/offline_engines.csv.

#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "mpss/core/optimal.hpp"
#include "mpss/core/optimal_fast.hpp"
#include "mpss/core/power.hpp"
#include "mpss/util/csv.hpp"
#include "mpss/util/error.hpp"
#include "mpss/util/fnv.hpp"
#include "mpss/workload/generators.hpp"
#include "mpss/workload/traces.hpp"

#ifndef MPSS_DATA_DIR
#error "MPSS_DATA_DIR must point at data/corpus"
#endif
#ifndef MPSS_GOLDEN_FILE
#error "MPSS_GOLDEN_FILE must point at data/golden/offline_engines.csv"
#endif

namespace mpss {
namespace {

const char* const kHeader =
    "variant,instance,energy,slices,phases,flow_computations,candidate_removals,"
    "flow_bfs_rounds,flow_augmenting_paths,digest,speeds";

struct NamedInstance {
  std::string name;
  Instance instance;
};

/// The ten corpus instances plus seeded draws of the serving benchmark's
/// exact_cold (uniform n=64, m=4) and fast_cold (uniform n=128, m=8) families.
std::vector<NamedInstance> golden_instances() {
  std::vector<NamedInstance> out;
  for (const char* name : {"agreeable_m3", "bursty_m4", "fractional_m2", "heavytail_m4",
                           "laminar_m2", "periodic_m2", "stack_m1", "surprise_m2",
                           "uniform_m1", "uniform_m3"}) {
    out.push_back({name, load_instance(std::string(MPSS_DATA_DIR) + "/" + name +
                                       ".instance.csv")});
  }
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    out.push_back({"exact_cold_" + std::to_string(seed),
                   generate_uniform({.jobs = 64, .machines = 4, .horizon = 128,
                                     .max_window = 10, .max_work = 8},
                                    seed)});
  }
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    out.push_back({"fast_cold_" + std::to_string(seed),
                   generate_uniform({.jobs = 128, .machines = 8, .horizon = 256,
                                     .max_window = 16, .max_work = 8},
                                    seed)});
  }
  return out;
}

std::string hex(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%a", value);
  return buffer;
}

std::string hex_digest(std::uint64_t state) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(state));
  return buffer;
}

std::uint64_t fnv_string(std::uint64_t state, const std::string& text) {
  for (char c : text) state = fnv_mix(state, static_cast<std::uint64_t>(c));
  return fnv_mix(state, std::uint64_t{0xff});  // field separator
}

std::string counts(const obs::SolveStats& stats) {
  std::ostringstream out;
  out << stats.phases << ',' << stats.flow_computations << ','
      << stats.candidate_removals << ',' << stats.flow_bfs_rounds << ','
      << stats.flow_augmenting_paths;
  return out.str();
}

std::string exact_row(const std::string& variant, const NamedInstance& named,
                      const OptimalOptions& options) {
  std::optional<OptimalResult> solved;
  try {
    solved = optimal_schedule(named.instance, options);
  } catch (const InternalError&) {
    return variant + ',' + named.name + ",throws";
  }
  const OptimalResult& result = *solved;
  std::uint64_t digest = kFnvOffset;
  for (std::size_t m = 0; m < result.schedule.machines(); ++m) {
    digest = fnv_mix(digest, static_cast<std::uint64_t>(m));
    for (const Slice& slice : result.schedule.machine(m)) {
      digest = fnv_string(digest, slice.start.to_string());
      digest = fnv_string(digest, slice.end.to_string());
      digest = fnv_string(digest, slice.speed.to_string());
      digest = fnv_mix(digest, static_cast<std::uint64_t>(slice.job));
    }
  }
  std::string speeds;
  for (const PhaseInfo& phase : result.phases) {
    if (!speeds.empty()) speeds += ';';
    speeds += phase.speed.to_string();
  }
  return variant + ',' + named.name + ',' +
         hex(result.schedule.energy(AlphaPower(3.0))) + ',' +
         std::to_string(result.schedule.slice_count()) + ',' + counts(result.stats) +
         ',' + hex_digest(digest) + ',' + speeds;
}

std::string fast_row(const std::string& variant, const NamedInstance& named,
                     const FastOptimalOptions& options) {
  FastOptimalResult result = optimal_schedule_fast(named.instance, options);
  std::uint64_t digest = kFnvOffset;
  for (std::size_t m = 0; m < result.schedule.machines.size(); ++m) {
    digest = fnv_mix(digest, static_cast<std::uint64_t>(m));
    for (const FastSlice& slice : result.schedule.machines[m]) {
      digest = fnv_mix(digest, slice.start);
      digest = fnv_mix(digest, slice.end);
      digest = fnv_mix(digest, slice.speed);
      digest = fnv_mix(digest, static_cast<std::uint64_t>(slice.job));
    }
  }
  std::string speeds;
  for (double speed : result.phase_speeds) {
    if (!speeds.empty()) speeds += ';';
    speeds += hex(speed);
  }
  return variant + ',' + named.name + ',' +
         hex(result.schedule.energy(AlphaPower(3.0))) + ',' +
         std::to_string(result.schedule.slice_count()) + ',' + counts(result.stats) +
         ',' + hex_digest(digest) + ',' + speeds;
}

/// Every golden row in file order: per instance, the exact engine warm-started
/// and rebuilt every round, the random-removal ablation, and the fast engine
/// warm-started, rebuilt, and at a loose tolerance.
std::vector<std::string> compute_rows() {
  std::vector<std::string> rows;
  for (const NamedInstance& named : golden_instances()) {
    OptimalOptions exact;
    rows.push_back(exact_row("exact", named, exact));
    exact.incremental = false;
    rows.push_back(exact_row("exact_rebuild", named, exact));
    exact.incremental = true;
    exact.removal_policy = OptimalOptions::RemovalPolicy::kRandomCandidate;
    exact.ablation_seed = 7;
    rows.push_back(exact_row("exact_ablated", named, exact));

    FastOptimalOptions fast;
    rows.push_back(fast_row("fast", named, fast));
    fast.incremental = false;
    rows.push_back(fast_row("fast_rebuild", named, fast));
    fast.incremental = true;
    fast.epsilon = 1e-4;
    rows.push_back(fast_row("fast_loose", named, fast));
  }
  return rows;
}

TEST(OfflineGolden, EnginesReproducePinnedOutputsBitForBit) {
  std::ifstream in(MPSS_GOLDEN_FILE);
  ASSERT_TRUE(static_cast<bool>(in)) << MPSS_GOLDEN_FILE;
  std::string header;
  std::getline(in, header);
  ASSERT_EQ(header, kHeader);
  std::map<std::string, std::string> golden;  // "variant,instance" -> row
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::vector<std::string> fields = parse_csv(line).front();
    ASSERT_GE(fields.size(), 3u) << line;
    golden[fields[0] + ',' + fields[1]] = line;
  }

  std::vector<std::string> rows = compute_rows();
  EXPECT_EQ(rows.size(), golden.size());
  for (const std::string& row : rows) {
    std::vector<std::string> fields = parse_csv(row).front();
    auto it = golden.find(fields[0] + ',' + fields[1]);
    ASSERT_NE(it, golden.end()) << "no golden row for " << fields[0] << ','
                                << fields[1];
    EXPECT_EQ(row, it->second);
  }
}

// Regeneration helper (see the header comment); disabled so ctest never runs it.
TEST(OfflineGolden, DISABLED_RegenerateGoldenFile) {
  std::ofstream out(MPSS_GOLDEN_FILE);
  ASSERT_TRUE(static_cast<bool>(out)) << MPSS_GOLDEN_FILE;
  out << kHeader << '\n';
  for (const std::string& row : compute_rows()) out << row << '\n';
}

}  // namespace
}  // namespace mpss
