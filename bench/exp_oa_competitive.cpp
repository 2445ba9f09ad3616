// Experiment E2 (Theorem 2): OA(m) is alpha^alpha-competitive.
//
// Sweeps (alpha, m) over a seed batch of bursty workloads -- the regime where
// OA pays for its lack of clairvoyance -- and reports empirical ratio statistics
// against the proven bound. The (cell, seed) grid fans out through a
// BatchSolver: every ratio is two service requests (OA and exact), and the
// grid's > 256 submissions deliberately exceed the default admission queue so
// the blocking-submit backpressure path sees real traffic.

#include <future>
#include <iostream>
#include <vector>

#include "exp_common.hpp"
#include "mpss/core/optimal.hpp"
#include "mpss/online/bounds.hpp"
#include "mpss/online/oa.hpp"
#include "mpss/service/batch_solver.hpp"
#include "mpss/util/stats.hpp"
#include "mpss/workload/generators.hpp"

int main(int argc, char** argv) {
  using namespace mpss;
  CliArgs args(argc, argv, {"quick", "seeds"});
  const bool quick = args.get_bool("quick", false);
  const auto seeds = static_cast<std::uint64_t>(args.get_int("seeds", quick ? 4 : 12));

  exp::banner("E2: OA(m) competitiveness (Theorem 2)",
              "Claim: E_OA(m) <= alpha^alpha * E_OPT for every instance; the "
              "multi-processor ratio matches the single-processor one.");

  const std::vector<double> alphas{1.25, 1.5, 2.0, 2.5, 3.0};
  const std::vector<std::size_t> machine_counts{1, 2, 4, 8};

  struct Cell {
    double alpha;
    std::size_t machines;
    RunningStats ratio;
    bool within_bound = true;
  };
  std::vector<Cell> cells;
  for (double alpha : alphas) {
    for (std::size_t m : machine_counts) cells.push_back({alpha, m, {}, true});
  }

  BatchSolver service;
  struct PendingRatio {
    std::size_t cell;
    Submission online;
    Submission opt;
  };
  std::vector<PendingRatio> pending;
  pending.reserve(cells.size() * seeds);
  for (std::size_t index = 0; index < cells.size(); ++index) {
    const Cell& cell = cells[index];
    for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
      // The cell's alpha travels on the instance: solve() measures energy
      // under the instance's PowerSpec.
      Instance instance =
          generate_surprise({.jobs = 12, .machines = cell.machines, .horizon = 24,
                             .max_work = 6, .urgent_window = 3}, seed)
              .with_power(PowerSpec::alpha(cell.alpha));
      SolveOptions online;
      online.engine = Engine::kOa;
      SolveOptions opt;
      opt.engine = Engine::kExact;
      Submission online_run = service.submit({instance, online});
      Submission opt_run = service.submit({std::move(instance), opt});
      pending.push_back({index, std::move(online_run), std::move(opt_run)});
    }
  }
  for (PendingRatio& entry : pending) {
    Cell& cell = cells[entry.cell];
    double bound = oa_competitive_bound(cell.alpha);
    double ratio =
        entry.online.future.get().energy / entry.opt.future.get().energy;
    cell.ratio.add(ratio);
    cell.within_bound &= ratio <= bound + 1e-9 && ratio >= 1.0 - 1e-9;
  }

  Table table({"alpha", "m", "ratio mean", "ratio max", "bound a^a", "inside"});
  bool all_ok = true;
  for (const Cell& cell : cells) {
    all_ok &= cell.within_bound;
    table.row(cell.alpha, cell.machines, cell.ratio.mean(), cell.ratio.max(),
              oa_competitive_bound(cell.alpha),
              cell.within_bound ? std::string("yes") : std::string("NO"));
  }
  table.print(std::cout);

  std::cout << "\nsurprise-arrival stress (single machine, adversarial stack):\n";
  Table stress({"n", "alpha", "OA ratio", "bound"});
  for (std::size_t n : {4u, 8u, 16u}) {
    for (double alpha : {2.0, 3.0}) {
      AlphaPower p(alpha);
      Instance instance = generate_avr_adversary(n, 1);
      double ratio = oa_energy(instance, p) / optimal_energy(instance, p);
      all_ok &= ratio <= oa_competitive_bound(alpha) + 1e-9;
      stress.row(n, alpha, ratio, oa_competitive_bound(alpha));
    }
  }
  stress.print(std::cout);

  exp::verdict(all_ok, "Theorem 2 reproduced: every measured OA(m) ratio lies in "
                       "[1, alpha^alpha], across alpha, m and adversarial inputs.");
  return all_ok ? 0 : 1;
}
