// FastSchedule measurement helpers and the fast engine's convenience entry
// point. The engine itself is the shared phase/round loop in optimal.cpp,
// instantiated over doubles.

#include "mpss/core/optimal_fast.hpp"

#include <algorithm>
#include <cmath>

namespace mpss {

std::size_t FastSchedule::slice_count() const {
  std::size_t total = 0;
  for (const auto& machine : machines) total += machine.size();
  return total;
}

double FastSchedule::energy(const PowerFunction& p) const {
  double total = 0.0;
  for (const auto& machine : machines) {
    for (const FastSlice& slice : machine) {
      total += p.power(slice.speed) * (slice.end - slice.start);
    }
  }
  return total;
}

double FastSchedule::work_on(std::size_t job) const {
  double total = 0.0;
  for (const auto& machine : machines) {
    for (const FastSlice& slice : machine) {
      if (slice.job == job) total += slice.speed * (slice.end - slice.start);
    }
  }
  return total;
}

double FastSchedule::max_speed() const {
  double best = 0.0;
  for (const auto& machine : machines) {
    for (const FastSlice& slice : machine) best = std::max(best, slice.speed);
  }
  return best;
}

std::size_t count_fast_violations(const Instance& instance,
                                  const FastSchedule& schedule, double tolerance) {
  std::size_t violations = 0;
  for (const auto& machine : schedule.machines) {
    std::vector<FastSlice> sorted = machine;
    std::sort(sorted.begin(), sorted.end(),
              [](const FastSlice& a, const FastSlice& b) { return a.start < b.start; });
    for (std::size_t i = 0; i < sorted.size(); ++i) {
      const FastSlice& slice = sorted[i];
      if (slice.job >= instance.size()) {
        ++violations;
        continue;
      }
      const Job& job = instance.job(slice.job);
      if (slice.start < job.release.to_double() - tolerance ||
          slice.end > job.deadline.to_double() + tolerance) {
        ++violations;
      }
      if (i + 1 < sorted.size() && sorted[i + 1].start < slice.end - tolerance) {
        ++violations;
      }
    }
  }
  for (std::size_t k = 0; k < instance.size(); ++k) {
    double done = schedule.work_on(k);
    double required = instance.job(k).work.to_double();
    if (std::abs(done - required) > tolerance * (1.0 + required)) ++violations;
  }
  return violations;
}

FastOptimalResult optimal_schedule_fast(const Instance& instance, double epsilon,
                                        obs::TraceSink* trace) {
  FastOptimalOptions options;
  options.epsilon = epsilon;
  return optimal_schedule_fast(instance, options, trace);
}

}  // namespace mpss
