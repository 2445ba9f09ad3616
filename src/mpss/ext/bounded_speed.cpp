#include "mpss/ext/bounded_speed.hpp"

#include "mpss/util/error.hpp"

namespace mpss {

bool feasible_with_cap(const Instance& instance, const Q& cap) {
  check_arg(cap.sign() > 0, "feasible_with_cap: cap must be positive");
  // The offline engine's network at uniform speed `cap`. Its min(n_j, m) sink
  // capacities bind no tighter than m: the n_j job edges into v_j carry at most
  // |I_j| each.
  return detail::fits_at_speed(instance, cap);
}

Q minimal_peak_speed(const Instance& instance) {
  // The densest set J_1 is forced to average speed s_1 (Lemmas 3-5); any lower
  // cap leaves it unfinishable, and the optimal schedule witnesses feasibility at
  // exactly s_1.
  auto result = optimal_schedule(instance);
  if (result.phases.empty()) return Q(0);
  return result.phases.front().speed;
}

OptimalResult schedule_with_cap(const Instance& instance, const Q& cap) {
  check_arg(cap.sign() > 0, "schedule_with_cap: cap must be positive");
  OptimalResult result = optimal_schedule(instance);
  if (!result.phases.empty() && cap < result.phases.front().speed) {
    throw std::invalid_argument(
        "schedule_with_cap: instance infeasible under the speed cap (needs " +
        result.phases.front().speed.to_string() + ")");
  }
  return result;
}

}  // namespace mpss
