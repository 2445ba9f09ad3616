#pragma once
// Speed-bounded processors (extension S29; the related-work regime of refs
// [3, 7, 10] of the paper, where processors have a maximum speed and feasibility
// is no longer free).
//
// Three primitives:
//   * feasible_with_cap  -- can the instance be finished at all if no processor
//     may exceed `cap`? Decided exactly by one max-flow on the offline engine's
//     own network G(J, m, cap) (job -> interval edges bounded by |I_j|,
//     interval -> sink by min(n_j, m) * |I_j|, source -> job by w_k / cap).
//   * minimal_peak_speed -- the smallest cap that keeps the instance feasible.
//     This equals the first phase speed s_1 of the optimal schedule (the densest
//     set's forced average speed); the test suite verifies that identity against
//     the flow oracle via exact binary search.
//   * schedule_with_cap  -- the energy-optimal schedule among those respecting
//     the cap, when one exists. Because the unconstrained optimum already
//     minimizes the peak speed (s_1 is forced), it IS the answer whenever the
//     instance is feasible; otherwise std::invalid_argument.

#include "mpss/core/job.hpp"
#include "mpss/core/optimal.hpp"
#include "mpss/util/rational.hpp"

namespace mpss {

/// Exact feasibility of `instance` when every processor speed is capped at `cap`
/// (cap > 0). One rational max-flow.
[[nodiscard]] bool feasible_with_cap(const Instance& instance, const Q& cap);

/// The smallest speed cap under which the instance stays feasible (0 for
/// zero-work instances). Equals the top speed of the optimal schedule.
[[nodiscard]] Q minimal_peak_speed(const Instance& instance);

/// Energy-optimal schedule subject to the cap; throws std::invalid_argument when
/// the instance is infeasible under `cap`.
[[nodiscard]] OptimalResult schedule_with_cap(const Instance& instance, const Q& cap);

}  // namespace mpss
