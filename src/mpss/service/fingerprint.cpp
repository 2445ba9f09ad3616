#include "mpss/service/fingerprint.hpp"

#include "mpss/util/fnv.hpp"

namespace mpss {

std::uint64_t solve_fingerprint(const Instance& instance,
                                const SolveOptions& options) {
  std::uint64_t state = fnv_mix(kFnvOffset, std::uint64_t{0x5eab});
  state = fnv_mix(state, static_cast<std::uint64_t>(options.engine));

  // Engine knobs that shape the result. Knobs of engines other than the
  // selected one are folded in too -- simpler, and distinct options structs
  // simply hash apart.
  state = fnv_mix(state, options.fast_epsilon);
  state = fnv_mix(state, static_cast<std::uint64_t>(options.avr.enable_peeling));
  state = fnv_mix(state, static_cast<std::uint64_t>(options.lp_grid));
  state = fnv_mix(state, options.lp_max_speed_hint);

  // The instance's own value fingerprint folds in machines, the power spec,
  // and every job rational (core/job.cpp) -- the codec-shared identity.
  return fnv_mix(state, instance.fingerprint());
}

}  // namespace mpss
