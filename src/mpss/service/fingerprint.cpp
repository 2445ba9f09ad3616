#include "mpss/service/fingerprint.hpp"

#include "mpss/util/fnv.hpp"

namespace mpss {

std::optional<std::uint64_t> solve_fingerprint(const Instance& instance,
                                               const SolveOptions& options) {
  // The power that actually measures the result: an explicit options.power
  // overrides the instance's spec (mirroring solve()'s resolution). Only a
  // custom PowerFunction without a stable identity makes the pair uncacheable;
  // a spec always has one.
  std::uint64_t power_fp;
  if (options.power == nullptr) {
    power_fp = instance.power().fingerprint();
  } else {
    power_fp = options.power->fingerprint();
    if (power_fp == 0) return std::nullopt;  // no stable identity: uncacheable
  }

  std::uint64_t state = fnv_mix(kFnvOffset, std::uint64_t{0x5eab});
  state = fnv_mix(state, static_cast<std::uint64_t>(options.engine));
  state = fnv_mix(state, power_fp);

  // Engine knobs that shape the result. Knobs of engines other than the
  // selected one are folded in too -- simpler, and distinct options structs
  // simply hash apart.
  state = fnv_mix(state, static_cast<std::uint64_t>(options.exact.removal_policy));
  state = fnv_mix(state, options.exact.ablation_seed);
  state = fnv_mix(state, static_cast<std::uint64_t>(options.exact.incremental));
  state = fnv_mix(state, options.fast_epsilon);
  state = fnv_mix(state, static_cast<std::uint64_t>(options.avr.enable_peeling));
  state = fnv_mix(state, static_cast<std::uint64_t>(options.lp_grid));
  state = fnv_mix(state, options.lp_max_speed_hint);

  // The instance's own value fingerprint folds in machines, the power spec,
  // and every job rational (core/job.cpp) -- the codec-shared identity.
  state = fnv_mix(state, instance.fingerprint());
  return state;
}

}  // namespace mpss
