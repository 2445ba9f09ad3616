#pragma once
// Canonical (instance, options) fingerprint for the BatchSolver result cache
// (S44, see DESIGN.md).
//
// Two solve() calls with equal fingerprints must produce equal results, so the
// fingerprint folds in everything a result depends on: the instance's value
// fingerprint (normalized jobs, machine count, power spec -- Instance::
// fingerprint), the engine, and every engine knob that shapes the output.
// Execution context that does NOT change the result -- the trace sink, the
// cancel token -- is deliberately excluded.

#include <cstdint>

#include "mpss/core/job.hpp"
#include "mpss/solve.hpp"

namespace mpss {

/// FNV-1a fingerprint of the solve. Every (instance, options) pair has one:
/// the power is the instance's serializable spec, never an opaque callable.
[[nodiscard]] std::uint64_t solve_fingerprint(const Instance& instance,
                                              const SolveOptions& options);

}  // namespace mpss
