#pragma once
// parallel_for sweep helper (substrate S20).
//
// The experiment harnesses sweep (alpha, m, seed) grids where each cell runs an
// exact-arithmetic scheduler; cells are independent, so a work-stealing-free
// loop over an atomic index is all that's needed. Exceptions thrown by the body
// are captured and rethrown on the calling thread. (Services that need a
// queue -- BatchSolver -- own their worker threads directly.)

#include <cstddef>
#include <functional>

namespace mpss {

/// Runs body(i) for i in [0, count) across `threads` workers (0 = hardware
/// concurrency). Blocks until done; rethrows the first task exception.
void parallel_for(std::size_t count, const std::function<void(std::size_t)>& body,
                  std::size_t threads = 0);

}  // namespace mpss
