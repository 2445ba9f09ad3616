// Tests for parallel_for (sweep substrate S20).

#include "mpss/util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace mpss {
namespace {

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(1000, [&hits](std::size_t i) { hits[i].fetch_add(1); }, 8);
  for (const auto& hit : hits) EXPECT_EQ(hit.load(), 1);
}

TEST(ParallelFor, ZeroCountIsNoop) {
  parallel_for(0, [](std::size_t) { FAIL() << "body must not run"; }, 4);
}

TEST(ParallelFor, SingleThreadFallback) {
  std::vector<int> order;
  parallel_for(5, [&order](std::size_t i) { order.push_back(static_cast<int>(i)); }, 1);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));  // sequential => in order
}

TEST(ParallelFor, RethrowsFirstException) {
  EXPECT_THROW(
      parallel_for(100, [](std::size_t i) {
        if (i == 37) throw std::logic_error("bad index");
      }, 4),
      std::logic_error);
}

TEST(ParallelFor, ResultMatchesSequentialReduction) {
  std::vector<double> values(500);
  std::iota(values.begin(), values.end(), 1.0);
  std::vector<double> out(500);
  parallel_for(500, [&](std::size_t i) { out[i] = values[i] * values[i]; }, 6);
  double total = std::accumulate(out.begin(), out.end(), 0.0);
  EXPECT_DOUBLE_EQ(total, 500.0 * 501.0 * 1001.0 / 6.0);
}

}  // namespace
}  // namespace mpss
