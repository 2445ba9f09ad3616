#pragma once
// Log-bucketed histograms of the observability subsystem (S43, see DESIGN.md).
//
// Two flavours over the same fixed bucket layout:
//   * HistogramData -- a plain, copyable value record. Engines keep one per
//     tracked distribution (flow-round duration, rounds per phase, ...) and
//     fold it into SolveStats::histograms once per solve, mirroring how
//     Counters are handled. Not thread-safe; single-owner by design.
//   * Histogram -- the lock-free atomic counterpart living in obs::Registry.
//     Concurrent paths (BatchSolver workers, the executor) record() into it
//     without any lock; record() is a relaxed fetch_add per bucket plus CAS
//     loops for min/max.
//
// Buckets are powers of two: bucket 0 holds the value 0, bucket i >= 1 holds
// [2^(i-1), 2^i). 65 buckets cover the full uint64 range, so record() never
// clips and the layout never needs configuring -- the right trade for latency
// (microseconds) and work counts (rounds, pivots), where relative resolution
// is what matters.

#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>

namespace mpss::obs {

/// Number of log2 buckets: value 0 plus one bucket per bit width 1..64.
inline constexpr std::size_t kHistogramBuckets = 65;

/// Plain (non-atomic) histogram value: fixed log2 buckets plus count/sum and
/// exact min/max. Copyable and mergeable; the unit carried is up to the
/// recorder (the engines use microseconds for durations, raw counts otherwise).
struct HistogramData {
  std::array<std::uint64_t, kHistogramBuckets> buckets{};
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = 0;  // exact; 0 when empty
  std::uint64_t max = 0;

  /// Bucket index of `value`: 0 for 0, else bit_width (1..64).
  [[nodiscard]] static constexpr std::size_t bucket_of(std::uint64_t value) {
    return static_cast<std::size_t>(std::bit_width(value));
  }
  /// Smallest value landing in bucket `i` (0, 1, 2, 4, 8, ...).
  [[nodiscard]] static constexpr std::uint64_t bucket_lower(std::size_t i) {
    return i == 0 ? 0 : std::uint64_t{1} << (i - 1);
  }
  /// Largest value landing in bucket `i`.
  [[nodiscard]] static constexpr std::uint64_t bucket_upper(std::size_t i) {
    if (i == 0) return 0;
    if (i == kHistogramBuckets - 1) return ~std::uint64_t{0};
    return (std::uint64_t{1} << i) - 1;
  }

  void record(std::uint64_t value);
  void merge(const HistogramData& other);
  void clear() { *this = HistogramData{}; }

  [[nodiscard]] bool empty() const { return count == 0; }
  [[nodiscard]] double mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }
  /// Approximate quantile (q in [0, 1]) by linear interpolation inside the
  /// containing bucket, clamped to the exact min/max. Monotone in q.
  [[nodiscard]] std::uint64_t quantile(double q) const;

  friend bool operator==(const HistogramData&, const HistogramData&) = default;
};

/// Lock-free atomic histogram with the same layout. record() is wait-free on
/// the bucket/count/sum path (relaxed fetch_add) plus bounded CAS retries for
/// min/max. snapshot() is statistically consistent, not an atomic cut: counts
/// recorded concurrently may be partially visible, which is fine for telemetry.
class Histogram {
 public:
  Histogram() = default;
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void record(std::uint64_t value);
  /// Adds a whole HistogramData (the per-solve fold into the Registry).
  void merge(const HistogramData& data);
  [[nodiscard]] HistogramData snapshot() const;
  /// Zeroes in place. References handed out by Registry::histogram() stay
  /// valid across reset (entries are never deallocated).
  void reset();

 private:
  std::array<std::atomic<std::uint64_t>, kHistogramBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> min_{~std::uint64_t{0}};
  std::atomic<std::uint64_t> max_{0};
};

/// The standard latency summary derived from the log2 buckets: interpolated
/// p50/p90/p99 (see HistogramData::quantile). One definition shared by the
/// daemon's stats verb, the Prometheus renderer consumers, and mpss_trace's
/// tables, so every surface reports identical numbers for the same data.
struct Percentiles {
  std::uint64_t p50 = 0;
  std::uint64_t p90 = 0;
  std::uint64_t p99 = 0;
};

[[nodiscard]] Percentiles percentiles(const HistogramData& data);

/// Named histogram bag used by SolveStats (ordered for stable table output).
using HistogramMap = std::map<std::string, HistogramData, std::less<>>;

/// Field-wise merge of every named histogram of `other` into `into`.
void merge_histograms(HistogramMap& into, const HistogramMap& other);

/// RAII: records the scope's elapsed wall time, in integral microseconds, into
/// a HistogramData on destruction. The engines wrap one flow round / one plan
/// call with this -- coarse units of work where two clock reads are noise.
class ScopedHistogramTimer {
 public:
  explicit ScopedHistogramTimer(HistogramData& histogram)
      : histogram_(&histogram), start_(std::chrono::steady_clock::now()) {}
  ScopedHistogramTimer(const ScopedHistogramTimer&) = delete;
  ScopedHistogramTimer& operator=(const ScopedHistogramTimer&) = delete;
  ~ScopedHistogramTimer() {
    auto elapsed = std::chrono::steady_clock::now() - start_;
    histogram_->record(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(elapsed).count()));
  }

 private:
  HistogramData* histogram_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace mpss::obs
