#pragma once
// Job and problem-instance model (substrate S5, see DESIGN.md).
//
// The paper's setting: n jobs, job J_i = (r_i, d_i, w_i), m identical variable-speed
// processors, preemption + migration allowed, no job ever on two processors at once.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "mpss/core/power.hpp"
#include "mpss/util/rational.hpp"

namespace mpss {

/// One job: must receive `work` units of processing inside [release, deadline).
struct Job {
  Q release;
  Q deadline;
  Q work;

  [[nodiscard]] Q window() const { return deadline - release; }

  /// Density delta_i = w_i / (d_i - r_i), the job's average required speed if it
  /// were spread over its whole window (the quantity AVR balances).
  [[nodiscard]] Q density() const { return work / window(); }

  friend bool operator==(const Job&, const Job&) = default;
};

/// A problem instance: the job sequence sigma = J_1, ..., J_n, the number of
/// processors m, and the power spec energy is measured under (S45). Jobs are
/// addressed by their index in `jobs`. An Instance is a first-class value: it
/// has equality, a stable fingerprint, and a canonical serialized form
/// (core/instance_json.hpp), so the same object is the currency of solve(),
/// the BatchSolver cache, the corpus files, and the wire protocol.
class Instance {
 public:
  /// Validates: machines >= 1; every job has release < deadline and work >= 0.
  /// Throws std::invalid_argument on violation. The default power spec is the
  /// library's P(s) = s^3.
  Instance(std::vector<Job> jobs, std::size_t machines,
           PowerSpec power = PowerSpec{});

  [[nodiscard]] const std::vector<Job>& jobs() const { return jobs_; }
  [[nodiscard]] const Job& job(std::size_t index) const { return jobs_.at(index); }
  [[nodiscard]] std::size_t size() const { return jobs_.size(); }
  [[nodiscard]] std::size_t machines() const { return machines_; }

  [[nodiscard]] Q total_work() const;

  /// Earliest release over all jobs (0 when empty).
  [[nodiscard]] Q horizon_start() const;
  /// Latest deadline over all jobs (0 when empty).
  [[nodiscard]] Q horizon_end() const;

  /// True when every release and deadline is an integer (required by AVR(m), which
  /// operates on unit intervals).
  [[nodiscard]] bool has_integral_times() const;

  /// Returns a copy with all times and works multiplied by the smallest positive
  /// integer that makes every release/deadline integral. Energy scales by a known
  /// factor, but competitive *ratios* are invariant under this rescaling.
  [[nodiscard]] Instance scaled_to_integral_times() const;

  /// Returns a copy with a different machine count (same jobs, same power).
  [[nodiscard]] Instance with_machines(std::size_t machines) const;

  /// The power spec energy is measured under; solve() reports every engine's
  /// energy under it.
  [[nodiscard]] const PowerSpec& power() const { return power_; }

  /// Returns a copy with a different power spec (same jobs, same machines).
  [[nodiscard]] Instance with_power(PowerSpec power) const;

  /// Stable FNV-1a value fingerprint over machines, power spec, and the jobs'
  /// exact rationals (representation-independent: Q is kept canonical). Equal
  /// instances fingerprint equally across processes and releases; the result
  /// cache and the wire protocol key on it.
  [[nodiscard]] std::uint64_t fingerprint() const;

  /// Human-readable one-line summary ("n=12 m=4 horizon=[0,30)").
  [[nodiscard]] std::string summary() const;

  friend bool operator==(const Instance& lhs, const Instance& rhs) {
    return lhs.machines_ == rhs.machines_ && lhs.jobs_ == rhs.jobs_ &&
           lhs.power_ == rhs.power_;
  }

 private:
  std::vector<Job> jobs_;
  std::size_t machines_;
  PowerSpec power_;
};

}  // namespace mpss
