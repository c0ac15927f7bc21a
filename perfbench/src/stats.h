// Summary statistics the benchmark reports: medians, the tail rule,
// quartiles, reference-unit normalization and failure accounting.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace perfbench {

/// Median of `values` (mean of the middle two for an even count); 0 when
/// empty.
double median(std::vector<double> values);

/// Quartiles as Python's statistics.quantiles(values, n=4) computes them
/// (the default "exclusive" method). Needs at least two values.
struct Quartiles {
  double q1 = 0;
  double q2 = 0;
  double q3 = 0;
};
Quartiles quartiles(std::vector<double> values);

/// The tail rule: the highest percentile that still has at least
/// `min_beyond` samples strictly above its rank. With n samples sorted
/// ascending that is the sample at index n - 1 - min_beyond, whose
/// percentile is 100 * (n - min_beyond) / n. With too few samples for the
/// rule, the maximum is reported with `beyond` = 0 and percentile 100.
struct Tail {
  double value = 0;
  double percentile = 0;
  std::size_t beyond = 0;   // samples above the reported one
  std::size_t samples = 0;  // n
};
Tail tail(std::vector<double> values, std::size_t min_beyond = 10);

/// Paired normalization: op i ran between reference samples before[i] and
/// after[i], so its cost in reference units is
/// op[i] / ((before[i] + after[i]) / 2). All three spans have one entry
/// per op.
std::vector<double> normalize_paired(std::span<const double> op_ms,
                                     std::span<const double> before_ms,
                                     std::span<const double> after_ms);

/// Failed ops as a share of attempted ops (0 when nothing was attempted).
struct FailureCount {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void record(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  double fail_frac() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(failed) /
                                static_cast<double>(attempted);
  }
};

}  // namespace perfbench
