#include "stats.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

Quartiles quartiles(std::vector<double> values) {
  if (values.size() < 2) throw std::invalid_argument("quartiles need two values");
  std::sort(values.begin(), values.end());
  const auto n = static_cast<double>(values.size());
  // Exclusive method: the k-th cut point sits at position k * (n + 1) / 4
  // (1-based), linearly interpolated and clamped to the data.
  auto cut = [&](int k) {
    const double pos = k * (n + 1) / 4.0;
    const double j = std::clamp(std::floor(pos), 1.0, n - 1);
    const double delta = pos - j;
    const double lo = values[static_cast<std::size_t>(j) - 1];
    const double hi = values[static_cast<std::size_t>(j)];
    return lo + (hi - lo) * delta;
  };
  return {cut(1), cut(2), cut(3)};
}

Tail tail(std::vector<double> values, std::size_t min_beyond) {
  Tail out;
  out.samples = values.size();
  if (values.empty()) return out;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  if (n <= min_beyond) {
    out.value = values.back();
    out.percentile = 100.0;
    return out;
  }
  out.beyond = min_beyond;
  out.value = values[n - 1 - min_beyond];
  out.percentile = 100.0 * static_cast<double>(n - min_beyond) / static_cast<double>(n);
  return out;
}

std::vector<double> normalize_paired(std::span<const double> op_ms,
                                     std::span<const double> before_ms,
                                     std::span<const double> after_ms) {
  if (before_ms.size() != op_ms.size() || after_ms.size() != op_ms.size()) {
    throw std::invalid_argument("need one reference pair per op");
  }
  std::vector<double> out;
  out.reserve(op_ms.size());
  for (std::size_t i = 0; i < op_ms.size(); ++i) {
    out.push_back(op_ms[i] / ((before_ms[i] + after_ms[i]) / 2));
  }
  return out;
}

}  // namespace perfbench
