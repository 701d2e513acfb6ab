// Order statistics the benchmark reports: quartiles computed the way
// Python's statistics.quantiles(values, n=4) computes them (the "exclusive"
// method), so in-run spreads read the same as a harness comparing runs; the
// tail rank (the highest percentile with at least ten samples beyond it);
// and the quartile spread as a share of the median.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

namespace wpbench {

struct Quartiles {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
  // (q3 - q1) / median; 0 when the median is 0.
  double spread() const { return median != 0.0 ? (q3 - q1) / median : 0.0; }
};

// Quartiles of `values` (any order). One value gives that value thrice; an
// empty input gives zeros.
inline Quartiles quartiles(std::vector<double> values) {
  Quartiles out;
  const std::size_t n = values.size();
  if (n == 0) {
    return out;
  }
  std::sort(values.begin(), values.end());
  if (n == 1) {
    out.q1 = out.median = out.q3 = values[0];
    return out;
  }
  // statistics.quantiles, method="exclusive": the i-th of 4 cut points sits
  // at 1-based position i*(n+1)/4, clamped to [1, n-1], interpolated.
  const std::size_t m = n + 1;
  double cut[3] = {};
  for (std::size_t i = 1; i <= 3; ++i) {
    std::size_t j = i * m / 4;
    j = std::clamp<std::size_t>(j, 1, n - 1);
    const double delta =
        static_cast<double>(i * m) - static_cast<double>(j * 4);
    cut[i - 1] = (values[j - 1] * (4.0 - delta) + values[j] * delta) / 4.0;
  }
  out.q1 = cut[0];
  out.median = cut[1];
  out.q3 = cut[2];
  return out;
}

// The highest nearest-rank percentile that leaves at least `beyond` samples
// above its rank. With n <= beyond samples no percentile qualifies; the
// maximum is returned at percentile 100 with samples_beyond < beyond, so the
// caller can print how thin the tail is.
struct TailRank {
  double value = 0.0;
  double percentile = 0.0;     // 100 * rank / n
  std::size_t samples = 0;     // n
  std::size_t samples_beyond = 0;
};

inline TailRank tail_rank(std::vector<double> values,
                          std::size_t beyond = 10) {
  TailRank out;
  out.samples = values.size();
  if (values.empty()) {
    return out;
  }
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  const std::size_t rank = n > beyond ? n - beyond : n;  // 1-based
  out.value = values[rank - 1];
  out.percentile = 100.0 * static_cast<double>(rank) / static_cast<double>(n);
  out.samples_beyond = n - rank;
  return out;
}

}  // namespace wpbench
