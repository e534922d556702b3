#pragma once
/// \file stats.hpp
/// Rank statistics for the benchmark's samples.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace hsrbench {

/// Nearest-rank percentile: the smallest sample such that at least `p`
/// percent of the samples are <= it, i.e. sorted[ceil(p/100 * n) - 1]
/// (p in (0, 100]; p <= 0 gives the minimum). Always one of the samples;
/// 0 for an empty input.
template <typename T>
double percentile(std::vector<T> xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double n = static_cast<double>(xs.size());
  // The small tolerance keeps p/100*n from landing just above an integer
  // through rounding (e.g. 0.29 * 100).
  const double rank = std::ceil(p / 100.0 * n - 1e-9);
  const auto i = static_cast<std::size_t>(std::clamp(rank, 1.0, n)) - 1;
  return static_cast<double>(xs[i]);
}

template <typename T>
double median(std::vector<T> xs) {
  return percentile(std::move(xs), 50.0);
}

/// Tail of a run's samples that a slow spell of the host moves less than
/// it moves the run's own percentile: cut the samples, in the order they
/// were taken, into `windows` consecutive windows of (nearly) equal size,
/// take each window's nearest-rank `p`-th percentile, and return the
/// median of those. With fewer samples than windows, each sample is a
/// window.
template <typename T>
double windowed_percentile(const std::vector<T>& xs, double p, std::size_t windows) {
  const std::size_t n = xs.size();
  const std::size_t w = std::max<std::size_t>(1, std::min(windows, n));
  const auto at = [&](std::size_t k) {
    return xs.begin() + static_cast<std::ptrdiff_t>(k * n / w);
  };
  std::vector<double> tails;
  for (std::size_t i = 0; i < w && n > 0; ++i) {
    tails.push_back(percentile(std::vector<T>(at(i), at(i + 1)), p));
  }
  return median(std::move(tails));
}

/// Operations per second of a run, in the same spirit: cut the run's
/// operations, given by their completion times in seconds from the start
/// of the run (ascending), into `windows` consecutive windows of (nearly)
/// equal count, take each window's count over the time it spanned (from
/// the previous window's last completion, or the start), and return the
/// median of those rates. A stall of a few seconds then slows one window,
/// where it would slow the run's mean rate by all of its length.
inline double windowed_rate(const std::vector<double>& done_s, std::size_t windows) {
  const std::size_t n = done_s.size();
  const std::size_t w = std::max<std::size_t>(1, std::min(windows, n));
  std::vector<double> rates;
  for (std::size_t i = 0; i < w && n > 0; ++i) {
    const std::size_t a = i * n / w, b = (i + 1) * n / w;
    const double span = done_s[b - 1] - (a == 0 ? 0.0 : done_s[a - 1]);
    rates.push_back(span > 0 ? static_cast<double>(b - a) / span : 0.0);
  }
  return median(std::move(rates));
}

/// The windows latency_p90_ms and throughput_per_s are taken over
/// (windowed_percentile, windowed_rate).
constexpr std::size_t kTailWindows = 10;

}  // namespace hsrbench
