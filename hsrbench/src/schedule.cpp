#include "schedule.hpp"

#include <chrono>
#include <cmath>
#include <thread>

#include "trace.hpp"

namespace hsrbench {

std::vector<std::int64_t> even_arrivals(double rate_per_s, double seconds) {
  std::vector<std::int64_t> due;
  if (rate_per_s <= 0 || seconds <= 0) return due;
  const auto n = static_cast<std::size_t>(std::ceil(rate_per_s * seconds));
  for (std::size_t i = 0; i < n; ++i) {
    due.push_back(static_cast<std::int64_t>(static_cast<double>(i) * 1e9 / rate_per_s));
  }
  return due;
}

OpenLoop::OpenLoop(std::vector<std::int64_t> due_offsets_ns)
    : due_(std::move(due_offsets_ns)), sent_(due_.size(), 0), done_(due_.size(), kNotDone) {}

std::int64_t OpenLoop::now() noexcept { return trace::now_ns(); }

void OpenLoop::sleep_until(std::int64_t t_ns) {
  // Sleep to within ~0.2 ms, then yield-spin: plain sleeps overshoot by
  // tens of microseconds, which would show up as generator lateness.
  for (;;) {
    const std::int64_t left = t_ns - now();
    if (left <= 0) return;
    if (left > 200'000) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(left - 150'000));
    } else {
      std::this_thread::yield();
    }
  }
}

}  // namespace hsrbench
