#pragma once
/// \file schedule.hpp
/// Open-loop load generation: an arrival list fixed before the run, sent
/// on schedule by one generator thread regardless of how fast replies come
/// back.
///
/// Every request has a *due* time fixed before the run starts. Latency is
/// measured from the due time, not from the moment the request was handed
/// to the server, so a stall (in the server or in the generator itself)
/// is charged to every request it delays. How late the generator sent
/// each request is recorded separately.

#include <cstdint>
#include <vector>

namespace hsrbench {

/// Evenly spaced arrivals at `rate_per_s` over [0, seconds): due offsets
/// i / rate in nanoseconds, ascending. (Evenly spaced rather than Poisson:
/// at the run lengths the benchmark affords, random bursts would dominate
/// the run-to-run spread of the tail latency.)
std::vector<std::int64_t> even_arrivals(double rate_per_s, double seconds);

/// One open-loop pass over an arrival list.
class OpenLoop {
 public:
  explicit OpenLoop(std::vector<std::int64_t> due_offsets_ns);

  /// On the calling thread: for each request i in order, wait until its
  /// due time, then call send(i). `start_ns` (trace::now_ns clock) is the
  /// due time of offset 0. send must not block on replies.
  template <typename Send>
  void run(std::int64_t start_ns, Send&& send) {
    start_ns_ = start_ns;
    for (std::size_t i = 0; i < due_.size(); ++i) {
      const std::int64_t due = start_ns_ + due_[i];
      sleep_until(due);
      sent_[i] = now();
      send(i);
    }
  }

  /// Record that request i completed now. Called once per request, from
  /// any thread; each slot has a single writer.
  void complete(std::size_t i) noexcept { done_[i] = now(); }

  std::size_t size() const noexcept { return due_.size(); }
  std::int64_t due_ns(std::size_t i) const noexcept { return start_ns_ + due_[i]; }
  std::int64_t sent_ns(std::size_t i) const noexcept { return sent_[i]; }
  bool completed(std::size_t i) const noexcept { return done_[i] != kNotDone; }
  /// Completion minus due time (valid once completed(i)).
  std::int64_t latency_ns(std::size_t i) const noexcept { return done_[i] - due_ns(i); }
  /// Send minus due time: how late the generator ran (>= 0).
  std::int64_t lateness_ns(std::size_t i) const noexcept { return sent_[i] - due_ns(i); }

 private:
  static constexpr std::int64_t kNotDone = INT64_MIN;
  static std::int64_t now() noexcept;
  static void sleep_until(std::int64_t t_ns);

  std::vector<std::int64_t> due_;
  std::vector<std::int64_t> sent_;
  std::vector<std::int64_t> done_;
  std::int64_t start_ns_{0};
};

}  // namespace hsrbench
