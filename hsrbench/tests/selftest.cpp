/// Self-tests of the benchmark's own machinery: the nearest-rank
/// percentile rule and its windowed median, the windowed rate, the seeded open-loop schedule
/// with due-time latency and generator lateness, span recording, and
/// self-time computation on nested and overlapping spans. Exit status 0 when every check passes.

#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "schedule.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace {

int g_failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::cerr << "FAIL: " << what << "\n";
  }
}

using hsrbench::trace::Event;

Event ev(std::uint64_t id, std::uint64_t parent, const char* layer, std::int64_t b,
         std::int64_t e) {
  return Event{id, parent, 1, layer, "x", b, e};
}

void test_percentile() {
  using hsrbench::percentile;
  const std::vector<int> xs = {40, 15, 50, 35, 20};  // unsorted on purpose
  check(percentile(xs, 5) == 15, "p5 of 5 samples is the smallest");
  check(percentile(xs, 30) == 20, "p30 -> rank ceil(1.5) = 2");
  check(percentile(xs, 40) == 20, "p40 -> rank 2 exactly");
  check(percentile(xs, 50) == 35, "p50 -> rank ceil(2.5) = 3");
  check(percentile(xs, 100) == 50, "p100 is the largest");
  check(percentile(xs, 0) == 15, "p0 clamps to the smallest");
  check(percentile(std::vector<int>{7}, 99) == 7, "one sample");
  check(percentile(std::vector<int>{}, 50) == 0, "no samples");
  std::vector<int> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  check(percentile(hundred, 95) == 95, "p95 of 1..100");
  check(percentile(hundred, 99) == 99, "p99 of 1..100");
  check(hsrbench::median(std::vector<double>{3.0, 1.0, 2.0, 4.0}) == 2.0,
        "median of an even count is the lower middle sample");
}

void test_windowed_percentile() {
  using hsrbench::windowed_percentile;
  // 0..99 in ten windows of ten: the window p90s are 8, 18, ..., 98 and
  // their (lower) median is 48.
  std::vector<int> ramp;
  for (int i = 0; i < 100; ++i) ramp.push_back(i);
  check(windowed_percentile(ramp, 90, 10) == 48, "median of the window p90s of a ramp");
  // A slow spell confined to two windows leaves the result unchanged,
  // where the run's own p90 jumps to the spell.
  std::vector<int> spell(100, 10);
  for (int i = 30; i < 50; ++i) spell[i] = 1000;
  check(hsrbench::percentile(spell, 90) == 1000, "a 20% spell is the run's p90");
  check(windowed_percentile(spell, 90, 10) == 10, "the spell moves two windows of ten");
  check(windowed_percentile(std::vector<int>{5, 1, 3}, 90, 10) == 3,
        "fewer samples than windows: the median sample");
  check(windowed_percentile(std::vector<int>{}, 90, 10) == 0, "no samples");
  std::vector<int> uneven(25, 1);
  uneven.back() = 7;
  check(windowed_percentile(uneven, 100, 4) == 1, "windows of 6, 6, 6 and 7 samples");
}

void test_windowed_rate() {
  using hsrbench::windowed_rate;
  // 100 operations, one every 0.1 s, with a 5 s stall before the 35th:
  // the mean rate halves, the windowed rate stays at 10 per second.
  std::vector<double> done;
  for (int i = 0; i < 100; ++i) done.push_back(0.1 * (i + 1) + (i >= 34 ? 5.0 : 0.0));
  check(100 / done.back() < 6.7, "the stall drags the mean rate");
  const double r = windowed_rate(done, 10);
  check(r > 9.99 && r < 10.01, "the stall moves one window of ten");
  check(windowed_rate({}, 10) == 0, "no operations");
  const double one = windowed_rate({0.5}, 10);
  check(one > 1.99 && one < 2.01, "one operation: one over its completion time");
}

void test_schedule() {
  using hsrbench::even_arrivals;
  const auto a = even_arrivals(40, 10);
  check(a.size() == 400, "rate x seconds arrivals");
  check(a.front() == 0 && a[1] == 25'000'000 && a.back() == 399 * 25'000'000LL,
        "arrivals every 1/rate from 0");
  check(even_arrivals(40, 10) == a, "the schedule is fixed by its arguments");
  check(even_arrivals(3, 1.1).size() == 4, "partial interval: arrivals at 0, 1/3, 2/3 and 1 s");
  check(even_arrivals(0, 10).empty(), "zero rate sends nothing");
}

void test_open_loop() {
  using namespace std::chrono_literals;
  // Three requests due 0, 20 and 40 ms after start. Sending the first
  // stalls the generator for 60 ms; each request completes as it is sent.
  hsrbench::OpenLoop loop({0, 20'000'000, 40'000'000});
  const std::int64_t start = hsrbench::trace::now_ns();
  loop.run(start, [&](std::size_t i) {
    if (i == 0) std::this_thread::sleep_for(60ms);
    loop.complete(i);
  });
  for (std::size_t i = 0; i < loop.size(); ++i) check(loop.completed(i), "request completed");
  check(loop.due_ns(1) == start + 20'000'000, "due time = start + offset");
  check(loop.lateness_ns(0) < 20'000'000, "first request sent on time");
  check(loop.lateness_ns(1) >= 40'000'000, "stalled generator: request 1 sent >= 40 ms late");
  check(loop.lateness_ns(2) >= 20'000'000, "stalled generator: request 2 sent >= 20 ms late");
  // Latency counts from the due time, so the stall is charged to the
  // requests it delayed even though each completed the moment it was sent.
  check(loop.latency_ns(1) >= loop.lateness_ns(1), "latency counts from the due time");
  check(loop.latency_ns(1) - (loop.sent_ns(1) - loop.due_ns(1)) < 5'000'000,
        "latency = lateness + service time");
}

void test_self_time_nested() {
  // A [0,100] > B [10,60] > C [20,30]: each parent loses only its direct
  // child's interval.
  const std::vector<Event> evs = {ev(1, 0, "bench", 0, 100), ev(2, 1, "core", 10, 60),
                                  ev(3, 2, "persist", 20, 30)};
  const auto self = hsrbench::trace::self_ns(evs);
  check(self[0] == 50, "nested: A self = 100 - 50");
  check(self[1] == 40, "nested: B self = 50 - 10");
  check(self[2] == 10, "nested: leaf self = its duration");
  const auto by_layer = hsrbench::trace::self_ns_by_layer(evs);
  check(by_layer.at("bench") == 50 && by_layer.at("core") == 40 && by_layer.at("persist") == 10,
        "self time per layer");
}

void test_self_time_overlapping() {
  // Children on two threads overlapping in [30,50], one sticking out of
  // the parent: only the union of their clipped intervals is subtracted.
  const std::vector<Event> evs = {ev(1, 0, "shard", 0, 100), ev(2, 1, "core", 10, 50),
                                  ev(3, 1, "core", 30, 70), ev(4, 1, "raster", 90, 120)};
  const auto self = hsrbench::trace::self_ns(evs);
  check(self[0] == 100 - 60 - 10, "overlapping: parent self = 100 - |[10,70] u [90,100]|");
  check(self[1] == 40 && self[2] == 40 && self[3] == 30, "overlapping: children keep their time");
  // Identical children cover the parent once.
  const std::vector<Event> twins = {ev(1, 0, "a", 0, 10), ev(2, 1, "b", 2, 8), ev(3, 1, "b", 2, 8)};
  check(hsrbench::trace::self_ns(twins)[0] == 4, "identical children counted once");
  // A child whose parent was not recorded is a root.
  const std::vector<Event> orphan = {ev(5, 99, "a", 0, 10)};
  check(hsrbench::trace::self_ns(orphan)[0] == 10, "orphan span is its own root");
}

void test_span_recording() {
  namespace tr = hsrbench::trace;
  (void)tr::drain();
  { tr::Span off("bench", "off"); }
  check(tr::drain().empty(), "disabled spans record nothing");
  tr::set_enabled(true);
  {
    tr::Span outer("bench", "outer");
    { tr::Span inner("core", "inner"); }
    std::thread([] { tr::Span other("raster", "other_thread"); }).join();
  }
  tr::set_enabled(false);
  const std::vector<Event> evs = tr::drain();
  check(evs.size() == 3, "three spans recorded");
  const Event* outer = nullptr;
  const Event* inner = nullptr;
  const Event* other = nullptr;
  for (const Event& e : evs) {
    if (e.name == "outer") outer = &e;
    if (e.name == "inner") inner = &e;
    if (e.name == "other_thread") other = &e;
  }
  check(outer && inner && other, "every span found");
  if (outer && inner && other) {
    check(outer->parent == 0, "outer span is a root");
    check(inner->parent == outer->id, "inner span's parent is the enclosing span");
    check(other->parent == 0 && other->tid != outer->tid, "another thread starts its own tree");
    check(inner->begin_ns >= outer->begin_ns && inner->end_ns <= outer->end_ns,
          "child lies inside its parent");
  }
  const std::string path = "hsrbench_selftest_trace.json";
  check(tr::write_chrome_json(evs, path), "trace file written");
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  check(text.str().find("\"traceEvents\"") != std::string::npos &&
            text.str().find("\"name\":\"core.inner\"") != std::string::npos &&
            text.str().find("\"ph\":\"X\"") != std::string::npos,
        "Chrome trace-event JSON with complete events");
  std::remove(path.c_str());
}

}  // namespace

int main() {
  test_percentile();
  test_windowed_percentile();
  test_windowed_rate();
  test_schedule();
  test_open_loop();
  test_self_time_nested();
  test_self_time_overlapping();
  test_span_recording();
  if (g_failures != 0) {
    std::cerr << g_failures << " check(s) failed\n";
    return 1;
  }
  std::cout << "hsrbench self-tests passed\n";
  return 0;
}
