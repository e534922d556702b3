#pragma once
/// \file harness.hpp
/// What every workload shares: run options, the metric registry, the
/// result report, host probes and the set-up protocol.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "stats.hpp"
#include "trace.hpp"

namespace hsrbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10};
  bool trace{false};
  std::string trace_path;  ///< Chrome trace output (traced runs only)
  std::string work_dir{"."};  ///< where a workload may put temporary files
};

/// One metric of BENCHMARK.json: name and unit. Every run reports every
/// end-to-end metric (untraced) or every per-layer metric (traced); a
/// per-layer metric a workload does not exercise reads 0.
struct MetricDef {
  const char* name;
  const char* unit;
};
const std::vector<MetricDef>& end_to_end_metrics();
const std::vector<MetricDef>& per_layer_metrics();

/// The outcome of one run: operation counts, correctness, metric values.
class Report {
 public:
  void attempted(std::uint64_t n = 1) { attempted_ += n; }
  /// Count one failed operation (dropped, errored, or wrong output) and
  /// print why to stderr.
  void fail(const std::string& why);
  void set(const std::string& name, double value) { values_[name] = value; }

  /// The result line: {"correct", "attempted", "failed", "metrics"} with
  /// the end-to-end (traced = false) or per-layer metrics. Throws when an
  /// end-to-end metric was never set (a benchmark bug).
  std::string result_json(bool traced) const;

  std::uint64_t failures() const { return failed_; }

 private:
  std::uint64_t attempted_{0};
  std::uint64_t failed_{0};
  std::map<std::string, double> values_;
};

// --- host probes ----------------------------------------------------------

int online_cpus();      ///< CPUs online in the machine
int affinity_cpus();    ///< CPUs in this process's affinity mask
int process_threads();  ///< threads in this process right now
double max_rss_mib();   ///< peak resident set size of this process

/// The machine's CPU time so far, from /proc/stat (zeros where it cannot
/// be read): all of it, and the part the hypervisor gave to other guests
/// while this one's CPUs were ready to run ("steal").
struct CpuTicks {
  std::uint64_t total{0};
  std::uint64_t steal{0};
};
CpuTicks cpu_ticks();
/// Steal as a share of all CPU time between two readings, in %.
double steal_pct(const CpuTicks& from, const CpuTicks& to);

/// Record the host figures into `r` and print them; throw when the
/// affinity mask is narrower than the `threads` the workload will run
/// (a pinned or confined process would measure one core, not p).
void check_host(Report& r, int threads);

/// a / b, or 0 when there is nothing to compare (a short run can leave a
/// sample set empty, and medians of empty sets read 0).
inline double ratio(double a, double b) { return a > 0 && b > 0 ? a / b : 0.0; }

/// How much slower the traced operations ran than the untraced ones, in %.
inline double overhead_pct(double traced, double plain) {
  const double q = ratio(traced, plain);
  return q == 0 ? 0.0 : (q - 1) * 100;
}

/// Milliseconds between two trace::now_ns() readings.
inline double ms_between(std::int64_t a, std::int64_t b) {
  return static_cast<double>(b - a) / 1e6;
}

/// Set-up protocol: build the workload's state `reps` times (keeping the
/// last) and report the median build time as setup_s.
template <typename Make>
auto repeated_setup(Report& r, int reps, Make&& make) -> decltype(make()) {
  std::vector<double> secs;
  decltype(make()) state{};
  for (int i = 0; i < reps; ++i) {
    state = {};  // tear the previous copy down outside the timed region
    const std::int64_t t0 = trace::now_ns();
    state = make();
    secs.push_back(ms_between(t0, trace::now_ns()) / 1e3);
  }
  r.set("setup_s", median(secs));
  return state;
}

/// Self times and span totals of a traced section, reported per traced
/// operation: `<layer>.self_ms` for each layer, and the Chrome trace file.
void report_trace(Report& r, const RunOptions& opt, const std::vector<trace::Event>& events,
                  std::uint64_t traced_ops);

// --- workloads -------------------------------------------------------------

void run_serve_mixed(const RunOptions& opt, Report& r);
void run_dem_stream(const RunOptions& opt, Report& r);
void run_terrain_solve(const RunOptions& opt, Report& r);

}  // namespace hsrbench
