#include "harness.hpp"

#include <charconv>
#include <cmath>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

namespace hsrbench {

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},
      {"latency_p50_ms", "ms"},
      {"latency_p90_ms", "ms"},
      {"throughput_per_s", "1/s"},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = {
      // host and tracing
      {"host.nproc", "count"},
      {"host.affinity_cpus", "count"},
      {"host.threads_requested", "count"},
      {"host.threads_peak", "count"},
      {"host.max_rss_mib", "MiB"},
      {"host.steal_pct", "%"},
      {"trace.overhead_pct", "%"},
      {"trace.events", "count"},
      // self time per traced operation, by layer (bench = the harness itself)
      {"bench.self_ms", "ms"},
      {"service.self_ms", "ms"},
      {"core.self_ms", "ms"},
      {"raster.self_ms", "ms"},
      {"shard.self_ms", "ms"},
      {"stream.self_ms", "ms"},
      {"terrain.self_ms", "ms"},
      // service (serve-mixed)
      {"service.latency_p99_ms", "ms"},
      {"service.hit_overhead_ms_p50", "ms"},
      {"service.miss_overhead_ms_p50", "ms"},
      {"service.solve_ms_p50", "ms"},
      {"service.cache_hit_ratio", "ratio"},
      {"service.evictions", "count"},
      {"service.order_transfers", "count"},
      {"service.backlog_max", "count"},
      {"service.generator_late_ms_max", "ms"},
      {"service.miss_late_early_ratio", "ratio"},
      {"service.acquire_hit_us", "us"},
      {"service.transform_ms", "ms"},
      // core (terrain-solve; the prepare rungs come from the serve replay)
      {"core.prepare_scoped_ms", "ms"},
      {"core.prepare_transfer_ms", "ms"},
      {"core.prepare_ms", "ms"},
      {"core.solve_p4_ms", "ms"},
      {"core.solve_p1_ms", "ms"},
      {"core.order_ms", "ms"},
      {"core.phase1_ms", "ms"},
      {"core.phase2_ms", "ms"},
      {"core.k_pieces", "count"},
      {"core.treap_nodes", "count"},
      {"core.work_total", "count"},
      {"parallel.speedup_p4", "ratio"},
      {"geometry.filter_fallback_permille", "permille"},
      {"persist.arena_footprint_mib", "MiB"},
      {"persist.arena_new_blocks_warm", "count"},
      // raster
      {"raster.rasterize_ms", "ms"},
      {"raster.crossings", "count"},
      {"raster.hit_samples", "count"},
      {"raster.scan_band_ms", "ms"},
      // shard
      {"shard.image_ms_p50", "ms"},
      {"shard.solve_slabs_ms", "ms"},
      {"shard.rasterize_sharded_ms", "ms"},
      {"shard.duplication_factor", "ratio"},
      // stream (dem-stream)
      {"stream.read_ms", "ms"},
      {"stream.emit_ms", "ms"},
      {"stream.compute_ms", "ms"},
      {"stream.rows_read", "count"},
      {"stream.slabs", "count"},
      {"stream.slab_prepare_ms", "ms"},
      {"stream.slab_solve_ms", "ms"},
      {"stream.peak_resident_mib", "MiB"},
  };
  return defs;
}

void Report::fail(const std::string& why) {
  ++failed_;
  std::cerr << "hsrbench: FAILED: " << why << "\n";
}

namespace {

std::string number(double v) {
  if (!std::isfinite(v)) throw std::logic_error("hsrbench: non-finite metric value");
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);  // shortest round-trip form
  return std::string(buf, res.ptr);
}

}  // namespace

std::string Report::result_json(bool traced) const {
  std::ostringstream os;
  os << "{\"correct\": " << (failed_ == 0 ? "true" : "false") << ", \"attempted\": " << attempted_
     << ", \"failed\": " << failed_ << ", \"metrics\": {";
  bool first = true;
  for (const MetricDef& m : traced ? per_layer_metrics() : end_to_end_metrics()) {
    const auto it = values_.find(m.name);
    if (it == values_.end() && !traced) {
      throw std::logic_error(std::string("hsrbench: end-to-end metric not measured: ") + m.name);
    }
    os << (first ? "" : ", ") << "\"" << m.name << "\": {\"value\": "
       << number(it == values_.end() ? 0.0 : it->second) << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  os << "}}";
  return os.str();
}

int online_cpus() { return static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN)); }

int affinity_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return online_cpus();
  return CPU_COUNT(&set);
}

int process_threads() {
  std::ifstream in("/proc/self/status");
  std::string key;
  while (in >> key) {
    if (key == "Threads:") {
      int n = 0;
      in >> n;
      return n;
    }
    in.ignore(1 << 16, '\n');
  }
  return 0;
}

double max_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

CpuTicks cpu_ticks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  CpuTicks t;
  if (!(in >> cpu) || cpu != "cpu") return t;
  // user nice system idle iowait irq softirq steal: guest time is already
  // counted in user and nice.
  for (int field = 0; field < 8; ++field) {
    std::uint64_t v = 0;
    if (!(in >> v)) return CpuTicks{};
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

double steal_pct(const CpuTicks& from, const CpuTicks& to) {
  if (to.total <= from.total) return 0.0;
  return static_cast<double>(to.steal - from.steal) * 100 /
         static_cast<double>(to.total - from.total);
}

void check_host(Report& r, int threads) {
  const int cpus = online_cpus(), mask = affinity_cpus();
  r.set("host.nproc", cpus);
  r.set("host.affinity_cpus", mask);
  r.set("host.threads_requested", threads);
  std::cout << "# host: cpus_online=" << cpus << " affinity_cpus=" << mask
            << " threads_requested=" << threads << "\n";
  if (mask < threads) {
    throw std::runtime_error("affinity mask allows " + std::to_string(mask) +
                             " CPUs but the workload runs " + std::to_string(threads) +
                             " threads: timings would not show parallel speed-up");
  }
}

void report_trace(Report& r, const RunOptions& opt, const std::vector<trace::Event>& events,
                  std::uint64_t traced_ops) {
  const double per_op = traced_ops == 0 ? 0.0 : 1.0 / static_cast<double>(traced_ops);
  for (const auto& [layer, ns] : trace::self_ns_by_layer(events)) {
    r.set(layer + ".self_ms", static_cast<double>(ns) / 1e6 * per_op);
  }
  r.set("trace.events", static_cast<double>(events.size()));
  if (!opt.trace_path.empty() && !trace::write_chrome_json(events, opt.trace_path)) {
    throw std::runtime_error("cannot write trace file " + opt.trace_path);
  }
  std::cout << "# trace: " << events.size() << " spans over " << traced_ops << " operations -> "
            << opt.trace_path << "\n";
}

}  // namespace hsrbench
