/// hsrbench — end-to-end and per-layer benchmark of the thsr library.
///
///   hsrbench --workload serve-mixed|dem-stream|terrain-solve --seed N
///            --seconds S --trace 0|1 [--trace-file PATH] [--work-dir DIR]
///
/// Prints progress lines starting with '#', then one JSON result line:
/// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
/// metrics are the end-to-end ones, measured untraced; with --trace 1 they
/// are the per-layer ones from a traced section (plus the tracing
/// overhead), and the spans go to --trace-file as Chrome trace JSON.
/// Temporary input files go to --work-dir (default: the current directory).
/// Exit status: 0 when every output check passed, 1 when some failed,
/// 2 on a usage or set-up error (no result line).

#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "harness.hpp"

int main(int argc, char** argv) {
  using namespace hsrbench;
  RunOptions opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* val = i + 1 < argc ? argv[i + 1] : nullptr;
    if (val == nullptr) {
      std::cerr << "hsrbench: " << arg << " needs a value\n";
      return 2;
    }
    ++i;
    if (arg == "--workload") {
      opt.workload = val;
      have_workload = true;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(val, nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::atof(val);
    } else if (arg == "--trace") {
      opt.trace = std::string(val) == "1";
    } else if (arg == "--trace-file") {
      opt.trace_path = val;
    } else if (arg == "--work-dir") {
      opt.work_dir = val;
    } else {
      std::cerr << "hsrbench: unknown argument " << arg << "\n";
      return 2;
    }
  }
  if (!have_workload || opt.seconds <= 0) {
    std::cerr << "usage: hsrbench --workload serve-mixed|dem-stream|terrain-solve --seed N "
                 "--seconds S --trace 0|1 [--trace-file PATH] [--work-dir DIR]\n";
    return 2;
  }

  Report report;
  const CpuTicks ticks_before = cpu_ticks();
  try {
    if (opt.workload == "serve-mixed") {
      run_serve_mixed(opt, report);
    } else if (opt.workload == "dem-stream") {
      run_dem_stream(opt, report);
    } else if (opt.workload == "terrain-solve") {
      run_terrain_solve(opt, report);
    } else {
      std::cerr << "hsrbench: unknown workload " << opt.workload << "\n";
      return 2;
    }
    report.set("host.max_rss_mib", max_rss_mib());
    // The host's share in the noise of the timings: CPU time other guests
    // took while this run wanted it.
    const double steal = steal_pct(ticks_before, cpu_ticks());
    report.set("host.steal_pct", steal);
    std::cout << "# host: steal_pct=" << steal << "\n";
    std::cout << report.result_json(opt.trace) << std::endl;
  } catch (const std::exception& e) {
    std::cerr << "hsrbench: " << e.what() << "\n";
    return 2;
  }
  return report.failures() == 0 ? 0 : 1;
}
