/// dem-stream: out-of-core streaming of a tall DEM. At set-up a seeded
/// 32-column x 400-row grid is written to an .asc file; each operation
/// streams it with stream::stream_solve_asc (two passes over the file, 100
/// slabs of 4 rows, 4 resident slabs, p = 1, an enforced resident-bytes
/// budget) into a sink that checks the bands tile the image and digests
/// them. Every pass must match the set-up pass bit for bit. (The grid is
/// small so that a run holds a hundred or more passes; the per-slab work,
/// which dominates, is the same as on a taller grid.)

#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "harness.hpp"
#include "parallel/backend.hpp"
#include "stream/dem_lattice.hpp"
#include "stream/stream.hpp"
#include "terrain/asc_io.hpp"

namespace hsrbench {

namespace {

using namespace thsr;

/// One thread. At p = 4 each group of four resident slabs fans one tiny
/// solve to each of four pool workers and waits for all of them, 25 times
/// a pass; on a shared VM that drew 5-17% steal time (1% at p = 1) and
/// made passes up to 1.75x longer, for passes 15-30% shorter in quiet
/// spells. The pool's scaling is measured on terrain-solve.
constexpr int kThreads = 1;
constexpr u32 kCols = 32;
constexpr u32 kRows = 400;
constexpr u32 kSlabRows = 4;
constexpr u32 kResidentSlabs = 4;
/// Enforced tracked-residency budget per resident slab (the pipeline
/// throws past it, which this benchmark counts as a failed pass).
constexpr u64 kBudgetPerSlab = u64{4} << 20;
constexpr int kSetupReps = 5;
constexpr int kReplaySlabs = 8;

u64 splitmix64(u64 x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Terrain-like DEM whose columns are the viewing depth: ridges across the
/// columns occlude each other, a swell runs down the rows, and seeded hash
/// noise breaks ties. Only exact integer-derived arithmetic, so the
/// grid is the same on every host.
AscGrid dem_grid(u32 cols, u32 rows, u64 seed) {
  AscGrid g;
  g.ncols = cols;
  g.nrows = rows;
  g.cellsize = 1.0;
  g.values.resize(std::size_t{cols} * rows);
  const auto tri = [](u64 i, u64 period) {
    const u64 m = i % (2 * period);
    return static_cast<double>(m < period ? m : 2 * period - m) / static_cast<double>(period);
  };
  for (u32 r = 0; r < rows; ++r) {
    for (u32 c = 0; c < cols; ++c) {
      const u64 h = splitmix64(seed ^ splitmix64((u64{r} << 32) | c));
      const double noise = static_cast<double>(h >> 11) * 0x1.0p-53;
      g.values[std::size_t{r} * cols + c] =
          36.0 * tri(c, 9) + 18.0 * tri(r, 57) + 9.0 * noise;
    }
  }
  return g;
}

stream::StreamOptions stream_options() {
  stream::StreamOptions o;
  o.slab_rows = kSlabRows;
  o.resident_slabs = kResidentSlabs;
  o.resident_bytes_budget = kResidentSlabs * kBudgetPerSlab;
  o.width = 256;
  o.height = 192;
  o.supersample = 1;
  o.solve.threads = kThreads;
  o.solve.backend = par::Backend::Pool;
  return o;
}

/// Checks the tiling contract and digests the emitted image in band order.
class CheckingSink final : public stream::BandSink {
 public:
  explicit CheckingSink(u32 width) : width_(width) {}

  void emit(u32 col_lo, u32 col_hi, const raster::ImageRaster& band) override {
    if (col_lo != next_ || col_hi <= col_lo || col_hi > width_ ||
        band.width != col_hi - col_lo) {
      tiled_ = false;
    }
    next_ = col_hi;
    mix(&col_lo, sizeof col_lo);
    mix(&col_hi, sizeof col_hi);
    mix(band.ids.data(), band.ids.size() * sizeof(u32));
    mix(band.depth.data(), band.depth.size() * sizeof(float));
    mix(band.coverage.data(), band.coverage.size() * sizeof(float));
  }

  /// Bands arrived left to right, without gap or overlap, covering [0, width).
  bool tiled() const { return tiled_ && next_ == width_; }
  u64 digest() const { return h_; }

 private:
  void mix(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) h_ = (h_ ^ b[i]) * 0x100000001b3ull;  // FNV-1a
  }
  u32 width_;
  u32 next_{0};
  bool tiled_{true};
  u64 h_{0xcbf29ce484222325ull};
};

/// RowSource decorator: times (and traces) every read of the wrapped source.
class TimedRowSource final : public stream::RowSource {
 public:
  explicit TimedRowSource(stream::RowSource& inner) : inner_(inner) {}
  u32 rows() const override { return inner_.rows(); }
  u32 cols() const override { return inner_.cols(); }
  std::optional<double> nodata() const override { return inner_.nodata(); }
  void read_rows(u32 row_lo, u32 row_hi, std::span<double> out) override {
    trace::Span sp("terrain", "read_rows");
    const std::int64_t t0 = trace::now_ns();
    inner_.read_rows(row_lo, row_hi, out);
    ns += trace::now_ns() - t0;
  }
  void reset() override {
    trace::Span sp("terrain", "reset");
    const std::int64_t t0 = trace::now_ns();
    inner_.reset();
    ns += trace::now_ns() - t0;
  }
  std::int64_t ns{0};

 private:
  stream::RowSource& inner_;
};

/// BandSink decorator: times (and traces) every band hand-off.
class TimedBandSink final : public stream::BandSink {
 public:
  explicit TimedBandSink(stream::BandSink& inner) : inner_(inner) {}
  void emit(u32 col_lo, u32 col_hi, const raster::ImageRaster& band) override {
    trace::Span sp("stream", "emit");
    const std::int64_t t0 = trace::now_ns();
    inner_.emit(col_lo, col_hi, band);
    ns += trace::now_ns() - t0;
  }
  std::int64_t ns{0};

 private:
  stream::BandSink& inner_;
};

struct Pass {
  stream::StreamStats stats;
  u64 digest{0};
  bool tiled{false};
  double ms{0};
  double read_ms{0}, emit_ms{0};
};

struct State {
  std::string path;  ///< the .asc file streamed by every pass
  AscGrid grid;      ///< the same grid in memory (slab replay only)
  Pass reference;    ///< the set-up pass every timed pass must match
  ~State() {
    if (!path.empty()) std::remove(path.c_str());
  }
};

Pass stream_pass(const State& s, bool decorated) {
  trace::Span op("bench", "stream_pass");
  const stream::StreamOptions opt = stream_options();
  CheckingSink check(opt.width);
  Pass p;
  const std::int64_t t0 = trace::now_ns();
  if (decorated) {
    stream::AscFileRowSource file(s.path);
    TimedRowSource src(file);
    TimedBandSink sink(check);
    {
      trace::Span sp("stream", "stream_solve");
      p.stats = stream::stream_solve(src, opt, sink);
    }
    p.read_ms = static_cast<double>(src.ns) / 1e6;
    p.emit_ms = static_cast<double>(sink.ns) / 1e6;
  } else {
    p.stats = stream::stream_solve_asc(s.path, opt, check);
  }
  p.ms = ms_between(t0, trace::now_ns());
  p.digest = check.digest();
  p.tiled = check.tiled();
  return p;
}

std::unique_ptr<State> setup(const RunOptions& opt) {
  auto s = std::make_unique<State>();
  s->grid = dem_grid(kCols, kRows, opt.seed);
  s->path = opt.work_dir + "/dem-" + std::to_string(opt.seed) + ".asc";
  save_asc_grid(s->grid, s->path);
  s->reference = stream_pass(*s, false);  // also warms the page cache and the pool
  return s;
}

/// Check a pass against the set-up pass; count it.
void check_pass(const Pass& p, const Pass& ref, Report& r) {
  r.attempted();
  if (!p.tiled) r.fail("emitted bands do not tile [0, width)");
  if (p.digest != ref.digest) r.fail("image digest differs from the set-up pass");
  if (!(p.stats.work == ref.stats.work) || p.stats.k_pieces != ref.stats.k_pieces ||
      p.stats.crossings != ref.stats.crossings || p.stats.hit_samples != ref.stats.hit_samples ||
      p.stats.slabs != ref.stats.slabs) {
    r.fail("stream counters differ from the set-up pass");
  }
}

struct Loop {
  std::vector<double> ms, read_ms, emit_ms;
  std::vector<double> done_s;  ///< completion time of each pass, from the loop's start
  double wall_s{0};
  u64 passes{0};
  Pass last;
};

/// Stream passes for `seconds` into `plain`. With `traced`, every other
/// pass runs traced, through the timing decorators, and goes there
/// instead, so both halves see the same host conditions.
void run_loop(const State& s, Report& r, double seconds, Loop& plain, Loop* traced = nullptr) {
  const std::int64_t t0 = trace::now_ns();
  const std::int64_t deadline = t0 + static_cast<std::int64_t>(seconds * 1e9);
  std::uint64_t i = 0;
  do {
    const bool tracing = traced != nullptr && i++ % 2 == 1;
    Loop& l = tracing ? *traced : plain;
    Pass p;
    trace::set_enabled(tracing);
    try {
      p = stream_pass(s, tracing);
    } catch (const std::exception& e) {  // e.g. the resident-bytes budget
      trace::set_enabled(false);
      r.attempted();
      r.fail(std::string("stream pass threw: ") + e.what());
      continue;
    }
    trace::set_enabled(false);
    check_pass(p, s.reference, r);
    l.ms.push_back(p.ms);
    l.read_ms.push_back(p.read_ms);
    l.emit_ms.push_back(p.emit_ms);
    l.done_s.push_back(ms_between(t0, trace::now_ns()) / 1e3);
    ++l.passes;
    l.last = std::move(p);
  } while (trace::now_ns() < deadline);
  plain.wall_s = ms_between(t0, trace::now_ns()) / 1e3;
}

/// Replay single slabs of the grid through the calls the pipeline makes
/// per slab: build the slab terrain, prepare, solve on one thread, scan
/// the slab's band of image sub-columns.
void replay_slabs(const State& s, Report& r) {
  const stream::StreamOptions opt = stream_options();
  i64 z_lo = 0, z_hi = 0;
  for (std::size_t i = 0; i < s.grid.values.size(); ++i) {
    const i64 q = stream::quantize_height(s.grid.values[i], opt.lattice);
    z_lo = i == 0 ? q : std::min(z_lo, q);
    z_hi = i == 0 ? q : std::max(z_hi, q);
  }
  const raster::ImageWindow window = stream::stream_window(kCols, kRows, z_lo, z_hi);
  const i64 ystep = stream::lattice_ystep(kCols);
  raster::RasterOptions ropt;
  ropt.width = opt.width;
  ropt.height = opt.height;
  ropt.supersample = opt.supersample;

  std::vector<double> prepare_ms, solve_ms, scan_ms;
  const u32 slabs = (kRows - 1 + kSlabRows - 1) / kSlabRows;
  for (int k = 0; k < kReplaySlabs; ++k) {
    trace::Span op("bench", "replay_slab");
    const u32 index = slabs / 4 + static_cast<u32>(k) * (slabs / 2) / kReplaySlabs;
    const u32 r_lo = index * kSlabRows, r_hi = std::min(r_lo + kSlabRows, kRows - 1);
    const u32 row_lo = r_lo == 0 ? 0 : r_lo - 1, row_hi = r_hi + 1;
    const std::span<const double> rows(s.grid.values.data() + std::size_t{row_lo} * kCols,
                                       std::size_t{row_hi - row_lo} * kCols);
    const std::int64_t t0 = trace::now_ns();
    HsrEngine engine;
    stream::SlabBuild build = [&] {
      trace::Span sp("stream", "build_rows");
      return stream::build_rows(kCols, row_lo, row_hi, rows, std::nullopt, 0, opt.lattice);
    }();
    {
      trace::Span sp("core", "prepare");
      engine.prepare(build.terrain);
    }
    const std::int64_t t1 = trace::now_ns();
    HsrResult solved = [&] {
      trace::Span sp("core", "solve_scoped");
      const par::SerialRegion serial;
      return engine.solve_scoped();
    }();
    const std::int64_t t2 = trace::now_ns();
    const u32 lo = raster::first_sub(window, opt.width, opt.supersample, ystep * r_lo, false);
    const u32 hi = raster::first_sub(window, opt.width, opt.supersample, ystep * r_hi, false);
    const i64 dy = ystep * i64{row_lo};
    const raster::ImageWindow swin{window.y_lo - dy, window.y_hi - dy, window.z_lo, window.z_hi};
    {
      trace::Span sp("raster", "scan_band");
      (void)raster::scan_band(&build.terrain, &solved.map, &build.global_tri, swin, ropt, lo, hi);
    }
    const std::int64_t t3 = trace::now_ns();
    prepare_ms.push_back(ms_between(t0, t1));
    solve_ms.push_back(ms_between(t1, t2));
    scan_ms.push_back(ms_between(t2, t3));
  }
  r.set("stream.slab_prepare_ms", median(prepare_ms));
  r.set("stream.slab_solve_ms", median(solve_ms));
  r.set("raster.scan_band_ms", median(scan_ms));
}

}  // namespace

void run_dem_stream(const RunOptions& opt, Report& r) {
  check_host(r, kThreads);
  par::set_backend(par::Backend::Pool);
  par::set_threads(kThreads);
  std::unique_ptr<State> s = repeated_setup(r, kSetupReps, [&] { return setup(opt); });
  const double cells = static_cast<double>(kCols) * kRows;

  if (!opt.trace) {
    Loop l;
    run_loop(*s, r, opt.seconds, l);
    r.set("latency_p50_ms", median(l.ms));
    r.set("latency_p90_ms", windowed_percentile(l.ms, 90, kTailWindows));
    r.set("throughput_per_s", cells * windowed_rate(l.done_s, kTailWindows));
    std::cout << "# dem-stream: " << l.passes << " passes of " << kCols << "x" << kRows
              << " cells in " << l.wall_s << " s\n";
    return;
  }

  // Untraced and traced passes alternate; the difference in the headline
  // metric between the two is the tracing overhead.
  Loop plain, traced;
  run_loop(*s, r, opt.seconds * 0.8, plain, &traced);
  trace::set_enabled(true);
  replay_slabs(*s, r);
  trace::set_enabled(false);
  report_trace(r, opt, trace::drain(), traced.passes + kReplaySlabs);
  r.set("trace.overhead_pct", overhead_pct(median(traced.ms), median(plain.ms)));

  const stream::StreamStats& st = traced.last.stats;
  const double read = median(traced.read_ms), emit = median(traced.emit_ms);
  r.set("stream.read_ms", read);
  r.set("stream.emit_ms", emit);
  r.set("stream.compute_ms", median(traced.ms) - read - emit);
  r.set("stream.rows_read", static_cast<double>(st.rows_read));
  r.set("stream.slabs", st.slabs);
  r.set("stream.peak_resident_mib", static_cast<double>(st.peak_resident_bytes) / (1 << 20));
  r.set("core.k_pieces", static_cast<double>(st.k_pieces));
  r.set("core.work_total", static_cast<double>(st.work.total()));
  r.set("raster.crossings", static_cast<double>(st.crossings));
  r.set("raster.hit_samples", static_cast<double>(st.hit_samples));
  r.set("host.threads_peak", process_threads());
}

}  // namespace hsrbench
