/// terrain-solve: the paper's algorithm at p > 1 on one large in-memory
/// terrain. One fbm g96 terrain is prepared once at set-up; each operation
/// makes one image, by a seeded choice between
///   - a warm HsrEngine::solve (default options: the Parallel algorithm)
///     at p = 4 on the pool, then raster::rasterize, and
///   - ShardedEngine (8 slabs) solve_slabs, then raster::rasterize_sharded.
/// No cache or I/O is involved. Every image must be bitwise equal to the
/// sharded image made at set-up. The terrain is the same for every seed
/// (the generator's output size varies by up to 1.8x between seeds); the
/// seed sets the sequence of operations.

#include <cstring>
#include <iostream>
#include <memory>
#include <random>
#include <vector>

#include "core/engine.hpp"
#include "harness.hpp"
#include "raster/raster.hpp"
#include "shard/sharded_engine.hpp"
#include "terrain/generators.hpp"

namespace hsrbench {

namespace {

using namespace thsr;

constexpr int kThreads = 4;
constexpr u32 kGrid = 96;
constexpr u64 kTerrainSeed = 1;
constexpr u32 kSlabs = 8;
constexpr int kSetupReps = 5;
constexpr int kP1Solves = 3;

struct State {
  Terrain terrain;
  HsrEngine engine;
  shard::ShardedEngine sharded;
  raster::ImageRaster reference;  ///< sharded image made at set-up
  double prepare_ms{0};
};

HsrOptions solve_options(int threads) {
  HsrOptions o;
  o.threads = threads;
  o.backend = par::Backend::Pool;
  return o;
}

raster::RasterOptions raster_options() {
  raster::RasterOptions o;  // 256 x 192, one sample per pixel, full window
  o.threads = kThreads;
  o.backend = par::Backend::Pool;
  return o;
}

template <typename T>
bool same_bits(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

bool same_image(const raster::ImageRaster& a, const raster::ImageRaster& b) {
  return a.width == b.width && a.height == b.height && same_bits(a.ids, b.ids) &&
         same_bits(a.depth, b.depth) && same_bits(a.coverage, b.coverage) &&
         a.crossings == b.crossings && a.hit_samples == b.hit_samples;
}

/// One image, either path, with its two stage times.
struct Image {
  raster::ImageRaster img;
  double total_ms{0}, solve_ms{0}, raster_ms{0};
  HsrStats stats;  ///< monolithic path only
};

Image mono_image(State& s) {
  trace::Span op("bench", "image");
  Image out;
  const std::int64_t t0 = trace::now_ns();
  HsrResult r = [&] {
    trace::Span sp("core", "solve");
    return s.engine.solve(solve_options(kThreads));
  }();
  const std::int64_t t1 = trace::now_ns();
  {
    trace::Span sp("raster", "rasterize");
    out.img = raster::rasterize(s.terrain, r.map, raster_options());
  }
  const std::int64_t t2 = trace::now_ns();
  out.solve_ms = ms_between(t0, t1);
  out.raster_ms = ms_between(t1, t2);
  out.total_ms = ms_between(t0, t2);
  out.stats = std::move(r.stats);
  s.engine.recycle(std::move(r));
  return out;
}

Image sharded_image(State& s) {
  trace::Span op("bench", "sharded_image");
  Image out;
  const std::int64_t t0 = trace::now_ns();
  std::vector<std::optional<HsrResult>> slabs;
  {
    trace::Span sp("shard", "solve_slabs");
    slabs = s.sharded.solve_slabs(solve_options(kThreads));
  }
  const std::int64_t t1 = trace::now_ns();
  {
    trace::Span sp("raster", "rasterize_sharded");
    std::vector<const VisibilityMap*> maps;
    for (const auto& r : slabs) maps.push_back(r ? &r->map : nullptr);
    out.img = raster::rasterize_sharded(s.sharded.plan(), maps, raster_options());
  }
  const std::int64_t t2 = trace::now_ns();
  out.solve_ms = ms_between(t0, t1);
  out.raster_ms = ms_between(t1, t2);
  out.total_ms = ms_between(t0, t2);
  return out;
}

std::unique_ptr<State> setup() {
  auto s = std::make_unique<State>();
  GenOptions gen;
  gen.family = Family::Fbm;
  gen.grid = kGrid;
  gen.seed = kTerrainSeed;
  s->terrain = make_terrain(gen);
  const std::int64_t t0 = trace::now_ns();
  s->engine.prepare(s->terrain);
  s->prepare_ms = ms_between(t0, trace::now_ns());
  s->sharded.prepare(s->terrain, kSlabs);
  // Warm both paths: the first solve builds the PCT and sizes the arenas.
  s->reference = sharded_image(*s).img;
  (void)sharded_image(*s);
  (void)mono_image(*s);
  (void)mono_image(*s);
  return s;
}

/// Samples of one timed stretch of operations.
struct Loop {
  std::vector<double> mono_ms, mono_solve_ms, mono_raster_ms;
  std::vector<double> sharded_ms, sharded_solve_ms, sharded_raster_ms;
  std::vector<double> done_s;  ///< completion time of each image, from the loop's start
  double wall_s{0};
  HsrStats last_stats;

  void add(Image&& im, bool mono) {
    (mono ? mono_ms : sharded_ms).push_back(im.total_ms);
    (mono ? mono_solve_ms : sharded_solve_ms).push_back(im.solve_ms);
    (mono ? mono_raster_ms : sharded_raster_ms).push_back(im.raster_ms);
    if (mono) last_stats = std::move(im.stats);
  }
};

/// Run seeded operations for `seconds` into `plain`. With `traced`, every
/// other operation runs with tracing on and goes there instead, so both
/// halves see the same host conditions.
void run_loop(State& s, Report& r, double seconds, std::uint64_t seed, Loop& plain,
              Loop* traced = nullptr) {
  std::mt19937_64 pick(seed);
  const std::int64_t t0 = trace::now_ns();
  const std::int64_t deadline = t0 + static_cast<std::int64_t>(seconds * 1e9);
  for (std::uint64_t i = 0; trace::now_ns() < deadline; ++i) {
    const bool mono = pick() % 2 == 0;
    const bool tracing = traced != nullptr && i % 2 == 1;
    trace::set_enabled(tracing);
    Image im = mono ? mono_image(s) : sharded_image(s);
    trace::set_enabled(false);
    r.attempted();
    if (!same_image(im.img, s.reference)) {
      r.fail(std::string(mono ? "monolithic" : "sharded") +
             " raster differs from the reference sharded raster");
    }
    Loop& l = tracing ? *traced : plain;
    l.add(std::move(im), mono);
    l.done_s.push_back(ms_between(t0, trace::now_ns()) / 1e3);
  }
  plain.wall_s = ms_between(t0, trace::now_ns()) / 1e3;
}

}  // namespace

void run_terrain_solve(const RunOptions& opt, Report& r) {
  check_host(r, kThreads);
  par::set_backend(par::Backend::Pool);
  par::set_threads(kThreads);
  std::unique_ptr<State> s = repeated_setup(r, kSetupReps, [] { return setup(); });
  r.set("core.prepare_ms", s->prepare_ms);

  if (!opt.trace) {
    Loop l;
    run_loop(*s, r, opt.seconds, opt.seed, l);
    r.set("latency_p50_ms", median(l.mono_ms));
    r.set("latency_p90_ms", windowed_percentile(l.mono_ms, 90, kTailWindows));
    r.set("throughput_per_s", windowed_rate(l.done_s, kTailWindows));
    std::cout << "# terrain-solve: " << l.mono_ms.size() << " monolithic + " << l.sharded_ms.size()
              << " sharded images in " << l.wall_s << " s\n";
    return;
  }

  // Traced run: untraced and traced operations alternate; the difference
  // in the headline metric between the two is the tracing overhead.
  Loop plain, traced;
  run_loop(*s, r, opt.seconds * 0.8, opt.seed, plain, &traced);
  report_trace(r, opt, trace::drain(), traced.mono_ms.size() + traced.sharded_ms.size());
  r.set("trace.overhead_pct", overhead_pct(median(traced.mono_ms), median(plain.mono_ms)));

  // Layer figures of the monolithic path.
  const HsrStats& st = plain.last_stats;
  r.set("core.solve_p4_ms", median(plain.mono_solve_ms));
  r.set("raster.rasterize_ms", median(plain.mono_raster_ms));
  r.set("core.order_ms", st.order_s * 1e3);
  r.set("core.phase1_ms", st.phase1_s * 1e3);
  r.set("core.phase2_ms", st.phase2_s * 1e3);
  r.set("core.k_pieces", static_cast<double>(st.k_pieces));
  r.set("core.treap_nodes", static_cast<double>(st.treap_nodes));
  r.set("core.work_total", static_cast<double>(st.work.total()));
  const double fast = static_cast<double>(st.work[Op::FilterFast]);
  const double exact = static_cast<double>(st.work[Op::FilterExact]);
  r.set("geometry.filter_fallback_permille", fast + exact > 0 ? exact * 1e3 / (fast + exact) : 0);
  r.set("persist.arena_footprint_mib",
        static_cast<double>(s->engine.arena_footprint_bytes()) / (1 << 20));
  const u64 blocks_before = s->engine.arena_blocks();
  const Image warm = mono_image(*s);
  r.set("persist.arena_new_blocks_warm",
        static_cast<double>(s->engine.arena_blocks() - blocks_before));
  r.set("raster.crossings", static_cast<double>(warm.img.crossings));
  r.set("raster.hit_samples", static_cast<double>(warm.img.hit_samples));

  // The same solve on one worker: the p = 4 speed-up of the pool.
  std::vector<double> p1_ms;
  for (int i = 0; i < kP1Solves; ++i) {
    const std::int64_t t0 = trace::now_ns();
    HsrResult res = s->engine.solve(solve_options(1));
    p1_ms.push_back(ms_between(t0, trace::now_ns()));
    r.attempted();
    if (res.stats.k_pieces != st.k_pieces || !(res.stats.work == st.work)) {
      r.fail("p = 1 solve counters differ from the p = 4 solve");
    }
    s->engine.recycle(std::move(res));
  }
  r.set("core.solve_p1_ms", median(p1_ms));
  r.set("parallel.speedup_p4", ratio(median(p1_ms), median(plain.mono_solve_ms)));

  // Sharded path.
  r.set("shard.image_ms_p50", median(plain.sharded_ms));
  r.set("shard.solve_slabs_ms", median(plain.sharded_solve_ms));
  r.set("shard.rasterize_sharded_ms", median(plain.sharded_raster_ms));
  r.set("shard.duplication_factor", s->sharded.plan().duplication_factor());
  r.set("host.threads_peak", process_threads());
}

}  // namespace hsrbench
