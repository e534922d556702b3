/// serve-mixed: a service::QueryServer with nproc - 1 workers serves one
/// fbm g48 terrain. The calling thread is the load generator: it sends
/// queries open loop on an evenly spaced schedule, first at a fixed rate
/// of about a third of capacity, then at four times that rate to measure
/// the highest rate served without a growing backlog. The seed picks which
/// viewpoint each query asks for. The terrain is the same for every seed:
/// the generator's output size varies by up to 2x between seeds, which
/// would make the spread across seeds measure the generator, not the
/// server. 80% of the queries come from a hot set of four viewpoints, one
/// per rung of the cache's reuse ladder; 20% are fresh admissible
/// viewpoints. The cache budget holds the hot set with room for eight
/// fresh entries, so fresh entries evict and hot entries stay.
///
/// Every hot reply must carry the k_pieces and work counters of a direct
/// solve of transform_terrain computed at set-up; a sample of fresh
/// replies is checked the same way after timing ends. A dropped or errored
/// query counts as failed.

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <random>
#include <set>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "core/engine.hpp"
#include "harness.hpp"
#include "schedule.hpp"
#include "service/query_server.hpp"
#include "terrain/generators.hpp"

namespace hsrbench {

namespace {

using namespace thsr;
using service::Query;
using service::QueryReply;
using service::QueryServer;
using service::Viewpoint;

constexpr u32 kGrid = 48;
constexpr u64 kTerrainSeed = 1;
constexpr u64 kTerrainId = 1;
constexpr double kRate = 30.0;  ///< fixed offered load, queries per second
constexpr double kOverload = 4.0;  ///< saturation phase rate, x kRate
constexpr int kSetupReps = 5;
constexpr std::size_t kFreshChecks = 6;
/// Fresh entries the cache budget leaves room for. At 4 fresh queries in
/// every 20, eight fresh entries span about two blocks, longer than any
/// hot viewpoint goes unasked, so eviction takes fresh entries only and
/// every hot query hits.
constexpr u64 kFreshRoom = 8;
constexpr int kReplayHits = 8;

/// One viewpoint per rung of the reuse ladder: the canonical frame, a
/// ground-preserving shear (depth-order transfer) and two rotations (full
/// prepare).
const std::vector<Viewpoint>& hot_viewpoints() {
  static const std::vector<Viewpoint> vps = {
      Viewpoint{},
      Viewpoint{.elev_num = 1, .elev_den = 3},
      Viewpoint{.dir_x = 0, .dir_y = 1},
      Viewpoint{.dir_x = 3, .dir_y = 4},
  };
  return vps;
}

struct Expected {
  u64 k_pieces{0};
  Counters work;
};

/// A direct solve of the pre-transformed terrain on the calling thread:
/// what every reply for `vp` must reproduce.
Expected direct_solve(const Terrain& t, const Viewpoint& vp) {
  HsrOptions o;
  o.threads = 1;
  const HsrResult r = hidden_surface_removal(service::transform_terrain(t, vp), o);
  return Expected{r.stats.k_pieces, r.stats.work};
}

/// Fresh viewpoints: every admissible canonical viewpoint with a ground
/// direction of L1 length <= 3 and a nonzero elevation slope, minus the hot
/// set, in one fixed scrambled order, cycled. The key space is far larger
/// than the room the cache budget leaves for fresh entries, so a fresh
/// query always misses.
class FreshViewpoints {
 public:
  explicit FreshViewpoints(const Terrain& t) {
    std::set<std::tuple<i64, i64, i64, i64>> seen;
    for (const Viewpoint& vp : hot_viewpoints()) seen.insert(key(service::canonical(vp)));
    for (i64 dx = -3; dx <= 3; ++dx) {
      for (i64 dy = -3; dy <= 3; ++dy) {
        if ((dx == 0 && dy == 0) || std::abs(dx) + std::abs(dy) > 3) continue;
        for (i64 den = 1; den <= 16; ++den) {
          for (i64 num = -8; num <= 8; ++num) {
            if (num == 0) continue;
            const Viewpoint vp = service::canonical(
                Viewpoint{.dir_x = dx, .dir_y = dy, .elev_num = num, .elev_den = den});
            if (service::admissible(vp, t.max_abs_coord()) && seen.insert(key(vp)).second) {
              all_.push_back(vp);
            }
          }
        }
      }
    }
    if (all_.empty()) throw std::runtime_error("no admissible fresh viewpoint for this terrain");
    std::shuffle(all_.begin(), all_.end(), std::mt19937_64(0x5eed));
  }

  Viewpoint next() { return all_[next_++ % all_.size()]; }

 private:
  static std::tuple<i64, i64, i64, i64> key(const Viewpoint& v) {
    return {v.dir_x, v.dir_y, v.elev_num, v.elev_den};
  }
  std::vector<Viewpoint> all_;
  std::size_t next_{0};
};

struct State {
  std::shared_ptr<const Terrain> terrain;
  std::vector<Expected> hot_expected;
  int workers{1};
  u64 budget{0};
  std::unique_ptr<QueryServer> server;
};

/// Send each hot viewpoint to every worker at once, and wait: each hot
/// entry ends up resident with one warm workspace per concurrent solver,
/// its largest footprint.
void warm_hot_set(QueryServer& server, int workers) {
  for (int round = 0; round < 2; ++round) {
    for (const Viewpoint& vp : hot_viewpoints()) {
      for (int w = 0; w < workers; ++w) {
        (void)server.submit(Query{.terrain_id = kTerrainId, .viewpoint = vp}, [](QueryReply&&) {});
      }
      server.drain();
    }
  }
}

std::unique_ptr<QueryServer> start_server(const State& s, u64 budget) {
  service::ServerOptions o;
  o.workers = s.workers;
  o.queue_capacity = 1 << 16;  // open loop: never block the generator
  o.block_when_full = false;
  o.cache.byte_budget = budget;
  auto server = std::make_unique<QueryServer>(o);
  server->add_terrain(kTerrainId, s.terrain);
  return server;
}

std::unique_ptr<State> setup(int workers) {
  auto s = std::make_unique<State>();
  s->workers = workers;
  GenOptions gen;
  gen.family = Family::Fbm;
  gen.grid = kGrid;
  gen.seed = kTerrainSeed;
  s->terrain = std::make_shared<const Terrain>(make_terrain(gen));
  for (const Viewpoint& vp : hot_viewpoints()) {
    s->hot_expected.push_back(direct_solve(*s->terrain, vp));
  }
  // Size the cache from a probe server without a budget: what the warm
  // hot set occupies, plus room for kFreshRoom fresh entries as the cache
  // accounts them.
  constexpr int kProbeFresh = 4;
  u64 hot_bytes = 0, fresh_bytes = 0;
  {
    auto probe = start_server(*s, ~u64{0});
    warm_hot_set(*probe, workers);
    hot_bytes = probe->cache_stats().resident_bytes;
    FreshViewpoints fresh(*s->terrain);
    for (int i = 0; i < kProbeFresh; ++i) {
      (void)probe->submit(Query{.terrain_id = kTerrainId, .viewpoint = fresh.next()},
                          [](QueryReply&&) {});
    }
    probe->drain();
    fresh_bytes = (probe->cache_stats().resident_bytes - hot_bytes) / kProbeFresh;
  }
  s->budget = hot_bytes + kFreshRoom * fresh_bytes;
  s->server = start_server(*s, s->budget);
  warm_hot_set(*s->server, workers);
  return s;
}

/// What a reply carried, stored by the worker that delivered it.
struct ReplyRecord {
  bool ok{false};
  bool hit{false};
  u64 server_latency_ns{0};  ///< submit() to completion, as the server measured it
  u64 solve_ns{0};
  Expected got;
};

/// The queries of one open-loop phase: schedule, viewpoint per query
/// (hot index or -1 for fresh), and the replies.
struct Phase {
  double rate{0};
  std::vector<int> hot_index;
  std::vector<Viewpoint> viewpoint;
  std::unique_ptr<OpenLoop> loop;
  std::vector<ReplyRecord> replies;
  u64 dropped{0};
  u64 backlog_max{0};
  service::EngineCache::Stats cache_before, cache_after;

  /// Due-time latencies of the answered queries; with `parity` 0 or 1,
  /// of the even or odd ones only.
  std::vector<double> latency_ms(int parity = -1) const {
    std::vector<double> v;
    for (std::size_t i = 0; i < loop->size(); ++i) {
      if (!replies[i].ok || (parity >= 0 && static_cast<int>(i % 2) != parity)) continue;
      v.push_back(static_cast<double>(loop->latency_ns(i)) / 1e6);
    }
    return v;
  }
};

/// A phase of `rate * seconds` queries. Its make-up is fixed: every block
/// of 20 queries asks each hot viewpoint 4 times and 4 fresh viewpoints
/// (the next ones in the fixed fresh order), and every fifth query is a
/// fresh one. The seed shuffles the hot queries within each block and the
/// order of the fresh viewpoints, so different seeds send different
/// sequences of the same work. The fresh queries keep their places: a
/// seed that bunched cold misses together would queue the hot queries
/// behind them, and the latencies would measure the seed.
Phase make_phase(double rate, double seconds, std::uint64_t seed, FreshViewpoints& fresh) {
  constexpr int kPerHot = 4, kFreshEvery = 5;
  Phase p;
  p.rate = rate;
  p.loop = std::make_unique<OpenLoop>(even_arrivals(rate, seconds));
  const std::size_t n = p.loop->size();
  std::mt19937_64 rng(seed);
  while (p.hot_index.size() < n) {
    std::vector<int> hot;
    for (int h = 0; h < static_cast<int>(hot_viewpoints().size()); ++h) {
      hot.insert(hot.end(), kPerHot, h);
    }
    std::shuffle(hot.begin(), hot.end(), rng);
    for (std::size_t k = 0; k < hot.size(); ++k) {
      if (k % (kFreshEvery - 1) == 0) p.hot_index.push_back(-1);
      p.hot_index.push_back(hot[k]);
    }
  }
  p.hot_index.resize(n);
  std::vector<Viewpoint> fresh_vps;
  for (const int h : p.hot_index) {
    if (h < 0) fresh_vps.push_back(fresh.next());
  }
  std::shuffle(fresh_vps.begin(), fresh_vps.end(), rng);
  std::size_t f = 0;
  for (const int h : p.hot_index) {
    p.viewpoint.push_back(h < 0 ? fresh_vps[f++] : hot_viewpoints()[static_cast<std::size_t>(h)]);
  }
  p.replies.resize(n);
  return p;
}

/// Send the phase's queries on schedule from this thread, then wait for
/// every reply. Hot replies are checked here. With `trace_odd`, the odd
/// queries are sent with tracing on.
void run_phase(State& s, Phase& p, Report& r, bool trace_odd = false) {
  QueryServer& server = *s.server;
  std::atomic<u64> completed{0};
  u64 sent = 0;
  p.cache_before = server.cache_stats();
  p.loop->run(trace::now_ns(), [&](std::size_t i) {
    trace::set_enabled(trace_odd && i % 2 == 1);
    trace::Span sp("service", "submit");
    ++sent;
    p.backlog_max = std::max(p.backlog_max, sent - completed.load(std::memory_order_relaxed));
    const bool accepted = server.submit(
        Query{.terrain_id = kTerrainId, .viewpoint = p.viewpoint[i], .tag = i},
        [&p, &completed, i](QueryReply&& rep) {
          ReplyRecord& rec = p.replies[i];
          rec.ok = rep.status == service::QueryStatus::Ok && rep.result.has_value();
          rec.hit = rep.cache_hit;
          rec.server_latency_ns = rep.latency_ns;
          rec.solve_ns = rep.solve_ns;
          if (rec.ok) rec.got = Expected{rep.result->stats.k_pieces, rep.result->stats.work};
          p.loop->complete(i);
          completed.fetch_add(1, std::memory_order_relaxed);
        });
    if (!accepted) ++p.dropped;
  });
  trace::set_enabled(false);
  server.drain();
  p.cache_after = server.cache_stats();

  r.attempted(p.loop->size());
  for (u64 i = 0; i < p.dropped; ++i) r.fail("query dropped at submit");
  for (std::size_t i = 0; i < p.loop->size(); ++i) {
    const ReplyRecord& rec = p.replies[i];
    if (!p.loop->completed(i)) continue;  // dropped, counted above
    if (!rec.ok) {
      r.fail("query replied with an error");
    } else if (p.hot_index[i] >= 0) {
      const Expected& want = s.hot_expected[static_cast<std::size_t>(p.hot_index[i])];
      if (rec.got.k_pieces != want.k_pieces || !(rec.got.work == want.work)) {
        r.fail("hot reply differs from the direct solve");
      }
    }
  }
}

/// After timing: direct solves of a sample of fresh replies.
void check_fresh_sample(const State& s, const Phase& p, Report& r) {
  std::vector<std::size_t> fresh;
  for (std::size_t i = 0; i < p.loop->size(); ++i) {
    if (p.hot_index[i] < 0 && p.replies[i].ok) fresh.push_back(i);
  }
  const std::size_t step = std::max<std::size_t>(1, fresh.size() / kFreshChecks);
  for (std::size_t k = 0; k < fresh.size(); k += step) {
    const std::size_t i = fresh[k];
    const Expected want = direct_solve(*s.terrain, p.viewpoint[i]);
    r.attempted();
    if (p.replies[i].got.k_pieces != want.k_pieces || !(p.replies[i].got.work == want.work)) {
      r.fail("fresh reply differs from the direct solve");
    }
  }
}

/// Server-side overhead (reply latency minus solve time) of the phase's
/// hits or misses, in ms.
std::vector<double> overhead_ms(const Phase& p, bool hits, double from = 0, double to = 1) {
  std::vector<double> v;
  const auto n = static_cast<double>(p.loop->size());
  for (std::size_t i = 0; i < p.loop->size(); ++i) {
    const ReplyRecord& rec = p.replies[i];
    const double pos = static_cast<double>(i) / n;
    if (!rec.ok || rec.hit != hits || pos < from || pos >= to) continue;
    v.push_back(static_cast<double>(rec.server_latency_ns - rec.solve_ns) / 1e6);
  }
  return v;
}

/// Saturation throughput: offer kOverload x the fixed rate, more than the
/// server can take, so the queue never empties; the reply rate over the
/// phase is the highest rate the server sustains without a growing
/// backlog.
double saturation_rate(State& s, double seconds, std::uint64_t seed, FreshViewpoints& fresh,
                       Report& r) {
  Phase over = make_phase(kRate * kOverload, seconds, seed + 1, fresh);
  const std::int64_t t0 = trace::now_ns();
  run_phase(s, over, r);
  const double elapsed_s = ms_between(t0, trace::now_ns()) / 1e3;
  std::cout << "# overload: " << over.rate << " q/s offered, backlog max " << over.backlog_max
            << "\n";
  return static_cast<double>(over.loop->size()) / elapsed_s;
}

/// Report the fixed-rate phase's service-layer figures.
void report_service(const Phase& p, Report& r) {
  std::vector<double> solve;
  u64 hits = 0, ok = 0;
  for (const ReplyRecord& rec : p.replies) {
    if (!rec.ok) continue;
    ++ok;
    hits += rec.hit ? 1 : 0;
    solve.push_back(static_cast<double>(rec.solve_ns) / 1e6);
  }
  std::vector<double> late;
  for (std::size_t i = 0; i < p.loop->size(); ++i) {
    late.push_back(static_cast<double>(p.loop->lateness_ns(i)) / 1e6);
  }
  r.set("service.latency_p99_ms", percentile(p.latency_ms(), 99));
  r.set("service.hit_overhead_ms_p50", median(overhead_ms(p, true)));
  r.set("service.miss_overhead_ms_p50", median(overhead_ms(p, false)));
  r.set("service.solve_ms_p50", median(solve));
  r.set("service.cache_hit_ratio", ratio(static_cast<double>(hits), static_cast<double>(ok)));
  r.set("service.evictions",
        static_cast<double>(p.cache_after.evictions - p.cache_before.evictions));
  r.set("service.order_transfers",
        static_cast<double>(p.cache_after.order_transfers - p.cache_before.order_transfers));
  r.set("service.backlog_max", static_cast<double>(p.backlog_max));
  r.set("service.generator_late_ms_max", *std::max_element(late.begin(), late.end()));
  const double early = median(overhead_ms(p, false, 0.0, 0.1));
  const double lately = median(overhead_ms(p, false, 0.9, 1.0));
  r.set("service.miss_late_early_ratio", ratio(lately, early));
}

/// Replay hot hits and fresh misses on this thread through the calls the
/// server makes, each wrapped in a span: EngineCache::acquire for hits;
/// transform_terrain plus prepare_scoped or prepare_with_order_of for
/// misses; solve_scoped for both. Returns the number of replayed queries.
std::uint64_t replay(State& s, FreshViewpoints& fresh, Report& r) {
  service::EngineCache& cache = s.server->cache();
  std::vector<double> acquire_us, transform_ms, scoped_ms, transfer_ms;
  std::uint64_t n = 0;
  for (int k = 0; k < kReplayHits; ++k) {
    trace::Span op("bench", "replay_hit");
    const std::size_t h = static_cast<std::size_t>(k) % hot_viewpoints().size();
    bool hit = false;
    const std::int64_t t0 = trace::now_ns();
    std::shared_ptr<service::PreparedView> view = [&] {
      trace::Span sp("service", "acquire");
      return cache.acquire(kTerrainId, hot_viewpoints()[h], &hit);
    }();
    if (hit) acquire_us.push_back(ms_between(t0, trace::now_ns()) * 1e3);
    const HsrResult res = [&] {
      trace::Span sp("core", "solve_scoped");
      return view->solve_scoped();
    }();
    ++n;
    r.attempted();
    const Expected& want = s.hot_expected[h];
    if (res.stats.k_pieces != want.k_pieces || !(res.stats.work == want.work)) {
      r.fail("replayed hot solve differs from the direct solve");
    }
  }
  std::shared_ptr<service::PreparedView> base = cache.acquire(kTerrainId, Viewpoint{});
  for (const bool transfer : {true, true, false, false}) {
    trace::Span op("bench", "replay_miss");
    Viewpoint vp = fresh.next();
    while (service::ground_preserving(vp) != transfer) vp = fresh.next();
    const std::int64_t t0 = trace::now_ns();
    const Terrain img = [&] {
      trace::Span sp("service", "transform_terrain");
      return service::transform_terrain(*s.terrain, vp);
    }();
    const std::int64_t t1 = trace::now_ns();
    HsrEngine engine;
    if (transfer) {
      trace::Span sp("core", "prepare_with_order_of");
      engine.prepare_with_order_of(img, base->engine());
    } else {
      trace::Span sp("core", "prepare_scoped");
      engine.prepare_scoped(img);
    }
    const std::int64_t t2 = trace::now_ns();
    transform_ms.push_back(ms_between(t0, t1));
    (transfer ? transfer_ms : scoped_ms).push_back(ms_between(t1, t2));
    const HsrResult res = [&] {
      trace::Span sp("core", "solve_scoped");
      return engine.solve_scoped();
    }();
    ++n;
    r.attempted();
    const Expected want = direct_solve(*s.terrain, vp);
    if (res.stats.k_pieces != want.k_pieces || !(res.stats.work == want.work)) {
      r.fail("replayed fresh solve differs from the direct solve");
    }
  }
  r.set("service.acquire_hit_us", median(acquire_us));
  r.set("service.transform_ms", median(transform_ms));
  r.set("core.prepare_scoped_ms", median(scoped_ms));
  r.set("core.prepare_transfer_ms", median(transfer_ms));
  return n;
}

}  // namespace

void run_serve_mixed(const RunOptions& opt, Report& r) {
  const int workers = std::max(1, affinity_cpus() - 1);
  check_host(r, workers + 1);  // the workers plus this generator thread
  std::unique_ptr<State> s =
      repeated_setup(r, kSetupReps, [&] { return setup(workers); });
  FreshViewpoints fresh(*s->terrain);

  if (!opt.trace) {
    // Three fifths of the run at the fixed rate, then, for a fifth, a
    // burst offered faster than the server can answer.
    Phase fixed = make_phase(kRate, opt.seconds * 0.6, opt.seed, fresh);
    run_phase(*s, fixed, r);
    const std::vector<double> lat = fixed.latency_ms();
    r.set("latency_p50_ms", median(lat));
    r.set("latency_p90_ms", windowed_percentile(lat, 90, kTailWindows));
    r.set("throughput_per_s", saturation_rate(*s, opt.seconds * 0.2, opt.seed, fresh, r));
    check_fresh_sample(*s, fixed, r);
    std::cout << "# serve-mixed: " << lat.size() << " replies at " << kRate << " q/s, "
              << workers << " workers, cache budget " << s->budget / 1024 << " KiB\n";
    return;
  }

  // Traced run: every other query is sent traced; the difference in the
  // headline metric between the two halves is the tracing overhead.
  Phase phase = make_phase(kRate, opt.seconds * 0.8, opt.seed, fresh);
  run_phase(*s, phase, r, /*trace_odd=*/true);
  trace::set_enabled(true);
  const std::uint64_t replayed = replay(*s, fresh, r);
  trace::set_enabled(false);
  r.set("host.threads_peak", process_threads());
  s->server->stop();
  report_trace(r, opt, trace::drain(), phase.loop->size() / 2 + replayed);
  r.set("trace.overhead_pct",
        overhead_pct(median(phase.latency_ms(1)), median(phase.latency_ms(0))));
  report_service(phase, r);
  check_fresh_sample(*s, phase, r);
}

}  // namespace hsrbench
