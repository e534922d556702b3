#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <iomanip>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace hsrbench::trace {

namespace {

std::atomic<bool> g_enabled{false};
std::atomic<std::uint64_t> g_next_id{1};
std::atomic<std::uint32_t> g_next_tid{1};

/// One thread's finished spans. Owned by the registry so events survive
/// the thread that recorded them (server workers are joined before drain).
struct Buffer {
  std::mutex mu;
  std::uint32_t tid{0};
  std::vector<Event> events;
};

struct Registry {
  std::mutex mu;
  std::vector<std::unique_ptr<Buffer>> buffers;
};

Registry& registry() {
  static Registry r;
  return r;
}

Buffer& local_buffer() {
  thread_local Buffer* buf = [] {
    auto b = std::make_unique<Buffer>();
    b->tid = g_next_tid.fetch_add(1, std::memory_order_relaxed);
    Buffer* raw = b.get();
    Registry& r = registry();
    const std::lock_guard<std::mutex> lk(r.mu);
    r.buffers.push_back(std::move(b));
    return raw;
  }();
  return *buf;
}

thread_local std::uint64_t t_current = 0;  // innermost open span on this thread

void json_escape(std::ostream& os, const std::string& s) {
  for (const char c : s) {
    if (c == '"' || c == '\\') os << '\\';
    os << c;
  }
}

}  // namespace

std::int64_t now_ns() noexcept {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(std::chrono::steady_clock::now() -
                                                              epoch)
      .count();
}

void set_enabled(bool on) noexcept { g_enabled.store(on, std::memory_order_relaxed); }
bool enabled() noexcept { return g_enabled.load(std::memory_order_relaxed); }

Span::Span(const char* layer, const char* name) noexcept : layer_(layer), name_(name) {
  if (!enabled()) return;
  id_ = g_next_id.fetch_add(1, std::memory_order_relaxed);
  saved_parent_ = t_current;
  t_current = id_;
  begin_ns_ = now_ns();
}

Span::~Span() {
  if (id_ == 0) return;
  const std::int64_t end = now_ns();
  t_current = saved_parent_;
  Buffer& b = local_buffer();
  const std::lock_guard<std::mutex> lk(b.mu);
  b.events.push_back(Event{id_, saved_parent_, b.tid, layer_, name_, begin_ns_, end});
}

std::vector<Event> drain() {
  std::vector<Event> out;
  Registry& r = registry();
  const std::lock_guard<std::mutex> lk(r.mu);
  for (const auto& b : r.buffers) {
    const std::lock_guard<std::mutex> blk(b->mu);
    out.insert(out.end(), std::make_move_iterator(b->events.begin()),
               std::make_move_iterator(b->events.end()));
    b->events.clear();
  }
  return out;
}

bool write_chrome_json(const std::vector<Event>& events, const std::string& path) {
  std::ofstream os(path);
  if (!os) return false;
  os << std::fixed << std::setprecision(3);
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  for (const Event& e : events) {
    if (!first) os << ",\n";
    first = false;
    os << "{\"name\":\"";
    json_escape(os, e.layer + "." + e.name);
    os << "\",\"cat\":\"";
    json_escape(os, e.layer);
    // Chrome trace timestamps are microseconds; keep nanosecond precision.
    os << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << e.tid << ",\"ts\":" << e.begin_ns / 1e3
       << ",\"dur\":" << (e.end_ns - e.begin_ns) / 1e3
       << ",\"args\":{\"id\":" << e.id << ",\"parent\":" << e.parent << "}}";
  }
  os << "\n]}\n";
  return static_cast<bool>(os);
}

std::vector<std::int64_t> self_ns(const std::vector<Event>& events) {
  std::unordered_map<std::uint64_t, std::size_t> index;
  index.reserve(events.size());
  for (std::size_t i = 0; i < events.size(); ++i) index.emplace(events[i].id, i);

  std::vector<std::vector<std::size_t>> children(events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (events[i].parent == 0) continue;
    const auto it = index.find(events[i].parent);
    if (it != index.end()) children[it->second].push_back(i);
  }

  std::vector<std::int64_t> out(events.size());
  std::vector<std::pair<std::int64_t, std::int64_t>> iv;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const Event& p = events[i];
    iv.clear();
    for (const std::size_t c : children[i]) {
      const std::int64_t lo = std::max(events[c].begin_ns, p.begin_ns);
      const std::int64_t hi = std::min(events[c].end_ns, p.end_ns);
      if (lo < hi) iv.emplace_back(lo, hi);
    }
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t run_lo = 0, run_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) covered += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) covered += run_hi - run_lo;
    out[i] = (p.end_ns - p.begin_ns) - covered;
  }
  return out;
}

std::map<std::string, std::int64_t> self_ns_by_layer(const std::vector<Event>& events) {
  const std::vector<std::int64_t> self = self_ns(events);
  std::map<std::string, std::int64_t> out;
  for (std::size_t i = 0; i < events.size(); ++i) out[events[i].layer] += self[i];
  return out;
}

}  // namespace hsrbench::trace
