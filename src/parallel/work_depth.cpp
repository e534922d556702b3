#include "parallel/work_depth.hpp"

#include <mutex>
#include <vector>

namespace thsr::work {
namespace {

// The registry holds one counter block per *live* counting thread. When a
// thread exits, its counts fold into `retired` (so they stay visible to
// snapshot() after the thread is gone) and its block goes on a free list
// for the next thread to register: snapshot() and reset() walk only live
// threads, however many have come and gone. The registry must stay valid
// through static destruction (a worker may still count() while other
// statics are torn down), so it — and the mutex guarding it — are never
// destroyed. Keeping the container alive also keeps every block reachable,
// so leak checkers stay quiet.
struct Registry {
  std::vector<Counters*> live;
  std::vector<Counters*> free;
  Counters retired;  ///< counts of exited threads since the last reset
};

std::mutex& mu() {
  static auto* m = new std::mutex();
  return *m;
}

Registry& registry() {
  static auto* r = new Registry();
  return *r;
}

/// Thread-exit hook: retires the thread's block. Constructed inside the
/// thread's first count(), so thread-locals created after that point (and
/// destroyed before it) may still count; nothing may count from a
/// thread-local destructor that runs after it.
struct ThreadExit {
  Counters* block{nullptr};
  ~ThreadExit() {
    if (!block) return;
    std::lock_guard<std::mutex> lk(mu());
    Registry& r = registry();
    r.retired += *block;
    *block = Counters{};
    std::erase(r.live, block);
    r.free.push_back(block);
  }
};

}  // namespace

namespace detail {

Counters* register_thread() noexcept {
  thread_local ThreadExit exit_hook;
  Counters* c = nullptr;
  {
    std::lock_guard<std::mutex> lk(mu());
    Registry& r = registry();
    if (r.free.empty()) {
      c = new Counters();
    } else {
      c = r.free.back();
      r.free.pop_back();
    }
    r.live.push_back(c);
  }
  exit_hook.block = c;
  return c;
}

std::size_t registered_threads() noexcept {
  std::lock_guard<std::mutex> lk(mu());
  return registry().live.size();
}

}  // namespace detail

Counters local_snapshot() noexcept { return detail::local(); }

Counters snapshot() noexcept {
  std::lock_guard<std::mutex> lk(mu());
  const Registry& r = registry();
  Counters total = r.retired;
  for (const Counters* c : r.live) total += *c;
  return total;
}

void reset() noexcept {
  std::lock_guard<std::mutex> lk(mu());
  Registry& r = registry();
  r.retired = Counters{};
  for (Counters* c : r.live) *c = Counters{};
}

}  // namespace thsr::work
