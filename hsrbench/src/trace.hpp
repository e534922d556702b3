#pragma once
/// \file trace.hpp
/// Span recorder for the traced benchmark run.
///
/// The benchmark wraps each call it makes into a library module in a
/// `Span(layer, name)`. Spans nest per thread (the enclosing open span is
/// the parent), are kept in per-thread memory buffers, and are written out
/// once at the end as Chrome trace-event JSON (chrome://tracing and the
/// Perfetto UI load it). Recording is off by default; a disabled Span costs
/// one relaxed atomic load.
///
/// A span's *self time* is its duration minus the part of its interval
/// covered by its children. Children may overlap each other (work fanned
/// out to other threads under one parent) or stick out of the parent; only
/// the union of the children's intervals, clipped to the parent, is
/// subtracted.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace hsrbench::trace {

/// One finished span. `parent` is 0 for a root span.
struct Event {
  std::uint64_t id{0};
  std::uint64_t parent{0};
  std::uint32_t tid{0};
  std::string layer;
  std::string name;
  std::int64_t begin_ns{0};
  std::int64_t end_ns{0};
};

/// Nanoseconds on the steady clock since the first call in this process.
std::int64_t now_ns() noexcept;

void set_enabled(bool on) noexcept;
bool enabled() noexcept;

/// RAII span: records [construction, destruction) on the calling thread.
/// `layer` and `name` must be string literals (they are stored by pointer
/// until the span ends).
class Span {
 public:
  Span(const char* layer, const char* name) noexcept;
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* layer_;
  const char* name_;
  std::uint64_t id_{0};
  std::uint64_t saved_parent_{0};
  std::int64_t begin_ns_{0};
};

/// Take every recorded event out of every thread's buffer (oldest first
/// per thread). Call when no thread is inside a Span.
std::vector<Event> drain();

/// Write `events` as a Chrome trace-event JSON file. Returns false when the
/// file cannot be written.
bool write_chrome_json(const std::vector<Event>& events, const std::string& path);

/// Self time of each event (same order as `events`): duration minus the
/// union of its children's intervals clipped to it.
std::vector<std::int64_t> self_ns(const std::vector<Event>& events);

/// Sum of self times per layer.
std::map<std::string, std::int64_t> self_ns_by_layer(const std::vector<Event>& events);

}  // namespace hsrbench::trace
