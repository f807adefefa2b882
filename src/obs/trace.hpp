// Span tracing to Chrome/Perfetto trace-event JSON.
//
// Recording model: each recording thread owns a private log of fixed-size
// TraceEvents, registered with the recorder on that thread's first event.
// Recording is therefore lock-free after first contact — no shared log,
// no cross-thread write contention.  A log grows with the events it
// records up to its capacity, then wraps: a full log evicts that thread's
// OLDEST events (the tail of a long run wins, and dropped_events()
// reports the loss).  The engines only record from stable worker threads
// and the barrier thread, so the per-thread logs double as Perfetto
// "tracks".
//
// Timestamps are absolute steady-clock nanoseconds (monotonic_ns());
// write_json() rebases them onto the recorder's construction instant so
// the trace starts near t=0 and emits the standard
// {"traceEvents": [...]} envelope — load the file directly in
// https://ui.perfetto.dev or chrome://tracing.
//
// Event names/categories are `const char*` by design (no per-event string
// traffic); dynamic names (coordinator/scheduler registry keys) go through
// intern(), which stores one stable copy per distinct string.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace fsc::obs {

/// Absolute steady-clock nanoseconds (the one clock every obs timestamp
/// uses; defined in trace.cpp to keep <chrono> out of hot headers).
std::int64_t monotonic_ns() noexcept;

/// One fixed-size recorded event.  `dur_ns` < 0 marks an instant ("i")
/// event, >= 0 a complete span ("X").  `round` < 0 omits the arg.
struct TraceEvent {
  const char* name = nullptr;
  const char* cat = nullptr;
  std::int64_t ts_ns = 0;   ///< absolute monotonic_ns() at span begin
  std::int64_t dur_ns = 0;  ///< span length, or < 0 for an instant
  std::int64_t round = -1;
  std::uint32_t rack = 0;
  std::uint32_t shard = 0;
};

/// Collects TraceEvents from any number of threads and serializes them as
/// Chrome trace-event JSON.  complete()/instant() are safe to call
/// concurrently; write_json() must run after the recorded work has
/// quiesced (the engines' run() has returned).
class TraceRecorder {
 public:
  /// `per_thread_capacity` events are retained per recording thread; when
  /// a thread overflows, its oldest events are evicted and counted in
  /// dropped_events().  The default holds a multi-hour room day run with
  /// room to spare (4 events/round x ~2880 rounds/day << 64 Ki).  A
  /// thread's log is allocated as it fills, so a short run touches memory
  /// in proportion to the events it records, not the capacity (a 3 MiB
  /// up-front ring cost a short rack-64 run about 1.3x; bench_obs_overhead
  /// gates that cost).
  explicit TraceRecorder(std::size_t per_thread_capacity = std::size_t{1}
                                                           << 16);
  ~TraceRecorder();
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// Record a complete span [begin_ns, end_ns] (absolute monotonic_ns()
  /// values) on the calling thread's track.
  void complete(const char* name, const char* cat, std::int64_t begin_ns,
                std::int64_t end_ns, std::uint32_t rack = 0,
                std::uint32_t shard = 0, std::int64_t round = -1);
  /// Record an instant event (now) on the calling thread's track.
  void instant(const char* name, const char* cat, std::uint32_t rack = 0,
               std::uint32_t shard = 0, std::int64_t round = -1);

  /// Store one stable copy of `s` and return it — for event names that are
  /// only known at runtime (policy registry keys).  Takes the registry
  /// mutex; intern once at session setup, not per event.
  const char* intern(std::string_view s);

  /// Events currently retained / evicted-by-overflow, across all threads.
  std::size_t recorded_events() const;
  std::uint64_t dropped_events() const;

  /// Serialize as {"traceEvents": [...]} (plus "otherData": manifest when
  /// `manifest_json` is a non-empty JSON object).  Timestamps are rebased
  /// to the recorder's construction instant and emitted in Chrome's
  /// microsecond unit.  Threads appear as tids in registration order.
  void write_json(std::ostream& os, const std::string& manifest_json = "") const;
  /// write_json to `path`; false (with a note on stderr) when unwritable.
  bool write_json_file(const std::string& path,
                       const std::string& manifest_json = "") const;

 private:
  /// One thread's events, oldest first from `head` once the log has
  /// wrapped.  Grows as events arrive and holds at most `capacity`.
  struct ThreadLog {
    explicit ThreadLog(std::size_t cap) : capacity(cap) {}
    void push(const TraceEvent& ev);
    std::size_t size() const noexcept { return events.size(); }
    /// Event `i` counted from the oldest retained one.
    const TraceEvent& at(std::size_t i) const {
      return events[(head + i) % events.size()];
    }

    const std::size_t capacity;
    std::vector<TraceEvent> events;
    std::size_t head = 0;  ///< oldest event's index once the log is full
    std::uint64_t dropped = 0;
  };

  ThreadLog& local_log();

  const std::uint64_t id_;        ///< process-unique, keys the TLS cache
  const std::size_t capacity_;
  const std::int64_t epoch_ns_;   ///< construction instant (rebase origin)
  mutable std::mutex mu_;         ///< guards logs_ registration + interned_
  std::vector<std::unique_ptr<ThreadLog>> logs_;
  std::vector<std::unique_ptr<std::string>> interned_;
};

}  // namespace fsc::obs
