#include "obs/trace.hpp"

#include <atomic>
#include <chrono>
#include <fstream>
#include <iostream>
#include <ostream>

namespace fsc::obs {

namespace {

std::uint64_t next_recorder_id() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

/// Per-thread cache of (recorder id -> that thread's log).  Keyed by the
/// process-unique id, not the recorder address, so a new recorder reusing
/// a dead one's address can never alias a stale entry.  A thread touches a
/// handful of recorders over a process lifetime, so linear scan wins.
struct TlsEntry {
  std::uint64_t recorder_id = 0;
  void* log = nullptr;
};
thread_local std::vector<TlsEntry> tls_logs;

}  // namespace

std::int64_t monotonic_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

TraceRecorder::TraceRecorder(std::size_t per_thread_capacity)
    : id_(next_recorder_id()),
      capacity_(per_thread_capacity > 0 ? per_thread_capacity : 1),
      epoch_ns_(monotonic_ns()) {}

TraceRecorder::~TraceRecorder() {
  // Stale TLS entries for this id are harmless: the id is never reused, so
  // they can only miss, and the vector stays tiny.
}

void TraceRecorder::ThreadLog::push(const TraceEvent& ev) {
  if (events.size() < capacity) {
    events.push_back(ev);
    return;
  }
  events[head] = ev;
  head = head + 1 == capacity ? 0 : head + 1;
  ++dropped;
}

TraceRecorder::ThreadLog& TraceRecorder::local_log() {
  for (const TlsEntry& e : tls_logs) {
    if (e.recorder_id == id_) return *static_cast<ThreadLog*>(e.log);
  }
  std::lock_guard<std::mutex> lock(mu_);
  logs_.push_back(std::make_unique<ThreadLog>(capacity_));
  ThreadLog* log = logs_.back().get();
  tls_logs.push_back(TlsEntry{id_, log});
  return *log;
}

void TraceRecorder::complete(const char* name, const char* cat,
                             std::int64_t begin_ns, std::int64_t end_ns,
                             std::uint32_t rack, std::uint32_t shard,
                             std::int64_t round) {
  TraceEvent ev;
  ev.name = name;
  ev.cat = cat;
  ev.ts_ns = begin_ns;
  ev.dur_ns = end_ns >= begin_ns ? end_ns - begin_ns : 0;
  ev.round = round;
  ev.rack = rack;
  ev.shard = shard;
  local_log().push(ev);
}

void TraceRecorder::instant(const char* name, const char* cat,
                            std::uint32_t rack, std::uint32_t shard,
                            std::int64_t round) {
  TraceEvent ev;
  ev.name = name;
  ev.cat = cat;
  ev.ts_ns = monotonic_ns();
  ev.dur_ns = -1;
  ev.round = round;
  ev.rack = rack;
  ev.shard = shard;
  local_log().push(ev);
}

const char* TraceRecorder::intern(std::string_view s) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& stored : interned_) {
    if (*stored == s) return stored->c_str();
  }
  interned_.push_back(std::make_unique<std::string>(s));
  return interned_.back()->c_str();
}

std::size_t TraceRecorder::recorded_events() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t total = 0;
  for (const auto& log : logs_) total += log->size();
  return total;
}

std::uint64_t TraceRecorder::dropped_events() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t total = 0;
  for (const auto& log : logs_) total += log->dropped;
  return total;
}

void TraceRecorder::write_json(std::ostream& os,
                               const std::string& manifest_json) const {
  std::lock_guard<std::mutex> lock(mu_);
  os << "{\n";
  os << "\"displayTimeUnit\": \"ms\",\n";
  if (!manifest_json.empty()) {
    os << "\"otherData\": " << manifest_json << ",\n";
  }
  os << "\"traceEvents\": [\n";
  // One metadata row names the process, then one per thread track.
  os << "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 0, "
        "\"args\": {\"name\": \"fsc\"}}";
  const std::streamsize saved_precision = os.precision(3);
  const auto flags = os.flags();
  os.setf(std::ios::fixed, std::ios::floatfield);
  for (std::size_t t = 0; t < logs_.size(); ++t) {
    const ThreadLog& log = *logs_[t];
    const int tid = static_cast<int>(t) + 1;
    os << ",\n{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": "
       << tid << ", \"args\": {\"name\": \"track-" << t << "\"}}";
    for (std::size_t i = 0; i < log.size(); ++i) {
      const TraceEvent& ev = log.at(i);
      // Chrome wants microseconds; keep ns resolution via the fraction.
      const double ts_us = static_cast<double>(ev.ts_ns - epoch_ns_) / 1000.0;
      os << ",\n{\"name\": \"" << (ev.name != nullptr ? ev.name : "?")
         << "\", \"cat\": \"" << (ev.cat != nullptr ? ev.cat : "fsc")
         << "\", \"ph\": \"" << (ev.dur_ns < 0 ? "i" : "X")
         << "\", \"pid\": 1, \"tid\": " << tid << ", \"ts\": " << ts_us;
      if (ev.dur_ns >= 0) {
        os << ", \"dur\": " << static_cast<double>(ev.dur_ns) / 1000.0;
      } else {
        os << ", \"s\": \"g\"";  // global-scope instant: full-height marker
      }
      os << ", \"args\": {\"rack\": " << ev.rack << ", \"shard\": " << ev.shard;
      if (ev.round >= 0) os << ", \"round\": " << ev.round;
      os << "}}";
    }
  }
  os.precision(saved_precision);
  os.flags(flags);
  os << "\n]\n}\n";
}

bool TraceRecorder::write_json_file(const std::string& path,
                                    const std::string& manifest_json) const {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "obs: cannot write trace to " << path << "\n";
    return false;
  }
  write_json(out, manifest_json);
  return out.good();
}

}  // namespace fsc::obs
