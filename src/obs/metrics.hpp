// Typed metrics registry: counters, gauges, and histograms with lock-free
// hot paths and a DETERMINISTIC snapshot.
//
// The determinism contract is the whole point.  The lockstep engines are
// bit-identical across thread counts; attaching metrics must not break
// that, and the metrics themselves must merge to the same totals no
// matter how the work was sharded:
//
//   * Counter spreads its tally over a fixed number of cache-line-padded
//     slots.  Writers pick a slot by *work identity* (shard index, lane
//     range) — never by thread id — so the per-slot partials, and a
//     fortiori their sum, depend only on the work done.  value() merges in
//     slot index order; u64 addition is exact and commutative, so the
//     merged total is slot-order-independent anyway, but the fixed order
//     keeps the per-slot breakdown reproducible too.
//   * Gauge is a single relaxed double cell (last write wins; the engines
//     only write it from the deterministic barrier thread).
//   * Histogram buckets by power-of-two value ranges.  It records
//     wall-clock durations, which are inherently nondeterministic — it
//     exists for *profiling*, and the determinism tests exclude it.
//
// Registration (counter()/gauge()/histogram()) takes a mutex and is meant
// for session setup; the returned references are stable for the registry's
// lifetime, so hot paths hold them and never look up again.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace fsc::obs {

/// One padded counter cell: its own cache line, so two slots never bounce
/// a line between the threads incrementing them.
struct alignas(64) MetricCell {
  std::atomic<std::uint64_t> bits{0};
};

/// Monotonic event tally with per-shard slots.  add() is lock-free and
/// wait-free (one relaxed fetch_add); value() sums the slots in index
/// order — exact, since u64 addition never loses updates or precision.
class Counter {
 public:
  /// `slots` is clamped up to 1.  Registry-made counters share the
  /// registry's slot count; standalone counters default to one slot.
  explicit Counter(std::size_t slots = 1)
      : nslots_(slots > 0 ? slots : 1),
        cells_(std::make_unique<MetricCell[]>(nslots_)) {}

  std::size_t slots() const noexcept { return nslots_; }

  /// Add `delta` to slot `slot % slots()`.  Callers derive `slot` from the
  /// work unit (shard/chunk index), not the thread, so attribution is
  /// schedule-independent.  Zero deltas skip the atomic entirely — hot
  /// paths that tally several related counters per chunk (memo hit /
  /// shared / miss) mostly feed zeros to all but one of them.
  void add(std::uint64_t delta, std::size_t slot = 0) noexcept {
    if (delta == 0) return;
    cells_[slot % nslots_].bits.fetch_add(delta, std::memory_order_relaxed);
  }
  void increment(std::size_t slot = 0) noexcept { add(1, slot); }

  /// Deterministic merge: slot partials summed in index order.
  std::uint64_t value() const noexcept {
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < nslots_; ++i) {
      total += cells_[i].bits.load(std::memory_order_relaxed);
    }
    return total;
  }
  std::uint64_t slot_value(std::size_t slot) const noexcept {
    return cells_[slot % nslots_].bits.load(std::memory_order_relaxed);
  }

  void reset() noexcept {
    for (std::size_t i = 0; i < nslots_; ++i) {
      cells_[i].bits.store(0, std::memory_order_relaxed);
    }
  }

 private:
  std::size_t nslots_;
  std::unique_ptr<MetricCell[]> cells_;
};

/// Last-write-wins scalar (bit-stored double).  The engines write gauges
/// from the deterministic barrier thread only; the atomic exists so an
/// observer thread may read a torn-free value mid-run.
class Gauge {
 public:
  void set(double v) noexcept {
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    __builtin_memcpy(&bits, &v, sizeof(bits));
    bits_.store(bits, std::memory_order_relaxed);
  }
  double value() const noexcept {
    const std::uint64_t bits = bits_.load(std::memory_order_relaxed);
    double v;
    __builtin_memcpy(&v, &bits, sizeof(v));
    return v;
  }

 private:
  std::atomic<std::uint64_t> bits_{0x0};  // bit pattern of +0.0
};

/// Log2-bucketed distribution for durations (nanoseconds by convention):
/// bucket i counts observations in [2^i, 2^(i+1)), bucket 0 additionally
/// holds zeros.  Lock-free relaxed increments; count/sum/percentiles read
/// whatever has landed.  Wall-time content — excluded from determinism
/// comparisons by design.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 48;  ///< covers > 3 days in ns

  void observe(std::uint64_t v) noexcept {
    buckets_[bucket_index(v)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
  }

  std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  std::uint64_t sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  double mean() const noexcept {
    const std::uint64_t n = count();
    return n > 0 ? static_cast<double>(sum()) / static_cast<double>(n) : 0.0;
  }
  std::uint64_t bucket(std::size_t i) const noexcept {
    return buckets_[i < kBuckets ? i : kBuckets - 1].load(
        std::memory_order_relaxed);
  }

  /// Upper bound of the bucket holding the q-quantile observation
  /// (q in [0, 1]); 0 when empty.  Bucket resolution (2x) is plenty for
  /// "is a round 1 ms or 10 ms".
  std::uint64_t percentile(double q) const noexcept {
    const std::uint64_t n = count();
    if (n == 0) return 0;
    if (q < 0.0) q = 0.0;
    if (q > 1.0) q = 1.0;
    std::uint64_t rank = static_cast<std::uint64_t>(q * static_cast<double>(n));
    if (rank >= n) rank = n - 1;
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      seen += bucket(i);
      if (seen > rank) return upper_bound(i);
    }
    return upper_bound(kBuckets - 1);
  }

  void reset() noexcept {
    for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
  }

  static std::size_t bucket_index(std::uint64_t v) noexcept {
    if (v == 0) return 0;
    std::size_t i = 0;
    while (v >>= 1) ++i;  // floor(log2(v))
    return i < kBuckets ? i : kBuckets - 1;
  }
  static std::uint64_t upper_bound(std::size_t i) noexcept {
    return i + 1 < 64 ? (std::uint64_t{1} << (i + 1)) : ~std::uint64_t{0};
  }

 private:
  std::atomic<std::uint64_t> buckets_[kBuckets] = {};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
};

/// Name -> metric store.  Lookups get-or-create under a mutex (setup-time
/// only); the returned references stay valid and lock-free for the
/// registry's lifetime.  Snapshots walk metrics in REGISTRATION order, so
/// two runs registering the same metrics in the same order serialize
/// identically.
class MetricsRegistry {
 public:
  /// `shard_slots` is the per-shard slot count every counter is created
  /// with — size it to the run's shard parallelism (e.g. the executor's
  /// thread count); more slots than concurrent writers just wastes cache
  /// lines.
  explicit MetricsRegistry(std::size_t shard_slots = 1)
      : shard_slots_(shard_slots > 0 ? shard_slots : 1) {}

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  std::size_t shard_slots() const noexcept { return shard_slots_; }

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  /// Point-in-time copy, deterministic in registration order.  Histogram
  /// rows carry count/sum/mean and coarse percentiles, not raw buckets.
  struct Snapshot {
    struct HistRow {
      std::string name;
      std::uint64_t count = 0;
      std::uint64_t sum = 0;
      double mean = 0.0;
      std::uint64_t p50 = 0;
      std::uint64_t p99 = 0;
    };
    std::vector<std::pair<std::string, std::uint64_t>> counters;
    std::vector<std::pair<std::string, double>> gauges;
    std::vector<HistRow> histograms;

    /// Counter value by name; 0 when absent (so probes read naturally).
    std::uint64_t counter(std::string_view name) const noexcept;
  };
  Snapshot snapshot() const;

  /// The snapshot as a JSON object: {"counters": {...}, "gauges": {...},
  /// "histograms": {name: {count, sum_ns, mean_ns, p50_ns, p99_ns}, ...}}.
  std::string to_json() const;

 private:
  template <typename T>
  struct Named {
    std::string name;
    std::unique_ptr<T> metric;
  };
  template <typename T, typename... Args>
  T& get_or_create(std::vector<Named<T>>& list, std::string_view name,
                   Args&&... args);

  std::size_t shard_slots_;
  mutable std::mutex mu_;
  std::vector<Named<Counter>> counters_;
  std::vector<Named<Gauge>> gauges_;
  std::vector<Named<Histogram>> histograms_;
};

}  // namespace fsc::obs
