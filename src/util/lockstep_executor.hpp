// Persistent-worker lockstep executor: the steady-state engine room of the
// rack/room lockstep loops.
//
// A general task queue would allocate a task per submit, take one global
// queue mutex, and barrier on futures.  The lockstep engines run a fresh
// wave every coordination round — thousands of rounds per run — so that
// per-round submit storm plus futex traffic would swamp the actual physics
// once the work is chunked finely enough to scale.
//
// The LockstepExecutor instead uses the classic DAQ-style
// persistent-worker design (cf. the YARR-like run loops in the related
// repos): workers are spawned once and wait on an atomic *epoch* counter;
// each run(count, fn) pre-assigns every participant a contiguous shard of
// [0, count), bumps the epoch to release the workers, processes the
// caller's own shard on the calling thread, and waits on an atomic
// arrival counter until the wave is done.
//
// Waiting, on both sides of the barrier, is spin, then yield, then park:
// about 64 pause instructions, then std::this_thread::yield() until
// kYieldWindow has passed, and only then a futex wait.  The serial work
// between two waves (a rack's coordinate_round, 10-100 us) outlasts
// libstdc++'s own short spin inside atomic::wait, so without the yield
// window every round paid one futex wake to restart the workers and
// another to wake the caller.  The yield (not a pure pause spin) keeps an
// oversubscribed team cheap: the waiting thread hands its core to
// whichever participant still has work.  In steady state a round is: one
// epoch increment, N shard loops, N arrival decrements — zero
// allocations, zero futures, zero mutexes, and no futex call while waves
// arrive within the window.
//
// Determinism: shard assignment is a pure function of (count, size()), so
// which participant executes which index never depends on scheduling.  The
// engines only hand the executor index-disjoint work (batch chunks), so
// results are bit-identical for any thread count.
//
// Exceptions: a shard that throws aborts the remainder of that
// participant's shard span (other participants run to completion); run()
// rethrows the first captured exception in participant order.  The
// executor stays usable afterwards.
//
// Composition: a shard may drive a *different* executor — the facility
// runs one executor of room leaders whose shards each drive their room's
// own executor.  Each executor must be driven by one thread at a time;
// the pre-assigned shards guarantee that when every inner executor
// belongs to exactly one outer index.  An inner run()'s exception
// escapes its shard and comes out of the outer run() like any other.
//
// Not supported: nested run() calls on the SAME executor from inside one
// of its shards, and concurrent run() calls from different threads (one
// lockstep driver owns the executor).
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace fsc {

/// Fixed team of `threads` participants (the calling thread plus
/// `threads - 1` persistent workers) executing pre-assigned shards of an
/// index space per epoch.
class LockstepExecutor {
 public:
  /// Spawn `threads - 1` persistent workers (the caller is participant 0).
  /// Throws std::invalid_argument when `threads` is 0, and
  /// std::runtime_error naming the worker when one cannot be started (the
  /// workers already running are stopped and joined first).
  explicit LockstepExecutor(std::size_t threads)
      : threads_(threads), errors_(threads) {
    if (threads_ == 0) {
      throw std::invalid_argument("LockstepExecutor: thread count must be > 0");
    }
    workers_.reserve(threads_ - 1);
    for (std::size_t p = 1; p < threads_; ++p) {
      try {
        workers_.emplace_back([this, p] { worker_loop(p); });
      } catch (const std::exception& e) {
        stop_and_join();
        throw std::runtime_error(
            "LockstepExecutor: could not start worker " + std::to_string(p) +
            " of " + std::to_string(threads_ - 1) + ": " + e.what());
      }
    }
  }

  ~LockstepExecutor() { stop_and_join(); }

  LockstepExecutor(const LockstepExecutor&) = delete;
  LockstepExecutor& operator=(const LockstepExecutor&) = delete;

  /// How long a waiting participant yields before it parks on a futex.
  /// Measured with simbench on a 4-vCPU VM, against the same tree with
  /// futex parking: rack64-allcores 4.36 -> 4.85 M server-s/s median,
  /// faster on 9 of 10 seeds.  A 2 ms window was no faster on rack-64
  /// (6 of 10 seeds), about 2% faster on facility-faulted-allcores, and
  /// the tier-1 suite under ctest -j4 took 1.17 s against 1.06 s (median
  /// of 6 interleaved runs).
  static constexpr std::chrono::microseconds kYieldWindow{500};

  /// Total participants (calling thread included).
  std::size_t size() const noexcept { return threads_; }

  /// Execute fn(i) for every i in [0, count), partitioned into contiguous
  /// per-participant shards, and block until the whole wave is done.  `fn`
  /// must be safe to invoke concurrently for distinct indices.  Rethrows
  /// the first shard exception (participant order) after the barrier.
  template <typename F>
  void run(std::size_t count, F&& fn) {
    static_assert(std::is_invocable_v<F&, std::size_t>,
                  "LockstepExecutor::run: fn must accept a shard index");
    if (count == 0) return;
    if (threads_ == 1 || count == 1) {
      // Inline fast path: nothing to fan out (also keeps a 1-thread
      // executor free of any cross-thread machinery).
      for (std::size_t i = 0; i < count; ++i) fn(i);
      return;
    }
    using Fn = std::remove_reference_t<F>;
    invoke_ = [](void* ctx, std::size_t i) { (*static_cast<Fn*>(ctx))(i); };
    ctx_ = const_cast<void*>(static_cast<const void*>(std::addressof(fn)));
    count_ = count;
    pending_.store(threads_ - 1, std::memory_order_relaxed);
    // The release fence on the epoch bump publishes invoke_/ctx_/count_;
    // the workers' acquire loads of the epoch pick them up.
    epoch_.fetch_add(1, std::memory_order_release);
    epoch_.notify_all();

    run_shard(0);  // the caller is participant 0

    // Arrival barrier: spin, yield, then a futex wait.  The workers'
    // acq_rel decrements make all shard writes visible here.
    spin_then_yield(
        [this] { return pending_.load(std::memory_order_acquire) == 0; });
    for (;;) {
      const std::size_t left = pending_.load(std::memory_order_acquire);
      if (left == 0) break;
      pending_.wait(left, std::memory_order_acquire);
    }
    rethrow_first_error();
  }

 private:
  /// Busy-wait for `ready()`: ~64 pause instructions, then yield until
  /// kYieldWindow passes.  Callers follow with their futex wait, which
  /// returns at once when `ready()` already holds.
  template <typename Ready>
  static void spin_then_yield(Ready ready) {
    for (int spin = 0; spin < 64; ++spin) {
      if (ready()) return;
#if defined(__x86_64__) || defined(__i386__)
      _mm_pause();
#endif
    }
    const auto deadline = std::chrono::steady_clock::now() + kYieldWindow;
    while (!ready() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
  }

  /// Releases the waiting workers with a final epoch bump and joins them.
  void stop_and_join() noexcept {
    stopping_.store(true, std::memory_order_release);
    epoch_.fetch_add(1, std::memory_order_release);
    epoch_.notify_all();
    for (std::thread& worker : workers_) worker.join();
  }

  /// Contiguous shard of participant p over `count_` indices:
  /// [count*p/P, count*(p+1)/P) — balanced to within one index.
  void run_shard(std::size_t p) noexcept {
    const std::size_t lo = count_ * p / threads_;
    const std::size_t hi = count_ * (p + 1) / threads_;
    try {
      for (std::size_t i = lo; i < hi; ++i) invoke_(ctx_, i);
    } catch (...) {
      errors_[p] = std::current_exception();
    }
  }

  void rethrow_first_error() {
    for (std::size_t p = 0; p < threads_; ++p) {
      if (errors_[p]) {
        const std::exception_ptr first = errors_[p];
        for (std::size_t q = 0; q < threads_; ++q) errors_[q] = nullptr;
        std::rethrow_exception(first);
      }
    }
  }

  void worker_loop(std::size_t p) {
    std::uint64_t seen = 0;
    for (;;) {
      spin_then_yield(
          [&] { return epoch_.load(std::memory_order_acquire) != seen; });
      std::uint64_t epoch = epoch_.load(std::memory_order_acquire);
      while (epoch == seen) {
        // wait() may return spuriously; re-check the epoch each time.
        epoch_.wait(seen, std::memory_order_acquire);
        epoch = epoch_.load(std::memory_order_acquire);
      }
      seen = epoch;
      if (stopping_.load(std::memory_order_acquire)) return;
      run_shard(p);
      if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        pending_.notify_one();
      }
    }
  }

  std::size_t threads_;
  std::vector<std::thread> workers_;

  // Per-epoch job (published by the epoch bump's release ordering).
  void (*invoke_)(void*, std::size_t) = nullptr;
  void* ctx_ = nullptr;
  std::size_t count_ = 0;
  std::vector<std::exception_ptr> errors_;  ///< one slot per participant

  // The two hot atomics live on their own cache lines so the workers'
  // arrival decrements never bounce the epoch line mid-round.
  alignas(64) std::atomic<std::uint64_t> epoch_{0};
  alignas(64) std::atomic<std::size_t> pending_{0};
  std::atomic<bool> stopping_{false};
};

}  // namespace fsc
