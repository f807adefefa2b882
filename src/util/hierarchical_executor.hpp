// Two-level lockstep executor for the facility tier: per-room worker
// groups with their own epoch barriers, synchronized globally only at
// facility coordination barriers.
//
// The flat LockstepExecutor (lockstep_executor.hpp) is the right tool for
// one room: every coordination round is one epoch bump + one arrival
// barrier across the whole team.  A facility is K rooms that interact
// only at the cooling-plant barrier — a handful of times per coordination
// period — yet the flat executor would drag every room's chunks through
// one global barrier per *room* round, serializing rooms on the slowest
// shard of any of them.  The HierarchicalExecutor gives each room a
// private group barrier (same epoch/arrival mechanics as the flat
// executor, one instance per group), so rooms step their rounds fully
// independently, and adds one *outer* epoch barrier across group leaders
// that fires only when the facility needs to coordinate.
//
//   run_groups(fn)           outer wave: fn(g) runs once per group, on
//                            that group's leader thread (the caller leads
//                            group 0), barrier across all groups at the end
//   run_in_group(g, n, fn)   inner wave: fn(i) for i in [0, n) sharded
//                            across group g's members; callable only from
//                            group g's leader, i.e. from inside the
//                            run_groups callback
//
// Topology-aware placement: participants are assigned contiguous ranges
// of the host's logical CPUs (NUMA node order from util/cpu_topology's
// cpu_topology()), so a group's members land on neighboring cores — and,
// when groups line up with node boundaries, in one socket.  Spawned
// threads pin themselves with pthread_setaffinity_np where available;
// failures are ignored (the executor is correct unpinned, just slower),
// and the *calling* thread is never pinned — mutating the caller's
// affinity would outlive the executor.
//
// Determinism: shard assignment is a pure function of (count, group
// size), groups own index-disjoint state, so results are bit-identical
// for any thread count, any group count, pinned or not — the same
// guarantee the flat executor gives.
//
// Exceptions: a shard that throws aborts the remainder of that
// participant's span; run_in_group rethrows the first error in member
// order on the group's leader.  An exception escaping the run_groups
// callback (including one rethrown by run_in_group) is captured and
// rethrown on the caller after the outer barrier, first group first.
// The executor stays usable afterwards.
//
// Not supported: nested run_groups, run_in_group from any thread but
// group g's leader, and concurrent waves from different threads (one
// facility driver owns the executor).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

#include "util/cpu_topology.hpp"

namespace fsc {

/// Fixed team of `threads` participants partitioned into `groups`
/// contiguous worker groups.  The calling thread is group 0's leader;
/// every other participant is a persistent worker parked on either the
/// outer epoch (leaders of groups 1..G-1) or its group's epoch (members).
class HierarchicalExecutor {
 public:
  /// Spawn the team.  With `threads < groups` every group still gets one
  /// participant (its leader) — the team is `max(threads, groups)` wide.
  /// `pin` requests topology-aware placement for the spawned threads.
  /// Throws std::invalid_argument when `groups` or `threads` is 0, and
  /// std::runtime_error naming the worker when one cannot be started (the
  /// threads already running are stopped and joined first).
  HierarchicalExecutor(std::size_t groups, std::size_t threads,
                       bool pin = true)
      : groups_(groups),
        team_(threads > groups ? threads : groups) {
    if (groups == 0) {
      throw std::invalid_argument("HierarchicalExecutor: group count must be > 0");
    }
    if (threads == 0) {
      throw std::invalid_argument("HierarchicalExecutor: thread count must be > 0");
    }
    errors_.resize(team_);
    group_errors_.resize(groups_);
    states_ = std::make_unique<GroupState[]>(groups_);
    for (std::size_t g = 0; g < groups_; ++g) {
      // Contiguous participant range per group, balanced to within one:
      // [team*g/G, team*(g+1)/G).  team_ >= groups_ keeps every range
      // non-empty; the first participant of the range is the leader.
      states_[g].begin = team_ * g / groups_;
      states_[g].end = team_ * (g + 1) / groups_;
    }
    const std::vector<int> cpus = pin ? placement_cpus() : std::vector<int>{};
    workers_.reserve(team_ - 1);
    for (std::size_t p = 1; p < team_; ++p) {
      const std::size_t g = group_of(p);
      const int cpu = cpus.empty() ? -1 : cpus[p * cpus.size() / team_];
      try {
        if (p == states_[g].begin) {
          workers_.emplace_back([this, g, cpu] {
            pin_self(cpu);
            leader_loop(g);
          });
        } else {
          workers_.emplace_back([this, g, p, cpu] {
            pin_self(cpu);
            member_loop(g, p);
          });
        }
      } catch (const std::exception& e) {
        stop_and_join();
        throw std::runtime_error(
            "HierarchicalExecutor: could not start worker " +
            std::to_string(p) + " of " + std::to_string(team_ - 1) + ": " +
            e.what());
      }
    }
  }

  ~HierarchicalExecutor() { stop_and_join(); }

  HierarchicalExecutor(const HierarchicalExecutor&) = delete;
  HierarchicalExecutor& operator=(const HierarchicalExecutor&) = delete;

  std::size_t num_groups() const noexcept { return groups_; }
  /// Total participants (calling thread included); >= num_groups().
  std::size_t size() const noexcept { return team_; }
  /// Participants in group g (leader included).
  std::size_t group_size(std::size_t g) const noexcept {
    return states_[g].end - states_[g].begin;
  }

  /// Execute fn(g) once per group, on that group's leader thread (the
  /// caller runs fn(0)), and block until every group is done.  fn may
  /// call run_in_group(g, ...) for its own g.  Rethrows the first
  /// escaped exception (group order) after the barrier.
  template <typename F>
  void run_groups(F&& fn) {
    static_assert(std::is_invocable_v<F&, std::size_t>,
                  "HierarchicalExecutor::run_groups: fn must accept a group index");
    if (groups_ == 1) {
      // Single group: the outer barrier is vacuous; run on the caller.
      fn(0);
      return;
    }
    using Fn = std::remove_reference_t<F>;
    outer_invoke_ = [](void* ctx, std::size_t g) { (*static_cast<Fn*>(ctx))(g); };
    outer_ctx_ = const_cast<void*>(static_cast<const void*>(std::addressof(fn)));
    outer_pending_.store(groups_ - 1, std::memory_order_relaxed);
    outer_epoch_.fetch_add(1, std::memory_order_release);
    outer_epoch_.notify_all();

    try {
      fn(0);  // the caller leads group 0
    } catch (...) {
      group_errors_[0] = std::current_exception();
    }

    for (int spin = 0; spin < 256; ++spin) {
      if (outer_pending_.load(std::memory_order_acquire) == 0) break;
    }
    for (;;) {
      const std::size_t left = outer_pending_.load(std::memory_order_acquire);
      if (left == 0) break;
      outer_pending_.wait(left, std::memory_order_acquire);
    }
    rethrow_first_group_error();
  }

  /// Execute fn(i) for every i in [0, count) sharded across group g's
  /// members and block until the group's wave is done.  MUST be called
  /// from group g's leader (the run_groups callback for g).  Rethrows
  /// the first shard exception (member order).
  template <typename F>
  void run_in_group(std::size_t g, std::size_t count, F&& fn) {
    static_assert(std::is_invocable_v<F&, std::size_t>,
                  "HierarchicalExecutor::run_in_group: fn must accept an index");
    if (count == 0) return;
    GroupState& gs = states_[g];
    const std::size_t members = gs.end - gs.begin;
    if (members == 1 || count == 1) {
      // Inline fast path, mirroring the flat executor.
      for (std::size_t i = 0; i < count; ++i) fn(i);
      return;
    }
    using Fn = std::remove_reference_t<F>;
    gs.invoke = [](void* ctx, std::size_t i) { (*static_cast<Fn*>(ctx))(i); };
    gs.ctx = const_cast<void*>(static_cast<const void*>(std::addressof(fn)));
    gs.count = count;
    gs.pending.store(members - 1, std::memory_order_relaxed);
    gs.epoch.fetch_add(1, std::memory_order_release);
    gs.epoch.notify_all();

    run_group_shard(g, gs.begin);  // the leader is the group's participant 0

    for (int spin = 0; spin < 256; ++spin) {
      if (gs.pending.load(std::memory_order_acquire) == 0) break;
    }
    for (;;) {
      const std::size_t left = gs.pending.load(std::memory_order_acquire);
      if (left == 0) break;
      gs.pending.wait(left, std::memory_order_acquire);
    }
    rethrow_first_member_error(g);
  }

 private:
  // One per group: the inner job slots plus the group's private barrier
  // atomics, each on its own cache line so one group's arrival traffic
  // never bounces another group's epoch line.
  struct GroupState {
    void (*invoke)(void*, std::size_t) = nullptr;
    void* ctx = nullptr;
    std::size_t count = 0;
    std::size_t begin = 0;  ///< first participant (the leader)
    std::size_t end = 0;    ///< one past the last participant
    alignas(64) std::atomic<std::uint64_t> epoch{0};
    alignas(64) std::atomic<std::size_t> pending{0};
  };

  /// Releases every parked thread with a final epoch bump and joins them.
  void stop_and_join() noexcept {
    stopping_.store(true, std::memory_order_release);
    outer_epoch_.fetch_add(1, std::memory_order_release);
    outer_epoch_.notify_all();
    for (std::size_t g = 0; g < groups_; ++g) {
      states_[g].epoch.fetch_add(1, std::memory_order_release);
      states_[g].epoch.notify_all();
    }
    for (std::thread& worker : workers_) worker.join();
  }

  std::size_t group_of(std::size_t p) const noexcept {
    // team_/groups_ are fixed at construction; ranges are contiguous and
    // ascending, so a linear scan is fine (construction-time only).
    std::size_t g = 0;
    while (!(p >= states_[g].begin && p < states_[g].end)) ++g;
    return g;
  }

  /// Contiguous CPU ids in NUMA node order: participant p maps onto
  /// cpus[p * ncpus / team], so a group's contiguous participant range
  /// gets a contiguous core range (node-aligned when the arithmetic
  /// lands on a node boundary).
  static std::vector<int> placement_cpus() {
    std::vector<int> cpus;
    for (const auto& node : cpu_topology().nodes) {
      cpus.insert(cpus.end(), node.begin(), node.end());
    }
    return cpus;
  }

  /// Best-effort self-affinity for spawned workers; never the caller.
  static void pin_self(int cpu) {
#if defined(__linux__)
    if (cpu < 0) return;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(static_cast<unsigned>(cpu), &set);
    // Failure (cgroup restriction, offline cpu, ...) leaves the thread
    // free-floating — correct, just without the locality win.
    (void)pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
#else
    (void)cpu;
#endif
  }

  /// Contiguous shard of local member l over the group's current count.
  void run_group_shard(std::size_t g, std::size_t p) noexcept {
    GroupState& gs = states_[g];
    const std::size_t members = gs.end - gs.begin;
    const std::size_t l = p - gs.begin;
    const std::size_t lo = gs.count * l / members;
    const std::size_t hi = gs.count * (l + 1) / members;
    try {
      for (std::size_t i = lo; i < hi; ++i) gs.invoke(gs.ctx, i);
    } catch (...) {
      errors_[p] = std::current_exception();
    }
  }

  void rethrow_first_member_error(std::size_t g) {
    const GroupState& gs = states_[g];
    for (std::size_t p = gs.begin; p < gs.end; ++p) {
      if (errors_[p]) {
        const std::exception_ptr first = errors_[p];
        for (std::size_t q = gs.begin; q < gs.end; ++q) errors_[q] = nullptr;
        std::rethrow_exception(first);
      }
    }
  }

  void rethrow_first_group_error() {
    for (std::size_t g = 0; g < groups_; ++g) {
      if (group_errors_[g]) {
        const std::exception_ptr first = group_errors_[g];
        for (std::size_t h = 0; h < groups_; ++h) group_errors_[h] = nullptr;
        std::rethrow_exception(first);
      }
    }
  }

  /// Leaders of groups 1..G-1 park on the outer epoch; each outer wave
  /// runs the group callback (which may drive inner waves) and arrives
  /// at the outer barrier.
  void leader_loop(std::size_t g) {
    std::uint64_t seen = 0;
    for (;;) {
      std::uint64_t epoch = outer_epoch_.load(std::memory_order_acquire);
      while (epoch == seen) {
        outer_epoch_.wait(seen, std::memory_order_acquire);
        epoch = outer_epoch_.load(std::memory_order_acquire);
      }
      seen = epoch;
      if (stopping_.load(std::memory_order_acquire)) return;
      try {
        outer_invoke_(outer_ctx_, g);
      } catch (...) {
        group_errors_[g] = std::current_exception();
      }
      if (outer_pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        outer_pending_.notify_one();
      }
    }
  }

  /// Non-leader members park on their group's epoch.
  void member_loop(std::size_t g, std::size_t p) {
    GroupState& gs = states_[g];
    std::uint64_t seen = 0;
    for (;;) {
      std::uint64_t epoch = gs.epoch.load(std::memory_order_acquire);
      while (epoch == seen) {
        gs.epoch.wait(seen, std::memory_order_acquire);
        epoch = gs.epoch.load(std::memory_order_acquire);
      }
      seen = epoch;
      if (stopping_.load(std::memory_order_acquire)) return;
      run_group_shard(g, p);
      if (gs.pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        gs.pending.notify_one();
      }
    }
  }

  std::size_t groups_;
  std::size_t team_;
  std::unique_ptr<GroupState[]> states_;
  std::vector<std::thread> workers_;
  std::vector<std::exception_ptr> errors_;        ///< one slot per participant
  std::vector<std::exception_ptr> group_errors_;  ///< one slot per group

  // Outer job + barrier (leaders only), cache-line isolated like the
  // group barriers.
  void (*outer_invoke_)(void*, std::size_t) = nullptr;
  void* outer_ctx_ = nullptr;
  alignas(64) std::atomic<std::uint64_t> outer_epoch_{0};
  alignas(64) std::atomic<std::size_t> outer_pending_{0};
  std::atomic<bool> stopping_{false};
};

}  // namespace fsc
