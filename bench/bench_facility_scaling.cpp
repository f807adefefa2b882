// Facility-tier scaling: the thread scaling curve of the facility team
// (room leaders over per-room LockstepExecutors), and the O(100k)-server
// capacity gate.
//
// The capacity claim is enforced through bench/verdict.hpp after the
// timing loops: a 100,000-server facility (8 rooms x 25 racks x 500 slots)
// simulates a FULL DAY against a constrained cooling plant with a diurnal
// supply profile — at facility-coarse timing (5 s plant step, 1 min
// control period, 10 min coordination rounds, hourly facility barriers) —
// and stays within the memory budget (ru_maxrss).  Wall time is reported,
// not gated: it is host-dependent; the budget that makes 100k feasible at
// all is memory.
//
// Writes BENCH_facility_scaling.json (override via FSC_BENCH_JSON) with
// the same schema as the other BENCH_*.json trajectory files.  On a
// single-core host every multi-thread trajectory row is skipped, like
// bench_thread_scaling.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "json_reporter.hpp"
#include "verdict.hpp"

#include "facility/facility_engine.hpp"
#include "util/rng.hpp"

namespace {

using namespace fsc;

/// High-water resident set in MiB (0 when the platform has no rusage).
double maxrss_mib() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0.0;
#if defined(__APPLE__)
  return static_cast<double>(ru.ru_maxrss) / (1024.0 * 1024.0);  // bytes
#else
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB
#endif
#else
  return 0.0;
#endif
}

/// A facility at engine-default timing (0.05 s plant step, 1 s control
/// period, 30 s rounds): rooms of the contended default scenario under an
/// unconstrained plant, so the curve does not depend on throttle
/// trajectories.
FacilityParams curve_facility(std::size_t rooms, std::size_t racks,
                              std::size_t slots, double duration_s) {
  FacilityParams f = default_facility_scenario(rooms, racks, 42, duration_s);
  for (RoomParams& room : f.rooms) {
    for (CoupledRackParams& rack : room.racks) rack.rack.num_servers = slots;
  }
  return f;
}

/// The 100k-server day at facility-coarse timing.  Every room shares the
/// lockstep timing (the engine validates it); the plant is sized to ~85 %
/// of the fleet's nominal mid-load draw so the water-filling and
/// unmet-heat paths run for real, with a 4 C diurnal supply swing.
FacilityParams day_facility(std::size_t rooms, std::size_t racks,
                            std::size_t slots) {
  constexpr double kDay = 86400.0;
  FacilityParams f = default_facility_scenario(rooms, racks, 4242, kDay);
  for (RoomParams& room : f.rooms) {
    for (CoupledRackParams& rack : room.racks) {
      rack.rack.num_servers = slots;
      rack.rack.sim.physics_dt_s = 5.0;
      rack.rack.sim.cpu_period_s = 60.0;
      rack.coord.coordination_period_s = 600.0;
      // Synthetic workloads are pre-sampled arrays over the whole
      // duration; at the default 1 s sampling a slot-day costs 675 KiB
      // (86400 samples) and 100k slots would need ~69 GB before the
      // engines even start.  Demand is only read at control-period
      // boundaries, so sample AT the control period: 11 KiB per
      // slot-day, and the 100k facility fits comfortably in the budget.
      rack.rack.workload.base.sample_period_s = 60.0;
    }
  }
  const double fleet = static_cast<double>(rooms * racks * slots);
  // The contended default scenario draws ~109 W/server unconstrained on
  // this timing; 90 W/server keeps every coordination round genuinely
  // water-filling without starving the fleet outright.
  f.plant.capacity_watts = 0.9 * fleet * 100.0;
  f.plant.supply_amplitude_c = 4.0;
  f.facility_period_s = 3600.0;
  return f;
}

bool skip_multithread_row(benchmark::State& state, std::size_t threads) {
  if (threads > 1 && std::thread::hardware_concurrency() < 2) {
    state.SkipWithError("single-core host: no multi-thread trajectory");
    return true;
  }
  return false;
}

void BM_FacilityLockstep(benchmark::State& state) {
  const auto rooms = static_cast<std::size_t>(state.range(0));
  const auto threads = static_cast<std::size_t>(state.range(1));
  if (skip_multithread_row(state, threads)) return;
  const FacilityEngine engine(curve_facility(rooms, 2, 8, 300.0), threads);
  std::size_t servers = 0;
  for (auto _ : state) {
    const FacilityResult r = engine.run();
    servers = r.total_slots();
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(servers));
  state.counters["threads"] = static_cast<double>(threads);
}

BENCHMARK(BM_FacilityLockstep)
    ->Args({4, 1})
    ->Args({4, 2})
    ->Args({4, 8})
    ->Unit(benchmark::kMillisecond)
    ->MinTime(0.5)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

bool print_facility_verdict() {
  const unsigned hw_raw = std::thread::hardware_concurrency();
  const std::size_t team =
      std::min<std::size_t>(8, hw_raw == 0 ? 1 : hw_raw);
  bool ok = true;

  // ---- the 100k-server day ---------------------------------------------
  constexpr std::size_t kRooms = 8, kRacks = 25, kSlots = 500;
  constexpr double kBudgetMib = 8192.0;
  const std::size_t servers = kRooms * kRacks * kSlots;
  std::printf(
      "\n--- facility day: %zu servers (%zu rooms x %zu racks x %zu slots), "
      "86400 s simulated, %zu threads ---\n",
      servers, kRooms, kRacks, kSlots, team);
  const FacilityEngine engine(day_facility(kRooms, kRacks, kSlots), team);
  const auto start = std::chrono::steady_clock::now();
  const FacilityResult day = engine.run();
  const auto stop = std::chrono::steady_clock::now();
  const double wall_s = std::chrono::duration<double>(stop - start).count();
  const double rss = maxrss_mib();
  std::printf("wall time          : %8.1f s (%.0f server-days/wall-hour)\n",
              wall_s, static_cast<double>(servers) / wall_s * 3600.0);
  std::printf("peak rss           : %8.1f MiB (%.1f KiB/server)\n", rss,
              rss * 1024.0 / static_cast<double>(servers));
  std::printf("facility rounds    : %zu (%zu plant-saturated)\n",
              day.facility_rounds, day.plant_saturated_rounds);
  std::printf("deadline violations: %.3f %%\n", day.deadline_violation_percent);
  // 24 hourly periods yield 23 coordination rounds: the final barrier
  // coincides with end-of-day, so nothing is left to allocate there.
  if (day.facility_rounds != 23) {
    std::printf(
        "[REGRESSION] facility-100k-day: expected 23 hourly coordination "
        "rounds, got %zu\n",
        day.facility_rounds);
    ok = false;
  }
  if (rss > 0.0) {
    ok &= fsc_bench::check_beats("facility-100k-day", "maxrss_mib",
                                 "memory budget", kBudgetMib, rss);
  } else {
    std::printf("[SKIP] no rusage on this platform: memory budget unchecked\n");
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  const int rc = fsc_bench::run_benchmarks_with_json(
      argc, argv, "BENCH_facility_scaling.json");
  if (rc != 0) return rc;
  return print_facility_verdict() ? 0 : 2;
}
