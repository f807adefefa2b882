// Allocation gate: the steady state of every tier allocates nothing.
//
// This executable replaces the global operator new/delete with a counting
// pair (every replaceable form the library reaches, the std::align_val_t
// forms LaneVector uses included) and asserts, after a few warm-up rounds:
//   - coupled-rack rounds (the shard wave plus coordinate_round) allocate 0
//     under every built-in coordinator, on 1- and 4-participant teams;
//   - room rounds (the shard wave plus finish_round) allocate 0 under
//     every built-in scheduler;
//   - a single-server SimulationEngine::Session::step_period allocates 0
//     under every DTM policy;
//   - whole runs at every tier make a horizon-independent number of
//     allocations (doubling the horizon adds at most a few container
//     doublings);
//   - require(true, <literal>) allocates 0.
// The counter is a relaxed atomic: executor workers allocate concurrently
// while a session is built on the team.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "coord/coupled_rack_engine.hpp"
#include "core/policy_factory.hpp"
#include "core/solutions.hpp"
#include "facility/facility_engine.hpp"
#include "room/room_engine.hpp"
#include "sim/engine.hpp"
#include "sim/instrumentation.hpp"
#include "sim/scenario.hpp"
#include "sim/server.hpp"
#include "sim/simulation.hpp"
#include "util/lane_vector.hpp"
#include "util/lockstep_executor.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"
#include "workload/synthetic.hpp"

// ------------------------------------------------------ counting hooks

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_new(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

void* counted_new(std::size_t n, std::align_val_t al) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const std::size_t a = static_cast<std::size_t>(al);
  // aligned_alloc wants a size that is a multiple of the alignment.
  const std::size_t size = (n == 0 ? a : (n + a - 1) / a * a);
  if (void* p = std::aligned_alloc(a, size)) return p;
  throw std::bad_alloc();
}

/// Out of line, so the compiler does not pair an inlined free() with the
/// operator new it sees at the call site and warn about a mismatch.
[[gnu::noinline]] void release(void* p) noexcept { std::free(p); }

}  // namespace

void* operator new(std::size_t n) { return counted_new(n); }
void* operator new[](std::size_t n) { return counted_new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return counted_new(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return counted_new(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t n, std::align_val_t al) {
  return counted_new(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return counted_new(n, al);
}
void* operator new(std::size_t n, std::align_val_t al,
                   const std::nothrow_t&) noexcept {
  try {
    return counted_new(n, al);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, std::align_val_t al,
                     const std::nothrow_t&) noexcept {
  try {
    return counted_new(n, al);
  } catch (...) {
    return nullptr;
  }
}

void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { release(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  release(p);
}
void operator delete(void* p, std::align_val_t) noexcept { release(p); }
void operator delete[](void* p, std::align_val_t) noexcept { release(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  release(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  release(p);
}

namespace fsc {
namespace {

/// Heap allocations made while running `f` (on any thread).
template <typename F>
std::uint64_t allocations_during(F&& f) {
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  f();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

/// Keeps the optimiser from eliding an allocation whose result is unused.
void escape(const void* p) { asm volatile("" : : "g"(p) : "memory"); }

constexpr int kWarmupRounds = 3;
constexpr int kMeasuredRounds = 8;
/// Allowance for whole-run count(2T) - count(T): room for container
/// doubling, nothing per period.
constexpr std::uint64_t kHorizonSlack = 32;

/// Permanent faults armed at t = 30 s, inside the warm-up, so the
/// failsafe paths (a dark slot, a seized blower, a noisy sensor) run in
/// the measured rounds.
FaultPlan steady_faults() {
  FaultPlan plan;
  plan.events.push_back({FaultKind::kFanSeized, 0, 1, 30.0, -1.0, 0.0});
  plan.events.push_back({FaultKind::kSlotBlackout, 0, 9, 30.0, -1.0, 0.0});
  plan.events.push_back({FaultKind::kSensorNoisy, 0, 4, 30.0, -1.0, 1.5});
  return plan;
}

// --------------------------------------------------------------- hooks

TEST(CountingHooks, SeeEveryFormTheLibraryUses) {
  EXPECT_EQ(allocations_during([] {
              std::vector<double> v(100);
              escape(v.data());
            }),
            1u);
  EXPECT_EQ(allocations_during([] {
              LaneVector<double> v(100);
              escape(v.data());
            }),
            1u);
  EXPECT_EQ(allocations_during([] {
              auto* p = new (std::nothrow) int[4];
              escape(p);
              delete[] p;
            }),
            1u);
  // A message longer than the small-string buffer, as on the hot path.
  EXPECT_EQ(allocations_during([] {
              std::string s("a message longer than fifteen bytes");
              escape(s.data());
            }),
            1u);
}

TEST(CountingHooks, RequireAllocatesOnlyWhenItThrows) {
  // An opaque condition, so the passing checks cannot be folded away.
  volatile bool ok = true;
  EXPECT_EQ(allocations_during([&] {
              for (int i = 0; i < 100; ++i) {
                require(ok, "CountingHooks: a literal longer than 15 bytes");
              }
            }),
            0u);
  EXPECT_GT(allocations_during([] {
              try {
                require(false, "CountingHooks: a literal longer than 15 bytes");
              } catch (const std::invalid_argument&) {
              }
            }),
            0u);
}

// --------------------------------------------------------- rack rounds

/// (registry name, participants) of one round-allocation case.
using RoundCase = std::tuple<std::string, std::size_t>;

std::string case_name(const ::testing::TestParamInfo<RoundCase>& info) {
  std::string name = std::get<0>(info.param) + "_" +
                     std::to_string(std::get<1>(info.param)) + "t";
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  return name;
}

class RackRounds : public ::testing::TestWithParam<RoundCase> {};

TEST_P(RackRounds, AllocateNothing) {
  const auto& [coordinator, threads] = GetParam();
  // The rack64-allcores shape, several chunks wide.
  ScenarioSpec spec;
  spec.slots = 64;
  spec.seed = 7;
  spec.duration_s = 900.0;
  spec.coordinator = coordinator;
  // Oversubscribed (so water-filling runs) but above the min-cap floor.
  spec.rack_budget_watts = 64.0 * 125.0;
  if (coordinator == "failsafe") spec.faults = steady_faults();
  const CoupledRackParams params = spec.build_rack();

  LockstepExecutor team(threads);
  CoupledRackEngine::Session session(params, team);
  const std::size_t shards = session.num_shards();
  const auto round = [&] {
    team.run(shards, [&session](std::size_t s) { session.run_shard(s); });
    session.coordinate_round();
  };
  for (int i = 0; i < kWarmupRounds; ++i) round();
  const std::uint64_t n = allocations_during([&] {
    for (int i = 0; i < kMeasuredRounds; ++i) round();
  });
  ASSERT_FALSE(session.done()) << "horizon too short for the measured rounds";
  EXPECT_EQ(n, 0u) << n / kMeasuredRounds << " allocations per round";
}

INSTANTIATE_TEST_SUITE_P(
    EveryCoordinator, RackRounds,
    ::testing::Combine(::testing::Values("independent", "shared-fan-zone",
                                         "power-budget", "failsafe"),
                       ::testing::Values(std::size_t{1}, std::size_t{4})),
    case_name);

// --------------------------------------------------------- room rounds

class RoomRounds : public ::testing::TestWithParam<RoundCase> {};

TEST_P(RoomRounds, AllocateNothing) {
  const auto& [scheduler, threads] = GetParam();
  // The room8x32-1t shape.
  ScenarioSpec spec;
  spec.racks = 8;
  spec.slots = 32;
  spec.seed = 7;
  spec.duration_s = 900.0;
  spec.scheduler = scheduler;
  spec.coordinator = "independent";
  if (scheduler == "failsafe") spec.faults = steady_faults();
  const RoomParams params = spec.build_room();

  LockstepExecutor team(threads);
  RoomEngine::Session session(params, team);
  const std::size_t shards = session.num_shards();
  const auto round = [&] {
    session.mark_round_start();
    team.run(shards, [&session](std::size_t s) { session.run_shard(s); });
    session.finish_round();
  };
  for (int i = 0; i < kWarmupRounds; ++i) round();
  const std::uint64_t n = allocations_during([&] {
    for (int i = 0; i < kMeasuredRounds; ++i) round();
  });
  ASSERT_FALSE(session.done()) << "horizon too short for the measured rounds";
  EXPECT_EQ(n, 0u) << n / kMeasuredRounds << " allocations per round";
}

INSTANTIATE_TEST_SUITE_P(
    EveryScheduler, RoomRounds,
    ::testing::Combine(::testing::Values("static", "thermal-headroom",
                                         "power-aware", "failsafe"),
                       ::testing::Values(std::size_t{1}, std::size_t{4})),
    case_name);

// ------------------------------------------------------- single server

TEST(SingleServer, StepPeriodAllocatesNothingUnderEveryPolicy) {
  for (const std::string& name : PolicyFactory::instance().names()) {
    Rng rng(2014);
    Server server(ServerParams{}, 2000.0, rng);
    SquareNoiseParams wl;
    wl.duration_s = 600.0;
    const auto workload = make_square_noise_workload(wl, rng);
    const auto policy = PolicyFactory::instance().make(name, SolutionConfig{});
    SimulationParams sim;
    sim.duration_s = 600.0;
    sim.initial_utilization = 0.1;
    // run_simulation's sinks minus the trace recorder, whose output grows
    // with the horizon by design.
    SimulationEngine engine(sim);
    DeadlineStatsSink periods;
    ThermalViolationSink thermal;
    EnergyAccumulatorSink energy;
    engine.add_sink(&periods);
    engine.add_sink(&thermal);
    engine.add_sink(&energy);

    SimulationEngine::Session session(engine, server, *policy, *workload);
    for (int i = 0; i < kWarmupRounds; ++i) session.step_period();
    const std::uint64_t n = allocations_during([&] {
      for (int i = 0; i < 100; ++i) session.step_period();
    });
    ASSERT_FALSE(session.done());
    EXPECT_EQ(n, 0u) << name;
  }
}

// ---------------------------------------------------- whole-run counts

/// Allocations made by run(horizon), and by run(2 * horizon), reported and
/// checked for horizon independence.
template <typename Run>
void expect_horizon_independent(const char* what, double horizon, Run run) {
  run(horizon);  // first-use static state (registries, caches) out of the way
  const std::uint64_t once = allocations_during([&] { run(horizon); });
  const std::uint64_t twice = allocations_during([&] { run(2.0 * horizon); });
  std::printf("%s: %llu allocations at %.0f s, %llu at %.0f s\n", what,
              static_cast<unsigned long long>(once), horizon,
              static_cast<unsigned long long>(twice), 2.0 * horizon);
  EXPECT_LE(twice, once + kHorizonSlack) << what;
}

TEST(WholeRun, RunSimulationCountDoesNotGrowWithTheHorizon) {
  expect_horizon_independent("run_simulation", 1800.0, [](double duration) {
    Rng rng(2014);
    Server server(ServerParams{}, 2000.0, rng);
    SquareNoiseParams wl;
    wl.duration_s = duration;
    const auto workload = make_square_noise_workload(wl, rng);
    const auto policy =
        PolicyFactory::instance().make("r-coord+a-tref+ss-fan", SolutionConfig{});
    SimulationParams sim;
    sim.duration_s = duration;
    sim.initial_utilization = 0.1;
    const SimulationResult r = run_simulation(server, *policy, *workload, sim);
    escape(&r);
  });
}

TEST(WholeRun, RackCountDoesNotGrowWithTheHorizon) {
  for (const char* coordinator : {"shared-fan-zone", "failsafe"}) {
    expect_horizon_independent(coordinator, 900.0, [&](double duration) {
      ScenarioSpec spec;
      spec.slots = 19;
      spec.duration_s = duration;
      spec.coordinator = coordinator;
      spec.faults = steady_faults();
      const CoupledRackResult r =
          CoupledRackEngine(spec.build_rack(), 2).run();
      escape(&r);
    });
  }
}

TEST(WholeRun, RoomCountDoesNotGrowWithTheHorizon) {
  for (const char* scheduler : {"thermal-headroom", "power-aware"}) {
    expect_horizon_independent(scheduler, 900.0, [&](double duration) {
      ScenarioSpec spec;
      spec.racks = 4;
      spec.slots = 12;
      spec.duration_s = duration;
      spec.scheduler = scheduler;
      const RoomResult r = RoomEngine(spec.build_room(), 2).run();
      escape(&r);
    });
  }
}

TEST(WholeRun, FacilityCountDoesNotGrowWithTheHorizon) {
  // The facility-faulted-allcores recipe at a smaller shape: power-aware
  // rooms, failsafe racks, a constrained plant and a fixed fault plan.
  expect_horizon_independent("facility", 1800.0, [](double duration) {
    ScenarioSpec spec;
    spec.rooms = 2;
    spec.racks = 2;
    spec.slots = 10;
    spec.duration_s = duration;
    spec.scheduler = "power-aware";
    spec.coordinator = "failsafe";
    spec.plant_capacity_watts = 4000.0;
    spec.supply_amplitude_c = 3.0;
    spec.supply_period_s = 3600.0;
    spec.facility_period_s = 300.0;
    spec.faults = steady_faults();
    const FacilityResult r = FacilityEngine(spec.build_facility(), 2).run();
    escape(&r);
  });
}

}  // namespace
}  // namespace fsc
