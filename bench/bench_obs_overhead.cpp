// The telemetry tax, measured and gated — the obs/ subsystem's contract
// is "attaching telemetry never perturbs results, and costs little".  The
// first half is pinned by tests/test_obs (bit-identity EXPECT_EQ); this
// bench pins the second: full metrics + tracing on rack-64 must stay
// within 10 % of the detached run.
//
// Writes BENCH_obs_overhead.json (override via FSC_BENCH_JSON) with the
// same schema as the other BENCH_*.json trajectory files.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>

#include "json_reporter.hpp"
#include "paired_timing.hpp"
#include "verdict.hpp"

#include "coord/coupled_rack_engine.hpp"
#include "obs/obs.hpp"
#include "room/room_engine.hpp"

namespace {

using namespace fsc;

constexpr std::uint64_t kSeed = 42;
constexpr double kDurationS = 240.0;
constexpr std::size_t kRoomRacks = 4;
constexpr std::size_t kRoomSlotsPerRack = 16;  // 4 x 16 = room-64
constexpr std::size_t kRackSlots = 64;         // rack-64

std::size_t bench_threads() {
  return std::min<std::size_t>(
      8, std::max(1u, std::thread::hardware_concurrency()));
}

RoomParams room_scenario() {
  RoomParams p = default_room_scenario(kRoomRacks, kSeed, kDurationS);
  for (CoupledRackParams& rack : p.racks) {
    rack.rack.num_servers = kRoomSlotsPerRack;
  }
  return p;
}

CoupledRackParams rack_scenario() {
  CoupledRackParams p = default_coupled_scenario(kSeed, kDurationS);
  p.rack.num_servers = kRackSlots;
  return p;
}

/// Wall ns for one room-64 run, telemetry fully detached.
double room_detached_ns() {
  const RoomEngine engine(room_scenario(), bench_threads());
  const auto t0 = std::chrono::steady_clock::now();
  const RoomResult r = engine.run();
  benchmark::DoNotOptimize(r.total_energy_joules);
  return std::chrono::duration<double, std::nano>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// Wall ns for one rack-64 run; `attached` = full metrics + tracing.
double rack_ns(bool attached) {
  obs::MetricsRegistry registry(bench_threads());
  obs::TraceRecorder trace;
  CoupledRackParams params = rack_scenario();
  if (attached) {
    params.obs.metrics = &registry;
    params.obs.trace = &trace;
  }
  const CoupledRackEngine engine(params, bench_threads());
  const auto t0 = std::chrono::steady_clock::now();
  const CoupledRackResult r = engine.run();
  benchmark::DoNotOptimize(r.total_energy_joules);
  return std::chrono::duration<double, std::nano>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

// Trajectory rows (min-of handled by google-benchmark's own repetition).
void BM_Room64Detached(benchmark::State& state) {
  for (auto _ : state) benchmark::DoNotOptimize(room_detached_ns());
}
BENCHMARK(BM_Room64Detached)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_Rack64Detached(benchmark::State& state) {
  for (auto _ : state) benchmark::DoNotOptimize(rack_ns(false));
}
BENCHMARK(BM_Rack64Detached)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_Rack64Attached(benchmark::State& state) {
  for (auto _ : state) benchmark::DoNotOptimize(rack_ns(true));
}
BENCHMARK(BM_Rack64Attached)->Unit(benchmark::kMillisecond)->UseRealTime();

/// Measure the gate with bench/paired_timing.hpp: detached and attached
/// samples interleaved in alternating order so host drift lands on both
/// sides, each sample at least 50 ms of back-to-back runs (one 240 s
/// rack-64 run lasts only 5-10 ms, short enough for host contention to
/// decide the ratio), min-of-5 per side, retaken while the host steals
/// CPU; then print the verdict and return the exit code.
int overhead_verdict() {
  const fsc_bench::PairedSeconds s = fsc_bench::min_of_interleaved(
      [] { return rack_ns(false) * 1e-9; }, [] { return rack_ns(true) * 1e-9; },
      /*pairs=*/5);
  std::printf("\n--- telemetry overhead (threads=%zu) ---\n", bench_threads());
  std::printf("rack-64 detached          : %10.2f ms\n", s.a * 1e3);
  std::printf("rack-64 metrics + tracing : %10.2f ms (%.2fx)\n", s.b * 1e3,
              s.b / s.a);
  fsc_bench::print_host_steal("rack-64", s);
  const bool ok = fsc_bench::check_beats("obs-attached", "rack64_wall_ns",
                                         "1.10x detached", 1.10 * s.a * 1e9,
                                         s.b * 1e9);
  return fsc_bench::verdict_exit_code(!ok && !s.contended, s.contended);
}

}  // namespace

int main(int argc, char** argv) {
  const int rc = fsc_bench::run_benchmarks_with_json(argc, argv,
                                                     "BENCH_obs_overhead.json");
  if (rc != 0) return rc;
  return overhead_verdict();
}
