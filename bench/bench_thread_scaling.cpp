// Thread scaling of the lockstep engines under the chunked executor path
// (PR 5's tentpole): simulated-server throughput for a 64-server rack and
// an 8-rack room as a function of thread count.
//
// Before chunking, the shard unit was a whole rack, so a single 64-server
// rack could not use a second thread at all (8 threads once ran
// *slower* than 1); with chunked ServerBatch stepping +
// the persistent LockstepExecutor the same rack splits into 8-lane shards
// that step independently between coordination barriers.
//
// After the timing loops, main() measures 1-thread vs min(8, cores)-thread
// wall time, interleaved (bench/paired_timing.hpp), and enforces the claim
// through bench/verdict.hpp: >= 3x speedup at 8 threads for the 64-server
// rack and >= 2.5x for the 8-rack room — *scaled to the hardware actually
// present*: a T-core host is asked for T/8 of the 8-core target with a
// T-thread team (an impossible demand, or an 8-over-T oversubscribed
// barrier, would turn every small CI runner permanently red), and hosts
// with a single core SKIP the verdict outright.
//
// Writes BENCH_thread_scaling.json (override via FSC_BENCH_JSON) with the
// same schema as the other BENCH_*.json trajectory files.  On a
// single-core host every multi-thread trajectory row is skipped too (not
// just the verdict): a time-sliced "scaling curve" would read as a
// regression in the committed JSON.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>

#include "json_reporter.hpp"
#include "paired_timing.hpp"
#include "verdict.hpp"

#include "coord/coupled_rack_engine.hpp"
#include "room/room_engine.hpp"

namespace {

using namespace fsc;

/// The contended rack scenario at bench horizon (8-lane chunks).
CoupledRackParams bench_rack(std::size_t servers) {
  CoupledRackParams p = default_coupled_scenario(42, 300.0);
  p.rack.num_servers = servers;
  return p;
}

RoomParams bench_room(std::size_t racks) {
  RoomParams p = default_room_scenario(racks, 42, 300.0);
  p.scheduler = "thermal-headroom";
  return p;
}

/// Multi-thread trajectory rows are meaningless on a single-core host (a
/// T-thread team time-slices one core and the "curve" is pure barrier
/// overhead): skip them so the committed BENCH JSON never carries a
/// trajectory that looks like a regression.  The JSON reporter drops
/// skipped runs.
bool skip_multithread_row(benchmark::State& state, std::size_t threads) {
  if (threads > 1 && std::thread::hardware_concurrency() < 2) {
    state.SkipWithError("single-core host: no multi-thread trajectory");
    return true;
  }
  return false;
}

void BM_RackLockstep(benchmark::State& state) {
  const auto servers = static_cast<std::size_t>(state.range(0));
  const auto threads = static_cast<std::size_t>(state.range(1));
  if (skip_multithread_row(state, threads)) return;
  const CoupledRackEngine engine(bench_rack(servers), threads);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.run());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(servers));
  state.counters["threads"] = static_cast<double>(threads);
}

BENCHMARK(BM_RackLockstep)
    ->Args({64, 1})
    ->Args({64, 2})
    ->Args({64, 8})
    ->Unit(benchmark::kMillisecond)
    ->MinTime(0.5)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

void BM_RoomLockstepChunked(benchmark::State& state) {
  const auto racks = static_cast<std::size_t>(state.range(0));
  const auto threads = static_cast<std::size_t>(state.range(1));
  if (skip_multithread_row(state, threads)) return;
  const RoomEngine engine(bench_room(racks), threads);
  std::size_t servers = 0;
  for (auto _ : state) {
    const RoomResult r = engine.run();
    servers = r.total_slots();
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(servers));
  state.counters["threads"] = static_cast<double>(threads);
}

BENCHMARK(BM_RoomLockstepChunked)
    ->Args({8, 1})
    ->Args({8, 2})
    ->Args({8, 8})
    ->Unit(benchmark::kMillisecond)
    ->MinTime(0.5)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

/// Per-run wall seconds of a 1-thread and a `team`-thread engine, timed
/// by bench/paired_timing.hpp: interleaved in alternating order so a slow
/// host phase lands on both sides, each sample at least 50 ms of
/// back-to-back runs (one 300 s rack-64 run at 1 thread lasts about 7 ms),
/// min-of-5 per side, retaken while the host steals CPU.
template <typename Engine>
fsc_bench::PairedSeconds time_1t_vs_team(const Engine& one,
                                         const Engine& team) {
  const auto timed = [](const Engine& engine) {
    const auto start = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(engine.run());
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };
  return fsc_bench::min_of_interleaved([&] { return timed(one); },
                                       [&] { return timed(team); },
                                       /*pairs=*/5);
}

int scaling_verdict() {
  const unsigned hw_raw = std::thread::hardware_concurrency();
  const std::size_t hw = hw_raw == 0 ? 1 : hw_raw;
  // An 8-thread team can only express min(8, hw)-way parallelism; the 3x /
  // 2.5x tentpole targets assume all 8 ways exist, so scale them linearly
  // down to the cores present (never below a "no slowdown" floor of 1.05x
  // once at least 2 cores exist).
  const double ways = static_cast<double>(std::min<std::size_t>(8, hw));

  std::printf("\n--- lockstep thread scaling (hardware_concurrency=%u) ---\n",
              hw_raw);
  if (hw < 2) {
    std::printf(
        "[SKIP] single-core host: an 8-thread speedup target is not "
        "expressible here; the scaling verdict runs on multi-core CI\n");
    return 0;
  }

  // Measure with a team of min(8, hw) threads: oversubscribing a spinning
  // epoch barrier 8-over-2 would sabotage the very run the derated target
  // is judged on.  The derated target and the measured team shrink
  // together, so the gate always tests the claim it states.
  const std::size_t team = static_cast<std::size_t>(ways);
  const fsc_bench::PairedSeconds rack =
      time_1t_vs_team(CoupledRackEngine(bench_rack(64), 1),
                      CoupledRackEngine(bench_rack(64), team));
  const fsc_bench::PairedSeconds room = time_1t_vs_team(
      RoomEngine(bench_room(8), 1), RoomEngine(bench_room(8), team));

  const double rack_speedup = rack.a / rack.b;
  const double room_speedup = room.a / room.b;
  std::printf("rack-64  : %7.1f ms @1t  %7.1f ms @%zut  -> %.2fx\n",
              rack.a * 1e3, rack.b * 1e3, team, rack_speedup);
  std::printf("room-8x8 : %7.1f ms @1t  %7.1f ms @%zut  -> %.2fx\n",
              room.a * 1e3, room.b * 1e3, team, room_speedup);
  fsc_bench::print_host_steal("rack-64 ", rack);
  fsc_bench::print_host_steal("room-8x8", room);

  // The derated numeric target rides in the baseline label so a verdict
  // line is self-contained: the reader sees both the 8-way claim and what
  // this host was actually asked for.
  const double rack_target = std::max(1.05, 3.0 * ways / 8.0);
  const double room_target = std::max(1.05, 2.5 * ways / 8.0);
  char rack_label[64];
  char room_label[64];
  std::snprintf(rack_label, sizeof(rack_label),
                "3x-at-8-ways tentpole derated to %.0f ways = %.2fx", ways,
                rack_target);
  std::snprintf(room_label, sizeof(room_label),
                "2.5x-at-8-ways tentpole derated to %.0f ways = %.2fx", ways,
                room_target);
  const bool rack_ok = fsc_bench::check_beats(
      "chunked-executor-rack64", "speedup_nt_over_1t", rack_label,
      rack_target, rack_speedup, /*lower_is_better=*/false);
  const bool room_ok = fsc_bench::check_beats(
      "chunked-executor-room8", "speedup_nt_over_1t", room_label,
      room_target, room_speedup, /*lower_is_better=*/false);
  return fsc_bench::verdict_exit_code(
      (!rack_ok && !rack.contended) || (!room_ok && !room.contended),
      rack.contended || room.contended);
}

}  // namespace

int main(int argc, char** argv) {
  const int rc = fsc_bench::run_benchmarks_with_json(
      argc, argv, "BENCH_thread_scaling.json");
  if (rc != 0) return rc;
  return scaling_verdict();
}
