// Scalar per-server step vs the batched SoA kernel.
//
// Two series, each in a steady (fans settled — memo hits, the common
// case) and a slewing (command flips every control period — the memoised
// pow/exp refresh constantly, the worst case) regime:
//
//   * BM_ScalarServerStep: one Server::step per call, the per-object
//     baseline from bench_micro_perf;
//   * BM_BatchedServerStep*/N: one control period of the period kernel
//     (LaneAccounting::advance_period: plant and accounting for all 20
//     substeps) with its per-period load and write-back — what the
//     batched engines do per period.  Items are server-substeps.
//
// The timed fleet is COEFFICIENT-heterogeneous (per-lane Rhs power-law
// spread, like a rack mixing SKU steppings): this defeats the kernel's
// rolling coefficient share, so a slewing lane there pays a real libm
// pow + exp.  Memo hit/shared/miss telemetry is printed per regime, plus
// a UNIFORM-fleet slewing row (identical SKUs moving in lockstep) where
// the share tier carries the load and the shared rate is non-zero.
//
// After the timing loops, main() enforces the batch claim through
// bench/verdict.hpp on a plain-chrono measurement: batched (settled, incl.
// accounting) beats the scalar baseline by >= 4x per server-substep at
// N = 64.  Exit is
// non-zero when the gate regresses.
//
// Writes BENCH_batch.json (override via FSC_BENCH_JSON) with the same
// schema as the other BENCH_*.json trajectory files.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <vector>

#include "json_reporter.hpp"
#include "verdict.hpp"

#include "batch/lane_accounting.hpp"
#include "batch/server_batch.hpp"
#include "sim/server.hpp"
#include "util/rng.hpp"

namespace {

using namespace fsc;

constexpr double kDt = 0.05;  // the engines' physics substep
constexpr long kSubstepsPerPeriod = 20;  // 1 s control period
constexpr double kUtilization = 0.5;

/// A coefficient-heterogeneous fleet: per-lane spreads on the Rhs power
/// law (r_coeff, r_exp) and the inlet preheat, so no two lanes can share
/// a transcendental and every slewing lane pays full price on the
/// reference path.
struct Fleet {
  std::vector<std::unique_ptr<Rng>> rngs;
  std::vector<std::unique_ptr<Server>> servers;
  ServerBatch batch;
  LaneAccounting accounts;

  /// `uniform` = identical Table-1 SKUs on every lane (the rolling share's
  /// best case) instead of the default heterogeneous spread.
  explicit Fleet(std::size_t n, bool uniform = false) {
    const HeatSinkModel table1 = HeatSinkModel::table1_defaults();
    for (std::size_t i = 0; i < n; ++i) {
      ServerParams params;
      if (!uniform) {
        ThermalParams thermal;
        thermal.ambient_celsius = 40.0 + 0.25 * static_cast<double>(i % 16);
        const HeatSinkModel hs(
            table1.r_base(),
            table1.r_coeff() * (1.0 + 0.01 * static_cast<double>(i % 16)),
            table1.r_exp() + 0.002 * static_cast<double>(i % 8),
            table1.max_speed(), table1.time_constant(table1.max_speed()));
        params.thermal = ServerThermalModel(hs, thermal);
      }
      rngs.push_back(std::make_unique<Rng>(derive_seed(42, i)));
      servers.push_back(std::make_unique<Server>(params, 2000.0, *rngs.back()));
      batch.add_server(*servers.back());
      accounts.add_lane(*servers.back());
    }
    batch.prepare_dt(kDt);
    set_inputs(3000.0);
  }

  void set_inputs(double fan_cmd_rpm) {
    for (std::size_t i = 0; i < servers.size(); ++i) {
      servers[i]->command_fan(fan_cmd_rpm);
      batch.set_inputs(i, servers[i]->cpu_power_now(kUtilization),
                       servers[i]->fan_speed_commanded(),
                       servers[i]->inlet_temperature());
    }
  }

  /// One control period as RackBatchStepper runs it: lane load, the
  /// period kernel over the whole fleet, write-back.
  void period() {
    for (std::size_t i = 0; i < servers.size(); ++i) accounts.load(i);
    accounts.advance_period(batch, 0, servers.size(), kDt, kSubstepsPerPeriod);
    for (std::size_t i = 0; i < servers.size(); ++i) accounts.store(i, batch);
  }
};

/// Flip the fan command every control period so the fans slew (almost)
/// continuously — the memo-refresh worst case.
double slew_command(long period) {
  return period % 2 == 0 ? 2500.0 : 7000.0;
}

/// The scalar baseline: equivalent to bench_micro_perf's
/// BM_ServerPhysicsStep.
void BM_ScalarServerStep(benchmark::State& state) {
  Rng rng(1);
  Server server = Server::table1_defaults(rng);
  server.command_fan(3000.0);
  for (auto _ : state) {
    server.step(kUtilization, kDt);
    benchmark::DoNotOptimize(server.true_junction());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ScalarServerStep);

void BM_ScalarServerStepSlewing(benchmark::State& state) {
  Rng rng(1);
  Server server = Server::table1_defaults(rng);
  long substep = 0;
  for (auto _ : state) {
    if (substep % kSubstepsPerPeriod == 0) {
      server.command_fan(slew_command(substep / kSubstepsPerPeriod));
    }
    server.step(kUtilization, kDt);
    benchmark::DoNotOptimize(server.true_junction());
    ++substep;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ScalarServerStepSlewing);

void run_batched_series(benchmark::State& state, bool slewing) {
  Fleet fleet(static_cast<std::size_t>(state.range(0)));
  long period = 0;
  for (auto _ : state) {
    if (slewing) fleet.set_inputs(slew_command(period));
    fleet.period();
    benchmark::DoNotOptimize(fleet.batch.junction_celsius(0));
    ++period;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0) * kSubstepsPerPeriod);
}

void BM_BatchedServerStep(benchmark::State& state) {
  run_batched_series(state, false);
}
BENCHMARK(BM_BatchedServerStep)->Arg(1)->Arg(8)->Arg(64);

void BM_BatchedServerStepSlewing(benchmark::State& state) {
  run_batched_series(state, true);
}
BENCHMARK(BM_BatchedServerStepSlewing)->Arg(64);

/// Plain-chrono measurement for the enforced verdict (the
/// google-benchmark results are not programmatically accessible here).

double measure_scalar_ns_per_step() {
  Rng rng(1);
  Server server = Server::table1_defaults(rng);
  server.command_fan(3000.0);
  for (int i = 0; i < 20000; ++i) server.step(kUtilization, kDt);  // warmup
  constexpr long kSteps = 300000;
  const auto start = std::chrono::steady_clock::now();
  for (long i = 0; i < kSteps; ++i) server.step(kUtilization, kDt);
  const auto stop = std::chrono::steady_clock::now();
  benchmark::DoNotOptimize(server.true_junction());
  return std::chrono::duration<double, std::nano>(stop - start).count() /
         static_cast<double>(kSteps);
}

double measure_batched_ns_per_server_step(std::size_t n) {
  Fleet fleet(n);
  for (int i = 0; i < 100; ++i) fleet.period();  // warmup (fans settle)
  constexpr long kPeriods = 1000;
  const auto start = std::chrono::steady_clock::now();
  for (long i = 0; i < kPeriods; ++i) fleet.period();
  const auto stop = std::chrono::steady_clock::now();
  benchmark::DoNotOptimize(fleet.batch.junction_celsius(0));
  return std::chrono::duration<double, std::nano>(stop - start).count() /
         static_cast<double>(kPeriods * kSubstepsPerPeriod *
                             static_cast<long>(n));
}

/// Memo telemetry per regime (hit/shared/miss; the share is lane by
/// lane).  Read back through a MetricsRegistry snapshot — the same
/// one-source-of-truth path the engines publish ("batch.memo_hit" /
/// "batch.memo_shared_hit" / "batch.memo_miss"), rather than a
/// bench-private tally.  The heterogeneous rows show ~0 % shared by
/// design; the uniform row is where the share tier carries the slew.
void print_memo_hit_rates() {
  const auto rate = [](std::uint64_t part, std::uint64_t whole) {
    return whole == 0 ? 0.0 : 100.0 * static_cast<double>(part) /
                                  static_cast<double>(whole);
  };
  const auto report = [&](const char* regime,
                          const fsc::obs::MetricsRegistry& registry) {
    const auto snap = registry.snapshot();
    const std::uint64_t hit = snap.counter("batch.memo_hit");
    const std::uint64_t shared = snap.counter("batch.memo_shared_hit");
    const std::uint64_t miss = snap.counter("batch.memo_miss");
    const std::uint64_t lanes = hit + shared + miss;
    std::printf("memo (%s): %5.1f %% hit  %5.1f %% shared  %5.1f %% miss\n",
                regime, rate(hit, lanes), rate(shared, lanes),
                rate(miss, lanes));
  };
  {
    fsc::obs::MetricsRegistry registry;
    Fleet fleet(64);
    for (int i = 0; i < 100; ++i) fleet.period();  // settle
    fleet.batch.attach_memo_counters(registry);
    for (int i = 0; i < 1000; ++i) fleet.period();
    report("settled", registry);
  }
  {
    fsc::obs::MetricsRegistry registry;
    Fleet fleet(64);
    fleet.batch.attach_memo_counters(registry);
    for (long period = 0; period < 1000; ++period) {
      fleet.set_inputs(slew_command(period));
      fleet.period();
    }
    report("slewing", registry);
  }
  {
    fsc::obs::MetricsRegistry registry;
    Fleet fleet(64, /*uniform=*/true);
    fleet.batch.attach_memo_counters(registry);
    for (long period = 0; period < 1000; ++period) {
      fleet.set_inputs(slew_command(period));
      fleet.period();
    }
    report("slewing-uniform", registry);
  }
}

bool print_throughput_verdict() {
  // Min-of-3: the minimum is the standard noise-robust estimator for a
  // deterministic workload — one preempted run must not fail the gate.
  double scalar_ns = measure_scalar_ns_per_step();
  double batched_ns = measure_batched_ns_per_server_step(64);
  for (int rep = 0; rep < 2; ++rep) {
    scalar_ns = std::min(scalar_ns, measure_scalar_ns_per_step());
    batched_ns = std::min(batched_ns, measure_batched_ns_per_server_step(64));
  }
  std::printf("\n--- batched kernel throughput (n=64, settled fans) ---\n");
  std::printf("scalar  Server::step      : %8.2f ns/server-step\n", scalar_ns);
  std::printf("batched period kernel     : %8.2f ns/server-step (%.1fx)\n",
              batched_ns, scalar_ns / batched_ns);
  print_memo_hit_rates();
  bool ok = true;
  ok &= fsc_bench::check_beats("batched-soa-n64", "ns_per_server_step",
                               "scalar", scalar_ns, batched_ns);
  ok &= fsc_bench::check_beats("batched-soa-n64", "ns_per_server_step",
                               "scalar/4 (the >=4x tentpole)", scalar_ns / 4.0,
                               batched_ns);
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  const int rc =
      fsc_bench::run_benchmarks_with_json(argc, argv, "BENCH_batch.json");
  if (rc != 0) return rc;
  return print_throughput_verdict() ? 0 : 2;
}
