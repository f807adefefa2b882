// Coordination cost and benefit on the default 8-slot coupled scenario.
//
// Two questions, one harness:
//
//   * overhead — what does coordination cost?  BM_UncoupledRack (the
//     "independent" coordinator with the plenum off — bit-identical to
//     per-slot runs, test_coord) vs BM_CoupledRack/independent (plenum
//     coupling, no-op coordinator) is the physics-coupling tax; the other
//     coordinators add their arbitration on top.
//   * benefit — each timed run also reports rack totals as counters
//     (total_kj, ddl_viol_pct, thr_viol_pct), and after the timing loop
//     main() re-runs the scenario once per coordinator and prints a
//     comparison table with an explicit per-metric verdict
//     (bench/verdict.hpp: policy, metric, baseline vs observed values, so
//     a red run is diagnosable from the log alone): shared-fan-zone must
//     beat the independent baseline on violations, power-budget on total
//     energy.  The process exits non-zero when either regresses, so the CI
//     smoke run enforces the coordination benefit.
//
// Writes BENCH_rack.json (override via FSC_BENCH_JSON) with the same
// schema as bench_micro_perf.json.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <thread>

#include "json_reporter.hpp"
#include "verdict.hpp"

#include "coord/coupled_rack_engine.hpp"

namespace {

using namespace fsc;

constexpr std::uint64_t kSeed = 42;
constexpr double kDurationS = 600.0;

std::size_t bench_threads() {
  return std::min<std::size_t>(8, std::max(1u, std::thread::hardware_concurrency()));
}

CoupledRackParams scenario(const std::string& coordinator) {
  CoupledRackParams p = default_coupled_scenario(kSeed, kDurationS);
  p.coordinator = coordinator;
  return p;
}

void report_counters(benchmark::State& state, const CoupledRackResult& r) {
  state.counters["total_kj"] = r.total_energy_joules / 1000.0;
  state.counters["ddl_viol_pct"] = r.deadline_violation_percent;
  state.counters["thr_viol_pct"] = r.thermal_violation_percent;
}

/// The uncoupled reference: the same rack specs with no plenum and a no-op
/// coordinator, so every slot runs as if alone.
void BM_UncoupledRack(benchmark::State& state) {
  CoupledRackParams p = scenario("independent");
  p.plenum_enabled = false;
  const CoupledRackEngine engine(p, bench_threads());
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.run());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(p.rack.num_servers));
}
BENCHMARK(BM_UncoupledRack)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_CoupledRack(benchmark::State& state, const std::string& coordinator) {
  const CoupledRackEngine engine(scenario(coordinator), bench_threads());
  CoupledRackResult last;
  for (auto _ : state) {
    last = engine.run();
    benchmark::DoNotOptimize(last);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(last.size()));
  report_counters(state, last);
}
BENCHMARK_CAPTURE(BM_CoupledRack, independent, "independent")
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_CoupledRack, shared_fan_zone, "shared-fan-zone")
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_CoupledRack, power_budget, "power-budget")
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/// Re-run each coordinator once and print the benefit table + verdict.
/// Returns true when both coordinated policies beat the baseline.
bool print_benefit_verdict() {
  const std::size_t threads = bench_threads();
  const CoupledRackResult independent =
      CoupledRackEngine(scenario("independent"), threads).run();
  const CoupledRackResult fan_zone =
      CoupledRackEngine(scenario("shared-fan-zone"), threads).run();
  const CoupledRackResult budget =
      CoupledRackEngine(scenario("power-budget"), threads).run();

  std::printf("\n--- coordination benefit (8 slots, seed %llu, %.0f s) ---\n",
              static_cast<unsigned long long>(kSeed), kDurationS);
  std::printf("%-16s  %10s  %12s  %12s\n", "coordinator", "total kJ",
              "ddl viol %", "thermal viol %");
  for (const CoupledRackResult* r : {&independent, &fan_zone, &budget}) {
    std::printf("%-16s  %10.1f  %12.3f  %12.3f\n", r->coordinator.c_str(),
                r->total_energy_joules / 1000.0, r->deadline_violation_percent,
                r->thermal_violation_percent);
  }

  std::printf("\n");
  bool ok = true;
  ok &= fsc_bench::check_beats(
      "shared-fan-zone", "pooled_deadline_violations", "independent",
      static_cast<double>(independent.pooled_deadline_violations()),
      static_cast<double>(fan_zone.pooled_deadline_violations()));
  ok &= fsc_bench::check_beats("power-budget", "total_energy_joules",
                               "independent", independent.total_energy_joules,
                               budget.total_energy_joules);
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  const int rc =
      fsc_bench::run_benchmarks_with_json(argc, argv, "BENCH_rack.json");
  if (rc != 0) return rc;
  return print_benefit_verdict() ? 0 : 2;
}
