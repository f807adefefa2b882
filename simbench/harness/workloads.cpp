#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <thread>
#include <stdexcept>
#include <string_view>

#include "fault/fault_generator.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"

namespace simbench {

namespace {

// Horizons are sized so one batch takes a few wall seconds on a 4-core
// 2.1 GHz host; scenario counts so the pooled simulated outputs move by
// well under their bounds from one seed to the next.
const std::vector<Workload> kWorkloads = {
    {"room8x32-1t", Tier::kRoom, false, 900.0, 8},
    {"rack64-allcores", Tier::kRack, true, 900.0, 64},
    {"facility-faulted-allcores", Tier::kFacility, true, 1800.0, 48},
};

constexpr std::size_t kFacilityRooms = 4;

std::uint64_t fnv1a(std::string_view bytes, std::uint64_t h) {
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

/// Digest of the report text plus the exact bits of the three simulated
/// metrics, so a digest match means the reported values match too.
void seal(Outcome& o, const std::string& report) {
  std::uint64_t h = fnv1a(report, 14695981039346656037ULL);
  for (const double v :
       {o.deadline_violation_pct, o.fan_energy_kj, o.max_junction_c}) {
    char bits[sizeof v];
    std::memcpy(bits, &v, sizeof v);
    h = fnv1a(std::string_view(bits, sizeof bits), h);
  }
  o.digest = h;
}

template <typename EngineT>
class TierEngine final : public Engine {
 public:
  template <typename Params>
  TierEngine(Params params, std::size_t threads)
      : engine_(std::move(params), threads) {}
  Outcome run() const override { return outcome_of(engine_.run()); }

 private:
  EngineT engine_;
};

}  // namespace

const std::vector<Workload>& all_workloads() { return kWorkloads; }

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::uint64_t scenario_seed(std::uint64_t seed, std::size_t i) {
  return fsc::derive_seed(seed, 1 + i);
}

std::size_t team_size(const Workload& w) {
  if (!w.all_cores) return 1;
  // FacilityEngine widens its team to the room count, so the facility runs
  // one thread per room whatever the host has.
  if (w.tier == Tier::kFacility) return kFacilityRooms;
  return fsc::ScenarioSpec{}.resolve_threads();
}

fsc::ScenarioSpec make_spec(const Workload& w, std::uint64_t seed,
                            std::size_t threads, double horizon_scale) {
  fsc::ScenarioSpec s;
  s.seed = seed;
  s.duration_s = w.horizon_s * horizon_scale;
  s.threads = threads;
  switch (w.tier) {
    case Tier::kRoom:
      s.racks = 8;
      s.slots = 32;
      s.scheduler = "thermal-headroom";
      s.coordinator = "independent";
      break;
    case Tier::kRack:
      s.racks = 1;
      s.slots = 64;
      // Not power-budget: its default 1000 W budget is sized for 8 slots.
      s.coordinator = "shared-fan-zone";
      break;
    case Tier::kFacility: {
      s.rooms = kFacilityRooms;
      s.racks = 4;
      s.slots = 16;
      s.scheduler = "power-aware";
      s.coordinator = "failsafe";
      s.plant_capacity_watts = 28000.0;  // ~85% of the unconstrained load
      s.supply_amplitude_c = 3.0;
      s.supply_period_s = s.duration_s;  // one full swing per scenario
      s.facility_period_s = 300.0;
      fsc::FaultScenarioParams fp;
      fp.num_racks = s.racks;
      fp.num_slots = s.slots;
      fp.duration_s = s.duration_s;
      fp.num_events = 8;
      s.faults = fsc::FaultScenarioGenerator(fp).generate(
          fsc::derive_seed(seed, 0xFA17));
      break;
    }
  }
  return s;
}

std::size_t servers(const fsc::ScenarioSpec& spec) {
  const std::size_t per_room = spec.racks * spec.slots;
  return spec.rooms > 0 ? spec.rooms * per_room : per_room;
}

std::unique_ptr<Engine> build_engine(const Workload& w,
                                     const fsc::ScenarioSpec& spec,
                                     std::size_t threads) {
  switch (w.tier) {
    case Tier::kRack:
      return std::make_unique<TierEngine<fsc::CoupledRackEngine>>(
          spec.build_rack(), threads);
    case Tier::kRoom:
      return std::make_unique<TierEngine<fsc::RoomEngine>>(spec.build_room(),
                                                           threads);
    case Tier::kFacility:
      return std::make_unique<TierEngine<fsc::FacilityEngine>>(
          spec.build_facility(), threads);
  }
  throw std::logic_error("build_engine: unknown tier");
}

std::vector<Outcome> reference_outcomes(const Workload& w,
                                        const std::vector<std::uint64_t>& seeds,
                                        double horizon_scale) {
  std::vector<Outcome> out(seeds.size());
  std::vector<std::exception_ptr> errors(seeds.size());
  std::atomic<std::size_t> next{0};
  const auto work = [&] {
    for (std::size_t i; (i = next.fetch_add(1)) < seeds.size();) {
      try {
        out[i] = build_engine(w, make_spec(w, seeds[i], 1, horizon_scale), 1)
                     ->run();
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  };
  // References are independent 1-thread runs, so they share the host's
  // cores — except the facility's, which run a worker per room anyway.
  const std::size_t team = w.tier == Tier::kFacility ? kFacilityRooms : 1;
  const std::size_t workers = std::clamp<std::size_t>(
      fsc::ScenarioSpec{}.resolve_threads() / team, 1, seeds.size());
  {
    std::vector<std::jthread> pool;
    for (std::size_t t = 1; t < workers; ++t) pool.emplace_back(work);
    work();
  }
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  return out;
}

Outcome outcome_of(const fsc::CoupledRackResult& r) {
  Outcome o;
  o.deadline_violation_pct = r.deadline_violation_percent;
  o.fan_energy_kj = r.fan_energy_joules / 1000.0;
  o.max_junction_c = r.max_junction_stats.max();
  seal(o, r.to_json());
  return o;
}

Outcome outcome_of(const fsc::RoomResult& r) {
  Outcome o;
  o.deadline_violation_pct = r.deadline_violation_percent;
  o.fan_energy_kj = r.fan_energy_joules / 1000.0;
  o.max_junction_c = r.max_junction_stats.max();
  o.migrations = r.migration_events;
  seal(o, r.to_json());
  return o;
}

Outcome outcome_of(const fsc::FacilityResult& r) {
  Outcome o;
  o.deadline_violation_pct = r.deadline_violation_percent;
  o.fan_energy_kj = r.fan_energy_joules / 1000.0;
  o.facility_rounds = r.facility_rounds;
  o.saturated_rounds = r.plant_saturated_rounds;
  // The facility report has no junction temperatures; the per-room
  // reports carry them, so the digest covers those too.
  std::string report = r.to_json();
  for (const fsc::FacilityRoomSummary& room : r.rooms) {
    o.max_junction_c =
        std::max(o.max_junction_c, room.result.max_junction_stats.max());
    o.migrations += room.result.migration_events;
    report += room.result.to_json();
  }
  seal(o, report);
  return o;
}

double now_s() { return static_cast<double>(now_ns()) * 1e-9; }

std::int64_t now_ns() { return fsc::obs::monotonic_ns(); }

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double peak_rss_mib() {
  // VmHWM, not getrusage: Linux carries ru_maxrss across exec, so a
  // harness launched from a large parent would report the parent's peak.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  throw std::runtime_error("peak_rss_mib: no VmHWM in /proc/self/status");
}

}  // namespace simbench
