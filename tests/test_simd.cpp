// batch/simd/ subsystem tests, at every rung of the ladder:
//
//   * dispatch: width names round-trip, the scalar fallback is always
//     supported, uncompiled widths throw, mode resolution honours
//     off/on/auto;
//   * vector math: the polynomial pow/exp of EVERY width supported on this
//     host is measured against libm over the kernel's domains and must meet
//     the ULP bounds documented in batch/simd/vmath.hpp;
//   * ServerBatch: at a fixed width the SIMD path is bit-identical across
//     range decompositions (chunking/threading cannot change a trajectory),
//     its fan-speed trajectory is bit-identical to the reference path (the
//     slew pass uses no fma and no polynomials), its thermal trajectory is
//     ULP-bounded against the reference, and its memo telemetry is exact;
//   * full drivers: coupled-rack and room runs with the vector path enabled
//     agree with the scalar-expression reference run to tight tolerances
//     (EXPECT_EQ on every integer observable), and are bit-identical across
//     chunk {1, 3, 7, auto, N} x threads {1, 2, 8} at a fixed width.
//
// CI additionally re-runs this whole binary with FSC_SIMD forced to each
// compiled width (and under ASan/UBSan and -ffp-contract=off), which turns
// the driver-level tests into forced-dispatch coverage per width.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <memory>
#include <stdexcept>
#include <vector>

#include "batch/server_batch.hpp"
#include "batch/simd/dispatch.hpp"
#include "coord/coupled_rack_engine.hpp"
#include "room/room_engine.hpp"
#include "sim/server.hpp"
#include "util/cpu_features.hpp"
#include "util/rng.hpp"
#include "util/ulp.hpp"

namespace fsc {
namespace {

using simd::SimdMode;
using simd::Width;

constexpr Width kAllWidths[] = {Width::kScalar, Width::kSse2, Width::kAvx2,
                                Width::kNeon};

// ---------------------------------------------------------------- dispatch

TEST(SimdDispatch, WidthNamesRoundTrip) {
  for (Width w : kAllWidths) {
    const auto parsed = simd::parse_width(simd::width_name(w));
    ASSERT_TRUE(parsed.has_value()) << simd::width_name(w);
    EXPECT_EQ(*parsed, w);
  }
  EXPECT_FALSE(simd::parse_width("").has_value());
  EXPECT_FALSE(simd::parse_width("avx512").has_value());
  EXPECT_FALSE(simd::parse_width("AVX2").has_value());
}

TEST(SimdDispatch, ScalarFallbackAlwaysAvailable) {
  EXPECT_TRUE(simd::width_compiled(Width::kScalar));
  EXPECT_TRUE(simd::width_supported(Width::kScalar));
  const std::vector<Width> widths = simd::supported_widths();
  ASSERT_FALSE(widths.empty());
  EXPECT_EQ(widths.front(), Width::kScalar);
  // best_width is one of the supported widths, and has_vector_isa is
  // exactly "best is wider than the fallback".
  EXPECT_NE(std::find(widths.begin(), widths.end(), simd::best_width()),
            widths.end());
  EXPECT_EQ(simd::has_vector_isa(), simd::best_width() != Width::kScalar);
  // Supported implies compiled, and a compiled width has real entry points.
  for (Width w : widths) {
    EXPECT_TRUE(simd::width_compiled(w));
    EXPECT_NE(simd::step_fn(w), nullptr);
    EXPECT_NE(simd::pow_fn(w), nullptr);
    EXPECT_NE(simd::exp_fn(w), nullptr);
  }
}

TEST(SimdDispatch, UncompiledWidthThrows) {
  for (Width w : kAllWidths) {
    if (simd::width_compiled(w)) continue;
    EXPECT_THROW(simd::step_fn(w), std::invalid_argument);
    EXPECT_THROW(simd::pow_fn(w), std::invalid_argument);
    EXPECT_THROW(simd::exp_fn(w), std::invalid_argument);
  }
}

TEST(SimdDispatch, ResolveModeSemantics) {
  EXPECT_FALSE(simd::resolve_mode(SimdMode::kOff).has_value());
  const auto on = simd::resolve_mode(SimdMode::kOn);
  ASSERT_TRUE(on.has_value());
  EXPECT_TRUE(simd::width_supported(*on));
  const auto auto_mode = simd::resolve_mode(SimdMode::kAuto);
  if (simd::has_vector_isa()) {
    ASSERT_TRUE(auto_mode.has_value());
    EXPECT_EQ(*auto_mode, *on);  // same env-or-best resolution
  } else {
    EXPECT_FALSE(auto_mode.has_value());
  }
}

TEST(SimdDispatch, ReportLinesAreNonEmpty) {
  EXPECT_FALSE(cpu_features_line().empty());
  const std::string line = simd::dispatch_line();
  EXPECT_NE(line.find("simd dispatch: "), std::string::npos);
  EXPECT_NE(line.find(simd::width_name(simd::best_width())),
            std::string::npos);
}

// ----------------------------------------- vector math: ULP bounds vs libm

/// Max ULP distance between `fn` applied element-wise and libm exp over a
/// uniform grid on [lo, hi].
std::uint64_t max_exp_ulp(simd::ExpFn fn, double lo, double hi,
                          std::size_t samples) {
  std::vector<double> x(samples), out(samples);
  for (std::size_t i = 0; i < samples; ++i) {
    x[i] = lo + (hi - lo) * static_cast<double>(i) /
                    static_cast<double>(samples - 1);
  }
  fn(x.data(), out.data(), samples);
  std::uint64_t worst = 0;
  for (std::size_t i = 0; i < samples; ++i) {
    worst = std::max(worst, ulp_distance(out[i], std::exp(x[i])));
  }
  return worst;
}

TEST(SimdVmath, ExpMeetsDocumentedUlpBounds) {
  for (Width w : simd::supported_widths()) {
    simd::ExpFn fn = simd::exp_fn(w);
    // RC-decay domain: exponents in [-1, 0] (dt up to a full time
    // constant).  Documented bound: 2 ULP.
    EXPECT_LE(max_exp_ulp(fn, -1.0, 0.0, 20001), 2u) << simd::width_name(w);
    // General negative domain down to e^-40 ~ 4e-18.  Documented: 4 ULP.
    EXPECT_LE(max_exp_ulp(fn, -40.0, 0.0, 20001), 4u) << simd::width_name(w);
  }
}

TEST(SimdVmath, ExpIsExactAtZero) {
  for (Width w : simd::supported_widths()) {
    const double x = 0.0;
    double out = -1.0;
    simd::exp_fn(w)(&x, &out, 1);
    EXPECT_EQ(out, 1.0) << simd::width_name(w);
  }
}

TEST(SimdVmath, PowMeetsDocumentedUlpBounds) {
  // The heat-sink power law domain: v in [1, 2^15] rpm (the kernel clamps
  // at 1; Table I fans top out near 9000), y = -r_exp in [-4, -0.05].
  constexpr std::size_t kVs = 257;
  constexpr std::size_t kYs = 65;
  std::vector<double> v(kVs * kYs), y(kVs * kYs), out(kVs * kYs);
  for (std::size_t i = 0; i < kVs; ++i) {
    // Log-spaced so every binade of the domain is sampled.
    const double vi =
        std::exp2(15.0 * static_cast<double>(i) / static_cast<double>(kVs - 1));
    for (std::size_t j = 0; j < kYs; ++j) {
      const double yj = -4.0 + 3.95 * static_cast<double>(j) /
                                   static_cast<double>(kYs - 1);
      v[i * kYs + j] = vi;
      y[i * kYs + j] = yj;
    }
  }
  for (Width w : simd::supported_widths()) {
    simd::pow_fn(w)(v.data(), y.data(), out.data(), out.size());
    std::uint64_t worst = 0;
    for (std::size_t k = 0; k < out.size(); ++k) {
      worst = std::max(worst, ulp_distance(out[k], std::pow(v[k], y[k])));
    }
    EXPECT_LE(worst, 64u) << simd::width_name(w);
  }
}

TEST(SimdVmath, PowIsExactAtOne) {
  for (Width w : simd::supported_widths()) {
    const double v[3] = {1.0, 2.0, 4.0};
    const double y[3] = {-0.923, -1.0, -2.0};
    double out[3] = {0.0, 0.0, 0.0};
    simd::pow_fn(w)(v, y, out, 3);
    EXPECT_EQ(out[0], 1.0) << simd::width_name(w);  // 1^y == 1 exactly
    EXPECT_EQ(out[1], 0.5) << simd::width_name(w);  // 2^-1, exact in exp2
    EXPECT_EQ(out[2], 0.0625) << simd::width_name(w);  // 4^-2
  }
}

// ------------------------------------------------- ServerBatch, per width

/// A small fleet exercising the tail path (odd lane count) with per-lane
/// state divergence driven by different commands/loads.
struct BatchFixture {
  std::vector<std::unique_ptr<Rng>> rngs;
  std::vector<std::unique_ptr<Server>> servers;
  ServerBatch batch;

  explicit BatchFixture(std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      rngs.push_back(std::make_unique<Rng>(100 + i));
      servers.push_back(
          std::make_unique<Server>(Server::table1_defaults(*rngs.back())));
      batch.add_server(*servers.back());
    }
  }

  /// Drive `periods` control periods of 20 x 0.05 s substeps with per-lane
  /// square-wave commands and loads (fans slew most of the time).
  void drive(long periods, std::size_t chunk_lanes) {
    const double dt = 0.05;
    const std::size_t n = batch.size();
    batch.prepare_dt(dt);
    for (long p = 0; p < periods; ++p) {
      for (std::size_t i = 0; i < n; ++i) {
        const double cmd =
            (p + static_cast<long>(i)) % 6 < 3 ? 2200.0 + 300.0 * i : 7600.0;
        const double watts = 40.0 + 12.0 * static_cast<double>((p + 2 * i) % 5);
        batch.set_inputs(i, watts, cmd, 25.0 + 0.5 * i);
      }
      for (long s = 0; s < 20; ++s) {
        for (std::size_t lo = 0; lo < n; lo += chunk_lanes) {
          batch.step_range(lo, std::min(n, lo + chunk_lanes), dt);
        }
      }
    }
  }
};

TEST(SimdBatch, SetSimdRejectsUnsupportedWidths) {
  BatchFixture fx(2);
  for (Width w : kAllWidths) {
    if (simd::width_supported(w)) continue;
    EXPECT_THROW(fx.batch.set_simd(w), std::invalid_argument)
        << simd::width_name(w);
  }
  // And nullopt always restores the reference path.
  fx.batch.set_simd(std::nullopt);
  EXPECT_FALSE(fx.batch.simd_width().has_value());
}

TEST(SimdBatch, BitIdenticalAcrossChunkSizesAtFixedWidth) {
  for (Width w : simd::supported_widths()) {
    BatchFixture whole(7);
    whole.batch.set_simd(w);
    whole.drive(40, 7);  // single range per substep
    for (std::size_t chunk : {1u, 2u, 3u, 5u}) {
      BatchFixture split(7);
      split.batch.set_simd(w);
      split.drive(40, chunk);
      for (std::size_t i = 0; i < 7; ++i) {
        ASSERT_EQ(whole.batch.junction_celsius(i),
                  split.batch.junction_celsius(i))
            << simd::width_name(w) << " chunk " << chunk << " lane " << i;
        ASSERT_EQ(whole.batch.heat_sink_celsius(i),
                  split.batch.heat_sink_celsius(i));
        ASSERT_EQ(whole.batch.fan_rpm(i), split.batch.fan_rpm(i));
        ASSERT_EQ(whole.batch.fan_watts(i), split.batch.fan_watts(i));
      }
    }
  }
}

TEST(SimdBatch, TracksReferencePathWithinUlpBounds) {
  // The slew pass is the same mul/add/select sequence in both paths, so
  // fan speeds must match bit-for-bit; the thermal nodes differ only by
  // fma/polynomial rounding, contracted by the stable RC dynamics.
  for (Width w : simd::supported_widths()) {
    BatchFixture ref(5);
    BatchFixture vec(5);
    vec.batch.set_simd(w);
    ref.drive(60, 5);
    vec.drive(60, 5);
    for (std::size_t i = 0; i < 5; ++i) {
      EXPECT_EQ(ref.batch.fan_rpm(i), vec.batch.fan_rpm(i))
          << simd::width_name(w) << " lane " << i;
      EXPECT_TRUE(within_ulp_or_abs(ref.batch.junction_celsius(i),
                                    vec.batch.junction_celsius(i), 1u << 14,
                                    1e-9))
          << simd::width_name(w) << " lane " << i << ": "
          << ref.batch.junction_celsius(i) << " vs "
          << vec.batch.junction_celsius(i);
      EXPECT_TRUE(within_ulp_or_abs(ref.batch.heat_sink_celsius(i),
                                    vec.batch.heat_sink_celsius(i), 1u << 14,
                                    1e-9))
          << simd::width_name(w) << " lane " << i;
      EXPECT_TRUE(within_ulp_or_abs(ref.batch.fan_watts(i),
                                    vec.batch.fan_watts(i), 1u << 14, 1e-9))
          << simd::width_name(w) << " lane " << i;
    }
  }
}

/// Lanes per vector block, mirrored from the kernel TUs (dispatch
/// intentionally does not export it).
std::size_t block_lanes(Width w) {
  switch (w) {
    case Width::kScalar: return 4;  // portable array kernel is 4 wide
    case Width::kSse2: return 2;
    case Width::kAvx2: return 4;
    case Width::kNeon: return 2;
  }
  return 1;
}

TEST(SimdBatch, MemoTelemetryIsExact) {
  for (Width w : simd::supported_widths()) {
    BatchFixture fx(5);
    fx.batch.set_simd(w);
    fx.batch.set_memo_telemetry(true);
    const double dt = 0.05;
    fx.batch.prepare_dt(dt);
    for (std::size_t i = 0; i < 5; ++i) {
      fx.batch.set_inputs(i, 50.0, 2000.0, 25.0);  // command == initial rpm
    }
    // First substep: every lane moves (prepare_dt invalidated the memos).
    // table1_defaults gives every lane identical coefficients, so the
    // rolling share pays for exactly ONE vector recompute (the first
    // block) and shares the rest.
    const std::uint64_t first_block = std::min<std::uint64_t>(
        static_cast<std::uint64_t>(block_lanes(w)), 5u);
    fx.batch.step_range(0, 5, dt);
    EXPECT_EQ(fx.batch.memo_misses(), first_block) << simd::width_name(w);
    EXPECT_EQ(fx.batch.memo_shared_hits(), 5u - first_block)
        << simd::width_name(w);
    EXPECT_EQ(fx.batch.memo_hits(), 0u) << simd::width_name(w);
    // Settled from here on: all hits, and hits + shared + misses == lanes
    // stepped.
    fx.batch.step_range(0, 5, dt);
    fx.batch.step_range(0, 5, dt);
    EXPECT_EQ(fx.batch.memo_misses(), first_block) << simd::width_name(w);
    EXPECT_EQ(fx.batch.memo_shared_hits(), 5u - first_block)
        << simd::width_name(w);
    EXPECT_EQ(fx.batch.memo_hits(), 10u) << simd::width_name(w);
    EXPECT_EQ(fx.batch.memo_hits() + fx.batch.memo_shared_hits() +
                  fx.batch.memo_misses(),
              15u)
        << simd::width_name(w);
  }
}

// ------------------------------------- full drivers: rack and room runs

CoupledRackParams rack_params(SimdMode mode) {
  CoupledRackParams p = default_coupled_scenario(1234, 240.0);
  p.rack.num_servers = 6;
  p.coordinator = "shared-fan-zone";
  p.simd = mode;
  return p;
}

/// EXPECT_EQ on every integer observable; doubles within tight ULP-or-abs
/// tolerances.  Used for SIMD-vs-reference comparisons, where fma and
/// polynomial rounding preclude bit equality but the sensor quantization
/// (0.25 C) keeps every control decision — and thus every discrete
/// observable — identical.
void expect_equivalent(const CoupledRackResult& a, const CoupledRackResult& b) {
  constexpr std::uint64_t kUlp = 1u << 20;
  constexpr double kAbs = 1e-5;
  ASSERT_EQ(a.slots.size(), b.slots.size());
  EXPECT_EQ(a.coordination_rounds, b.coordination_rounds);
  EXPECT_EQ(a.deadline_violation_percent, b.deadline_violation_percent);
  EXPECT_EQ(a.pooled_deadline_violations(), b.pooled_deadline_violations());
  EXPECT_TRUE(within_ulp_or_abs(a.fan_energy_joules, b.fan_energy_joules,
                                kUlp, kAbs))
      << a.fan_energy_joules << " vs " << b.fan_energy_joules;
  EXPECT_TRUE(within_ulp_or_abs(a.cpu_energy_joules, b.cpu_energy_joules,
                                kUlp, kAbs))
      << a.cpu_energy_joules << " vs " << b.cpu_energy_joules;
  EXPECT_TRUE(within_ulp_or_abs(a.max_junction_stats.max(),
                                b.max_junction_stats.max(), kUlp, kAbs));
  for (std::size_t i = 0; i < a.slots.size(); ++i) {
    EXPECT_EQ(a.slots[i].deadline_violations, b.slots[i].deadline_violations)
        << i;
    EXPECT_EQ(a.slots[i].deadline_periods, b.slots[i].deadline_periods) << i;
    EXPECT_EQ(a.slots[i].fan_override_rounds, b.slots[i].fan_override_rounds)
        << i;
    EXPECT_TRUE(within_ulp_or_abs(a.slots[i].result.fan_energy_joules,
                                  b.slots[i].result.fan_energy_joules, kUlp,
                                  kAbs))
        << i;
    EXPECT_TRUE(within_ulp_or_abs(a.slots[i].result.max_junction_celsius,
                                  b.slots[i].result.max_junction_celsius,
                                  kUlp, kAbs))
        << i;
  }
}

/// Bitwise identity (same comparator discipline as test_batch.cpp).
void expect_identical(const CoupledRackResult& a, const CoupledRackResult& b) {
  ASSERT_EQ(a.slots.size(), b.slots.size());
  EXPECT_EQ(a.fan_energy_joules, b.fan_energy_joules);
  EXPECT_EQ(a.cpu_energy_joules, b.cpu_energy_joules);
  EXPECT_EQ(a.deadline_violation_percent, b.deadline_violation_percent);
  EXPECT_EQ(a.thermal_violation_percent, b.thermal_violation_percent);
  EXPECT_EQ(a.max_junction_stats.max(), b.max_junction_stats.max());
  EXPECT_EQ(a.mean_junction_stats.mean(), b.mean_junction_stats.mean());
  EXPECT_EQ(a.coordination_rounds, b.coordination_rounds);
  for (std::size_t i = 0; i < a.slots.size(); ++i) {
    EXPECT_EQ(a.slots[i].deadline_violations, b.slots[i].deadline_violations)
        << i;
    EXPECT_EQ(a.slots[i].result.fan_energy_joules,
              b.slots[i].result.fan_energy_joules)
        << i;
    EXPECT_EQ(a.slots[i].result.max_junction_celsius,
              b.slots[i].result.max_junction_celsius)
        << i;
    EXPECT_EQ(a.slots[i].inlet_stats.mean(), b.slots[i].inlet_stats.mean())
        << i;
    EXPECT_EQ(a.slots[i].fan_override_rounds, b.slots[i].fan_override_rounds)
        << i;
  }
}

TEST(SimdRack, EquivalentToReferencePath) {
  const CoupledRackResult ref = CoupledRackEngine(rack_params(SimdMode::kOff), 1).run();
  const CoupledRackResult vec = CoupledRackEngine(rack_params(SimdMode::kOn), 1).run();
  expect_equivalent(ref, vec);
}

TEST(SimdRack, AutoModeMatchesExplicitChoice) {
  // kAuto must behave exactly like kOn on a vector host and exactly like
  // kOff on a scalar-only one — never a third behaviour.
  const SimdMode expected =
      simd::has_vector_isa() ? SimdMode::kOn : SimdMode::kOff;
  const CoupledRackResult a = CoupledRackEngine(rack_params(SimdMode::kAuto), 2).run();
  const CoupledRackResult b = CoupledRackEngine(rack_params(expected), 2).run();
  expect_identical(a, b);
}

TEST(SimdRack, BitIdenticalAcrossChunksAndThreadsAtFixedWidth) {
  CoupledRackParams ref_params = rack_params(SimdMode::kOn);
  ref_params.chunk = 0;
  const CoupledRackResult ref = CoupledRackEngine(ref_params, 1).run();
  for (std::size_t chunk : {1u, 3u, 7u, 0u, 6u}) {
    for (std::size_t threads : {1u, 2u, 8u}) {
      CoupledRackParams p = rack_params(SimdMode::kOn);
      p.chunk = chunk;
      const CoupledRackResult run = CoupledRackEngine(p, threads).run();
      expect_identical(ref, run);
    }
  }
}

RoomParams room_params(SimdMode mode) {
  RoomParams p = default_room_scenario(2, 77, 240.0);
  for (auto& rack : p.racks) rack.simd = mode;
  return p;
}

TEST(SimdRoom, EquivalentToReferencePathAndThreadStable) {
  const RoomResult ref = RoomEngine(room_params(SimdMode::kOff), 1).run();
  const RoomResult vec1 = RoomEngine(room_params(SimdMode::kOn), 1).run();
  // Integer observables survive the kernel swap...
  ASSERT_EQ(ref.racks.size(), vec1.racks.size());
  EXPECT_EQ(ref.migration_events, vec1.migration_events);
  EXPECT_EQ(ref.deadline_violation_percent, vec1.deadline_violation_percent);
  for (std::size_t i = 0; i < ref.racks.size(); ++i) {
    expect_equivalent(ref.racks[i].result, vec1.racks[i].result);
  }
  // ...and the SIMD run itself is bit-stable across thread counts.
  for (std::size_t threads : {2u, 8u}) {
    const RoomResult vecn = RoomEngine(room_params(SimdMode::kOn), threads).run();
    ASSERT_EQ(vec1.racks.size(), vecn.racks.size());
    EXPECT_EQ(vec1.migration_events, vecn.migration_events);
    EXPECT_EQ(vec1.fan_energy_joules, vecn.fan_energy_joules);
    EXPECT_EQ(vec1.cpu_energy_joules, vecn.cpu_energy_joules);
    for (std::size_t i = 0; i < vec1.racks.size(); ++i) {
      expect_identical(vec1.racks[i].result, vecn.racks[i].result);
    }
  }
}

}  // namespace
}  // namespace fsc
