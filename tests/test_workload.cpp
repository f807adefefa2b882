// Unit tests for src/workload: trace types, synthetic generators,
// predictors, and trace I/O round-trips.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <limits>
#include <memory>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/rng.hpp"
#include "util/statistics.hpp"
#include "util/units.hpp"
#include "workload/predictor.hpp"
#include "workload/synthetic.hpp"
#include "workload/trace.hpp"
#include "workload/trace_io.hpp"

namespace fsc {
namespace {

// ---------------------------------------------------------------- trace types

TEST(ConstantWorkload, AlwaysSameLevel) {
  const ConstantWorkload w(0.42);
  EXPECT_DOUBLE_EQ(w.demand(0.0), 0.42);
  EXPECT_DOUBLE_EQ(w.demand(1e6), 0.42);
}

TEST(ConstantWorkload, RejectsOutOfRange) {
  EXPECT_THROW(ConstantWorkload(-0.1), std::invalid_argument);
  EXPECT_THROW(ConstantWorkload(1.1), std::invalid_argument);
}

TEST(SquareWave, PaperLevelsAndPhase) {
  const SquareWaveWorkload w(0.1, 0.7, 200.0);
  EXPECT_DOUBLE_EQ(w.demand(0.0), 0.1);
  EXPECT_DOUBLE_EQ(w.demand(99.0), 0.1);
  EXPECT_DOUBLE_EQ(w.demand(100.0), 0.7);
  EXPECT_DOUBLE_EQ(w.demand(199.0), 0.7);
  EXPECT_DOUBLE_EQ(w.demand(200.0), 0.1);  // wraps
}

TEST(SquareWave, NegativeTimeClampsToStart) {
  const SquareWaveWorkload w(0.1, 0.7, 200.0);
  EXPECT_DOUBLE_EQ(w.demand(-5.0), 0.1);
}

TEST(SquareWave, RejectsBadParameters) {
  EXPECT_THROW(SquareWaveWorkload(-0.1, 0.7, 100.0), std::invalid_argument);
  EXPECT_THROW(SquareWaveWorkload(0.1, 1.7, 100.0), std::invalid_argument);
  EXPECT_THROW(SquareWaveWorkload(0.1, 0.7, 0.0), std::invalid_argument);
}

TEST(SampledWorkload, ZeroOrderHold) {
  const SampledWorkload w({0.1, 0.5, 0.9}, 2.0);
  EXPECT_DOUBLE_EQ(w.demand(0.0), 0.1);
  EXPECT_DOUBLE_EQ(w.demand(1.99), 0.1);
  EXPECT_DOUBLE_EQ(w.demand(2.0), 0.5);
  EXPECT_DOUBLE_EQ(w.demand(4.0), 0.9);
  EXPECT_DOUBLE_EQ(w.demand(100.0), 0.9);  // last sample held forever
  EXPECT_DOUBLE_EQ(w.duration(), 6.0);
}

TEST(SampledWorkload, RejectsBadInput) {
  EXPECT_THROW(SampledWorkload({}, 1.0), std::invalid_argument);
  EXPECT_THROW(SampledWorkload({0.5}, 0.0), std::invalid_argument);
  EXPECT_THROW(SampledWorkload({1.5}, 1.0), std::invalid_argument);
}

TEST(LambdaWorkload, ClampsCallableOutput) {
  const LambdaWorkload w([](double t) { return t; });
  EXPECT_DOUBLE_EQ(w.demand(0.5), 0.5);
  EXPECT_DOUBLE_EQ(w.demand(7.0), 1.0);  // clamped
}

// ---------------------------------------------------------------- synthetic

TEST(SquareNoise, MatchesPaperParameters) {
  Rng rng(1);
  SquareNoiseParams p;  // defaults: 0.1/0.7, sigma 0.04
  p.duration_s = 2000.0;
  const auto w = make_square_noise_workload(p, rng);
  // Samples in the low phase should centre on 0.1, high phase on 0.7.
  RunningStats low, high;
  for (double t = 0.0; t < 2000.0; t += 1.0) {
    const double phase = std::fmod(t, 200.0);
    (phase < 100.0 ? low : high).add(w->demand(t));
  }
  EXPECT_NEAR(low.mean(), 0.1, 0.02);
  EXPECT_NEAR(high.mean(), 0.7, 0.02);
  EXPECT_NEAR(low.stddev(), 0.04, 0.015);
  EXPECT_NEAR(high.stddev(), 0.04, 0.015);
}

TEST(SquareNoise, DeterministicPerSeed) {
  SquareNoiseParams p;
  p.duration_s = 100.0;
  Rng a(9), b(9);
  const auto wa = make_square_noise_workload(p, a);
  const auto wb = make_square_noise_workload(p, b);
  for (double t = 0.0; t < 100.0; t += 1.0) {
    EXPECT_DOUBLE_EQ(wa->demand(t), wb->demand(t));
  }
}

TEST(SquareNoise, AllSamplesInRange) {
  Rng rng(2);
  SquareNoiseParams p;
  p.noise_stddev = 0.5;  // huge noise to exercise clamping
  p.duration_s = 500.0;
  const auto w = make_square_noise_workload(p, rng);
  for (double t = 0.0; t < 500.0; t += 1.0) {
    EXPECT_GE(w->demand(t), 0.0);
    EXPECT_LE(w->demand(t), 1.0);
  }
}

TEST(Spiky, SpikesReachConfiguredLevel) {
  Rng rng(3);
  SpikyParams p;
  p.base.duration_s = 3000.0;
  p.spike_rate_per_s = 1.0 / 100.0;  // frequent spikes for the test
  p.spike_level = 1.0;
  const auto w = make_spiky_workload(p, rng);
  int spike_samples = 0;
  for (double t = 0.0; t < 3000.0; t += 1.0) {
    if (w->demand(t) >= 0.99) ++spike_samples;
  }
  // ~30 spikes x 20 s each = ~600 expected spike seconds; allow wide margin.
  EXPECT_GT(spike_samples, 100);
}

TEST(Spiky, ZeroRateMeansNoSpikes) {
  Rng rng(4);
  SpikyParams p;
  p.base.duration_s = 500.0;
  p.base.noise_stddev = 0.0;
  p.spike_rate_per_s = 0.0;
  const auto w = make_spiky_workload(p, rng);
  for (double t = 0.0; t < 500.0; t += 1.0) {
    EXPECT_LE(w->demand(t), 0.7);
  }
}

/// make_spiky_workload as it was written before spikes were overwritten in
/// place: the base trace is read back through its virtual demand() into a
/// second vector.  The in-place form must match it bit for bit.
std::unique_ptr<SampledWorkload> two_vector_spiky(const SpikyParams& params,
                                                  Rng& rng) {
  auto base = make_square_noise_workload(params.base, rng);
  const std::size_t n = sample_count(params.base.duration_s,
                                     params.base.sample_period_s, "reference");
  std::vector<double> samples;
  samples.reserve(n);
  const double duration = params.base.duration_s;
  const bool spiky = params.spike_rate_per_s > 0.0;
  double next_spike = duration;
  const auto draw_next = [&] {
    next_spike += rng.exponential(params.spike_rate_per_s);
  };
  if (spiky) {
    next_spike = 0.0;
    draw_next();
  }
  double spike_until = -1.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double now = static_cast<double>(i) * params.base.sample_period_s;
    while (next_spike < duration && next_spike <= now) {
      spike_until = next_spike + params.spike_duration_s;
      draw_next();
    }
    const double u = now < spike_until ? params.spike_level : base->demand(now);
    samples.push_back(clamp_utilization(u));
  }
  while (spiky && next_spike < duration) draw_next();
  return std::make_unique<SampledWorkload>(std::move(samples),
                                           params.base.sample_period_s);
}

TEST(Spiky, InPlaceSpikesMatchTheTwoVectorReference) {
  struct Case {
    const char* name;
    SpikyParams params;
  };
  std::vector<Case> cases;
  const auto add = [&](const char* name, auto edit) {
    SpikyParams p;
    p.base.duration_s = 900.0;
    p.spike_rate_per_s = 1.0 / 60.0;
    edit(p);
    cases.push_back({name, p});
  };
  add("defaults", [](SpikyParams&) {});
  add("arrival in the first sample period", [](SpikyParams& p) {
    p.base.sample_period_s = 10.0;
    p.spike_rate_per_s = 2.0;  // first arrival within 10 s almost surely
  });
  add("spike running past the end", [](SpikyParams& p) {
    p.base.duration_s = 100.0;
    p.spike_rate_per_s = 1.0 / 30.0;
    p.spike_duration_s = 1000.0;
  });
  add("rate 0", [](SpikyParams& p) { p.spike_rate_per_s = 0.0; });
  add("noise 0", [](SpikyParams& p) { p.base.noise_stddev = 0.0; });
  add("0.73 s samples", [](SpikyParams& p) {
    p.base.sample_period_s = 0.73;
    p.base.phase_s = 17.3;
  });
  add("level above 1", [](SpikyParams& p) { p.spike_level = 1.5; });
  for (const Case& c : cases) {
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      Rng ours_rng(seed);
      Rng ref_rng(seed);
      const auto ours = make_spiky_workload(c.params, ours_rng);
      const auto ref = two_vector_spiky(c.params, ref_rng);
      ASSERT_EQ(ours->size(), ref->size()) << c.name;
      for (std::size_t i = 0; i < ref->size(); ++i) {
        ASSERT_EQ(ours->data()[i], ref->data()[i])
            << c.name << " seed " << seed << " sample " << i;
      }
      EXPECT_EQ(ours_rng.canonical(), ref_rng.canonical())
          << c.name << ": the Rng state differs afterwards";
    }
  }
  // The first-period case must actually have spiked at sample 1.
  Rng rng(1);
  const auto first = make_spiky_workload(cases[1].params, rng);
  EXPECT_EQ(first->data()[1], 1.0);
}

/// `make` must throw std::invalid_argument naming `field` for each value.
template <typename Make>
void expect_rejects_field(const char* field, std::initializer_list<double> bad,
                          Make make) {
  for (const double value : bad) {
    Rng rng(8);
    try {
      (void)make(value, rng);
      ADD_FAILURE() << field << " = " << value << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
          << field << " = " << value << ": " << e.what();
    }
  }
}

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

TEST(SquareNoise, RejectsBadNoiseStddevByName) {
  expect_rejects_field("noise_stddev", {kNaN, kInf, -kInf, -0.01},
                       [](double v, Rng& rng) {
                         SquareNoiseParams p;
                         p.noise_stddev = v;
                         return make_square_noise_workload(p, rng);
                       });
  expect_rejects_field("noise_stddev", {kNaN, kInf, -0.01},
                       [](double v, Rng& rng) {
                         SpikyParams p;
                         p.base.noise_stddev = v;
                         return make_spiky_workload(p, rng);
                       });
}

TEST(Spiky, RejectsBadSpikeRateByName) {
  // +inf used to hang: every gap drew 0, so the next arrival never moved.
  expect_rejects_field("spike_rate_per_s", {kInf, kNaN, -kInf, -1.0 / 300.0},
                       [](double v, Rng& rng) {
                         SpikyParams p;
                         p.base.duration_s = 10.0;
                         p.spike_rate_per_s = v;
                         return make_spiky_workload(p, rng);
                       });
}

TEST(Spiky, RejectsAnArrivalCountAboveTheCapByName) {
  // A 10 s trace at 1e12 spikes/s used to draw ~1e13 arrivals.  The cap is
  // checked before the first draw, so the rejection is immediate.
  const double over_cap = kMaxExpectedSpikeArrivals / 10.0 * 1.000001;
  const auto start = std::chrono::steady_clock::now();
  expect_rejects_field("spike_rate_per_s", {1e12, over_cap},
                       [](double v, Rng& rng) {
                         SpikyParams p;
                         p.base.duration_s = 10.0;
                         p.spike_rate_per_s = v;
                         return make_spiky_workload(p, rng);
                       });
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(1));
}

TEST(Spiky, RejectsBadSpikeDurationByName) {
  expect_rejects_field("spike_duration_s", {kNaN, kInf, -1.0},
                       [](double v, Rng& rng) {
                         SpikyParams p;
                         p.spike_duration_s = v;
                         return make_spiky_workload(p, rng);
                       });
}

TEST(Spiky, RejectsNonFiniteSpikeLevelByName) {
  expect_rejects_field("spike_level", {kNaN, kInf, -kInf},
                       [](double v, Rng& rng) {
                         SpikyParams p;
                         p.spike_level = v;
                         return make_spiky_workload(p, rng);
                       });
}

TEST(Diurnal, RejectsBadNoiseStddevByName) {
  expect_rejects_field("noise_stddev", {kNaN, kInf, -0.01},
                       [](double v, Rng& rng) {
                         DiurnalParams p;
                         p.duration_s = 600.0;
                         p.noise_stddev = v;
                         return make_diurnal_workload(p, rng);
                       });
}

TEST(Diurnal, TroughAtMidnightPeakAtNoon) {
  Rng rng(5);
  DiurnalParams p;
  p.noise_stddev = 0.0;
  const auto w = make_diurnal_workload(p, rng);
  EXPECT_NEAR(w->demand(0.0), p.base, 1e-6);
  EXPECT_NEAR(w->demand(43200.0), p.peak, 1e-6);
}

TEST(Diurnal, RejectsPeakBelowBase) {
  Rng rng(5);
  DiurnalParams p;
  p.base = 0.9;
  p.peak = 0.1;
  EXPECT_THROW(make_diurnal_workload(p, rng), std::invalid_argument);
}

TEST(Synthetic, RejectsSampleCountsPastSizeT) {
  // ceil(1e300 / 1 s) does not fit in a std::size_t; the cast would be
  // undefined, so every generator must refuse it by name first.
  const auto too_many = [](auto make) {
    Rng rng(6);
    try {
      (void)make(rng);
      ADD_FAILURE() << "accepted a sample count past std::size_t";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("too many samples"),
                std::string::npos)
          << e.what();
    }
  };
  too_many([](Rng& rng) {
    SquareNoiseParams p;
    p.duration_s = 1e300;
    return make_square_noise_workload(p, rng);
  });
  too_many([](Rng& rng) {
    SpikyParams p;
    p.base.duration_s = 1e300;
    return make_spiky_workload(p, rng);
  });
  too_many([](Rng& rng) {
    DiurnalParams p;
    p.duration_s = 1e300;
    return make_diurnal_workload(p, rng);
  });
  too_many([](Rng& rng) {
    SquareNoiseParams p;
    p.duration_s = std::numeric_limits<double>::infinity();
    return make_square_noise_workload(p, rng);
  });
  too_many([](Rng& rng) {
    SquareNoiseParams p;
    p.sample_period_s = 1e-300;
    return make_square_noise_workload(p, rng);
  });
}

TEST(StepWorkload, SwitchesAtStepTime) {
  const auto w = make_step_workload(0.1, 0.7, 30.0);
  EXPECT_DOUBLE_EQ(w->demand(29.9), 0.1);
  EXPECT_DOUBLE_EQ(w->demand(30.0), 0.7);
}

// ---------------------------------------------------------------- predictors

TEST(MovingAverage, PredictsWindowMean) {
  MovingAveragePredictor p(3, 0.5);
  EXPECT_DOUBLE_EQ(p.predict(), 0.5);  // initial
  p.observe(0.2);
  EXPECT_DOUBLE_EQ(p.predict(), 0.2);
  p.observe(0.4);
  p.observe(0.6);
  EXPECT_NEAR(p.predict(), 0.4, 1e-12);
  p.observe(0.8);  // evicts 0.2
  EXPECT_NEAR(p.predict(), 0.6, 1e-12);
}

TEST(MovingAverage, FiltersNoise) {
  Rng rng(11);
  MovingAveragePredictor p(16);
  for (int i = 0; i < 200; ++i) p.observe(0.5 + rng.gaussian(0.0, 0.04));
  EXPECT_NEAR(p.predict(), 0.5, 0.03);
}

TEST(MovingAverage, ResetRestoresInitial) {
  MovingAveragePredictor p(4, 0.3);
  p.observe(0.9);
  p.reset();
  EXPECT_DOUBLE_EQ(p.predict(), 0.3);
}

TEST(MovingAverage, RejectsBadParameters) {
  EXPECT_THROW(MovingAveragePredictor(0), std::invalid_argument);
  EXPECT_THROW(MovingAveragePredictor(4, 1.5), std::invalid_argument);
}

TEST(Ewma, ConvergesToConstantInput) {
  EwmaPredictor p(0.3);
  for (int i = 0; i < 100; ++i) p.observe(0.6);
  EXPECT_NEAR(p.predict(), 0.6, 1e-9);
}

TEST(Ewma, FirstObservationSeeds) {
  EwmaPredictor p(0.3, 0.0);
  p.observe(0.8);
  EXPECT_DOUBLE_EQ(p.predict(), 0.8);
}

TEST(Ewma, AlphaOneTracksExactly) {
  EwmaPredictor p(1.0);
  p.observe(0.2);
  p.observe(0.9);
  EXPECT_DOUBLE_EQ(p.predict(), 0.9);
}

TEST(Ewma, RejectsBadAlpha) {
  EXPECT_THROW(EwmaPredictor(0.0), std::invalid_argument);
  EXPECT_THROW(EwmaPredictor(1.1), std::invalid_argument);
}

// ---------------------------------------------------------------- trace I/O

TEST(TraceIo, RoundTripPreservesSamples) {
  const SampledWorkload original({0.1, 0.3, 0.5, 0.7}, 2.0);
  const std::string csv = workload_to_csv(original, 8.0, 2.0);
  const auto loaded = workload_from_csv(csv);
  ASSERT_EQ(loaded->size(), 4u);
  EXPECT_DOUBLE_EQ(loaded->sample_period(), 2.0);
  for (double t = 0.0; t < 8.0; t += 0.5) {
    EXPECT_DOUBLE_EQ(loaded->demand(t), original.demand(t)) << "t=" << t;
  }
}

TEST(TraceIo, ToCsvRejectsSampleCountsPastSizeT) {
  const SampledWorkload w({0.5}, 1.0);
  for (double duration_s :
       {1e300, std::numeric_limits<double>::infinity()}) {
    try {
      (void)workload_to_csv(w, duration_s, 1.0);
      ADD_FAILURE() << "accepted duration " << duration_s;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("workload_to_csv"),
                std::string::npos)
          << e.what();
    }
  }
  EXPECT_THROW((void)workload_to_csv(w, 0.0, 1.0), std::invalid_argument);
  EXPECT_THROW((void)workload_to_csv(w, 1.0, 0.0), std::invalid_argument);
}

TEST(TraceIo, RejectsNonUniformSpacing) {
  EXPECT_THROW(workload_from_csv("time,utilization\n0,0.1\n1,0.2\n3,0.3\n"),
               std::runtime_error);
}

TEST(TraceIo, RejectsMissingColumns) {
  EXPECT_THROW(workload_from_csv("a,b\n0,0.1\n"), std::runtime_error);
}

TEST(TraceIo, SingleRowGetsDefaultPeriod) {
  const auto w = workload_from_csv("time,utilization\n0,0.25\n");
  EXPECT_DOUBLE_EQ(w->sample_period(), 1.0);
  EXPECT_DOUBLE_EQ(w->demand(0.0), 0.25);
}

TEST(TraceIo, SingleRowHonorsExplicitPeriod) {
  const auto w = workload_from_csv("time,utilization\n0,0.25\n", 5.0);
  EXPECT_DOUBLE_EQ(w->sample_period(), 5.0);
  EXPECT_DOUBLE_EQ(w->duration(), 5.0);
  EXPECT_THROW(workload_from_csv("time,utilization\n0,0.25\n", 0.0),
               std::invalid_argument);
  EXPECT_THROW(workload_from_csv("time,utilization\n0,0.25\n", -1.0),
               std::invalid_argument);
}

TEST(TraceIo, MultiRowIgnoresSingleRowPeriodParameter) {
  // With two or more rows the spacing is inferred, never the parameter.
  const auto w = workload_from_csv("time,utilization\n0,0.1\n2,0.2\n", 7.0);
  EXPECT_DOUBLE_EQ(w->sample_period(), 2.0);
}

TEST(TraceIo, AcceptsCrlfBlankLinesAndTrailingNewlines) {
  const auto crlf = workload_from_csv(
      "time,utilization\r\n0,0.1\r\n1,0.2\r\n2,0.3\r\n");
  ASSERT_EQ(crlf->size(), 3u);
  EXPECT_DOUBLE_EQ(crlf->demand(1.0), 0.2);

  const auto blanks = workload_from_csv(
      "time,utilization\n\n0,0.1\n\n1,0.2\n\n\n");
  ASSERT_EQ(blanks->size(), 2u);
  EXPECT_DOUBLE_EQ(blanks->sample_period(), 1.0);

  const auto trailing = workload_from_csv("time,utilization\n0,0.4\n1,0.5\n\n");
  ASSERT_EQ(trailing->size(), 2u);
}

TEST(TraceIo, LoadTraceDirSortsByFilenameAndRejectsEmpty) {
  namespace fs = std::filesystem;
  const std::string dir = ::testing::TempDir() + "fsc_trace_dir_test";
  fs::create_directories(dir);
  for (const auto& entry : fs::directory_iterator(dir)) fs::remove(entry);
  EXPECT_THROW(load_trace_dir(dir), std::runtime_error);

  std::ofstream(dir + "/b.csv") << "time,utilization\n0,0.2\n";
  std::ofstream(dir + "/a.csv") << "time,utilization\n0,0.1\n";
  std::ofstream(dir + "/ignored.txt") << "not a trace";
  const auto traces = load_trace_dir(dir);
  ASSERT_EQ(traces.size(), 2u);
  EXPECT_DOUBLE_EQ(traces[0]->demand(0.0), 0.1);  // a.csv first
  EXPECT_DOUBLE_EQ(traces[1]->demand(0.0), 0.2);

  std::ofstream(dir + "/c.csv") << "time,utilization\n0,bad\n";
  EXPECT_THROW(load_trace_dir(dir), std::runtime_error);
  EXPECT_THROW(load_trace_dir(dir + "/nonexistent"), std::runtime_error);
}

TEST(TraceIo, ClampsUtilizationOnLoad) {
  const auto w = workload_from_csv("time,utilization\n0,1.5\n1,-0.5\n");
  EXPECT_DOUBLE_EQ(w->demand(0.0), 1.0);
  EXPECT_DOUBLE_EQ(w->demand(1.0), 0.0);
}

TEST(TraceIo, ToleranceIsRelativeToPeriod) {
  // Regression: the spacing check used an ABSOLUTE 1e-6 s tolerance, so a
  // long trace at a large period whose timestamps carry ordinary double
  // rounding (printed at limited precision, or accumulated as k * period)
  // failed to load even though the spacing error was ~1e-10 of the period.
  std::ostringstream csv;
  csv << "time,utilization\n";
  csv.precision(17);
  const double period = 300.0;
  for (int k = 0; k < 2000; ++k) {
    // ~6 us of absolute jitter at t ~ 6e5 s: far above the old absolute
    // 1e-6 threshold, far below 1e-6 * 300 s.
    const double jitter = (k % 2 == 0 ? 1.0 : -1.0) * 3e-6;
    csv << (static_cast<double>(k) * period + (k > 0 ? jitter : 0.0)) << ","
        << 0.5 << "\n";
  }
  const auto w = workload_from_csv(csv.str());
  EXPECT_EQ(w->size(), 2000u);
  // Period is inferred from the first two rows: 300 - 3e-6 exactly.
  EXPECT_DOUBLE_EQ(w->sample_period(), 300.0 - 3e-6);

  // Genuinely non-uniform spacing (off by 1 % of the period) still throws.
  EXPECT_THROW(
      workload_from_csv("time,utilization\n0,0.1\n300,0.2\n603,0.3\n"),
      std::runtime_error);
}

// ------------------------------------------------------------ zoh_index hoist

TEST(ZohIndex, MatchesDirectDivisionOnEngineGrids) {
  // SampledWorkload::demand hoists the per-call divide into a reciprocal
  // multiply (zoh_index).  The hoist must be invisible: for every period
  // the engines actually use and every control-period-aligned query time,
  // the index must equal the one direct truncating division yields.
  const double periods[] = {0.25, 0.5, 1.0, 2.0, 4.0, 60.0, 300.0};
  const double query_steps[] = {0.25, 1.0, 60.0, 300.0, 600.0};
  for (double p : periods) {
    const double inv = 1.0 / p;
    for (double step : query_steps) {
      for (int k = 0; k < 4000; ++k) {
        const double t = static_cast<double>(k) * step;
        const std::size_t direct = static_cast<std::size_t>(t / p);
        const std::size_t hoisted = zoh_index(t, inv, p, 1u << 30);
        ASSERT_EQ(hoisted, direct) << "p=" << p << " t=" << t;
      }
    }
  }
}

TEST(ZohIndex, ExactBoundariesLandOnNewSample) {
  // Sample k covers [k*p, (k+1)*p) — an exact boundary belongs to the NEW
  // sample even when the reciprocal multiply rounds a hair low (p = 1/3 is
  // the classic case: 3 * fl(1/3) < 1 in binary).
  const double p = 1.0 / 3.0;
  const double inv = 1.0 / p;
  for (std::size_t k = 1; k < 1000; ++k) {
    const double t = static_cast<double>(k) * p;  // fl(k * p): sample k start
    EXPECT_EQ(zoh_index(t, inv, p, 1u << 30), k) << "k=" << k;
  }
}

TEST(ZohIndex, RandomNonBoundaryTimesAgree) {
  std::mt19937_64 rng(20260808u);
  std::uniform_real_distribution<double> uni(0.0, 1e6);
  const double periods[] = {0.25, 0.5, 1.0, 2.0, 4.0, 60.0, 300.0};
  for (double p : periods) {
    const double inv = 1.0 / p;
    for (int i = 0; i < 20000; ++i) {
      const double t = uni(rng);
      ASSERT_EQ(zoh_index(t, inv, p, 1u << 30),
                static_cast<std::size_t>(t / p))
          << "p=" << p << " t=" << t;
    }
  }
}

TEST(SampledWorkload, HoistedDemandMatchesDivisionReference) {
  // End-to-end guard over the public API: demand(t) with the hoisted index
  // equals indexing samples by direct division, across a dense time sweep.
  std::mt19937_64 rng(42u);
  std::uniform_real_distribution<double> uni(0.0, 1.0);
  std::vector<double> samples(4096);
  for (double& s : samples) s = uni(rng);
  const double p = 0.75;
  const SampledWorkload w(samples, p);
  for (int i = 0; i < 50000; ++i) {
    const double t = uni(rng) * 4096.0 * p * 1.2;  // 20 % past the end
    std::size_t idx = static_cast<std::size_t>(t / p);
    if (idx >= samples.size()) idx = samples.size() - 1;
    ASSERT_EQ(w.demand(t), samples[idx]) << "t=" << t;
  }
}

}  // namespace
}  // namespace fsc
