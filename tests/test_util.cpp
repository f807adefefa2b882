// Unit tests for src/util: ring buffer, statistics, RNG, CSV, units; and
// the bench gates' interleaved timing (bench/paired_timing.hpp).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <deque>
#include <limits>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "../bench/paired_timing.hpp"
#include "sensor/delay_line.hpp"
#include "util/csv.hpp"
#include "util/ring_buffer.hpp"
#include "util/rng.hpp"
#include "util/statistics.hpp"
#include "util/units.hpp"

namespace fsc {
namespace {

// ---------------------------------------------------------------- units

TEST(Units, ClampBounds) {
  EXPECT_DOUBLE_EQ(clamp(5.0, 0.0, 10.0), 5.0);
  EXPECT_DOUBLE_EQ(clamp(-1.0, 0.0, 10.0), 0.0);
  EXPECT_DOUBLE_EQ(clamp(11.0, 0.0, 10.0), 10.0);
  EXPECT_DOUBLE_EQ(clamp(0.0, 0.0, 10.0), 0.0);
  EXPECT_DOUBLE_EQ(clamp(10.0, 0.0, 10.0), 10.0);
}

TEST(Units, ClampUtilization) {
  EXPECT_DOUBLE_EQ(clamp_utilization(0.5), 0.5);
  EXPECT_DOUBLE_EQ(clamp_utilization(-0.2), 0.0);
  EXPECT_DOUBLE_EQ(clamp_utilization(1.7), 1.0);
}

TEST(Units, LerpEndpointsAndMidpoint) {
  EXPECT_DOUBLE_EQ(lerp(2.0, 10.0, 0.0), 2.0);
  EXPECT_DOUBLE_EQ(lerp(2.0, 10.0, 1.0), 10.0);
  EXPECT_DOUBLE_EQ(lerp(2.0, 10.0, 0.5), 6.0);
}

TEST(Units, LerpExtrapolates) {
  EXPECT_DOUBLE_EQ(lerp(0.0, 10.0, 1.5), 15.0);
  EXPECT_DOUBLE_EQ(lerp(0.0, 10.0, -0.5), -5.0);
}

TEST(Units, ApproxEqual) {
  EXPECT_TRUE(approx_equal(1.0, 1.0 + 1e-12));
  EXPECT_FALSE(approx_equal(1.0, 1.001));
  EXPECT_TRUE(approx_equal(1.0, 1.5, 0.6));
}

TEST(Units, RequireThrows) {
  EXPECT_NO_THROW(require(true, "ok"));
  EXPECT_THROW(require(false, "bad"), std::invalid_argument);
  // Longer than the small-string buffer: the message must survive intact
  // into what(), built only on the failure branch.
  const char* long_message = "ServerThermalModel: capacitance must be > 0";
  try {
    require(false, long_message);
    ADD_FAILURE() << "require(false, ...) did not throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), long_message);
  }
}

TEST(Units, Literals) {
  using namespace literals;
  EXPECT_DOUBLE_EQ(2000_rpm, 2000.0);
  EXPECT_DOUBLE_EQ(75.5_celsius, 75.5);
  EXPECT_DOUBLE_EQ(29.4_watts, 29.4);
  EXPECT_DOUBLE_EQ(30_sec, 30.0);
}

// ---------------------------------------------------------------- RingBuffer

TEST(RingBuffer, RejectsZeroCapacity) {
  EXPECT_THROW(RingBuffer<int>(0), std::invalid_argument);
}

TEST(RingBuffer, PushPopFifoOrder) {
  RingBuffer<int> buf(3);
  buf.push(1);
  buf.push(2);
  buf.push(3);
  EXPECT_EQ(buf.pop(), 1);
  EXPECT_EQ(buf.pop(), 2);
  EXPECT_EQ(buf.pop(), 3);
  EXPECT_TRUE(buf.empty());
}

TEST(RingBuffer, OverwriteEvictsOldest) {
  RingBuffer<int> buf(3);
  for (int i = 1; i <= 5; ++i) buf.push(i);
  EXPECT_TRUE(buf.full());
  EXPECT_EQ(buf.front(), 3);
  EXPECT_EQ(buf.back(), 5);
  EXPECT_EQ(buf.pop(), 3);
  EXPECT_EQ(buf.pop(), 4);
  EXPECT_EQ(buf.pop(), 5);
}

TEST(RingBuffer, AtIndexesFromOldest) {
  RingBuffer<int> buf(4);
  for (int i = 10; i < 14; ++i) buf.push(i);
  buf.push(14);  // evicts 10
  EXPECT_EQ(buf.at(0), 11);
  EXPECT_EQ(buf.at(3), 14);
  EXPECT_THROW(buf.at(4), std::out_of_range);
}

TEST(RingBuffer, EmptyAccessThrows) {
  RingBuffer<double> buf(2);
  EXPECT_THROW(buf.pop(), std::out_of_range);
  EXPECT_THROW(buf.front(), std::out_of_range);
  EXPECT_THROW(buf.back(), std::out_of_range);
}

TEST(RingBuffer, ClearResets) {
  RingBuffer<int> buf(2);
  buf.push(1);
  buf.push(2);
  buf.clear();
  EXPECT_TRUE(buf.empty());
  EXPECT_EQ(buf.capacity(), 2u);
  buf.push(7);
  EXPECT_EQ(buf.front(), 7);
}

TEST(RingBuffer, ManyWraparoundsStayConsistent) {
  // Sliding-window invariant under sustained eviction: after pushing 0..999
  // through a 7-slot buffer, the window is always the last 7 values in
  // order, regardless of where head_ has wrapped to.
  RingBuffer<int> buf(7);
  for (int i = 0; i < 1000; ++i) {
    buf.push(i);
    const int expected_size = std::min(i + 1, 7);
    ASSERT_EQ(buf.size(), static_cast<std::size_t>(expected_size));
    ASSERT_EQ(buf.back(), i);
    ASSERT_EQ(buf.front(), i - expected_size + 1);
    for (int k = 0; k < expected_size; ++k) {
      ASSERT_EQ(buf.at(static_cast<std::size_t>(k)), i - expected_size + 1 + k);
    }
  }
  // Interleaved pop/push keeps FIFO order across the wrap point.
  EXPECT_EQ(buf.pop(), 993);
  buf.push(1000);
  EXPECT_EQ(buf.front(), 994);
  EXPECT_EQ(buf.back(), 1000);
}

TEST(RingBuffer, SizeTracksPushesUpToCapacity) {
  RingBuffer<int> buf(3);
  EXPECT_EQ(buf.size(), 0u);
  buf.push(1);
  EXPECT_EQ(buf.size(), 1u);
  buf.push(2);
  buf.push(3);
  buf.push(4);
  EXPECT_EQ(buf.size(), 3u);
}

TEST(RingBuffer, MatchesADequeModelAcrossWraps) {
  // The wrap is a compare-and-subtract, so check every position against a
  // std::deque kept to the same capacity, at capacities where head_ + size_
  // reaches each value below 2 * capacity.
  for (std::size_t capacity : {1u, 2u, 3u, 7u}) {
    SCOPED_TRACE("capacity=" + std::to_string(capacity));
    RingBuffer<int> buf(capacity);
    std::deque<int> model;
    std::mt19937 pattern(static_cast<unsigned>(capacity));
    for (int i = 0; i < 1000; ++i) {
      if (!model.empty() && pattern() % 3 == 0) {
        ASSERT_EQ(buf.pop(), model.front());
        model.pop_front();
      } else {
        buf.push(i);
        if (model.size() == capacity) model.pop_front();
        model.push_back(i);
      }
      ASSERT_EQ(buf.size(), model.size());
      ASSERT_EQ(buf.full(), model.size() == capacity);
      if (model.empty()) continue;
      ASSERT_EQ(buf.front(), model.front());
      ASSERT_EQ(buf.back(), model.back());
      for (std::size_t k = 0; k < model.size(); ++k) {
        ASSERT_EQ(buf.at(k), model[k]);
      }
    }
  }
}

TEST(RingBuffer, DepthZeroDelayLinePassesThrough) {
  // A depth-0 DelayLine keeps a 1-slot buffer and pops before each push.
  DelayLine line(0.0, 1.0, -1.0);
  EXPECT_EQ(line.depth(), 0u);
  EXPECT_EQ(line.read(), -1.0);
  for (int i = 0; i < 10; ++i) {
    line.push(0.5 * i);
    EXPECT_EQ(line.read(), 0.5 * i);
  }
}

// ---------------------------------------------------------------- RunningStats

TEST(RunningStats, EmptyDefaults) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStats, KnownSequence) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);  // classic example: sigma^2 = 4
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, SampleVarianceUsesNMinusOne) {
  RunningStats s;
  s.add(1.0);
  s.add(3.0);
  EXPECT_DOUBLE_EQ(s.variance(), 1.0);
  EXPECT_DOUBLE_EQ(s.sample_variance(), 2.0);
}

TEST(RunningStats, ResetClearsEverything) {
  RunningStats s;
  s.add(10.0);
  s.reset();
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.sum(), 0.0);
}

TEST(RunningStats, SingleSampleVarianceZero) {
  RunningStats s;
  s.add(42.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.sample_variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.mean(), 42.0);
}

// ---------------------------------------------------------------- WindowedStats

TEST(WindowedStats, RejectsZeroWindow) {
  EXPECT_THROW(WindowedStats(0), std::invalid_argument);
}

TEST(WindowedStats, MeanOverWindowOnly) {
  WindowedStats w(3);
  w.add(1.0);
  w.add(2.0);
  w.add(3.0);
  EXPECT_DOUBLE_EQ(w.mean(), 2.0);
  w.add(10.0);  // evicts 1.0
  EXPECT_DOUBLE_EQ(w.mean(), 5.0);
  EXPECT_EQ(w.count(), 3u);
}

TEST(WindowedStats, VarianceMatchesDirectComputation) {
  WindowedStats w(4);
  for (double x : {1.0, 2.0, 3.0, 4.0}) w.add(x);
  // mean 2.5, squared deviations 2.25+0.25+0.25+2.25 = 5 -> var 1.25
  EXPECT_NEAR(w.variance(), 1.25, 1e-12);
}

TEST(WindowedStats, MinMaxOverWindow) {
  WindowedStats w(2);
  w.add(5.0);
  w.add(1.0);
  w.add(3.0);  // window now {1, 3}
  EXPECT_DOUBLE_EQ(w.min(), 1.0);
  EXPECT_DOUBLE_EQ(w.max(), 3.0);
}

TEST(WindowedStats, SnapshotOldestFirst) {
  WindowedStats w(3);
  w.add(1.0);
  w.add(2.0);
  w.add(3.0);
  w.add(4.0);
  const auto snap = w.snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_DOUBLE_EQ(snap[0], 2.0);
  EXPECT_DOUBLE_EQ(snap[2], 4.0);
}

TEST(WindowedStats, ClearEmptiesWindow) {
  WindowedStats w(3);
  w.add(1.0);
  w.clear();
  EXPECT_EQ(w.count(), 0u);
  EXPECT_DOUBLE_EQ(w.mean(), 0.0);
}

// ---------------------------------------------------------------- Rng

TEST(Rng, DeterministicForFixedSeed) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(0.0, 1.0), b.uniform(0.0, 1.0));
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  bool any_diff = false;
  for (int i = 0; i < 10; ++i) {
    if (a.uniform(0.0, 1.0) != b.uniform(0.0, 1.0)) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(Rng, GaussianMomentsRoughlyCorrect) {
  Rng rng(123);
  RunningStats s;
  for (int i = 0; i < 20000; ++i) s.add(rng.gaussian(5.0, 2.0));
  EXPECT_NEAR(s.mean(), 5.0, 0.1);
  EXPECT_NEAR(s.stddev(), 2.0, 0.1);
}

TEST(Rng, GaussianStreamIsPinned) {
  // The first four gaussian(0, 1) draws of the default stream, as the
  // standard library's polar method produces them (libstdc++, like every
  // golden digest).  Each call builds a fresh std::normal_distribution, so
  // the method's spare deviate is discarded: caching it would yield
  // -0.2151..., -1.6478..., 0.3972..., 0.5737... instead.  A change to
  // that stream moves every synthetic workload, so it fails here by name.
  Rng rng;
  EXPECT_EQ(rng.gaussian(0.0, 1.0), -0.21510715878711151);
  EXPECT_EQ(rng.gaussian(0.0, 1.0), 0.39728511625520641);
  EXPECT_EQ(rng.gaussian(0.0, 1.0), -0.37088630451219379);
  EXPECT_EQ(rng.gaussian(0.0, 1.0), -0.1977499157202755);
}

// The in-repo engine and distributions must reproduce the standard
// library's streams bit for bit: every golden digest was taken with them.

TEST(Rng, EngineWordsMatchStdMt19937_64) {
  for (const std::uint64_t seed :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{0x5eedf5c0},
        ~std::uint64_t{0}, derive_seed(7, 3)}) {
    Mt19937_64 ours(seed);
    std::mt19937_64 ref(seed);
    for (int i = 0; i < 2500; ++i) {  // eight twists
      ASSERT_EQ(ours(), ref()) << "seed " << seed << " word " << i;
    }
  }
}

/// A UniformRandomBitGenerator that returns one fixed word.
struct FixedWord {
  using result_type = std::uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }
  result_type word;
  result_type operator()() const { return word; }
};

TEST(Rng, CanonicalMatchesGenerateCanonicalOnEdgeWords) {
  constexpr std::uint64_t k53 = std::uint64_t{1} << 53;
  constexpr std::uint64_t k63 = std::uint64_t{1} << 63;
  constexpr std::uint64_t kMax = ~std::uint64_t{0};
  for (const std::uint64_t word :
       {std::uint64_t{0}, std::uint64_t{1}, k53 - 1, k53, k53 + 1, k63 - 1,
        k63, k63 + 1, kMax - 2048, kMax - 1024, kMax - 1023, kMax}) {
    FixedWord gen{word};
    const double ref =
        std::generate_canonical<double, std::numeric_limits<double>::digits>(
            gen);
    EXPECT_EQ(Rng::canonical_of(word), ref) << "word " << word;
    EXPECT_LT(Rng::canonical_of(word), 1.0) << "word " << word;
  }
  // The words that round up to 2^64 take the clamp.
  EXPECT_EQ(Rng::canonical_of(kMax), std::nextafter(1.0, 0.0));
  // Every rounding case of the top-bit-set half: ties to even, sticky bits.
  std::mt19937_64 words(11);
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t word = words() | (i % 2 == 0 ? k63 : 0);
    for (const std::uint64_t w : {word, word & ~std::uint64_t{0x7ff},
                                  (word & ~std::uint64_t{0x7ff}) | 0x400}) {
      FixedWord gen{w};
      ASSERT_EQ(Rng::canonical_of(w),
                (std::generate_canonical<double, 53>(gen)))
          << "word " << w;
    }
  }
}

TEST(Rng, GaussianMatchesAFreshStdNormalDistribution) {
  const std::pair<double, double> params[] = {
      {0.0, 1.0}, {0.0, 0.04}, {5.0, 2.0}, {-3.25, 1e-3}};
  for (const std::uint64_t seed : {std::uint64_t{0x5eedf5c0},
                                   std::uint64_t{42}, derive_seed(9, 1)}) {
    Rng ours(seed);
    std::mt19937_64 ref(seed);
    for (int i = 0; i < 100000; ++i) {
      const auto [mean, sd] = params[i % 4];
      ASSERT_EQ(ours.gaussian(mean, sd),
                std::normal_distribution<double>(mean, sd)(ref))
          << "seed " << seed << " draw " << i;
    }
    for (int i = 0; i < 8; ++i) {  // the engines agree afterwards
      EXPECT_EQ(ours.canonical(), (std::generate_canonical<double, 53>(ref)));
    }
  }
}

TEST(Rng, FillGaussianMatchesRepeatedCalls) {
  for (const std::size_t n : {0u, 1u, 2u, 313u, 900u}) {
    Rng bulk(derive_seed(3, n));
    Rng calls(derive_seed(3, n));
    std::vector<double> got(n + 1, -7.0);
    bulk.fill_gaussian(0.5, 0.04, got.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(got[i], calls.gaussian(0.5, 0.04)) << "n " << n << " i " << i;
    }
    EXPECT_EQ(got[n], -7.0) << "wrote past out[n - 1]";
    EXPECT_EQ(bulk.canonical(), calls.canonical()) << "n " << n;
  }
}

TEST(Rng, OtherDistributionStreamsMatchTheStandardLibrary) {
  Rng ours(77);
  std::mt19937_64 ref(77);
  for (int i = 0; i < 20000; ++i) {
    switch (i % 4) {
      case 0:
        ASSERT_EQ(ours.uniform(-2.5, 7.0),
                  std::uniform_real_distribution<double>(-2.5, 7.0)(ref));
        break;
      case 1:
        ASSERT_EQ(ours.exponential(1.0 / 300.0),
                  std::exponential_distribution<double>(1.0 / 300.0)(ref));
        break;
      case 2:
        ASSERT_EQ(ours.uniform_int(-3, 1000),
                  std::uniform_int_distribution<std::int64_t>(-3, 1000)(ref));
        break;
      default:
        ASSERT_EQ(ours.bernoulli(0.3), std::bernoulli_distribution(0.3)(ref));
    }
  }
  EXPECT_EQ(ours.canonical(), (std::generate_canonical<double, 53>(ref)));
}

TEST(Rng, UniformIntInRange) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
  }
}

TEST(Rng, ExponentialMeanMatchesRate) {
  Rng rng(55);
  RunningStats s;
  for (int i = 0; i < 20000; ++i) s.add(rng.exponential(0.5));
  EXPECT_NEAR(s.mean(), 2.0, 0.1);
}

// ------------------------------------------------- bench gate timing

/// A host whose steal counter advances by `steal[k]` of every 100 ticks
/// during the k-th sampling attempt.
struct ScriptedHost {
  std::vector<long long> steal;
  int reads = 0;
  fsc_bench::HostTicks now{0, 0};
  fsc_bench::HostTicks operator()() {
    if (reads % 2 == 1) {  // the read after an attempt's samples
      now.steal += steal[static_cast<std::size_t>(reads / 2)];
      now.total += 100;
    }
    ++reads;
    return now;
  }
};

TEST(PairedTiming, RetakesContendedSamplesAtMostTwice) {
  const auto a = [] { return 0.06; };
  const auto b = [] { return 0.07; };
  {
    ScriptedHost host{{1}};
    const auto s = fsc_bench::min_of_interleaved(a, b, 3, host);
    EXPECT_EQ(s.attempts, 1);
    EXPECT_FALSE(s.contended);
    EXPECT_EQ(s.steal_ticks, 1);
    EXPECT_DOUBLE_EQ(s.a, 0.06);
    EXPECT_DOUBLE_EQ(s.b, 0.07);
  }
  {
    ScriptedHost host{{40, 6, 5}};  // 5% is still within the bound
    const auto s = fsc_bench::min_of_interleaved(a, b, 3, host);
    EXPECT_EQ(s.attempts, 3);
    EXPECT_FALSE(s.contended);
    EXPECT_EQ(s.steal_ticks, 5);
  }
  {
    ScriptedHost host{{40, 30, 20}};
    const auto s = fsc_bench::min_of_interleaved(a, b, 3, host);
    EXPECT_EQ(s.attempts, fsc_bench::kMaxAttempts);
    EXPECT_TRUE(s.contended);
    EXPECT_EQ(s.steal_ticks, 20);
    EXPECT_EQ(host.reads, 2 * fsc_bench::kMaxAttempts);
  }
  {
    // No counters (not Linux): one attempt, steal unknown, not contended.
    const auto s = fsc_bench::min_of_interleaved(
        a, b, 3, [] { return fsc_bench::HostTicks{}; });
    EXPECT_EQ(s.attempts, 1);
    EXPECT_FALSE(s.contended);
    EXPECT_EQ(s.steal_ticks, -1);
  }
}

TEST(PairedTiming, ExitCodeNeverPassesAContendedMeasurement) {
  EXPECT_EQ(fsc_bench::verdict_exit_code(false, false), 0);
  EXPECT_EQ(fsc_bench::verdict_exit_code(true, false), 2);
  EXPECT_EQ(fsc_bench::verdict_exit_code(true, true), 2);
  EXPECT_EQ(fsc_bench::verdict_exit_code(false, true),
            fsc_bench::kExitContended);
}

// ---------------------------------------------------------------- CSV

TEST(Csv, WriterProducesHeaderAndRows) {
  std::ostringstream out;
  CsvWriter w(out);
  w.header({"a", "b"});
  w.row({1.0, 2.0});
  w.row({3.5, -4.25});
  EXPECT_EQ(out.str(), "a,b\n1,2\n3.5,-4.25\n");
  EXPECT_EQ(w.rows_written(), 2u);
}

TEST(Csv, WriterRejectsDoubleHeader) {
  std::ostringstream out;
  CsvWriter w(out);
  w.header({"a"});
  EXPECT_THROW(w.header({"b"}), std::logic_error);
}

TEST(Csv, WriterRejectsWidthMismatch) {
  std::ostringstream out;
  CsvWriter w(out);
  w.header({"a", "b"});
  EXPECT_THROW(w.row({1.0}), std::invalid_argument);
}

TEST(Csv, ParseRoundTrip) {
  const auto table = parse_csv("x,y\n1,2\n3,4\n");
  ASSERT_EQ(table.columns.size(), 2u);
  ASSERT_EQ(table.rows.size(), 2u);
  EXPECT_EQ(table.column("x"), (std::vector<double>{1.0, 3.0}));
  EXPECT_EQ(table.column("y"), (std::vector<double>{2.0, 4.0}));
}

TEST(Csv, ParseRejectsRaggedRows) {
  EXPECT_THROW(parse_csv("a,b\n1\n"), std::runtime_error);
}

TEST(Csv, ParseRejectsNonNumeric) {
  EXPECT_THROW(parse_csv("a\nhello\n"), std::runtime_error);
}

TEST(Csv, ParseSkipsBlankLinesAndCr) {
  const auto table = parse_csv("a\r\n\r\n1\r\n");
  ASSERT_EQ(table.rows.size(), 1u);
  EXPECT_DOUBLE_EQ(table.rows[0][0], 1.0);
}

TEST(Csv, MissingColumnThrows) {
  const auto table = parse_csv("a\n1\n");
  EXPECT_THROW(table.column_index("zzz"), std::out_of_range);
}

}  // namespace
}  // namespace fsc
