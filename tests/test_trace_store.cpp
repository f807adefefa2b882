// Trace pack (workload/trace_store.*) tests: byte-level golden layout,
// round-trips, dedup, quantization bounds, corrupt-file rejection, the
// WorkloadTable gather path's bit-identity with the per-lane virtual path
// (standalone and through the CoupledRackEngine across thread counts), the
// real-trace importers, and the trace-synthesis fitter.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "coord/coupled_rack_engine.hpp"
#include "core/policy_factory.hpp"
#include "sim/simulation.hpp"
#include "workload/importers.hpp"
#include "workload/trace_fit.hpp"
#include "workload/trace_io.hpp"
#include "workload/trace_store.hpp"
#include "workload/workload_table.hpp"

namespace fsc {
namespace {

namespace fs = std::filesystem;

std::string temp_pack_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

std::vector<unsigned char> read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<unsigned char>(std::istreambuf_iterator<char>(in),
                                    std::istreambuf_iterator<char>());
}

void write_bytes(const std::string& path,
                 const std::vector<unsigned char>& bytes) {
  std::ofstream out(path, std::ios::binary);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

// ----------------------------------------------------------------- writer

TEST(TracePack, GoldenLayoutBytes) {
  // The format IS the layout: header fields, meta record, and payload at
  // the documented offsets.  If this test breaks, readers of existing
  // packs break — bump pack::kVersion instead of editing expectations.
  const std::string path = temp_pack_path("golden.fst");
  TracePackWriter writer;
  writer.add_trace("g", {0.0, 0.5, 1.0}, 2.0);
  writer.write(path);

  const auto bytes = read_bytes(path);
  ASSERT_EQ(bytes.size(), 48u + 88u + 3u * 2u);
  EXPECT_EQ(std::memcmp(bytes.data(), "FSCPACK1", 8), 0);
  std::uint32_t version = 0, count = 0;
  std::memcpy(&version, bytes.data() + 8, 4);
  std::memcpy(&count, bytes.data() + 12, 4);
  EXPECT_EQ(version, pack::kVersion);
  EXPECT_EQ(count, 1u);
  std::uint64_t payload_words = 0;
  std::memcpy(&payload_words, bytes.data() + 16, 8);
  EXPECT_EQ(payload_words, 3u);

  pack::TraceMeta meta;
  std::memcpy(&meta, bytes.data() + 48, sizeof meta);
  EXPECT_EQ(meta.offset_words, 0u);
  EXPECT_EQ(meta.count, 3u);
  EXPECT_DOUBLE_EQ(meta.sample_period_s, 2.0);
  EXPECT_STREQ(meta.name, "g");

  std::uint16_t q[3];
  std::memcpy(q, bytes.data() + 48 + 88, sizeof q);
  EXPECT_EQ(q[0], 0u);
  EXPECT_EQ(q[1], 32768u);  // lround(0.5 * 65535)
  EXPECT_EQ(q[2], 65535u);
}

TEST(TracePack, WriterRejectsBadInput) {
  TracePackWriter writer;
  EXPECT_THROW(writer.add_trace("x", {}, 1.0), std::invalid_argument);
  EXPECT_THROW(writer.add_trace("x", {0.5}, 0.0), std::invalid_argument);
  EXPECT_THROW(writer.add_trace("", {0.5}, 1.0), std::invalid_argument);
  EXPECT_THROW(writer.write(temp_pack_path("empty.fst")), std::runtime_error);
}

TEST(TracePack, DedupSharesIdenticalColumns) {
  const std::vector<double> shape = {0.1, 0.4, 0.7, 0.2};
  TracePackWriter writer;
  writer.add_trace("a", shape, 1.0);
  writer.add_trace("b", shape, 1.0);          // same column, same period
  writer.add_trace("c", shape, 2.0);          // same samples, new period
  writer.add_trace("d", {0.1, 0.4, 0.7, 0.3}, 1.0);  // different samples
  EXPECT_EQ(writer.size(), 4u);
  EXPECT_EQ(writer.unique_columns(), 3u);

  const std::string path = temp_pack_path("dedup.fst");
  writer.write(path);
  // File holds three columns' worth of payload, four metadata entries.
  EXPECT_EQ(fs::file_size(path), 48u + 4u * 88u + 3u * 4u * 2u);

  const auto store = TraceStore::open(path);
  ASSERT_EQ(store->size(), 4u);
  EXPECT_EQ(store->samples(0), store->samples(1));  // literally shared
  EXPECT_EQ(store->content_hash(0), store->content_hash(1));
  EXPECT_NE(store->content_hash(0), store->content_hash(2));  // period hashed
  EXPECT_NE(store->samples(0), store->samples(3));
}

// ----------------------------------------------------------------- reader

TEST(TraceStore, RoundTripPreservesQuantizedSamplesAndMetadata) {
  std::mt19937_64 rng(7u);
  std::uniform_real_distribution<double> uni(0.0, 1.0);
  std::vector<double> samples(1000);
  for (double& s : samples) s = uni(rng);

  const std::string path = temp_pack_path("roundtrip.fst");
  TracePackWriter writer;
  writer.add_trace("noise", samples, 300.0);
  writer.write(path);

  const auto store = TraceStore::open(path);
  ASSERT_EQ(store->size(), 1u);
  EXPECT_EQ(store->name(0), "noise");
  EXPECT_DOUBLE_EQ(store->sample_period(0), 300.0);
  EXPECT_EQ(store->sample_count(0), 1000u);
  EXPECT_DOUBLE_EQ(store->duration(0), 300000.0);
  EXPECT_EQ(store->find("noise"), 0u);
  EXPECT_EQ(store->find("absent"), store->size());
  const std::uint16_t* q = store->samples(0);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    ASSERT_EQ(q[i], pack::quantize(samples[i])) << i;
  }
  EXPECT_EQ(store->content_hash(0),
            pack::content_hash(q, samples.size(), 300.0));
}

TEST(TraceStore, QuantizationErrorWithinHalfStep) {
  // |dequant(quantize(u)) - u| <= 0.5/65535 for every u in [0, 1].
  const double bound = 0.5 * pack::kDequant + 1e-15;
  std::mt19937_64 rng(11u);
  std::uniform_real_distribution<double> uni(0.0, 1.0);
  for (int i = 0; i < 100000; ++i) {
    const double u = uni(rng);
    const double back =
        static_cast<double>(pack::quantize(u)) * pack::kDequant;
    ASSERT_LE(std::abs(back - u), bound) << "u=" << u;
  }
  EXPECT_EQ(pack::quantize(0.0), 0u);
  EXPECT_EQ(pack::quantize(1.0), 65535u);
  EXPECT_EQ(pack::quantize(-3.0), 0u);    // clamped
  EXPECT_EQ(pack::quantize(2.0), 65535u);  // clamped
  EXPECT_DOUBLE_EQ(65535.0 * pack::kDequant, 1.0);  // full scale round-trips
}

TEST(TraceStore, RejectsCorruptFiles) {
  const std::string good_path = temp_pack_path("good.fst");
  TracePackWriter writer;
  writer.add_trace("t", {0.2, 0.4, 0.6, 0.8}, 1.0);
  writer.write(good_path);
  const auto good = read_bytes(good_path);

  const std::string bad_path = temp_pack_path("bad.fst");

  // Truncated payload: samples missing.
  auto bytes = good;
  bytes.resize(bytes.size() - 3);
  write_bytes(bad_path, bytes);
  EXPECT_THROW(TraceStore::open(bad_path), std::runtime_error);

  // Trailing garbage after the payload.
  bytes = good;
  bytes.push_back(0xAB);
  write_bytes(bad_path, bytes);
  EXPECT_THROW(TraceStore::open(bad_path), std::runtime_error);

  // Bad magic.
  bytes = good;
  bytes[0] = 'X';
  write_bytes(bad_path, bytes);
  EXPECT_THROW(TraceStore::open(bad_path), std::runtime_error);

  // Unsupported version.
  bytes = good;
  bytes[8] = 0x7F;
  write_bytes(bad_path, bytes);
  EXPECT_THROW(TraceStore::open(bad_path), std::runtime_error);

  // Shorter than a header.
  bytes.assign(10, 0);
  write_bytes(bad_path, bytes);
  EXPECT_THROW(TraceStore::open(bad_path), std::runtime_error);

  // Column pointing past the payload.
  bytes = good;
  std::uint64_t huge = 1000;
  std::memcpy(bytes.data() + 48, &huge, 8);  // meta[0].offset_words
  write_bytes(bad_path, bytes);
  EXPECT_THROW(TraceStore::open(bad_path), std::runtime_error);

  EXPECT_THROW(TraceStore::open(temp_pack_path("nonexistent.fst")),
               std::runtime_error);
}

TEST(TraceStore, ErrorsNameTheDefect) {
  const std::string good_path = temp_pack_path("named.fst");
  TracePackWriter writer;
  writer.add_trace("t", {0.5, 0.5}, 1.0);
  writer.write(good_path);
  auto bytes = read_bytes(good_path);

  const std::string bad_path = temp_pack_path("named_bad.fst");
  bytes.resize(bytes.size() - 1);
  write_bytes(bad_path, bytes);
  try {
    TraceStore::open(bad_path);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos)
        << e.what();
  }
}

// --------------------------------------------------- stored-trace workload

TEST(StoredTraceWorkload, MatchesSampledWorkloadWithinQuantization) {
  std::vector<double> samples;
  for (int i = 0; i < 500; ++i) {
    samples.push_back(0.5 + 0.45 * std::sin(0.05 * i));
  }
  const double period = 300.0;
  const SampledWorkload dense(samples, period);

  const std::string path = temp_pack_path("equiv.fst");
  TracePackWriter writer;
  writer.add_workload("sine", dense);
  writer.write(path);
  const auto store = TraceStore::open(path);
  const StoredTraceWorkload stored(store, 0);

  std::mt19937_64 rng(3u);
  std::uniform_real_distribution<double> uni(0.0, 600.0 * period);
  const double bound = 0.5 * pack::kDequant + 1e-15;
  for (int i = 0; i < 20000; ++i) {
    const double t = uni(rng);
    ASSERT_NEAR(stored.demand(t), dense.demand(t), bound) << "t=" << t;
  }
  // And the stored value is EXACTLY the dequantized sample (ZOH semantics
  // identical to SampledWorkload's, via the shared zoh_index).
  for (std::size_t k = 0; k < samples.size(); ++k) {
    const double t = static_cast<double>(k) * period;
    ASSERT_EQ(stored.demand(t),
              static_cast<double>(stored.quantized()[k]) * pack::kDequant);
  }
  EXPECT_EQ(stored.demand(-5.0), stored.demand(0.0));  // clamps like Sampled
  EXPECT_EQ(stored.demand(1e12),
            static_cast<double>(stored.quantized()[samples.size() - 1]) *
                pack::kDequant);  // last sample held forever

  EXPECT_THROW(StoredTraceWorkload(store, 99), std::out_of_range);
}

TEST(StoredTraceWorkload, WorkloadsFromStoreCoverEveryTrace) {
  const std::string path = temp_pack_path("all.fst");
  TracePackWriter writer;
  writer.add_trace("one", {0.1}, 1.0);
  writer.add_trace("two", {0.9}, 1.0);
  writer.write(path);
  const auto workloads = workloads_from_store(TraceStore::open(path));
  ASSERT_EQ(workloads.size(), 2u);
  EXPECT_DOUBLE_EQ(workloads[0]->demand(0.0),
                   static_cast<double>(pack::quantize(0.1)) * pack::kDequant);
  EXPECT_DOUBLE_EQ(workloads[1]->demand(0.0),
                   static_cast<double>(pack::quantize(0.9)) * pack::kDequant);
}

TEST(StoredTraceWorkload, UnpackedCsvReplaysBitIdentically) {
  // stored_trace_to_csv at 17 digits -> workload_from_csv must reproduce
  // the dequantized values EXACTLY (this is CI's pack->replay smoke).
  std::mt19937_64 rng(5u);
  std::uniform_real_distribution<double> uni(0.0, 1.0);
  std::vector<double> samples(700);
  for (double& s : samples) s = uni(rng);

  const std::string path = temp_pack_path("unpack.fst");
  TracePackWriter writer;
  writer.add_trace("u", samples, 2.5);
  writer.write(path);
  const auto store = TraceStore::open(path);
  const auto csv = workload_from_csv(stored_trace_to_csv(*store, 0));
  const StoredTraceWorkload stored(store, 0);
  ASSERT_EQ(csv->size(), samples.size());
  EXPECT_DOUBLE_EQ(csv->sample_period(), 2.5);
  for (std::size_t k = 0; k < samples.size(); ++k) {
    const double t = static_cast<double>(k) * 2.5;
    ASSERT_EQ(csv->demand(t), stored.demand(t)) << k;
  }
}

// ----------------------------------------------------------- workload table

TEST(WorkloadTable, GatherMatchesPerLaneVirtualCallsExactly) {
  // Mixed lanes: dense SampledWorkloads and quantized StoredTraceWorkloads
  // at several cadences.  fill_demand must equal lane-by-lane demand() to
  // the bit, at control-grid times and random times.
  const std::string path = temp_pack_path("table.fst");
  TracePackWriter writer;
  std::mt19937_64 rng(13u);
  std::uniform_real_distribution<double> uni(0.0, 1.0);
  for (int trace = 0; trace < 3; ++trace) {
    std::vector<double> s(400);
    for (double& x : s) x = uni(rng);
    char name[16];
    std::snprintf(name, sizeof name, "t%d", trace);  // not operator+: PR105651
    writer.add_trace(name, s, trace == 0 ? 0.25 : (trace == 1 ? 60.0 : 300.0));
  }
  writer.write(path);
  const auto store = TraceStore::open(path);

  std::vector<std::shared_ptr<const Workload>> lanes;
  for (std::size_t i = 0; i < store->size(); ++i) {
    lanes.push_back(std::make_shared<StoredTraceWorkload>(store, i));
  }
  for (int i = 0; i < 3; ++i) {
    std::vector<double> s(256);
    for (double& x : s) x = uni(rng);
    lanes.push_back(std::make_shared<SampledWorkload>(s, 1.0 / 3.0));
  }

  WorkloadTable table;
  for (const auto& lane : lanes) ASSERT_TRUE(table.add_lane(*lane));
  ASSERT_EQ(table.lanes(), lanes.size());

  std::vector<double> gathered(lanes.size());
  std::uniform_real_distribution<double> tuni(0.0, 2e5);
  for (int rep = 0; rep < 5000; ++rep) {
    const double t = rep < 1000 ? static_cast<double>(rep) * 60.0
                                : tuni(rng);
    table.fill_demand(t, 0, lanes.size(), gathered.data());
    for (std::size_t i = 0; i < lanes.size(); ++i) {
      ASSERT_EQ(gathered[i], lanes[i]->demand(t)) << "t=" << t << " lane=" << i;
    }
  }

  // Sub-range fills only touch [lo, hi).
  std::vector<double> partial(lanes.size(), -1.0);
  table.fill_demand(0.0, 2, 4, partial.data());
  EXPECT_EQ(partial[0], -1.0);
  EXPECT_EQ(partial[1], -1.0);
  EXPECT_EQ(partial[2], lanes[2]->demand(0.0));
  EXPECT_EQ(partial[3], lanes[3]->demand(0.0));
  EXPECT_EQ(partial[4], -1.0);
}

TEST(WorkloadTable, RejectsNonSampledLanes) {
  WorkloadTable table;
  const LambdaWorkload exotic([](double) { return 0.5; });
  EXPECT_FALSE(table.add_lane(exotic));
  const ConstantWorkload constant(0.5);
  EXPECT_FALSE(table.add_lane(constant));
  const SampledWorkload fine({0.5}, 1.0);
  EXPECT_TRUE(table.add_lane(fine));
  EXPECT_EQ(table.lanes(), 1u);
}

// ------------------------------------------- gather through the rack engine

void expect_identical(const CoupledRackResult& a, const CoupledRackResult& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.slots[i].result.fan_energy_joules,
              b.slots[i].result.fan_energy_joules);
    EXPECT_EQ(a.slots[i].result.cpu_energy_joules,
              b.slots[i].result.cpu_energy_joules);
    EXPECT_EQ(a.slots[i].result.max_junction_celsius,
              b.slots[i].result.max_junction_celsius);
    EXPECT_EQ(a.slots[i].deadline_violations, b.slots[i].deadline_violations);
    EXPECT_EQ(a.slots[i].inlet_stats.mean(), b.slots[i].inlet_stats.mean());
  }
  EXPECT_EQ(a.total_energy_joules, b.total_energy_joules);
  EXPECT_EQ(a.deadline_violation_percent, b.deadline_violation_percent);
}

/// A workload that is not pre-sampled, forwarding every demand query to a
/// wrapped one: a rack with such a lane cannot table its demand, so it
/// resolves every lane through the per-lane Workload::demand path.
class UntabledWorkload final : public Workload {
 public:
  explicit UntabledWorkload(std::shared_ptr<const Workload> inner)
      : inner_(std::move(inner)) {}
  double demand(double t) const override { return inner_->demand(t); }

 private:
  std::shared_ptr<const Workload> inner_;
};

CoupledRackParams pack_driven_params(
    const std::shared_ptr<const TraceStore>& store) {
  CoupledRackParams p;
  // Two full 8-lane chunks and a ragged tail: threads split the rack.
  p.rack.num_servers = 19;
  p.rack.base_seed = 99;
  p.rack.sim.duration_s = 120.0;
  p.rack.sim.initial_utilization = 0.1;
  p.coord.coordination_period_s = 30.0;
  p.rack.traces = workloads_from_store(store);
  return p;
}

TEST(GatherPath, BitIdenticalToPerLaneAcrossThreads) {
  // The gather guarantee: a tabled rack == the per-lane path, exactly,
  // for every thread count, on a pack-driven rack.
  const std::string path = temp_pack_path("engine.fst");
  TracePackWriter writer;
  std::mt19937_64 rng(21u);
  std::uniform_real_distribution<double> uni(0.05, 0.95);
  for (int trace = 0; trace < 4; ++trace) {
    std::vector<double> s(130);
    for (double& x : s) x = uni(rng);
    char name[16];
    std::snprintf(name, sizeof name, "w%d", trace);  // not operator+: PR105651
    writer.add_trace(name, s, 1.0);
  }
  writer.write(path);
  const auto store = TraceStore::open(path);

  // Reference: the same rack with one lane's trace behind a wrapper that
  // cannot be tabled, which keeps the whole rack on the per-lane path.
  CoupledRackParams per_lane = pack_driven_params(store);
  ASSERT_TRUE(WorkloadTable().add_lane(*per_lane.rack.traces[0]));
  per_lane.rack.traces[0] =
      std::make_shared<const UntabledWorkload>(per_lane.rack.traces[0]);
  ASSERT_FALSE(WorkloadTable().add_lane(*per_lane.rack.traces[0]));
  const CoupledRackResult reference = CoupledRackEngine(per_lane, 1).run();

  for (std::size_t threads : {1u, 2u, 8u}) {
    SCOPED_TRACE(testing::Message() << "threads=" << threads);
    expect_identical(reference,
                     CoupledRackEngine(pack_driven_params(store), threads).run());
  }
}

TEST(GatherPath, SyntheticWorkloadsAlsoGather) {
  // Default (synthetic) workloads are pre-sampled SampledWorkloads, so the
  // table engages there too — and must stay invisible: an uncoupled rack
  // matches each slot run alone through run_simulation, which asks the
  // workload for its demand directly.
  CoupledRackParams p;
  p.rack.num_servers = 5;
  p.rack.base_seed = 7;
  p.rack.sim.duration_s = 90.0;
  p.coord.coordination_period_s = 30.0;
  p.plenum_enabled = false;
  const CoupledRackResult rack = CoupledRackEngine(p, 4).run();

  const Rack specs(p.rack);
  ASSERT_EQ(rack.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const RackServerSpec& spec = specs.server(i);
    Rng rng(spec.seed);
    const auto workload = make_slot_workload(spec, rng);
    ASSERT_TRUE(WorkloadTable().add_lane(*workload)) << i;
    Server server(spec.server, spec.solution.initial_fan_rpm, rng);
    const auto dtm = PolicyFactory::instance().make(p.rack.policy, spec.solution);
    const SimulationResult alone =
        run_simulation(server, *dtm, *workload, p.rack.sim);
    EXPECT_EQ(rack.slots[i].result.fan_energy_joules, alone.fan_energy_joules);
    EXPECT_EQ(rack.slots[i].result.cpu_energy_joules, alone.cpu_energy_joules);
    EXPECT_EQ(rack.slots[i].deadline_violations, alone.deadline.violations());
  }
}

// -------------------------------------------------------------- importers

TEST(Importers, GoogleTaskUsageAggregatesPerMachine) {
  const std::string text =
      "start_time,end_time,job_id,task_index,machine_id,mean_cpu_rate\n"
      "0,300000000,1,0,m1,0.25\n"
      "0,300000000,1,1,m1,0.25\n"
      "0,300000000,2,0,m2,0.10\n"
      "300000000,600000000,1,0,m1,0.40\n"
      "600000000,750000000,3,0,m1,0.50\n";  // half a bucket -> 0.25
  const auto traces = import_google_task_usage(text, 300.0);
  ASSERT_EQ(traces.size(), 2u);
  EXPECT_EQ(traces[0].name, "google-m1");  // sorted by machine id
  EXPECT_EQ(traces[1].name, "google-m2");
  ASSERT_EQ(traces[0].samples.size(), 3u);
  EXPECT_DOUBLE_EQ(traces[0].sample_period_s, 300.0);
  EXPECT_NEAR(traces[0].samples[0], 0.50, 1e-12);  // two tasks of 0.25
  EXPECT_NEAR(traces[0].samples[1], 0.40, 1e-12);
  EXPECT_NEAR(traces[0].samples[2], 0.25, 1e-12);  // 150 s of rate 0.5
  ASSERT_EQ(traces[1].samples.size(), 1u);
  EXPECT_NEAR(traces[1].samples[0], 0.10, 1e-12);
}

TEST(Importers, GoogleRejectsMalformedRows) {
  EXPECT_THROW(import_google_task_usage("0,1,2\n"), std::runtime_error);
  EXPECT_THROW(
      import_google_task_usage("0,bad_end,1,0,m1,0.5\n"),
      std::runtime_error);
  EXPECT_THROW(
      import_google_task_usage("300000000,200000000,1,0,m1,0.5\n"),  // end<start
      std::runtime_error);
  EXPECT_THROW(import_google_task_usage("header,only,row,with,no,data\n"),
               std::runtime_error);  // no usable rows
  try {
    import_google_task_usage(
        "0,300000000,1,0,m1,0.5\n0,300000000,1,0,m1,nope\n");
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
        << e.what();
  }
}

TEST(Importers, AzureVmReadingsHoldAcrossGaps) {
  const std::string text =
      "timestamp,vm_id,min_cpu,max_cpu,avg_cpu\n"
      "0,vmA,1,20,10\n"
      "300,vmA,1,30,20\n"
      "900,vmA,1,50,40\n"  // bucket 600 missing -> held at 0.20
      "0,vmB,1,10,5\n";
  const auto traces = import_azure_vm_cpu(text, 300.0);
  ASSERT_EQ(traces.size(), 2u);
  EXPECT_EQ(traces[0].name, "azure-vmA");
  ASSERT_EQ(traces[0].samples.size(), 4u);
  EXPECT_DOUBLE_EQ(traces[0].samples[0], 0.10);
  EXPECT_DOUBLE_EQ(traces[0].samples[1], 0.20);
  EXPECT_DOUBLE_EQ(traces[0].samples[2], 0.20);  // ZOH across the gap
  EXPECT_DOUBLE_EQ(traces[0].samples[3], 0.40);
  EXPECT_EQ(traces[1].name, "azure-vmB");
  ASSERT_EQ(traces[1].samples.size(), 1u);
  EXPECT_DOUBLE_EQ(traces[1].samples[0], 0.05);
}

TEST(Importers, BundledFixturesImportAndPack) {
  // The miniature fixtures committed under examples/traces/{google,azure}
  // must flow through importer -> pack -> store untouched.
  const std::string root = FSC_SOURCE_DIR;
  const auto google = import_trace_file(
      "google", root + "/examples/traces/google/task_usage_sample.csv");
  const auto azure = import_trace_file(
      "azure", root + "/examples/traces/azure/vm_cpu_readings_sample.csv");
  ASSERT_EQ(google.size(), 2u);  // two machines
  ASSERT_EQ(azure.size(), 2u);   // two VMs
  TracePackWriter writer;
  for (const auto& t : google) {
    writer.add_trace(t.name, t.samples, t.sample_period_s);
  }
  for (const auto& t : azure) {
    writer.add_trace(t.name, t.samples, t.sample_period_s);
  }
  const std::string path = temp_pack_path("fixtures.fst");
  writer.write(path);
  const auto store = TraceStore::open(path);
  EXPECT_EQ(store->size(), 4u);
  EXPECT_LT(store->find("google-4155527081"), store->size());
  EXPECT_LT(store->find("azure-vmA"), store->size());
  EXPECT_THROW(import_trace_file("unknown", "x"), std::runtime_error);
}

// ------------------------------------------------------------------ fitter

TEST(TraceFit, RecoversSinusoidParameters) {
  // A clean diurnal sinusoid: the fit must recover mean, amplitude, and
  // phase closely (single-bin DFT is exact on its own fundamental).
  const double period = 86400.0, dt = 300.0;
  const std::size_t n = static_cast<std::size_t>(period / dt) * 2;  // 2 days
  std::vector<double> samples(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i) * dt;
    samples[i] = 0.5 + 0.2 * std::sin(2.0 * M_PI * t / period + 0.7);
  }
  const TraceFit fit = fit_trace(samples, dt);
  EXPECT_NEAR(fit.mean, 0.5, 1e-3);
  EXPECT_NEAR(fit.diurnal_amplitude, 0.2, 1e-3);
  EXPECT_NEAR(fit.diurnal_phase, 0.7, 1e-2);
  EXPECT_DOUBLE_EQ(fit.diurnal_period_s, 86400.0);
  EXPECT_LT(fit.noise_stddev, 1e-3);
  EXPECT_DOUBLE_EQ(fit.burst_fraction, 0.0);
}

TEST(TraceFit, SeededVariantsAreDeterministicAndDistinct) {
  std::vector<double> samples(600);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    samples[i] = 0.4 + 0.1 * std::sin(0.01 * static_cast<double>(i));
  }
  const TraceFit fit = fit_trace(samples, 300.0);
  const auto a1 = synthesize_samples(fit, 500, 42);
  const auto a2 = synthesize_samples(fit, 500, 42);
  const auto b = synthesize_samples(fit, 500, 43);
  EXPECT_EQ(a1, a2);  // same seed -> same trace, always
  EXPECT_NE(a1, b);   // different seed -> different trace
  for (double u : a1) {
    ASSERT_GE(u, 0.0);
    ASSERT_LE(u, 1.0);
  }
  const auto w = synthesize_workload(fit, 86400.0, 7);
  EXPECT_EQ(w->size(), static_cast<std::size_t>(std::ceil(86400.0 / 300.0)));
  EXPECT_DOUBLE_EQ(w->sample_period(), 300.0);
  // A sample count past std::size_t is refused before the cast.
  EXPECT_THROW((void)synthesize_workload(fit, 1e300, 7), std::invalid_argument);
}

TEST(TraceFit, BurstyTraceKeepsBurstMass) {
  // A flat 0.2 baseline with occasional 0.9 bursts: the fitted burst level
  // and fraction must reflect the spikes, and variants must contain them.
  std::vector<double> samples(2000, 0.2);
  std::mt19937_64 rng(17u);
  std::uniform_int_distribution<std::size_t> where(0, samples.size() - 5);
  for (int b = 0; b < 40; ++b) {
    const std::size_t at = where(rng);
    for (std::size_t k = 0; k < 4; ++k) samples[at + k] = 0.9;
  }
  const TraceFit fit = fit_trace(samples, 300.0);
  EXPECT_NEAR(fit.burst_level, 0.9, 0.05);
  EXPECT_GT(fit.burst_fraction, 0.01);
  EXPECT_GT(fit.burst_duration_s, 300.0);
  EXPECT_GT(fit.burst_start_prob, 0.0);
  const auto variant = synthesize_samples(fit, 2000, 1);
  const std::size_t high = static_cast<std::size_t>(
      std::count_if(variant.begin(), variant.end(),
                    [](double u) { return u > 0.6; }));
  EXPECT_GT(high, 0u);  // bursts survive synthesis
}

TEST(TraceFit, RejectsDegenerateInput) {
  EXPECT_THROW(fit_trace(std::vector<double>{}, 1.0), std::invalid_argument);
  EXPECT_THROW(fit_trace({0.5}, 0.0), std::invalid_argument);
  TraceFit unfitted;
  EXPECT_THROW(synthesize_samples(unfitted, 10, 1), std::invalid_argument);
  const TraceFit fit = fit_trace({0.5, 0.5, 0.5}, 1.0);
  EXPECT_THROW(synthesize_samples(fit, 0, 1), std::invalid_argument);
}

}  // namespace
}  // namespace fsc
