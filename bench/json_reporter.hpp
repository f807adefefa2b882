// Shared google-benchmark reporter for the bench_* executables: the stock
// console report, plus a machine-readable summary —
// {"manifest": {...}, "results": [{"name", "iterations", "ns_per_op"},...]}
// — written to a JSON file on Finalize, so the perf trajectory can be
// accumulated across commits AND every trajectory row is self-describing
// (which host, how many cores, which commit produced it).  The output path
// defaults per-bench and is overridable via the FSC_BENCH_JSON environment
// variable.
#pragma once

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "obs/manifest.hpp"

namespace fsc_bench {

/// Whether a run produced no usable timing.  google-benchmark renamed the
/// field across versions (`error_occurred` until 1.7.x, `skipped` from
/// 1.8.0); resolve whichever exists at compile time.
template <typename R>
auto run_was_skipped(const R& run, int) -> decltype(run.error_occurred) {
  return run.error_occurred;
}
template <typename R>
auto run_was_skipped(const R& run, long) -> decltype(static_cast<bool>(run.skipped)) {
  return static_cast<bool>(run.skipped);
}

/// The stock console reporter, additionally capturing per-benchmark
/// name/iterations/ns-per-op and dumping them as a JSON array on Finalize —
/// so the human-readable output is unchanged and the perf trajectory is
/// machine-readable.
class JsonTrajectoryReporter final : public benchmark::ConsoleReporter {
 public:
  explicit JsonTrajectoryReporter(std::string path) : path_(std::move(path)) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    benchmark::ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (run_was_skipped(run, 0)) continue;
      Row row;
      row.name = run.benchmark_name();
      row.iterations = run.iterations;
      row.ns_per_op = run.iterations > 0
                          ? run.real_accumulated_time * 1e9 /
                                static_cast<double>(run.iterations)
                          : 0.0;
      rows_.push_back(std::move(row));
    }
  }

  /// Write {"manifest": ..., "results": [...]} to the configured path.
  /// Called by run_benchmarks_with_json AFTER the run (not from
  /// Finalize()), so the manifest can carry the measured wall time.
  /// `manifest_json` is a complete JSON object, typically
  /// obs::RunManifest::to_json(4).
  void write_json_file(const std::string& manifest_json) const {
    std::ofstream out(path_);
    if (!out) {
      std::cerr << "bench: cannot write " << path_ << "\n";
      return;
    }
    out << "{\n  \"manifest\": " << manifest_json << ",\n  \"results\": [\n";
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      out << "    {\"name\": \"" << rows_[i].name << "\", \"iterations\": "
          << rows_[i].iterations << ", \"ns_per_op\": " << rows_[i].ns_per_op
          << "}" << (i + 1 < rows_.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
  }

 private:
  struct Row {
    std::string name;
    std::int64_t iterations = 0;
    double ns_per_op = 0.0;
  };

  std::string path_;
  std::vector<Row> rows_;
};

/// Initialize, run all registered benchmarks through a
/// JsonTrajectoryReporter, and shut down.  `default_json_path` is used
/// unless FSC_BENCH_JSON is set.  Returns the process exit code.
inline int run_benchmarks_with_json(int argc, char** argv,
                                    const std::string& default_json_path) {
  // benchmark::Initialize consumes (and reorders) argv — capture the
  // command line for the manifest before it runs.
  fsc::obs::RunManifest manifest = fsc::obs::RunManifest::collect();
  manifest.command = fsc::obs::command_line(argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  const char* json_path = std::getenv("FSC_BENCH_JSON");
  JsonTrajectoryReporter reporter(json_path != nullptr ? json_path
                                                       : default_json_path);
  const auto wall_t0 = std::chrono::steady_clock::now();
  benchmark::RunSpecifiedBenchmarks(&reporter);
  manifest.wall_time_s = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - wall_t0)
                             .count();
  reporter.write_json_file(manifest.to_json(4));
  benchmark::Shutdown();
  return 0;
}

}  // namespace fsc_bench
