// Run manifest: the provenance block stamped into every machine-readable
// artifact (BENCH_*.json trajectory files, CLI reports, trace files) so a
// number can always be traced back to the code, silicon, and configuration
// that produced it.  Exists because the perf trajectory kept accumulating
// rows like a ~1x thread-scaling result from a core-limited host with
// nothing in the file to say so.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace fsc::obs {

/// What produced a run.  collect() fills the build/host facts; the driver
/// fills the per-run configuration before serializing.
struct RunManifest {
  // Build + host facts (collect()).
  std::string git_describe;   ///< `git describe` at configure time
  unsigned host_cores = 0;    ///< std::thread::hardware_concurrency()

  // Per-run configuration (driver-filled; zero/empty = not applicable).
  std::size_t threads = 0;
  std::uint64_t seed = 0;
  std::string command;     ///< argv joined, for exact reruns
  double wall_time_s = 0;  ///< whole-process wall time, stamped at exit

  /// Build/host facts of THIS binary on THIS host.
  static RunManifest collect();

  /// The manifest as one JSON object, indented by `indent` spaces per
  /// level with the closing brace at `indent - 2` (so it nests cleanly as
  /// a value inside another object's emission).
  std::string to_json(int indent = 2) const;
};

/// Join argv into the manifest's command string (shell-unquoted; spaces in
/// arguments are preserved as-is, which is fine for provenance).
std::string command_line(int argc, char** argv);

}  // namespace fsc::obs
