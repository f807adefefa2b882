// Host CPU topology for topology-aware worker placement: which logical
// CPUs share a NUMA node.  The probe runs once and is cached.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace fsc {

/// NUMA topology of the host, for topology-aware worker-group placement
/// (util/hierarchical_executor.hpp): a room's worker group wants a
/// contiguous core range on one node so its SoA state stays in-socket.
struct CpuTopology {
  /// Logical CPU ids grouped by NUMA node, in node order.  Never empty:
  /// when the platform exposes no node information (non-Linux, or /sys
  /// unavailable) there is exactly one node listing every logical CPU,
  /// and `numa_detected` is false.
  std::vector<std::vector<int>> nodes;
  std::size_t logical_cpus = 1;  ///< total across nodes (>= 1)
  bool numa_detected = false;    ///< true when real node boundaries were read
};

/// The cached topology probe (thread-safe: C++ static init).  Linux reads
/// /sys/devices/system/node/node*/cpulist; everywhere else (and on any
/// parse failure) it degrades to one node covering hardware_concurrency().
const CpuTopology& cpu_topology() noexcept;

/// One-line summary, e.g. "2 NUMA nodes: 0-15, 16-31" or
/// "1 node (no NUMA info): 4 cpus" — printed by the facility bench header.
std::string cpu_topology_line();

}  // namespace fsc
