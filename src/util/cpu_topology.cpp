#include "util/cpu_topology.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

namespace fsc {

namespace {

/// Parses the kernel's cpulist format ("0-3,8-11,15") into cpu ids.
/// Returns an empty vector on any malformed input.
std::vector<int> parse_cpulist(const std::string& text) {
  std::vector<int> cpus;
  std::istringstream in(text);
  std::string range;
  while (std::getline(in, range, ',')) {
    // Trim trailing whitespace/newline from the last token.
    while (!range.empty() &&
           (range.back() == '\n' || range.back() == ' ' || range.back() == '\r'))
      range.pop_back();
    if (range.empty()) continue;
    int lo = -1;
    int hi = -1;
    if (std::sscanf(range.c_str(), "%d-%d", &lo, &hi) == 2) {
      if (lo < 0 || hi < lo) return {};
      for (int c = lo; c <= hi; ++c) cpus.push_back(c);
    } else if (std::sscanf(range.c_str(), "%d", &lo) == 1) {
      if (lo < 0) return {};
      cpus.push_back(lo);
    } else {
      return {};
    }
  }
  return cpus;
}

/// One node covering hardware_concurrency() — the portable fallback.
CpuTopology flat_topology() {
  CpuTopology t;
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  t.nodes.emplace_back();
  for (unsigned c = 0; c < hw; ++c) t.nodes.front().push_back(static_cast<int>(c));
  t.logical_cpus = hw;
  t.numa_detected = false;
  return t;
}

CpuTopology probe_topology() {
#if defined(__linux__)
  CpuTopology t;
  for (int node = 0; node < 1024; ++node) {
    const std::string path = "/sys/devices/system/node/node" +
                             std::to_string(node) + "/cpulist";
    std::ifstream in(path);
    if (!in.is_open()) break;  // nodes are numbered densely from 0
    std::string text;
    std::getline(in, text);
    std::vector<int> cpus = parse_cpulist(text);
    if (cpus.empty()) continue;  // memory-only node: no CPUs to place on
    t.nodes.push_back(std::move(cpus));
  }
  if (t.nodes.empty()) return flat_topology();
  t.logical_cpus = 0;
  for (const auto& n : t.nodes) t.logical_cpus += n.size();
  t.numa_detected = t.nodes.size() > 1;
  return t;
#else
  return flat_topology();
#endif
}

}  // namespace

const CpuTopology& cpu_topology() noexcept {
  static const CpuTopology topology = probe_topology();
  return topology;
}

std::string cpu_topology_line() {
  const CpuTopology& t = cpu_topology();
  std::string line;
  if (!t.numa_detected) {
    line = "1 node (no NUMA info): ";
    line += std::to_string(t.logical_cpus);
    line += " cpus";
    return line;
  }
  line = std::to_string(t.nodes.size());
  line += " NUMA nodes:";
  for (std::size_t i = 0; i < t.nodes.size(); ++i) {
    const auto& n = t.nodes[i];
    line += (i == 0 ? " " : ", ");
    line += std::to_string(n.front());
    if (n.size() > 1) {
      line += "-";
      line += std::to_string(n.back());
    }
  }
  return line;
}

}  // namespace fsc
