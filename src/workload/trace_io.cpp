#include "workload/trace_io.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/csv.hpp"
#include "util/units.hpp"

namespace fsc {

std::string workload_to_csv(const Workload& w, double duration_s,
                            double sample_period_s) {
  const std::size_t n =
      sample_count(duration_s, sample_period_s, "workload_to_csv");
  std::ostringstream out;
  CsvWriter csv(out, 9);
  csv.header({"time", "utilization"});
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i) * sample_period_s;
    csv.row({t, w.demand(t)});
  }
  return out.str();
}

std::unique_ptr<SampledWorkload> workload_from_csv(const std::string& csv_text,
                                                   double single_row_period_s) {
  require(single_row_period_s > 0.0,
          "workload_from_csv: single-row period must be > 0");
  // parse_csv already skips blank lines and strips CR, so CRLF files and
  // trailing newlines arrive here as clean rows.
  const CsvTable table = parse_csv(csv_text);
  std::vector<double> times, utils;
  try {
    times = table.column("time");
    utils = table.column("utilization");
  } catch (const std::out_of_range& e) {
    throw std::runtime_error(std::string("workload_from_csv: ") + e.what());
  }
  if (times.empty()) throw std::runtime_error("workload_from_csv: empty trace");
  double period = single_row_period_s;
  if (times.size() >= 2) {
    period = times[1] - times[0];
    if (period <= 0.0) throw std::runtime_error("workload_from_csv: non-increasing time");
    // Tolerance is RELATIVE to the period: long traces carry absolute
    // timestamp float error proportional to t (a day at 300 s spacing
    // reaches t ~ 1e5, where even 1-ulp noise exceeds a 1e-6 absolute
    // bar), while genuine spacing jumps are a period-sized effect.
    const double tol = 1e-6 * period;
    for (std::size_t i = 1; i < times.size(); ++i) {
      if (std::fabs((times[i] - times[i - 1]) - period) > tol) {
        throw std::runtime_error("workload_from_csv: non-uniform sample spacing");
      }
    }
  }
  std::vector<double> samples;
  samples.reserve(utils.size());
  for (double u : utils) samples.push_back(clamp_utilization(u));
  return std::make_unique<SampledWorkload>(std::move(samples), period);
}

void save_workload(const Workload& w, double duration_s, double sample_period_s,
                   const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("save_workload: cannot open " + path);
  out << workload_to_csv(w, duration_s, sample_period_s);
}

std::unique_ptr<SampledWorkload> load_workload(const std::string& path,
                                               double single_row_period_s) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("load_workload: cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return workload_from_csv(buf.str(), single_row_period_s);
}

std::vector<std::string> list_trace_files(const std::string& dir) {
  namespace fs = std::filesystem;
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) {
    throw std::runtime_error("list_trace_files: not a directory: " + dir);
  }
  std::vector<std::string> paths;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    if (entry.path().extension() == ".csv") {
      paths.push_back(entry.path().string());
    }
  }
  // directory_iterator order is unspecified; sort for a stable slot
  // assignment.
  std::sort(paths.begin(), paths.end());
  return paths;
}

std::vector<std::shared_ptr<const SampledWorkload>> load_trace_dir(
    const std::string& dir, double single_row_period_s) {
  const std::vector<std::string> paths = list_trace_files(dir);
  if (paths.empty()) {
    throw std::runtime_error("load_trace_dir: no .csv traces in " + dir);
  }
  std::vector<std::shared_ptr<const SampledWorkload>> traces;
  traces.reserve(paths.size());
  for (const std::string& path : paths) {
    try {
      traces.emplace_back(load_workload(path, single_row_period_s));
    } catch (const std::exception& e) {
      throw std::runtime_error("load_trace_dir: " + path + ": " + e.what());
    }
  }
  return traces;
}

}  // namespace fsc
