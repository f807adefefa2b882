// fsc_pack_traces: build, inspect, and unpack .fst trace packs.
//
// Packing (any mix of sources, in one invocation):
//
//   fsc_pack_traces --csv-dir examples/traces -o traces.fst
//   fsc_pack_traces --google task_usage.csv --azure vm_cpu.csv -o real.fst
//   fsc_pack_traces --csv-dir d --variants 1024 --variant-duration 86400
//       -o corpus.fst
//
// --variants N runs the trace-synthesis fitter (workload/trace_fit.hpp)
// over every source trace and appends N seeded statistically-matched
// variants per source — one downloaded trace becomes an arbitrarily large
// distinct-trace corpus.
//
// Inspecting / unpacking:
//
//   fsc_pack_traces --list traces.fst
//   fsc_pack_traces --unpack traces.fst --out-dir unpacked/
//
// Unpacked CSVs carry 17 significant digits, so a --traces run over the
// unpacked directory is bit-identical to a --trace-pack run over the pack
// itself (CI's pack->replay smoke relies on this).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "cli_util.hpp"
#include "util/rng.hpp"
#include "workload/importers.hpp"
#include "workload/trace_fit.hpp"
#include "workload/trace_io.hpp"
#include "workload/trace_store.hpp"

namespace {

int usage() {
  std::cerr
      << "usage: fsc_pack_traces [sources...] -o PACK.fst\n"
         "       fsc_pack_traces --list PACK.fst\n"
         "       fsc_pack_traces --unpack PACK.fst --out-dir DIR\n"
         "sources:\n"
         "  --csv-dir DIR         every *.csv in DIR (time,utilization)\n"
         "  --google FILE         Google cluster-usage task_usage rows\n"
         "  --azure FILE          Azure vm_cpu_readings rows\n"
         "  --bucket SECS         importer bucket size (default 300)\n"
         "  --variants N          append N fitted seeded variants per source\n"
         "  --variant-seed S      base seed for the variants (default 1)\n"
         "  --variant-duration T  variant length in seconds (default: source)\n";
  return 2;
}

struct SourceTrace {
  std::string name;
  std::vector<double> samples;
  double period_s = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace fsc;

  std::string out_pack, list_pack, unpack_pack, out_dir;
  double bucket_s = 300.0;
  std::size_t variants = 0;
  std::uint64_t variant_seed = 1;
  double variant_duration_s = -1.0;
  std::vector<SourceTrace> sources;

  const auto need_value = [&](int i) { return i + 1 < argc; };
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "-o" || arg == "--out") {
        if (!need_value(i)) return usage();
        out_pack = argv[++i];
      } else if (arg == "--list") {
        if (!need_value(i)) return usage();
        list_pack = argv[++i];
      } else if (arg == "--unpack") {
        if (!need_value(i)) return usage();
        unpack_pack = argv[++i];
      } else if (arg == "--out-dir") {
        if (!need_value(i)) return usage();
        out_dir = argv[++i];
      } else if (arg == "--bucket") {
        if (!need_value(i) || !fsc_cli::parse_double(argv[++i], bucket_s) ||
            bucket_s <= 0.0) {
          return usage();
        }
      } else if (arg == "--variants") {
        if (!need_value(i) ||
            !fsc_cli::parse_unsigned(argv[++i], variants)) {
          return usage();
        }
      } else if (arg == "--variant-seed") {
        if (!need_value(i) ||
            !fsc_cli::parse_unsigned(argv[++i], variant_seed)) {
          return usage();
        }
      } else if (arg == "--variant-duration") {
        if (!need_value(i) ||
            !fsc_cli::parse_double(argv[++i], variant_duration_s) ||
            variant_duration_s <= 0.0) {
          return usage();
        }
      } else if (arg == "--csv-dir") {
        if (!need_value(i)) return usage();
        const std::string dir = argv[++i];
        const auto paths = list_trace_files(dir);
        if (paths.empty()) {
          std::cerr << "no .csv traces in " << dir << "\n";
          return 1;
        }
        for (const std::string& path : paths) {
          const auto w = load_workload(path);
          SourceTrace s;
          s.name = std::filesystem::path(path).stem().string();
          s.samples.assign(w->data(), w->data() + w->size());
          s.period_s = w->sample_period();
          sources.push_back(std::move(s));
        }
      } else if (arg == "--google" || arg == "--azure") {
        if (!need_value(i)) return usage();
        const std::string schema = arg.substr(2);
        for (ImportedTrace& t :
             import_trace_file(schema, argv[++i], bucket_s)) {
          sources.push_back(SourceTrace{std::move(t.name),
                                        std::move(t.samples),
                                        t.sample_period_s});
        }
      } else {
        std::cerr << "unknown flag: " << arg << "\n";
        return usage();
      }
    }

    // ---- list ----------------------------------------------------------
    if (!list_pack.empty()) {
      const auto store = TraceStore::open(list_pack);
      std::printf("%s: %zu trace(s), %s\n", list_pack.c_str(), store->size(),
                  store->mapped() ? "mmap" : "heap");
      for (std::size_t i = 0; i < store->size(); ++i) {
        std::printf("  [%4zu] %-32s %8zu samples @ %gs  (%.1f h)  hash %016llx\n",
                    i, store->name(i).c_str(), store->sample_count(i),
                    store->sample_period(i), store->duration(i) / 3600.0,
                    static_cast<unsigned long long>(store->content_hash(i)));
      }
      return 0;
    }

    // ---- unpack --------------------------------------------------------
    if (!unpack_pack.empty()) {
      if (out_dir.empty()) return usage();
      const auto store = TraceStore::open(unpack_pack);
      std::filesystem::create_directories(out_dir);
      for (std::size_t i = 0; i < store->size(); ++i) {
        const std::string path = out_dir + "/" + store->name(i) + ".csv";
        std::ofstream out(path);
        if (!out) {
          std::cerr << "cannot write " << path << "\n";
          return 1;
        }
        out << stored_trace_to_csv(*store, i);
      }
      std::printf("unpacked %zu trace(s) into %s\n", store->size(),
                  out_dir.c_str());
      return 0;
    }

    // ---- pack ----------------------------------------------------------
    if (sources.empty() || out_pack.empty()) return usage();

    TracePackWriter writer;
    for (const SourceTrace& s : sources) {
      writer.add_trace(s.name, s.samples, s.period_s);
    }
    if (variants > 0) {
      // Every source trace seeds `variants` statistically matched shapes;
      // seeds derive from (variant_seed, source index, variant index) so
      // the corpus is reproducible and every variant distinct.
      for (std::size_t si = 0; si < sources.size(); ++si) {
        const SourceTrace& s = sources[si];
        const TraceFit fit = fit_trace(s.samples, s.period_s);
        const double duration =
            variant_duration_s > 0.0
                ? variant_duration_s
                : static_cast<double>(s.samples.size()) * s.period_s;
        const auto n = static_cast<std::size_t>(
            std::ceil(duration / fit.sample_period_s));
        for (std::size_t v = 0; v < variants; ++v) {
          const std::uint64_t seed =
              derive_seed(derive_seed(variant_seed, si), v);
          writer.add_trace(s.name + "-v" + std::to_string(v),
                           synthesize_samples(fit, n == 0 ? 1 : n, seed),
                           fit.sample_period_s);
        }
      }
    }
    writer.write(out_pack);
    std::printf("packed %zu trace(s) (%zu unique column(s)) into %s\n",
                writer.size(), writer.unique_columns(), out_pack.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return 1;
  }
}
