// Interleaved A/B wall-clock timing for the benches' ratio verdicts
// (bench_obs_overhead, bench_thread_scaling).
//
// A verdict that divides two wall times of a few milliseconds each is
// decided by whatever the host does during those milliseconds.  So every
// timed sample here sums enough back-to-back calls to last at least
// kMinSampleSeconds, the two sides alternate which goes first (a slow
// host phase lands on both), and each side keeps its minimum (the
// standard noise-robust estimator for deterministic work).
//
// On a shared VM the hypervisor can also take the vCPUs away mid-sample
// (steal time), which no amount of interleaving cancels: a 4-thread team
// then reads slower than one thread.  So the samples are bracketed by
// /proc/stat's steal counter; when more than kMaxStealShare of the host's
// CPU time was stolen, they are retaken, at most kMaxAttempts times in
// all, and a measurement whose every attempt was contended is reported as
// such (exit kExitContended), never as a pass or a regression.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>

namespace fsc_bench {

/// Shortest wall time one timed sample may last.
inline constexpr double kMinSampleSeconds = 0.05;
/// Largest share of the host's CPU time (all CPUs) that may be stolen
/// while the samples run.  On a shared 4-vCPU VM a quiet run of these
/// gates stole 0-2 ticks (< 1%), a contended one 200-560 ticks over about
/// a second of samples.
inline constexpr double kMaxStealShare = 0.05;
/// Samples taken at most this often: the first try plus two retakes.
inline constexpr int kMaxAttempts = 3;
/// Exit code of a gate whose every attempt ran on a contended host.
inline constexpr int kExitContended = 3;

/// The aggregate `cpu` line of /proc/stat: steal and the total of the
/// first eight fields (user .. steal; guest time is already inside user),
/// in USER_HZ ticks summed over every CPU.  Negative when unreadable.
struct HostTicks {
  long long steal = -1;
  long long total = -1;
};

inline HostTicks read_host_ticks() {
  std::ifstream in("/proc/stat");
  std::string label;
  if (!(in >> label) || label != "cpu") return {};
  HostTicks ticks{0, 0};
  for (int field = 0; field < 8; ++field) {
    long long v = 0;
    if (!(in >> v)) return {};
    ticks.total += v;
    if (field == 7) ticks.steal = v;
  }
  return ticks;
}

/// Per-call wall seconds of the two sides of a verdict, and the host
/// steal during the samples of the attempt they come from.
struct PairedSeconds {
  double a = 0.0;
  double b = 0.0;
  long long steal_ticks = -1;  ///< stolen during the samples; -1 unknown
  double steal_share = 0.0;    ///< of the host's CPU time meanwhile
  int attempts = 0;
  bool contended = false;      ///< every attempt exceeded kMaxStealShare
};

/// Min over `pairs` interleaved samples of the per-call time of `a` and
/// `b`, which each run their work once and return the wall seconds of
/// the part they time.  One untimed call of each (which also warms caches
/// and lazy set-up) picks the calls per sample so the faster side's
/// sample lasts at least kMinSampleSeconds; both sides then use that
/// count.  The samples are retaken while the host steal exceeds
/// kMaxStealShare, up to kMaxAttempts in all; `ticks` reads the host's
/// counters (a parameter so tests can play a contended host).
template <typename A, typename B, typename Ticks = HostTicks (*)()>
PairedSeconds min_of_interleaved(A&& a, B&& b, int pairs,
                                 Ticks&& ticks = read_host_ticks) {
  const double once = std::min(a(), b());
  const int calls = static_cast<int>(
      std::clamp(std::ceil(kMinSampleSeconds / std::max(once, 1e-9)), 1.0,
                 1e6));
  const auto sample_seconds = [calls](auto& timed) {
    double total = 0.0;
    for (int c = 0; c < calls; ++c) total += timed();
    return total;
  };
  PairedSeconds out;
  for (int attempt = 1; attempt <= kMaxAttempts; ++attempt) {
    const HostTicks before = ticks();
    double best_a = std::numeric_limits<double>::infinity();
    double best_b = best_a;
    for (int i = 0; i < pairs; ++i) {
      const bool b_first = i % 2 == 1;
      if (b_first) best_b = std::min(best_b, sample_seconds(b));
      best_a = std::min(best_a, sample_seconds(a));
      if (!b_first) best_b = std::min(best_b, sample_seconds(b));
    }
    const HostTicks after = ticks();
    out = {best_a / calls, best_b / calls};
    out.attempts = attempt;
    if (before.steal < 0 || after.steal < 0) return out;  // no counters
    out.steal_ticks = after.steal - before.steal;
    const long long total = after.total - before.total;
    out.steal_share =
        total > 0 ? static_cast<double>(out.steal_ticks) / total : 0.0;
    out.contended = out.steal_share > kMaxStealShare;
    if (!out.contended) return out;
  }
  return out;
}

/// One line under a verdict: the steal its samples saw.
inline void print_host_steal(const char* what, const PairedSeconds& s) {
  if (s.steal_ticks < 0) {
    std::printf("%s host steal: unknown (no /proc/stat)\n", what);
    return;
  }
  std::printf(
      "%s host steal: %lld ticks (%.1f%% of CPU time, bound %.0f%%), "
      "attempt %d of %d%s\n",
      what, s.steal_ticks, 100.0 * s.steal_share, 100.0 * kMaxStealShare,
      s.attempts, kMaxAttempts, s.contended ? ", host contended" : "");
}

/// The gate's exit code: 2 when a regression was measured on a quiet host
/// (the bounds' verdict stands), else kExitContended when some
/// measurement had no quiet attempt (its ratio reads the host, not the
/// code, whichever way it went), else 0.
inline int verdict_exit_code(bool quiet_regression, bool contended) {
  if (quiet_regression) return 2;
  if (contended) {
    std::printf(
        "[CONTENDED] host contended: more than %.0f%% of CPU time was "
        "stolen in each of %d attempts; no verdict\n",
        100.0 * kMaxStealShare, kMaxAttempts);
    return kExitContended;
  }
  return 0;
}

}  // namespace fsc_bench
