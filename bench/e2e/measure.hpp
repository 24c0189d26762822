// Clocks, order statistics and the metric record shared by every part
// of bench_e2e.
#pragma once

#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace endbox::e2e {

/// Monotonic wall clock, ns.
inline std::int64_t wall_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU time of the whole process (all threads), ns.
inline std::int64_t cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/// Peak resident set of this process, MiB (ru_maxrss is KiB on Linux).
inline double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// Busy-waits until the wall clock reaches `deadline_ns` (the driver
/// thread must stay runnable: a sleeping vCPU takes time to come back).
inline void spin_until(std::int64_t deadline_ns) {
  while (wall_ns() < deadline_ns) {
  }
}

/// Keeps `value` observable, so the optimiser cannot drop the work
/// that produced it.
template <typename T>
inline void keep(const T& value) {
  asm volatile("" : : "g"(&value) : "memory");
}

/// Keeps the calling thread on the vCPU where a throughput-bound probe
/// runs fastest right now, and measures that core's clock.
///
/// On a shared host a vCPU whose physical core has a busy sibling runs
/// the data path up to ~1.8x slower, which vCPUs those are changes every
/// few hundred ms, and the kernel cannot see it; re-selecting every few
/// tens of ms keeps the benchmark measuring the code rather than the
/// neighbours. The host also moves the core clock between discrete
/// steps over minutes; the host exposes no cycle counter, so the clock
/// is timed with a dependent multiply-add chain of known latency after
/// every selection. Threads created while a selection holds inherit it,
/// so release() before spawning any.
class CoreSelector {
 public:
  /// Time between selections during a measured loop.
  static constexpr std::int64_t kPeriodNs = 25'000'000;

  CoreSelector() { sched_getaffinity(0, sizeof allowed_, &allowed_); }
  ~CoreSelector() { release(); }
  CoreSelector(const CoreSelector&) = delete;
  CoreSelector& operator=(const CoreSelector&) = delete;

  /// Probes every allowed vCPU, pins the calling thread to the fastest
  /// and measures its clock. Returns the wall time this took.
  std::int64_t select() {
    std::int64_t start = wall_ns();
    int best = -1;
    std::int64_t best_ns = 0;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (!CPU_ISSET(cpu, &allowed_) || !pin(cpu)) continue;
      std::int64_t ns = throughput_probe_ns();
      if (best < 0 || ns < best_ns) {
        best = cpu;
        best_ns = ns;
      }
    }
    if (best >= 0) pin(best);
    clock_ghz_ = measure_clock_ghz();
    last_ = wall_ns();
    return last_ - start;
  }

  /// select() when the last selection is kPeriodNs old; returns the
  /// time spent (0 when not due).
  std::int64_t maybe_select() {
    return wall_ns() - last_ >= kPeriodNs ? select() : 0;
  }

  /// Clock of the selected core at the last selection, GHz.
  double clock_ghz() const { return clock_ghz_; }

  /// Restores the affinity the thread had when the selector was made.
  void release() { sched_setaffinity(0, sizeof allowed_, &allowed_); }

 private:
  static bool pin(int cpu) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return sched_setaffinity(0, sizeof one, &one) == 0;
  }

  /// ~50 us of eight independent xorshift-add chains: bound by ALU
  /// throughput, which is what a busy SMT sibling takes away.
  static std::int64_t throughput_probe_ns() {
    std::int64_t t0 = wall_ns();
    std::uint64_t a = 1, b = 2, c = 3, d = 4, e = 5, f = 6, g = 7, h = 8;
    for (int i = 0; i < 25000; ++i) {
      a = (a ^ (a >> 7)) + b;
      b = (b ^ (b << 9)) + c;
      c = (c ^ (c >> 5)) + d;
      d = (d ^ (d << 3)) + e;
      e = (e ^ (e >> 11)) + f;
      f = (f ^ (f << 13)) + g;
      g = (g ^ (g >> 17)) + h;
      h = (h ^ (h << 1)) + a;
    }
    keep(a + b + c + d + e + f + g + h);
    return wall_ns() - t0;
  }

  /// A dependent 64-bit multiply-add chain takes 4 cycles per step
  /// (imul 3 + add 1) and is untouched by SMT siblings; the fastest of
  /// three ~13 us runs gives the clock.
  static double measure_clock_ghz() {
    constexpr int kSteps = 10000;
    std::int64_t best = 0;
    for (std::uint64_t r = 1; r <= 3; ++r) {
      std::int64_t t0 = wall_ns();
      std::uint64_t x = r;
      for (int i = 0; i < kSteps; ++i) x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      keep(x);
      std::int64_t ns = wall_ns() - t0;
      if (r == 1 || ns < best) best = ns;
    }
    return 4.0 * kSteps / static_cast<double>(best);
  }

  cpu_set_t allowed_;
  std::int64_t last_ = 0;
  double clock_ghz_ = 0;
};

/// Linearly interpolated quantile, q in [0, 1]; 0 for an empty sample.
inline double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  auto lo = static_cast<std::size_t>(pos);
  std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// num / den, reading 0 when nothing was measured.
inline double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

/// One named number of a run, with its unit.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// The metrics of one run, in report order.
class Report {
 public:
  void add(std::string name, double value, std::string unit) {
    metrics_.push_back({std::move(name), value, std::move(unit)});
  }
  const std::vector<Metric>& metrics() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

}  // namespace endbox::e2e
