// Small shared helpers of the end-to-end driver: clocks, process CPU and
// memory, quantiles, a seeded RNG and a Zipf sampler.
#ifndef E2EBENCH_UTIL_H_
#define E2EBENCH_UTIL_H_

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <random>
#include <string>
#include <vector>

namespace e2e {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Whole-process CPU time (user + system, every thread) in nanoseconds.
inline uint64_t ProcessCpuNs() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto ns = [](const timeval& tv) {
    return static_cast<uint64_t>(tv.tv_sec) * 1'000'000'000ULL +
           static_cast<uint64_t>(tv.tv_usec) * 1000ULL;
  };
  return ns(ru.ru_utime) + ns(ru.ru_stime);
}

/// Peak resident set size of the process in MiB.
inline double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Host-wide CPU ticks from /proc/stat: `steal` is time the hypervisor
/// ran something else while this machine's CPUs wanted to run; `busy`
/// is every tick that was not idle, steal included.
struct HostTicks {
  uint64_t steal = 0;
  uint64_t busy = 0;
};

inline HostTicks ReadHostTicks() {
  HostTicks t;
  FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return t;
  unsigned long long v[8] = {};
  if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                  &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
    // user nice system idle iowait irq softirq steal
    t.busy = v[0] + v[1] + v[2] + v[5] + v[6] + v[7];
    t.steal = v[7];
  }
  std::fclose(f);
  return t;
}

/// Linear-interpolated quantile of an unsorted sample (q in [0, 1]).
inline double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(values.size() - 1, lo + 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// Deterministic RNG of the request generators (independent of the
/// program's own Rng so the inputs do not move when the program does).
class Rand {
 public:
  explicit Rand(uint64_t seed) : gen_(seed) {}
  uint64_t Next() { return gen_(); }
  /// Uniform integer in [0, n).
  size_t Below(size_t n) { return n == 0 ? 0 : static_cast<size_t>(gen_() % n); }
  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi) {
    return lo + (hi - lo) * (static_cast<double>(gen_() >> 11) * 0x1.0p-53);
  }
  bool Chance(double p) { return Uniform(0.0, 1.0) < p; }

 private:
  std::mt19937_64 gen_;
};

/// Zipf(s) sampler over ranks [0, n) by inverse CDF lookup.
class Zipf {
 public:
  Zipf(size_t n, double s) : cdf_(n) {
    double sum = 0.0;
    for (size_t i = 0; i < n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf_[i] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }
  size_t Sample(Rand& rng) const {
    const double u = rng.Uniform(0.0, 1.0);
    return static_cast<size_t>(std::lower_bound(cdf_.begin(), cdf_.end(), u) -
                               cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

/// Fatal set-up error: the driver cannot produce a result.
[[noreturn]] inline void Die(const std::string& what) {
  std::fprintf(stderr, "e2e_driver: %s\n", what.c_str());
  std::exit(2);
}

}  // namespace e2e

#endif  // E2EBENCH_UTIL_H_
