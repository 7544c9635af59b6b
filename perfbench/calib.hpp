// Timing for the benchmark: a calibration kernel that rescales long timed
// sections to a fixed nominal speed, plus the order statistics the
// reported metrics use.
//
// Why: on shared hosts other tenants' memory traffic slows the program by
// up to 1.6x, so raw wall time of one section does not repeat between
// processes. For long operations (a change, a recovery) the benchmark times
// its own fixed, memory-bound kernel immediately before and after the
// section and reports
//     scaled = raw * kNominalKernelNs / mean(kernel before, kernel after)
// i.e. the section's time at the speed where the kernel takes exactly
// kNominalKernelNs. Two more kernels scale the other figures the same
// way: a core-bound one around every delivery pass, and one made of
// set-up-like work (page faults, allocation), the median of several rounds
// right after the run's one cold set-up. All kernels are the benchmark's
// own code, so a change to the program can never move them.
#pragma once

#include <sys/mman.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <unordered_map>
#include <vector>

namespace perfbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// splitmix64: the benchmark's own generator, independent of the program's.
struct Rng {
  std::uint64_t s;
  explicit Rng(std::uint64_t seed) : s(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  // Uniform in [0, n).
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
};

// Kernel time, in ns, at the speed the figures are scaled to: the kernel's
// median time on the reference host (see README, "Measurement method").
inline constexpr double kNominalKernelNs = 1000000.0;

class Calibrator {
 public:
  Calibrator() : chain_(kSlots) {
    // One random cycle through all slots: every load depends on the
    // previous one and misses the private caches.
    std::vector<std::uint32_t> order(kSlots);
    std::iota(order.begin(), order.end(), 0u);
    Rng rng(0xca11b8a7e);
    for (std::size_t i = kSlots - 1; i > 0; --i)
      std::swap(order[i], order[rng.below(i + 1)]);
    for (std::size_t i = 0; i < kSlots; ++i)
      chain_[order[i]] = order[(i + 1) % kSlots];
  }

  // One timed kernel run, in ns.
  double kernel_ns() {
    const std::uint64_t t0 = now_ns();
    std::uint32_t p = pos_;
    for (int i = 0; i < kChase; ++i) p = chain_[p];
    // Independent loads: the memory-level parallelism of hash probes.
    std::uint64_t x = p;
    std::uint32_t g = p;
    for (int i = 0; i < kGather; ++i) {
      g = g * 1664525u + 1013904223u;
      x += chain_[g & (kSlots - 1)];
    }
    pos_ = p;
    sink_ ^= x;
    return static_cast<double>(now_ns() - t0);
  }

  // Times fn() and returns {raw ns, scaled ns}.
  template <class Fn>
  std::pair<double, double> time(Fn&& fn) {
    const double before = kernel_ns();
    const std::uint64_t t0 = now_ns();
    fn();
    const double raw = static_cast<double>(now_ns() - t0);
    const double after = kernel_ns();
    kernels_.push_back(before);
    kernels_.push_back(after);
    return {raw, raw * kNominalKernelNs / (0.5 * (before + after))};
  }

  // Every kernel time measured so far, in ns.
  const std::vector<double>& kernels() const { return kernels_; }

 private:
  static constexpr std::size_t kSlots = 1u << 22;  // 16 MiB of uint32
  static constexpr int kChase = 3000;
  static constexpr int kGather = 30000;
  std::vector<std::uint32_t> chain_;
  std::uint32_t pos_ = 0;
  std::uint64_t sink_ = 0;
  std::vector<double> kernels_;
};

// Kernel time, in ns, that delivery calls are scaled to: the core
// kernel's median on the reference host when it is quiet.
inline constexpr double kNominalCoreKernelNs = 200000.0;

// One run of the core kernel, in ns: four independent streams of table
// lookups and integer mixing over a 32 KiB table, so it stays in the core's
// private caches and keeps several execution ports busy, as the data path
// does. It slows with the core, e.g. when a sibling hardware thread is
// busy, which a memory-bound kernel does not see.
inline double core_kernel_ns() {
  static const std::vector<std::uint32_t> table = [] {
    std::vector<std::uint32_t> t(8192);
    for (std::uint32_t i = 0; i < t.size(); ++i) t[i] = i * 2654435761u;
    return t;
  }();
  const std::uint32_t* tab = table.data();
  const std::uint64_t t0 = now_ns();
  std::uint32_t a = 1, b = 2, c = 3, d = 4;
  for (std::uint32_t i = 0; i < 50000; ++i) {
    a = tab[(a ^ (a >> 7)) & 8191] + (a << 1) + i;
    b = tab[(b ^ (b >> 5)) & 8191] ^ (b * 3) ^ i;
    c = tab[(c + (c >> 3)) & 8191] + (c ^ 0x9e37) + i;
    d = tab[(d * 5 + (d >> 9)) & 8191] ^ (d + 7) ^ i;
  }
  volatile std::uint32_t sink = a + b + c + d;
  (void)sink;
  return static_cast<double>(now_ns() - t0);
}

// Kernel time, in ns, that set-up times are scaled to: the set-up
// kernel's median on the reference host (see README, "Measurement method").
inline constexpr double kNominalSetupKernelNs = 6000000.0;

// One round of the set-up kernel, in ns: the two kinds of work a cold
// set-up does, on the benchmark's own data. It touches every page of a
// fresh 8 MiB anonymous mapping (first-touch page faults) and builds a
// node-based hash map of small vectors (allocation and pointer work).
inline double setup_kernel_ns() {
  const std::uint64_t t0 = now_ns();
  constexpr std::size_t kLen = 8u << 20;
  void* map = mmap(nullptr, kLen, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (map != MAP_FAILED) {
    auto* bytes = static_cast<volatile char*>(map);
    for (std::size_t off = 0; off < kLen; off += 4096) bytes[off] = 1;
    munmap(map, kLen);
  }
  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> m;
  Rng rng(0x5e7ab1e);
  for (std::uint32_t i = 0; i < 20000; ++i) m[rng.below(50000)].push_back(i);
  std::uint64_t sum = 0;
  for (const auto& [k, v] : m) sum += k + v.size();
  volatile std::uint64_t sink = sum;
  (void)sink;
  return static_cast<double>(now_ns() - t0);
}

// Order statistic with linear interpolation (q in [0, 1]).
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

// Weighted order statistic: each value counts `w` times (the message
// weighting of netsim::per_message_latency).
inline double weighted_quantile(std::vector<std::pair<double, std::uint32_t>> v,
                                double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  std::uint64_t total = 0;
  for (const auto& [x, w] : v) total += w;
  const auto target = static_cast<std::uint64_t>(q * static_cast<double>(total - 1));
  std::uint64_t cum = 0;
  for (const auto& [x, w] : v) {
    cum += w;
    if (cum > target) return x;
  }
  return v.back().first;
}

}  // namespace perfbench
