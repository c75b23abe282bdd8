//===- Common.h - Shared plumbing of the repository benchmark -------------===//
//
// Part of the exo-ukr project. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Options, seeded fills, order statistics and the metric ledger every
/// workload of the benchmark reports into (see README.md in this
/// directory for what each workload and metric means).
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace pb {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;     ///< per-layer (traced) run instead of end-to-end
  bool SetupOnly = false; ///< time set-up once, print it, exit
  std::string OutDir = "."; ///< where the traced run writes its span file
};

/// splitmix64: a tiny seeded generator; same seed, same stream, any build.
class Rng {
public:
  explicit Rng(uint64_t Seed) : S(Seed) {}
  uint64_t next() {
    uint64_t Z = (S += 0x9e3779b97f4a7c15ull);
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
    return Z ^ (Z >> 31);
  }
  /// Uniform in [-1, 1).
  float sym() {
    return static_cast<float>(next() >> 40) * (2.0f / 16777216.0f) - 1.0f;
  }
  uint64_t below(uint64_t N) { return next() % N; }

private:
  uint64_t S;
};

inline void fillSym(std::vector<float> &V, Rng &R) {
  for (float &X : V)
    X = R.sym();
}

/// Linear-interpolated quantile (Q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> V, double Q);
inline double median(const std::vector<double> &V) { return quantile(V, 0.5); }

/// 64-bit FNV-1a over raw bytes: the per-pass output checksum.
uint64_t checksum(const void *P, size_t Bytes);

/// One reported number with its unit and how many samples it summarizes.
struct Metric {
  std::string Name, Unit;
  double Value = 0;
  uint64_t Samples = 0;
};

/// What a workload run hands back to main(): the contract counters, the
/// metrics of the requested mode, and free-form report fields (host record,
/// plan tiles, gate outcomes) printed alongside them.
struct Result {
  uint64_t Attempted = 0, Failed = 0;
  bool GateFailed = false;
  std::vector<Metric> Metrics;
  std::vector<std::pair<std::string, std::string>> Report; ///< key, JSON value

  void add(const std::string &Name, const std::string &Unit, double Value,
           uint64_t Samples) {
    Metrics.push_back({Name, Unit, Value, Samples});
  }
  void note(const std::string &Key, const std::string &JsonValue) {
    Report.emplace_back(Key, JsonValue);
  }
  /// Records a failed correctness gate (also counted as a failed op).
  void gateFail(const char *Fmt, ...) __attribute__((format(printf, 2, 3)));
};

std::string jsonString(const std::string &S);
std::string jsonNumber(double V);

int runResnet(const Options &O, Result &R);
int runGemmd(const Options &O, Result &R);

} // namespace pb

#endif // PERFBENCH_COMMON_H
