//===- Bench.cpp ----------------------------------------------------------===//

#include "benchutil/Bench.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

using namespace benchutil;

BenchOptions BenchOptions::parse(int Argc, char **Argv) {
  BenchOptions O;
  for (int I = 1; I < Argc; ++I) {
    if (!std::strcmp(Argv[I], "--big"))
      O.Big = true;
    else if (!std::strcmp(Argv[I], "--csv"))
      O.Csv = true;
    else if (!std::strcmp(Argv[I], "--smoke"))
      O.Smoke = true;
    else if (!std::strcmp(Argv[I], "--seconds") && I + 1 < Argc)
      O.Seconds = std::atof(Argv[++I]);
    else if (!std::strcmp(Argv[I], "--json")) {
      // Optional path: a bare --json (or one followed by another flag)
      // resolves to BENCH_<bench>.json via jsonPathFor().
      if (I + 1 < Argc && Argv[I + 1][0] != '-')
        O.JsonPath = Argv[++I];
      else
        O.JsonPath = "auto";
    } else if (!std::strcmp(Argv[I], "--trace") && I + 1 < Argc)
      O.TracePath = Argv[++I];
    else if (!std::strcmp(Argv[I], "--remote")) {
      O.Remote = true;
      // Optional socket path, same convention as --json's optional path.
      if (I + 1 < Argc && Argv[I + 1][0] != '-')
        O.RemoteSocket = Argv[++I];
    }
  }
  if (O.Seconds <= 0)
    O.Seconds = 0.25;
  if (O.Smoke)
    O.Seconds = std::min(O.Seconds, 0.02);
  return O;
}

std::string BenchOptions::jsonPathFor(const std::string &BenchName) const {
  if (JsonPath == "auto")
    return "BENCH_" + BenchName + ".json";
  return JsonPath;
}

void BenchOptions::applyObs() const {
  // Stage attribution in the JSON report and the chrome trace both need
  // live spans; --json/--trace opt in without requiring EXO_OBS=1 too.
  if (!JsonPath.empty() || !TracePath.empty())
    obs::setEnabled(true);
}

Measurement benchutil::measure(const std::function<void()> &Fn,
                               double MinSeconds) {
  using Clock = std::chrono::steady_clock;
  // Warm-up run (JIT pages, caches) — excluded from both the timing and
  // the stage attribution.
  Fn();
  std::map<std::string, obs::StageStat> Before;
  bool Obs = obs::enabled();
  if (Obs)
    Before = obs::stageTotals();
  Measurement M;
  auto Start = Clock::now();
  double Elapsed = 0;
  do {
    Fn();
    ++M.Reps;
    Elapsed = std::chrono::duration<double>(Clock::now() - Start).count();
  } while (Elapsed < MinSeconds);
  M.SecondsPerCall = Elapsed / static_cast<double>(M.Reps);
  if (Obs) {
    // Per-call averages of the stage deltas accumulated by the timed reps.
    for (auto &[Name, S] : obs::stageTotals()) {
      obs::StageStat D = S;
      if (auto It = Before.find(Name); It != Before.end()) {
        D.Seconds -= It->second.Seconds;
        D.Count -= It->second.Count;
        D.Counters = D.Counters - It->second.Counters;
      }
      if (D.Count == 0 && D.Seconds <= 0)
        continue;
      D.Seconds /= static_cast<double>(M.Reps);
      D.Counters.Cycles /= static_cast<uint64_t>(M.Reps);
      D.Counters.Instructions /= static_cast<uint64_t>(M.Reps);
      D.Counters.CacheMisses /= static_cast<uint64_t>(M.Reps);
      M.Stages[Name] = D;
    }
  }
  return M;
}

double benchutil::timeIt(const std::function<void()> &Fn, double MinSeconds) {
  return measure(Fn, MinSeconds).SecondsPerCall;
}

Table::Table(std::string Title, std::vector<std::string> Header, bool Csv)
    : Title(std::move(Title)), Header(std::move(Header)), Csv(Csv) {}

void Table::addRow(std::vector<std::string> Cells) {
  Rows.push_back(std::move(Cells));
}

void Table::addRow(const std::string &Label,
                   const std::vector<double> &Values) {
  std::vector<std::string> Cells{Label};
  char Buf[64];
  for (double V : Values) {
    std::snprintf(Buf, sizeof(Buf), "%.2f", V);
    Cells.emplace_back(Buf);
  }
  addRow(std::move(Cells));
}

void Table::print() const {
  std::printf("\n== %s ==\n", Title.c_str());
  std::vector<size_t> Width(Header.size());
  for (size_t I = 0; I != Header.size(); ++I)
    Width[I] = Header[I].size();
  for (const auto &Row : Rows)
    for (size_t I = 0; I != Row.size() && I != Width.size(); ++I)
      Width[I] = std::max(Width[I], Row[I].size());

  auto PrintRow = [&](const std::vector<std::string> &Cells) {
    for (size_t I = 0; I != Cells.size(); ++I)
      std::printf("%-*s  ", static_cast<int>(I < Width.size() ? Width[I] : 8),
                  Cells[I].c_str());
    std::printf("\n");
  };
  PrintRow(Header);
  for (const auto &Row : Rows)
    PrintRow(Row);

  if (Csv) {
    for (const auto &Row : Rows) {
      std::printf("CSV,%s", Title.c_str());
      for (const auto &Cell : Row)
        std::printf(",%s", Cell.c_str());
      std::printf("\n");
    }
  }
  std::fflush(stdout);
}

void benchutil::fillRandom(float *Data, size_t N, unsigned Seed) {
  // xorshift32; values in [-1, 1].
  uint32_t X = Seed ? Seed : 1u;
  for (size_t I = 0; I != N; ++I) {
    X ^= X << 13;
    X ^= X >> 17;
    X ^= X << 5;
    Data[I] = static_cast<float>(static_cast<int32_t>(X)) /
              2147483648.0f;
  }
}

float benchutil::maxAbsDiff(const float *A, const float *B, size_t N) {
  float M = 0;
  for (size_t I = 0; I != N; ++I)
    M = std::max(M, std::fabs(A[I] - B[I]));
  return M;
}
