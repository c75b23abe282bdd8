//===- bench_check.cpp - BENCH_*.json regression gate ---------------------===//
//
// Part of the exo-ukr project. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
//
// Compares a fresh bench report against a committed baseline:
//
//   bench_check [--tolerance F] [--require-rows] baseline.json fresh.json
//
// Rows match on (series, label, metric); a relative regression beyond the
// tolerance (default 0.10 = 10%) in the row's declared "better" direction
// fails the gate. Exit codes: 0 pass, 1 regression, 2 usage/parse error.
// A baseline whose machine identity (cpu, arch or hw_threads) differs from
// the fresh report's gets a "machine differs" note; the exit code does not
// change.
// This is the gate future perf PRs cite: regenerate the BENCH_*.json in
// question, run bench_check against the committed baseline, and paste the
// summary (see EXPERIMENTS.md for the workflow).
//
//===----------------------------------------------------------------------===//

#include "benchutil/Report.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

using namespace benchutil;

static int usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s [--tolerance F] [--require-rows] "
               "baseline.json fresh.json\n"
               "  --tolerance F    tolerated relative regression "
               "(default 0.10)\n"
               "  --require-rows   baseline rows missing from the fresh "
               "report fail the gate\n",
               Argv0);
  return 2;
}

int main(int Argc, char **Argv) {
  CompareOptions Opts;
  std::vector<std::string> Paths;
  for (int I = 1; I < Argc; ++I) {
    if (!std::strcmp(Argv[I], "--tolerance") && I + 1 < Argc) {
      Opts.Tolerance = std::atof(Argv[++I]);
      if (Opts.Tolerance < 0)
        return usage(Argv[0]);
    } else if (!std::strcmp(Argv[I], "--require-rows")) {
      Opts.RequireAllRows = true;
    } else if (Argv[I][0] == '-') {
      return usage(Argv[0]);
    } else {
      Paths.push_back(Argv[I]);
    }
  }
  if (Paths.size() != 2)
    return usage(Argv[0]);

  exo::Expected<Json> Baseline = Json::load(Paths[0]);
  if (!Baseline) {
    std::fprintf(stderr, "bench_check: %s\n",
                 Baseline.takeError().message().c_str());
    return 2;
  }
  exo::Expected<Json> Fresh = Json::load(Paths[1]);
  if (!Fresh) {
    std::fprintf(stderr, "bench_check: %s\n",
                 Fresh.takeError().message().c_str());
    return 2;
  }

  exo::Expected<CompareResult> Res =
      compareReports(*Baseline, *Fresh, Opts);
  if (!Res) {
    std::fprintf(stderr, "bench_check: %s\n",
                 Res.takeError().message().c_str());
    return 2;
  }

  std::printf("bench_check: %s vs %s (tolerance %.0f%%)\n", Paths[0].c_str(),
              Paths[1].c_str(), Opts.Tolerance * 100.0);
  std::printf("  rows compared: %d\n", Res->Compared);
  for (const std::string &S : Res->Improvements)
    std::printf("  improved:  %s\n", S.c_str());
  for (const std::string &S : Res->Notes)
    std::printf("  note:      %s\n", S.c_str());
  for (const std::string &S : Res->Regressions)
    std::printf("  REGRESSED: %s\n", S.c_str());
  if (!Res->pass()) {
    std::printf("bench_check: FAIL (%zu regression(s))\n",
                Res->Regressions.size());
    return 1;
  }
  std::printf("bench_check: PASS\n");
  return 0;
}
