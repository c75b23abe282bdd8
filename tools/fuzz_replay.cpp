//===- fuzz_replay.cpp - Replay, minimize, and sweep fuzz repro files -----===//
//
// Replays serialized fuzz samples against the full oracle battery:
//
//   fuzz_replay FILE...                 re-run each repro; exit 1 on the
//                                       first oracle failure (regression
//                                       corpus mode)
//   fuzz_replay --expect-fail FILE...   invert: every file must still fail
//                                       (committed fault repros)
//   fuzz_replay --minimize FILE         shrink a failing repro and print
//                                       (or --out PATH, write) the result
//   fuzz_replay --fuzz                  run a fresh campaign (EXO_FUZZ_SEED /
//                                       EXO_FUZZ_ITERS or --seed/--iters;
//                                       --fault injects a fault); on failure,
//                                       minimize and write the repro to
//                                       --out PATH (default fuzz_fail.repro)
//
// Common flags:
//   --no-jit / --no-cross / --driver    narrow or widen the oracle set
//   --trials N                          interpreter trials per sample
//
//===----------------------------------------------------------------------===//

#include "exo/fuzz/Fuzz.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

using namespace exo;
using namespace exo::fuzz;

namespace {

void usage(const char *Argv0) {
  std::fprintf(
      stderr,
      "usage: %s [oracle flags] FILE...\n"
      "       %s [oracle flags] --expect-fail FILE...\n"
      "       %s [oracle flags] --minimize FILE [--out PATH]\n"
      "       %s [oracle flags] --fuzz [--seed N] [--iters N] "
      "[--fault STR] [--out PATH]\n"
      "oracle flags: --no-jit --no-cross --driver --trials N\n",
      Argv0, Argv0, Argv0, Argv0);
}

int replayOne(const std::string &Path, const OracleOptions &O,
              bool ExpectFail) {
  Expected<FuzzSample> S = loadSampleFile(Path);
  if (!S) {
    std::fprintf(stderr, "%s: %s\n", Path.c_str(), S.message().c_str());
    return 2;
  }
  OracleOutcome Res;
  Error E = runOracles(*S, O, &Res);
  if (Res.Rejected) {
    std::fprintf(stderr, "%s: sample rejected by the scheduler\n",
                 Path.c_str());
    return 2;
  }
  if (ExpectFail) {
    if (!E) {
      std::fprintf(stderr, "%s: PASSES but was expected to fail (%s)\n",
                   Path.c_str(), S->summary().c_str());
      return 1;
    }
    std::printf("%s: still fails as expected: %s\n", Path.c_str(),
                E.message().c_str());
    return 0;
  }
  if (E) {
    std::fprintf(stderr, "%s: FAIL (%s): %s\n", Path.c_str(),
                 S->summary().c_str(), E.message().c_str());
    return 1;
  }
  if (Res.StepsSkipped != 0) {
    // A corpus entry whose steps the scheduler skipped tests nothing — the
    // repro has drifted from the rewrite engine and must be refreshed.
    std::fprintf(stderr, "%s: VACUOUS: %d of %d steps skipped\n", Path.c_str(),
                 Res.StepsSkipped, Res.StepsSkipped + Res.StepsApplied);
    return 1;
  }
  std::printf("%s: ok (%s)\n", Path.c_str(), S->summary().c_str());
  return 0;
}

int minimizeFile(const std::string &Path, const std::string &OutPath,
                 const OracleOptions &O) {
  Expected<FuzzSample> S = loadSampleFile(Path);
  if (!S) {
    std::fprintf(stderr, "%s: %s\n", Path.c_str(), S.message().c_str());
    return 2;
  }
  int Rounds = 0;
  FuzzSample Min = minimizeSample(*S, O, &Rounds);
  std::fprintf(stderr, "minimized in %d oracle runs: %s\n", Rounds,
               Min.summary().c_str());
  if (OutPath.empty()) {
    std::fputs(serializeSample(Min).c_str(), stdout);
    return 0;
  }
  if (Error E = saveSampleFile(Min, OutPath)) {
    std::fprintf(stderr, "%s\n", E.message().c_str());
    return 2;
  }
  std::printf("wrote %s\n", OutPath.c_str());
  return 0;
}

void printStats(const FuzzStats &St) {
  std::string Sched, Cmp;
  for (const std::string &S : St.IsasScheduled)
    Sched += (Sched.empty() ? "" : ",") + S;
  for (const std::string &S : St.IsasCompared)
    Cmp += (Cmp.empty() ? "" : ",") + S;
  std::printf("samples=%d rejected=%d interp=%d jit=%d cross=%d driver=%d\n"
              "isas scheduled: %s\nisas compared:  %s\n",
              St.Samples, St.Rejected, St.InterpChecks, St.JitChecks,
              St.CrossChecks, St.DriverChecks, Sched.c_str(), Cmp.c_str());
}

int runCampaign(const FuzzOptions &FO, const std::string &OutPath) {
  ScheduleFuzzer F(FO);
  std::optional<FuzzFailure> Fail = F.run();
  printStats(F.stats());
  if (!Fail) {
    std::printf("campaign clean (seed=0x%llx, %d iterations)\n",
                static_cast<unsigned long long>(FO.Seed), FO.Iterations);
    return 0;
  }
  std::fprintf(stderr, "FAIL: %s\n  sample: %s\n", Fail->Message.c_str(),
               Fail->Sample.summary().c_str());
  int Rounds = 0;
  FuzzSample Min = minimizeSample(Fail->Sample, Fail->Oracle, &Rounds);
  std::fprintf(stderr, "minimized in %d oracle runs: %s\n", Rounds,
               Min.summary().c_str());
  std::string Path = OutPath.empty() ? "fuzz_fail.repro" : OutPath;
  if (Error E = saveSampleFile(Min, Path))
    std::fprintf(stderr, "%s\n", E.message().c_str());
  else
    std::fprintf(stderr, "repro written to %s\n", Path.c_str());
  return 1;
}

} // namespace

int main(int Argc, char **Argv) {
  OracleOptions O;
  bool ExpectFail = false, Minimize = false, Fuzz = false;
  std::string OutPath;
  FuzzOptions FO;
  FO.Seed = fuzzSeedFromEnv(FO.Seed);
  FO.Iterations = fuzzItersFromEnv(FO.Iterations);
  std::vector<std::string> Files;

  for (int K = 1; K < Argc; ++K) {
    std::string A = Argv[K];
    auto NextArg = [&]() -> const char * {
      if (K + 1 >= Argc) {
        usage(Argv[0]);
        std::exit(2);
      }
      return Argv[++K];
    };
    if (A == "--expect-fail")
      ExpectFail = true;
    else if (A == "--minimize")
      Minimize = true;
    else if (A == "--fuzz")
      Fuzz = true;
    else if (A == "--out")
      OutPath = NextArg();
    else if (A == "--seed")
      FO.Seed = std::strtoull(NextArg(), nullptr, 0);
    else if (A == "--iters")
      FO.Iterations = std::atoi(NextArg());
    else if (A == "--fault")
      FO.Fault = NextArg();
    else if (A == "--no-jit")
      O.CheckJit = false;
    else if (A == "--no-cross")
      O.CheckCross = false;
    else if (A == "--driver")
      O.CheckDriver = true;
    else if (A == "--trials")
      O.InterpTrials = std::atoi(NextArg());
    else if (A == "--help" || A == "-h") {
      usage(Argv[0]);
      return 0;
    } else if (!A.empty() && A[0] == '-') {
      std::fprintf(stderr, "unknown flag '%s'\n", A.c_str());
      usage(Argv[0]);
      return 2;
    } else {
      Files.push_back(A);
    }
  }

  if (Fuzz) {
    if (!Files.empty() || Minimize || ExpectFail) {
      usage(Argv[0]);
      return 2;
    }
    FO.Oracle = O;
    return runCampaign(FO, OutPath);
  }
  if (Minimize) {
    if (Files.size() != 1 || ExpectFail) {
      usage(Argv[0]);
      return 2;
    }
    return minimizeFile(Files[0], OutPath, O);
  }
  if (Files.empty()) {
    usage(Argv[0]);
    return 2;
  }
  int Rc = 0;
  for (const std::string &F : Files) {
    int R = replayOne(F, O, ExpectFail);
    if (R != 0 && Rc == 0)
      Rc = R;
  }
  return Rc;
}
