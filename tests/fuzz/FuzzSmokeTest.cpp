//===- FuzzSmokeTest.cpp - Fixed-seed differential-fuzzing sweep ----------===//
//
// The tier-1 face of the fuzzing subsystem (ctest label: fuzz-smoke).
// Everything here is deterministic: the sweep runs the default campaign
// (EXO_FUZZ_SEED / EXO_FUZZ_ITERS override the seed and size), the fault
// campaign proves the oracle stack catches an injected rewrite bug and
// minimizes it, and the committed corpus under tests/fuzz/corpus/ replays.
//
//===----------------------------------------------------------------------===//

#include "exo/fuzz/Fuzz.h"

#include "JitCacheTestEnv.h"
#include "exo/jit/Jit.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

using namespace exo;
using namespace exo::fuzz;

namespace {

FuzzOptions smokeOptions() {
  FuzzOptions O;
  O.Seed = fuzzSeedFromEnv(O.Seed);
  O.Iterations = fuzzItersFromEnv(O.Iterations);
  return O;
}

} // namespace

TEST(FuzzEnvTest, KnobsParseAndDefault) {
  unsetenv("EXO_FUZZ_SEED");
  unsetenv("EXO_FUZZ_ITERS");
  EXPECT_EQ(fuzzSeedFromEnv(0xE40), 0xE40u);
  EXPECT_EQ(fuzzItersFromEnv(64), 64);
  setenv("EXO_FUZZ_SEED", "0x1234", 1);
  setenv("EXO_FUZZ_ITERS", "17", 1);
  EXPECT_EQ(fuzzSeedFromEnv(0xE40), 0x1234u);
  EXPECT_EQ(fuzzItersFromEnv(64), 17);
  unsetenv("EXO_FUZZ_SEED");
  unsetenv("EXO_FUZZ_ITERS");
}

TEST(FuzzDeterminismTest, EqualOptionsDrawEqualCampaigns) {
  FuzzOptions O;
  O.Seed = 0xFEED;
  ScheduleFuzzer A(O), B(O);
  for (int K = 0; K != 16; ++K) {
    FuzzSample SA = A.draw();
    FuzzSample SB = B.draw();
    EXPECT_EQ(serializeSample(SA), serializeSample(SB)) << "sample " << K;
  }
}

TEST(FuzzSerializationTest, DrawnSamplesRoundTrip) {
  FuzzOptions O;
  O.Seed = 0xC0FFEE;
  ScheduleFuzzer F(O);
  for (int K = 0; K != 32; ++K) {
    FuzzSample S = F.draw();
    std::string Text = serializeSample(S);
    Expected<FuzzSample> P = parseSample(Text);
    ASSERT_TRUE(static_cast<bool>(P)) << P.message() << "\n" << Text;
    EXPECT_EQ(serializeSample(*P), Text) << "sample " << K;
  }
}

TEST(FuzzSerializationTest, RejectsMalformedFiles) {
  EXPECT_FALSE(static_cast<bool>(parseSample("")));
  EXPECT_FALSE(static_cast<bool>(parseSample("exo-fuzz-repro v2\n")));
  EXPECT_FALSE(static_cast<bool>(
      parseSample("exo-fuzz-repro v1\nshape 0 8 4 0\n")));
  EXPECT_FALSE(static_cast<bool>(
      parseSample("exo-fuzz-repro v1\nbogus-key 1\n")));
  EXPECT_FALSE(static_cast<bool>(
      parseSample("exo-fuzz-repro v1\nstep warp |for i in _: _|\n")));
}

// The headline sweep: a full deterministic campaign, every oracle green.
// With the default options this is >= 64 samples and compares at least
// three kernel families on a JIT-capable host.
TEST(FuzzSmokeTest, DefaultSweepIsCleanAndCoversIsas) {
  FuzzOptions O = smokeOptions();
  ScheduleFuzzer F(O);
  std::optional<FuzzFailure> Fail = F.run();
  if (Fail)
    FAIL() << Fail->Message << "\n  sample: " << Fail->Sample.summary()
           << "\n  repro:\n" << serializeSample(Fail->Sample);

  const FuzzStats &St = F.stats();
  EXPECT_EQ(St.Samples, O.Iterations);
  // Every non-rejected sample passed through the interpreter oracle.
  EXPECT_EQ(St.InterpChecks + St.Rejected, St.Samples);
  // Every PriorEvery-th sample must have drawn its tile from a synthetic
  // prior record that survived the PriorDb format round trip; a shortfall
  // means the record format broke under the fuzzer's tiles.
  if (O.PriorEvery > 0) {
    EXPECT_EQ(St.PriorShaped, O.Iterations / O.PriorEvery);
  }
  if (O.Seed == FuzzOptions().Seed && O.Iterations >= FuzzOptions().Iterations) {
    // Known coverage of the default campaign (deterministic by design).
    EXPECT_EQ(St.Rejected, 0);
    EXPECT_GE(St.IsasScheduled.size(), 4u);
    if (jitAvailable()) {
      EXPECT_GE(St.JitChecks, St.Samples / 2);
      EXPECT_GE(St.CrossChecks, St.Samples / 2);
      EXPECT_GE(St.DriverChecks, St.Samples / 8);
      EXPECT_GE(St.IsasCompared.size(), 3u);
    }
  }
}

// An injected rewrite bug (divide silently drops its last iteration) must
// be caught by the oracles and must shrink to a small standalone repro
// that still fails after a serialize/parse round trip.
TEST(FuzzFaultInjectionTest, InjectedFaultIsCaughtAndMinimizes) {
  FuzzOptions O;
  O.Seed = FuzzOptions().Seed;
  O.Iterations = 16;
  O.Fault = "divide";
  ScheduleFuzzer F(O);
  std::optional<FuzzFailure> Fail = F.run();
  ASSERT_TRUE(Fail.has_value())
      << "the injected fault escaped all oracles";
  EXPECT_NE(Fail->Sample.Fault, "");

  int Rounds = 0;
  FuzzSample Min = minimizeSample(Fail->Sample, Fail->Oracle, &Rounds);
  EXPECT_GT(Rounds, 0);
  EXPECT_LE(Min.Steps.size(), Fail->Sample.Steps.size());
  EXPECT_LE(Min.KC, Fail->Sample.KC);

  Expected<FuzzSample> Reloaded = parseSample(serializeSample(Min));
  ASSERT_TRUE(static_cast<bool>(Reloaded)) << Reloaded.message();
  Error E = runOracles(*Reloaded, Fail->Oracle);
  EXPECT_TRUE(static_cast<bool>(E))
      << "minimized repro no longer fails:\n" << serializeSample(Min);
}

// The committed corpus: fault_* entries must still fail (regression repros
// stay live), parse_* entries carry a deliberately malformed step that must
// degrade to a skipped parse error instead of crashing the replayer, and
// everything else must pass with no step skipped (a skipped step means the
// repro drifted from the rewrite engine and checks nothing).
TEST(FuzzCorpusTest, CommittedCorpusReplays) {
  namespace fs = std::filesystem;
  const fs::path Dir(EXO_FUZZ_CORPUS_DIR);
  ASSERT_TRUE(fs::is_directory(Dir)) << Dir;
  int Seen = 0;
  for (const fs::directory_entry &Ent : fs::directory_iterator(Dir)) {
    if (Ent.path().extension() != ".repro")
      continue;
    ++Seen;
    const std::string Name = Ent.path().filename().string();
    Expected<FuzzSample> S = loadSampleFile(Ent.path().string());
    ASSERT_TRUE(static_cast<bool>(S)) << Name << ": " << S.message();
    OracleOutcome Res;
    Error E = runOracles(*S, OracleOptions(), &Res);
    EXPECT_FALSE(Res.Rejected) << Name;
    if (Name.rfind("fault_", 0) == 0) {
      EXPECT_TRUE(static_cast<bool>(E)) << Name << ": fault repro passes";
    } else if (Name.rfind("parse_", 0) == 0) {
      // Reaching this point at all is the regression check: the malformed
      // pattern used to throw out of the occurrence parser and abort.
      EXPECT_FALSE(static_cast<bool>(E)) << Name << ": " << E.message();
      EXPECT_GT(Res.StepsSkipped, 0)
          << Name << ": malformed step unexpectedly applied";
    } else {
      EXPECT_FALSE(static_cast<bool>(E)) << Name << ": " << E.message();
      EXPECT_EQ(Res.StepsSkipped, 0) << Name << ": vacuous corpus entry";
    }
  }
  EXPECT_GE(Seen, 4) << "committed corpus went missing";
}
