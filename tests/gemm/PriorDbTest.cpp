//===- PriorDbTest.cpp - Persistent tuning-prior database -----------------===//
//
// Mirrors DiskCacheTest for the planner's prior database: round-trip,
// machine-key rejection, corrupt-record quarantine, pruning, and a
// concurrent reader/writer hammer (which the TSan gate re-runs
// instrumented).
//
//===----------------------------------------------------------------------===//

#include "gemm/PriorDb.h"

#include "JitCacheTestEnv.h"
#include "exo/jit/DiskCache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <sys/stat.h>
#include <thread>
#include <unistd.h>
#include <utime.h>
#include <vector>

using namespace gemm;

namespace {

std::string makeTempDir() { return exotest::makeTempDir("exo-pdbtest"); }

/// A valid record for this machine (Machine/Class filled by store()).
PriorRecord sampleRecord(int64_t M, int64_t N, int64_t K) {
  PriorRecord R;
  R.M = M;
  R.N = N;
  R.K = K;
  R.Isa = "avx2";
  R.MR = 16;
  R.NR = 8;
  R.MC = 256;
  R.NC = 4096;
  R.KC = 512;
  R.UnrollCompute = true;
  R.Fma = "bcst";
  R.Threads = 1;
  R.TunedGflops = 50.5;
  R.ModelMR = 8;
  R.ModelNR = 12;
  R.ModelGflops = 44.25;
  return R;
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path);
  std::ostringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

} // namespace

TEST(PriorMachineKeyTest, StableAndNonZero) {
  uint64_t K1 = priorMachineKey();
  EXPECT_NE(K1, 0u);
  EXPECT_EQ(priorMachineKey(), K1); // computed once, stable in-process
}

TEST(PriorShapeClassTest, RoundsUpToPowerOfTwoBuckets) {
  EXPECT_EQ(priorShapeClass(100, 100, 2000), "g128x128x2048");
  EXPECT_EQ(priorShapeClass(128, 128, 2048), "g128x128x2048");
  EXPECT_EQ(priorShapeClass(1, 1, 1), "g1x1x1");
  // Degenerate dims clamp rather than underflow.
  EXPECT_EQ(priorShapeClass(0, -5, 3), "g1x1x4");
}

TEST(PriorRecordTest, FormatParseRoundTripsEveryField) {
  // Property-style: a spread of records, including awkward values, must
  // survive format -> parse bit-exactly in every field.
  std::vector<PriorRecord> Recs;
  for (int I = 0; I < 8; ++I) {
    PriorRecord R = sampleRecord(64 + I * 13, 96 + I * 7, 128 + I * 29);
    R.Machine = 0x0123456789abcdefull + static_cast<uint64_t>(I);
    R.Class = priorShapeClass(R.M, R.N, R.K);
    R.MR = 4 + I;
    R.NR = 4 + 2 * I;
    R.UnrollCompute = I % 2 != 0;
    R.Prefetch = I * 64;
    R.Threads = 1 + I;
    R.TunedGflops = 1.0 / 3.0 + I * 0.125; // needs full double fidelity
    R.ModelGflops = 1e-3 * I;
    Recs.push_back(R);
  }
  for (const PriorRecord &R : Recs) {
    exo::Expected<PriorRecord> P = parsePriorRecord(formatPriorRecord(R));
    ASSERT_TRUE(static_cast<bool>(P)) << P.message();
    EXPECT_EQ(P->Version, R.Version);
    EXPECT_EQ(P->Machine, R.Machine);
    EXPECT_EQ(P->M, R.M);
    EXPECT_EQ(P->N, R.N);
    EXPECT_EQ(P->K, R.K);
    EXPECT_EQ(P->Class, R.Class);
    EXPECT_EQ(P->Isa, R.Isa);
    EXPECT_EQ(P->MR, R.MR);
    EXPECT_EQ(P->NR, R.NR);
    EXPECT_EQ(P->MC, R.MC);
    EXPECT_EQ(P->NC, R.NC);
    EXPECT_EQ(P->KC, R.KC);
    EXPECT_EQ(P->UnrollCompute, R.UnrollCompute);
    EXPECT_EQ(P->Prefetch, R.Prefetch);
    EXPECT_EQ(P->Fma, R.Fma);
    EXPECT_EQ(P->Threads, R.Threads);
    EXPECT_DOUBLE_EQ(P->TunedGflops, R.TunedGflops);
    EXPECT_EQ(P->ModelMR, R.ModelMR);
    EXPECT_EQ(P->ModelNR, R.ModelNR);
    EXPECT_DOUBLE_EQ(P->ModelGflops, R.ModelGflops);
    EXPECT_DOUBLE_EQ(P->margin(), R.margin());
  }
}

TEST(PriorRecordTest, ParseRejectsTruncatedGarbageAndWrongVersion) {
  PriorRecord R = sampleRecord(64, 64, 64);
  R.Machine = priorMachineKey();
  std::string Good = formatPriorRecord(R);
  ASSERT_TRUE(static_cast<bool>(parsePriorRecord(Good)));

  // Truncation anywhere must fail, never default missing fields.
  for (size_t Cut : {size_t{0}, Good.size() / 4, Good.size() / 2,
                     Good.size() - 20})
    EXPECT_FALSE(static_cast<bool>(parsePriorRecord(Good.substr(0, Cut))))
        << "cut at " << Cut;

  EXPECT_FALSE(static_cast<bool>(parsePriorRecord("not a record at all")));
  // Checked scalar parses: trailing garbage and out-of-range both fail.
  EXPECT_FALSE(static_cast<bool>(
      parsePriorRecord(Good + "mr=8banana\n")));
  EXPECT_FALSE(static_cast<bool>(
      parsePriorRecord(Good + "tuned_gflops=1e99999\n")));
  // A version bump quarantines rather than half-reads.
  std::string Bumped = Good;
  Bumped.replace(Bumped.find("version=1"), 9, "version=9");
  EXPECT_FALSE(static_cast<bool>(parsePriorRecord(Bumped)));
  // Unknown keys are forward-compatible and skipped.
  EXPECT_TRUE(static_cast<bool>(
      parsePriorRecord(Good + "future_knob=42\n")));
}

TEST(PriorDbTest, StoreLookupExactAndClassFallback) {
  PriorDb Db(makeTempDir());
  ASSERT_TRUE(Db.enabled());

  PriorRecord R = sampleRecord(100, 100, 2000);
  ASSERT_FALSE(static_cast<bool>(Db.store(R))) << "store must succeed";

  bool Exact = false;
  std::optional<PriorRecord> Hit = Db.lookup(100, 100, 2000, &Exact);
  ASSERT_TRUE(Hit.has_value());
  EXPECT_TRUE(Exact);
  EXPECT_EQ(Hit->MR, 16);
  EXPECT_EQ(Hit->NR, 8);
  EXPECT_EQ(Hit->Machine, priorMachineKey()); // store filled the default
  EXPECT_EQ(Hit->Class, "g128x128x2048");

  // A different shape in the same power-of-two class falls back to the
  // class representative.
  Hit = Db.lookup(97, 120, 1500, &Exact);
  ASSERT_TRUE(Hit.has_value());
  EXPECT_FALSE(Exact);
  EXPECT_EQ(Hit->MR, 16);

  // A shape in another class misses entirely.
  EXPECT_FALSE(Db.lookup(8, 8, 8).has_value());

  // The class representative only upgrades: a slower record for the same
  // class must not displace the incumbent.
  PriorRecord Slow = sampleRecord(120, 110, 1800);
  Slow.MR = 8;
  Slow.NR = 4;
  Slow.TunedGflops = 10.0;
  ASSERT_FALSE(static_cast<bool>(Db.store(Slow)));
  Hit = Db.lookup(97, 120, 1500, &Exact);
  ASSERT_TRUE(Hit.has_value());
  EXPECT_EQ(Hit->MR, 16) << "slower record displaced the class best";
}

TEST(PriorDbTest, StoreValidatesRecords) {
  PriorDb Db(makeTempDir());
  PriorRecord Bad = sampleRecord(64, 64, 64);
  Bad.MR = 0;
  EXPECT_TRUE(static_cast<bool>(Db.store(Bad)));
  Bad = sampleRecord(0, 64, 64);
  EXPECT_TRUE(static_cast<bool>(Db.store(Bad)));
  PriorDb Disabled("");
  EXPECT_FALSE(Disabled.enabled());
  EXPECT_TRUE(static_cast<bool>(Disabled.store(sampleRecord(8, 8, 8))));
  EXPECT_FALSE(Disabled.lookup(8, 8, 8).has_value());
}

TEST(PriorDbTest, TamperedMachineKeyIsRejectedAndCounted) {
  PriorDb Db(makeTempDir());
  ASSERT_TRUE(Db.enabled());
  ASSERT_FALSE(static_cast<bool>(Db.store(sampleRecord(64, 64, 64))));

  // Rewrite both entries in place with a foreign machine key — the
  // hand-copied-database scenario: filename hash still matches this
  // machine, content does not.
  std::vector<PriorDb::Entry> Entries = Db.list();
  ASSERT_EQ(Entries.size(), 2u); // exact + class representative
  for (const PriorDb::Entry &E : Entries) {
    PriorRecord Foreign = E.Rec;
    Foreign.Machine = E.Rec.Machine ^ 0xdeadbeefull;
    std::ofstream(E.Path) << formatPriorRecord(Foreign);
  }

  uint64_t Before = PriorDb::stats().MachineMismatch;
  EXPECT_FALSE(Db.lookup(64, 64, 64).has_value());
  EXPECT_EQ(PriorDb::stats().MachineMismatch - Before, 2u)
      << "both the exact and the class probe must reject";
  for (const PriorDb::Entry &E : Db.list())
    EXPECT_FALSE(E.MachineMatch);
}

TEST(PriorDbTest, CorruptRecordIsQuarantinedOnLookup) {
  std::string Dir = makeTempDir();
  PriorDb Db(Dir);
  ASSERT_FALSE(static_cast<bool>(Db.store(sampleRecord(64, 64, 64))));

  // Torn write: replace the exact record with a truncated prefix.
  std::vector<PriorDb::Entry> Entries = Db.list();
  ASSERT_EQ(Entries.size(), 2u);
  for (const PriorDb::Entry &E : Entries) {
    std::string Text = readFile(E.Path);
    std::ofstream(E.Path) << Text.substr(0, Text.size() / 3);
  }

  uint64_t CorruptBefore = PriorDb::stats().CorruptSeen;
  uint64_t QuarBefore = PriorDb::stats().Quarantined;
  EXPECT_FALSE(Db.lookup(64, 64, 64).has_value());
  EXPECT_EQ(PriorDb::stats().CorruptSeen - CorruptBefore, 2u);
  EXPECT_EQ(PriorDb::stats().Quarantined - QuarBefore, 2u);
  // Quarantined files are renamed *.bad and leave the live listing.
  EXPECT_TRUE(Db.list().empty());
  // A fresh store works over the quarantined remains, and prune sweeps
  // the .bad files.
  ASSERT_FALSE(static_cast<bool>(Db.store(sampleRecord(64, 64, 64))));
  EXPECT_TRUE(Db.lookup(64, 64, 64).has_value());
  EXPECT_EQ(Db.prune(/*DropForeign=*/false), 2u);
}

TEST(PriorDbTest, ListQuarantineAndPruneSweepCorruptAndForeign) {
  std::string Dir = makeTempDir();
  PriorDb Db(Dir);
  ASSERT_FALSE(static_cast<bool>(Db.store(sampleRecord(64, 64, 64))));
  ASSERT_FALSE(static_cast<bool>(Db.store(sampleRecord(128, 128, 128))));

  // One corrupt file and one foreign-machine record alongside the four
  // live entries (2 shapes x exact+class).
  std::ofstream(Dir + "/p00000000000000ff.prior") << "garbage";
  PriorRecord Foreign = sampleRecord(32, 32, 32);
  Foreign.Machine = 0x1234;
  std::ofstream(Dir + "/p00000000000000ee.prior")
      << formatPriorRecord(Foreign);

  std::vector<PriorDb::Entry> Entries = Db.list();
  ASSERT_EQ(Entries.size(), 6u);
  size_t Corrupt = 0, ForeignSeen = 0;
  for (const PriorDb::Entry &E : Entries) {
    Corrupt += E.Corrupt;
    ForeignSeen += !E.Corrupt && !E.MachineMatch;
  }
  EXPECT_EQ(Corrupt, 1u);
  EXPECT_EQ(ForeignSeen, 1u);

  EXPECT_EQ(Db.quarantine(), 1u);
  EXPECT_EQ(Db.list().size(), 5u);
  // prune: the .bad file and the foreign record go; live local stay.
  EXPECT_EQ(Db.prune(/*DropForeign=*/true), 2u);
  EXPECT_EQ(Db.list().size(), 4u);
  // Record cap: oldest-first eviction down to the cap.
  EXPECT_EQ(Db.prune(false, /*MaxRecords=*/1), 3u);
  EXPECT_EQ(Db.list().size(), 1u);
}

TEST(PriorDbTest, ConcurrentReadersAndWritersStayConsistent) {
  // The hammer the TSan gate re-runs instrumented: concurrent store /
  // lookup / list / quarantine on one root must never tear a record —
  // every successful lookup parses fully and carries this machine's key.
  PriorDb Db(makeTempDir());
  ASSERT_TRUE(Db.enabled());
  constexpr int Writers = 2, Readers = 2, Iters = 40;
  std::atomic<bool> Fail{false};
  std::vector<std::thread> Threads;
  for (int W = 0; W < Writers; ++W)
    Threads.emplace_back([&Db, W, &Fail] {
      for (int I = 0; I < Iters; ++I) {
        PriorRecord R = sampleRecord(64 + W, 64, 64 + (I % 3));
        R.TunedGflops = 40.0 + I;
        if (Db.store(R))
          Fail = true;
      }
    });
  for (int Rd = 0; Rd < Readers; ++Rd)
    Threads.emplace_back([&Db, Rd, &Fail] {
      for (int I = 0; I < Iters; ++I) {
        bool Exact = false;
        if (std::optional<PriorRecord> R =
                Db.lookup(64 + (I % Writers), 64, 64 + (I % 3), &Exact)) {
          if (R->Machine != priorMachineKey() || R->MR <= 0 || R->NR <= 0)
            Fail = true;
        }
        if (Rd == 0)
          (void)Db.list();
        else
          (void)Db.quarantine(); // must be a no-op on healthy files
      }
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_FALSE(Fail.load());
  // Atomic publication: no .tmp litter survives the hammer.
  for (const PriorDb::Entry &E : Db.list()) {
    EXPECT_FALSE(E.Corrupt) << E.Path;
    EXPECT_EQ(E.Path.find(".tmp."), std::string::npos);
  }
}

TEST(PriorDbTest, GlobalRespectsEnvRootAndSetGlobalRoot) {
  // JitCacheTestEnv points the JIT cache at an ephemeral dir for the whole
  // binary; global() must live under it, not in ~/.cache.
  const std::string Saved = PriorDb::global().root();
  EXPECT_EQ(Saved, exo::JitDiskCache::global().root() + "/priors");
  std::string Dir = makeTempDir();
  PriorDb::setGlobalRoot(Dir);
  EXPECT_EQ(PriorDb::global().root(), Dir);
  ASSERT_FALSE(
      static_cast<bool>(PriorDb::global().store(sampleRecord(40, 40, 40))));
  EXPECT_TRUE(PriorDb::global().lookup(40, 40, 40).has_value());
  PriorDb::setGlobalRoot(Saved);
  EXPECT_FALSE(PriorDb::global().lookup(40, 40, 40).has_value());
}

TEST(PriorDbTest, OneCacheRootIsolatesBothStores) {
  // The priors follow the JIT cache root: one setting isolates both
  // stores, and an empty root disables both without creating "/priors".
  const std::string SavedCache = exo::JitDiskCache::global().root();
  std::string Cache = makeTempDir();
  exo::JitDiskCache::setGlobalRoot(Cache);
  EXPECT_EQ(PriorDb::global().root(), Cache + "/priors");
  ASSERT_FALSE(
      static_cast<bool>(PriorDb::global().store(sampleRecord(48, 48, 48))));
  struct stat St;
  EXPECT_EQ(stat((Cache + "/priors").c_str(), &St), 0);

  const bool SlashPriorsExisted = stat("/priors", &St) == 0;
  exo::JitDiskCache::setGlobalRoot("");
  EXPECT_FALSE(exo::JitDiskCache::global().enabled());
  EXPECT_FALSE(PriorDb::global().enabled());
  EXPECT_EQ(PriorDb::global().root(), "");
  EXPECT_TRUE(
      static_cast<bool>(PriorDb::global().store(sampleRecord(48, 48, 48))));
  EXPECT_FALSE(PriorDb::global().lookup(48, 48, 48).has_value());
  if (!SlashPriorsExisted) {
    EXPECT_NE(stat("/priors", &St), 0) << "empty root created /priors";
  }

  exo::JitDiskCache::setGlobalRoot(SavedCache);
  EXPECT_EQ(PriorDb::global().root(), SavedCache + "/priors");
}
