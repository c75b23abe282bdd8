//===- BatchedTest.cpp - Batched entry points vs N sequential sgemm -------===//
//
// The batched front door's core guarantee: Engine::sgemmBatched and
// Engine::gemmStridedBatched are *scheduling* layers, not different
// arithmetic. Whatever the grouping and whichever execution strategy the
// planner picks (intra-item slab teams or whole-item cross-batch
// scheduling), every item's C must be bitwise identical to the same item
// run through a lone Engine::gemm — for every dtype, at every team size.
// The differential suite here holds that across mixed shapes in one
// batch, all four transpose combos, f32/f16/bf16/i8 strided batches, team
// sizes 1 and 4, both forced scheduling modes (EXO_GEMM_BATCH_CROSSOVER at
// 0 and huge), and degenerate items (m/n/k == 0, alpha == 0) interleaved
// mid-batch.
//
// Rides in gemm_test, so the tsan_gemm_threads8 gate re-runs the
// cross-item scheduling (a slice of items per pool worker, per-worker
// packing workspaces) and the shared-B runs under ThreadSanitizer.
//
//===----------------------------------------------------------------------===//

#include "gemm/Engine.h"

#include "JitCacheTestEnv.h"
#include "benchutil/Bench.h"
#include "exo/jit/Jit.h"
#include "gemm/Kernels.h"
#include "gemm/Planner.h"
#include "gemm/PriorDb.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <vector>

using namespace gemm;

namespace {

constexpr Trans Combos[][2] = {{Trans::None, Trans::None},
                               {Trans::None, Trans::Transpose},
                               {Trans::Transpose, Trans::None},
                               {Trans::Transpose, Trans::Transpose}};

struct Shape {
  int64_t M, N, K;
};

// Small enough that the cache model prefers cross-item scheduling, plus a
// couple of larger items that stay intra-item — one batch exercises both
// strategies and the grouping in between.
constexpr Shape MixedShapes[] = {
    {8, 12, 16},  {17, 23, 31}, {8, 12, 16},  {64, 64, 64},
    {5, 124, 77}, {8, 12, 16},  {128, 96, 64}, {17, 23, 31},
    {1, 1, 1},    {33, 65, 17}, {64, 64, 64},  {3, 57, 19},
};

/// Backing storage plus the item list for one differential batch.
struct BatchFixture {
  std::vector<GemmBatchItem> Items;
  std::vector<std::vector<float>> Store;  ///< A/B/C buffers, C last per item
  std::vector<std::vector<float>> CSeq;   ///< per-item sequential C copies

  /// Item over fresh deterministic operands; Ld padding and alpha/beta
  /// vary with the item index so no two items are accidentally uniform.
  void add(Trans TA, Trans TB, int64_t M, int64_t N, int64_t K,
           size_t Salt) {
    const int64_t ARows = TA == Trans::None ? M : K;
    const int64_t ACols = TA == Trans::None ? K : M;
    const int64_t BRows = TB == Trans::None ? K : N;
    const int64_t BCols = TB == Trans::None ? N : K;
    GemmBatchItem It;
    It.TA = TA;
    It.TB = TB;
    It.M = M;
    It.N = N;
    It.K = K;
    It.Alpha = Salt % 3 == 0 ? 1.0f : 1.25f;
    It.Beta = Salt % 2 == 0 ? 0.0f : 0.5f;
    It.Lda = ARows + static_cast<int64_t>(Salt % 3);
    It.Ldb = BRows + 1;
    It.Ldc = M + 2;
    Store.emplace_back(static_cast<size_t>(
        std::max<int64_t>(1, It.Lda * ACols)));
    benchutil::fillRandom(Store.back().data(), Store.back().size(),
                          static_cast<int>(7 * Salt + 1));
    It.A = Store.back().data();
    Store.emplace_back(static_cast<size_t>(
        std::max<int64_t>(1, It.Ldb * BCols)));
    benchutil::fillRandom(Store.back().data(), Store.back().size(),
                          static_cast<int>(11 * Salt + 2));
    It.B = Store.back().data();
    Store.emplace_back(static_cast<size_t>(
        std::max<int64_t>(1, It.Ldc * N)));
    benchutil::fillRandom(Store.back().data(), Store.back().size(),
                          static_cast<int>(13 * Salt + 3));
    It.C = Store.back().data();
    CSeq.push_back(Store.back()); // same pre-call C contents
    Items.push_back(It);
  }

  /// Sequential reference: each item through a lone sgemm on its copy.
  void runSequential(Engine &E) {
    for (size_t I = 0; I != Items.size(); ++I) {
      const GemmBatchItem &It = Items[I];
      ASSERT_FALSE(E.sgemm(It.TA, It.TB, It.M, It.N, It.K, It.Alpha, It.A,
                           It.Lda, It.B, It.Ldb, It.Beta, CSeq[I].data(),
                           It.Ldc));
    }
  }

  void expectBitwise() const {
    for (size_t I = 0; I != Items.size(); ++I)
      EXPECT_EQ(0, std::memcmp(Items[I].C, CSeq[I].data(),
                               CSeq[I].size() * sizeof(float)))
          << "item " << I << " (" << Items[I].M << "x" << Items[I].N << "x"
          << Items[I].K << ") differs from its sequential result";
  }
};

Engine makeEngine(int64_t Threads) {
  EngineConfig Cfg;
  Cfg.Series = EngineSeries::Blis;
  Cfg.Threads = Threads;
  return Engine(Cfg);
}

/// Scoped setenv, restoring the previous value on destruction.
class ScopedEnv {
public:
  ScopedEnv(const char *Name, const char *Value) : Name(Name) {
    if (const char *Old = std::getenv(Name)) {
      HadOld = true;
      OldValue = Old;
    }
    ::setenv(Name, Value, 1);
  }
  ~ScopedEnv() {
    if (HadOld)
      ::setenv(Name.c_str(), OldValue.c_str(), 1);
    else
      ::unsetenv(Name.c_str());
  }

private:
  std::string Name, OldValue;
  bool HadOld = false;
};

constexpr DType AllDtypes[] = {DType::F32, DType::F16, DType::BF16,
                               DType::I8I32};

/// \p Elems seeded elements of \p Ty's input type (\p Out false) or C
/// type: draws in [-1, 1] rounded to f16/bf16, or scaled to small integers
/// for i8 and i32. With \p Poison every element is NaN (INT32_MIN for
/// i32), which a beta-0 call must overwrite without reading.
std::vector<unsigned char> typedBuffer(DType Ty, bool Out, size_t Elems,
                                       unsigned Seed, bool Poison = false) {
  std::vector<float> F(Elems, std::nanf(""));
  if (!Poison)
    benchutil::fillRandom(F.data(), Elems, Seed);
  const size_t Bytes = Out ? dtypeOutBytes(Ty) : dtypeInBytes(Ty);
  std::vector<unsigned char> V(Elems * Bytes);
  for (size_t I = 0; I != Elems; ++I) {
    unsigned char *D = &V[I * Bytes];
    if (Ty == DType::F32) {
      std::memcpy(D, &F[I], 4);
    } else if (Ty != DType::I8I32) {
      const uint16_t H = Ty == DType::F16 ? f32ToF16(F[I]) : f32ToBf16(F[I]);
      std::memcpy(D, &H, 2);
    } else if (!Out) {
      *D = static_cast<unsigned char>(static_cast<int8_t>(F[I] * 100.0f));
    } else {
      const int32_t Q =
          Poison ? INT32_MIN : static_cast<int32_t>(F[I] * 1000.0f);
      std::memcpy(D, &Q, 4);
    }
  }
  return V;
}

/// A scale for \p Ty: \p F for the float dtypes, the integer \p I for i8.
double scaleFor(DType Ty, double F, double I) {
  return Ty == DType::I8I32 ? I : F;
}

/// One non-transposed strided batch of \p Ty through
/// Engine::gemmStridedBatched, and the same items as lone Engine::gemm
/// calls on a copy of C; the C bytes must match. C items sit SC elements
/// apart (ld M).
void expectStridedMatchesLoneCalls(Engine &E, DType Ty, int64_t M, int64_t N,
                                   int64_t K, double Alpha, double Beta,
                                   const std::vector<unsigned char> &A,
                                   int64_t SA,
                                   const std::vector<unsigned char> &B,
                                   int64_t SB, std::vector<unsigned char> C,
                                   int64_t SC, int64_t Count) {
  const int64_t InB = dtypeInBytes(Ty), OutB = dtypeOutBytes(Ty);
  std::vector<unsigned char> CSeq = C;
  for (int64_t I = 0; I != Count; ++I)
    ASSERT_FALSE(E.gemm(Ty, Trans::None, Trans::None, M, N, K, Alpha,
                        A.data() + I * SA * InB, M, B.data() + I * SB * InB,
                        K, Beta, CSeq.data() + I * SC * OutB, M));
  ASSERT_FALSE(E.gemmStridedBatched(Ty, Trans::None, Trans::None, M, N, K,
                                    Alpha, A.data(), M, SA, B.data(), K, SB,
                                    Beta, C.data(), M, SC, Count));
  EXPECT_EQ(0, std::memcmp(C.data(), CSeq.data(), C.size()))
      << dtypeName(Ty) << " batch of " << Count << " differs from lone calls";
}

void runMixedDifferential(int64_t Threads) {
  Engine E = makeEngine(Threads);
  BatchFixture F;
  size_t Salt = 0;
  for (const Shape &S : MixedShapes) {
    F.add(Combos[Salt % 4][0], Combos[Salt % 4][1], S.M, S.N, S.K, Salt);
    ++Salt;
  }
  F.runSequential(E);
  ASSERT_FALSE(E.sgemmBatched(F.Items));
  F.expectBitwise();
}

} // namespace

TEST(Batched, MixedShapesAllTransposeCombosOneThread) {
  if (!baselineKernelsUsable())
    GTEST_SKIP() << "host lacks AVX2+FMA";
  runMixedDifferential(1);
}

TEST(Batched, MixedShapesAllTransposeCombosFourThreads) {
  if (!baselineKernelsUsable())
    GTEST_SKIP() << "host lacks AVX2+FMA";
  runMixedDifferential(4);
}

TEST(Batched, ForcedCrossItemAndForcedIntraItemAgree) {
  if (!baselineKernelsUsable())
    GTEST_SKIP() << "host lacks AVX2+FMA";
  // Crossover 0: every group runs intra-item. Crossover huge: every
  // group runs cross-item. Both must reproduce the sequential bits.
  for (const char *Crossover : {"0", "1099511627776"}) {
    ScopedEnv Env("EXO_GEMM_BATCH_CROSSOVER", Crossover);
    Engine E = makeEngine(4);
    EngineStats Before = E.stats();
    BatchFixture F;
    for (size_t I = 0; I != 8; ++I)
      F.add(Trans::None, Trans::None, 24, 36, 48, I);
    F.runSequential(E);
    ASSERT_FALSE(E.sgemmBatched(F.Items));
    F.expectBitwise();
    EngineStats After = E.stats();
    EXPECT_EQ(After.BatchedItems - Before.BatchedItems, 8u);
    if (Crossover[0] == '0')
      EXPECT_EQ(After.BatchedCrossItem, Before.BatchedCrossItem)
          << "crossover 0 must keep every item intra-item";
    else
      EXPECT_EQ(After.BatchedCrossItem - Before.BatchedCrossItem, 8u)
          << "huge crossover must schedule every item cross-batch";
  }
}

TEST(Batched, DegeneratesInterleavedMidBatch) {
  if (!baselineKernelsUsable())
    GTEST_SKIP() << "host lacks AVX2+FMA";
  for (int64_t Threads : {int64_t(1), int64_t(4)}) {
    Engine E = makeEngine(Threads);
    BatchFixture F;
    F.add(Trans::None, Trans::None, 17, 23, 31, 0);
    F.add(Trans::None, Trans::None, 8, 12, 0, 1); // k == 0: beta-scale only
    F.add(Trans::Transpose, Trans::None, 33, 65, 17, 2);
    F.Items.back().Alpha = 0.0f; // alpha == 0: beta-scale only
    F.add(Trans::None, Trans::None, 0, 12, 16, 3); // m == 0: no-op
    F.add(Trans::None, Trans::Transpose, 24, 0, 48, 4); // n == 0: no-op
    F.add(Trans::None, Trans::None, 49, 50, 51, 5);
    EngineStats Before = E.stats();
    F.runSequential(E);
    ASSERT_FALSE(E.sgemmBatched(F.Items));
    F.expectBitwise();
    EngineStats After = E.stats();
    // 4 degenerates, counted by the batched path and the 4 sequential
    // reference calls alike.
    EXPECT_EQ(After.Degenerate - Before.Degenerate, 8u);
  }
}

TEST(Batched, StridedMatchesItemList) {
  if (!baselineKernelsUsable())
    GTEST_SKIP() << "host lacks AVX2+FMA";
  // Every dtype, counts 1 (the lone-call path), 2 and 7, padded strides or
  // A and B shared through stride 0, beta 0 over poisoned C and beta != 0,
  // team widths 1 and 4 under both scheduling modes.
  const int64_t M = 17, N = 23, K = 31, MaxCount = 7;
  const int64_t SA = M * K + 5, SB = K * N + 3, SC = M * N + 7;
  for (const char *Crossover : {"0", "1099511627776"})
    for (int64_t Threads : {int64_t(1), int64_t(4)}) {
      ScopedEnv Env("EXO_GEMM_BATCH_CROSSOVER", Crossover);
      Engine E = makeEngine(Threads);
      for (DType Ty : AllDtypes) {
        const std::vector<unsigned char> A =
            typedBuffer(Ty, false, SA * MaxCount, 41);
        const std::vector<unsigned char> B =
            typedBuffer(Ty, false, SB * MaxCount, 42);
        for (bool Poison : {true, false})
          for (int64_t Count : {int64_t(1), int64_t(2), MaxCount})
            for (bool Shared : {false, true}) {
              SCOPED_TRACE(testing::Message()
                           << "crossover " << Crossover << ", threads "
                           << Threads << ", beta "
                           << (Poison ? "0" : "!= 0") << ", stride "
                           << (Shared ? "0" : "padded"));
              expectStridedMatchesLoneCalls(
                  E, Ty, M, N, K, scaleFor(Ty, 1.5, 3.0),
                  Poison ? 0.0 : scaleFor(Ty, 0.25, 2.0), A, Shared ? 0 : SA,
                  B, Shared ? 0 : SB,
                  typedBuffer(Ty, true, SC * Count, 43, Poison), SC, Count);
            }
      }
    }
}

TEST(Batched, StridedSharedOperandsViaStrideZero) {
  if (!baselineKernelsUsable())
    GTEST_SKIP() << "host lacks AVX2+FMA";
  // A stride-0 B makes the batch one shared-B run: each B block is packed
  // once for every item. Blocks small enough that K spans three Kc blocks
  // and N three Nc blocks (the last one partial), so the run crosses
  // several (jc, pc) rounds and their barriers. Every dtype, both
  // scheduling paths, team widths 1 and 4, beta 0 over poisoned C and
  // beta != 0, alpha 1 and another, A shared or distinct — every case
  // bitwise equal to lone gemm calls.
  const int64_t M = 24, N = 60, K = 48, Count = 5;
  EngineConfig Cfg;
  Cfg.Series = EngineSeries::Blis;
  Cfg.Blocks = BlockSizes{16, 16, 24};
  for (const char *Crossover : {"0", "1099511627776"})
    for (int64_t Threads : {int64_t(1), int64_t(4)}) {
      ScopedEnv Env("EXO_GEMM_BATCH_CROSSOVER", Crossover);
      Cfg.Threads = Threads;
      Engine E(Cfg);
      for (DType Ty : AllDtypes) {
        const std::vector<unsigned char> A = typedBuffer(Ty, false, M * K * Count, 51);
        const std::vector<unsigned char> B = typedBuffer(Ty, false, K * N, 52);
        for (bool Poison : {true, false})
          for (double Alpha : {1.0, scaleFor(Ty, 1.5, 3.0)})
            for (int64_t StrideA : {int64_t(0), M * K}) {
              SCOPED_TRACE(testing::Message()
                           << "crossover " << Crossover << ", threads "
                           << Threads << ", beta "
                           << (Poison ? "0" : "!= 0") << ", alpha " << Alpha
                           << ", StrideA " << StrideA);
              const uint64_t Before = E.stats().BatchedBShared;
              expectStridedMatchesLoneCalls(
                  E, Ty, M, N, K, Alpha,
                  Poison ? 0.0 : scaleFor(Ty, 0.5, 2.0), A, StrideA, B, 0,
                  typedBuffer(Ty, true, M * N * Count, 53, Poison), M * N, Count);
              // One run of Count items when the group runs whole; cross-
              // item slices (threads 4) can only split it.
              const uint64_t Shared = E.stats().BatchedBShared - Before;
              EXPECT_LE(Shared, uint64_t(Count - 1));
              if (Threads == 1 || Crossover[0] == '0') {
                EXPECT_EQ(Shared, uint64_t(Count - 1));
              }
            }
      }
    }
}

TEST(Batched, SharedBPointerItemsWithDistinctAAndC) {
  if (!baselineKernelsUsable())
    GTEST_SKIP() << "host lacks AVX2+FMA";
  // An item list (not a stride) whose items share one B pointer but own
  // their A and C, transposed B, with a distinct-B item in the middle that
  // splits the shared-B runs.
  for (int64_t Threads : {int64_t(1), int64_t(4)}) {
    EngineConfig Cfg;
    Cfg.Series = EngineSeries::Blis;
    Cfg.Threads = Threads;
    Cfg.Blocks = BlockSizes{16, 16, 24};
    Engine E(Cfg);
    BatchFixture F;
    for (size_t I = 0; I != 7; ++I)
      F.add(Trans::Transpose, Trans::Transpose, 20, 50, 40, I);
    for (size_t I = 1; I != 7; ++I)
      if (I != 3)
        F.Items[I].B = F.Items[0].B;
    F.runSequential(E);
    EngineStats Before = E.stats();
    ASSERT_FALSE(E.sgemmBatched(F.Items));
    F.expectBitwise();
    // Runs {0,1,2}, {3}, {4,5,6} when the group runs as one (intra-item);
    // cross-item slices can only split runs further.
    const uint64_t Shared = E.stats().BatchedBShared - Before.BatchedBShared;
    EXPECT_LE(Shared, 4u);
    if (Threads == 1) {
      EXPECT_EQ(Shared, 4u);
    }
  }
}

TEST(Batched, SameBPointerDifferentLdbDoesNotShareARun) {
  if (!baselineKernelsUsable())
    GTEST_SKIP() << "host lacks AVX2+FMA";
  // Same B pointer, different Ldb: different matrices, so each item packs
  // its own B.
  const int64_t M = 16, N = 24, K = 12, Count = 4;
  Engine E = makeEngine(1);
  std::vector<float> A(M * K), B((K + Count) * N), C(M * N * Count),
      CSeq(M * N * Count);
  benchutil::fillRandom(A.data(), A.size(), 61);
  benchutil::fillRandom(B.data(), B.size(), 62);
  std::vector<GemmBatchItem> Items(Count);
  for (int64_t I = 0; I != Count; ++I) {
    Items[I] = GemmBatchItem{Trans::None, Trans::None, M, N, K, 1.0f,
                             A.data(), M, B.data(), K + I, 0.0f,
                             C.data() + I * M * N, M};
    ASSERT_FALSE(E.sgemm(M, N, K, 1.0f, A.data(), M, B.data(), K + I, 0.0f,
                         CSeq.data() + I * M * N, M));
  }
  ASSERT_FALSE(E.sgemmBatched(Items));
  EXPECT_EQ(0, std::memcmp(C.data(), CSeq.data(), C.size() * sizeof(float)));
  EXPECT_EQ(E.stats().BatchedBShared, 0u);
}

TEST(Batched, StrideZeroBPacksOnceForTheWholeBatch) {
  if (!baselineKernelsUsable())
    GTEST_SKIP() << "host lacks AVX2+FMA";
  // One block, 16 items, team size 1: the first item packs B, the other
  // 15 reuse it.
  const int64_t M = 64, N = 64, K = 64, Count = 16;
  Engine E = makeEngine(1);
  std::vector<float> A(M * K * Count), B(K * N), C(M * N * Count);
  benchutil::fillRandom(A.data(), A.size(), 71);
  benchutil::fillRandom(B.data(), B.size(), 72);
  ASSERT_FALSE(E.sgemmStridedBatched(Trans::None, Trans::None, M, N, K, 1.0f,
                                     A.data(), M, M * K, B.data(), K, 0, 0.0f,
                                     C.data(), M, M * N, Count));
  EXPECT_EQ(E.stats().BatchedBShared, 15u);
}

TEST(Batched, TunedPriorsKeepBitwiseThreadCountInvariance) {
  // Tuned priors change *which* plan a batch's shape groups run under
  // (tile, blocking, unroll), and the batched layer changes *where* items
  // run — neither may change a single bit of C. With a tuned record
  // steering the shape and cross-item scheduling forced, team sizes 1 and
  // 4 must produce identical batches, and both must equal the sequential
  // reference.
  if (!exo::jitAvailable())
    GTEST_SKIP() << "no JIT toolchain";
  const int64_t M = 24, N = 36, K = 48;
  auto Model = pickTileForProblem(M, N, K);
  std::pair<int64_t, int64_t> Tile{0, 0};
  for (auto T : plannerTileCandidates())
    if (T != Model) {
      Tile = T;
      break;
    }
  if (Tile.first == 0)
    GTEST_SKIP() << "host has a single admissible tile";

  const std::string SavedRoot = PriorDb::global().root();
  std::string Root = exotest::makeTempDir("exo-batchtune");
  PriorDb::setGlobalRoot(Root);
  PriorRecord R;
  R.M = M;
  R.N = N;
  R.K = K;
  R.MR = Tile.first;
  R.NR = Tile.second;
  R.MC = 2 * Tile.first;
  R.NC = 2 * Tile.second;
  R.KC = 16;
  R.UnrollCompute = true;
  R.TunedGflops = 60.0;
  std::tie(R.ModelMR, R.ModelNR) = Model;
  R.ModelGflops = 50.0;
  ASSERT_FALSE(static_cast<bool>(PriorDb::global().store(R)));

  // Huge crossover: every group a multi-threaded engine sees goes
  // cross-item (threads == 1 has no pool to spread over and stays
  // intra-item — the invariance must hold across that divide too).
  ScopedEnv Env("EXO_GEMM_BATCH_CROSSOVER", "1099511627776");

  std::vector<std::vector<float>> CByThreads;
  for (int64_t Threads : {int64_t(1), int64_t(4)}) {
    EngineConfig Cfg; // Auto series: the tuned stage is in play
    Cfg.Threads = Threads;
    Engine E(Cfg);
    BatchFixture F;
    for (size_t I = 0; I != 8; ++I)
      F.add(Trans::None, Trans::None, M, N, K, I);
    exo::Expected<PlanChoice> Plan =
        E.planFor(Trans::None, Trans::None, M, N, K);
    ASSERT_TRUE(static_cast<bool>(Plan)) << Plan.takeError().message();
    ASSERT_STREQ(Plan->Source, "tuned") << "record not in play; the test "
                                           "would prove nothing";
    F.runSequential(E);
    ASSERT_FALSE(E.sgemmBatched(F.Items));
    F.expectBitwise();
    EXPECT_GE(E.stats().PlansFromTuned, 1u);
    if (Threads > 1) {
      EXPECT_EQ(E.stats().BatchedCrossItem, 8u)
          << "huge crossover must schedule every item cross-batch";
    }
    // Snapshot item 0's C (identical fixtures across team sizes).
    CByThreads.emplace_back(F.Items[0].C,
                            F.Items[0].C + F.CSeq[0].size());
  }
  ASSERT_EQ(CByThreads.size(), 2u);
  EXPECT_EQ(0, std::memcmp(CByThreads[0].data(), CByThreads[1].data(),
                           CByThreads[0].size() * sizeof(float)))
      << "tuned priors broke thread-count invariance";

  PriorDb::setGlobalRoot(SavedRoot);
}

TEST(Batched, RejectsBadArguments) {
  Engine E = makeEngine(1);
  std::vector<float> Buf(64 * 64);
  GemmBatchItem It;
  It.M = 8;
  It.N = 8;
  It.K = 8;
  It.A = Buf.data();
  It.Lda = 8;
  It.B = Buf.data();
  It.Ldb = 8;
  It.C = Buf.data();
  It.Ldc = 8;

  EXPECT_TRUE(E.sgemmBatched(nullptr, 3)); // null items with count > 0
  GemmBatchItem Bad = It;
  Bad.M = -1;
  EXPECT_TRUE(E.sgemmBatched(&Bad, 1)); // negative dim
  EXPECT_TRUE(E.sgemmStridedBatched(Trans::None, Trans::None, 8, 8, 8, 1.0f,
                                    Buf.data(), 8, -1, Buf.data(), 8, 64,
                                    0.0f, Buf.data(), 8, 64,
                                    2)); // negative stride
  // Overlapping C panels: StrideC < Ldc * N with more than one item.
  EXPECT_TRUE(E.sgemmStridedBatched(Trans::None, Trans::None, 8, 8, 8, 1.0f,
                                    Buf.data(), 8, 64, Buf.data(), 8, 64,
                                    0.0f, Buf.data(), 8, 32, 2));
  // Ldc * N = 2^64 wraps a 64-bit product to 0, which would let StrideC 0
  // pass the same rule and send the executor to C[j * 2^62].
  {
    std::vector<float> COut(8, 7.0f);
    EXPECT_TRUE(E.sgemmStridedBatched(Trans::None, Trans::None, 1, 4, 1, 1.0f,
                                      Buf.data(), 1, 1, Buf.data(), 1, 4,
                                      0.0f, COut.data(), int64_t(1) << 62, 0,
                                      2));
    EXPECT_EQ(COut, std::vector<float>(8, 7.0f));
  }
  // A leading dimension below the stored rows (the sgemm / gemm::Client
  // rule) in a later item fails the batch before the valid first item
  // writes its C.
  {
    std::vector<float> COut(8 * 8, 3.0f);
    GemmBatchItem Items[2] = {It, It};
    Items[0].C = COut.data();
    Items[1].Lda = 7;
    EXPECT_TRUE(E.sgemmBatched(Items, 2));
    EXPECT_EQ(COut, std::vector<float>(8 * 8, 3.0f));
  }
  // Valid single item and the empty batch both succeed.
  EXPECT_FALSE(E.sgemmBatched(&It, 1));
  EXPECT_FALSE(E.sgemmBatched(nullptr, 0));
}

// A plan error fails the batch before any C is written, degenerate items'
// beta scaling included: a Custom series without a provider cannot build.
TEST(Batched, PlanErrorLeavesEveryItemUntouched) {
  EngineConfig Cfg;
  Cfg.Series = EngineSeries::Custom;
  Engine E(Cfg);
  std::vector<float> AB(8 * 8, 1.0f), C0(8 * 8, 3.0f), C1(8 * 8, 3.0f);
  GemmBatchItem Items[2];
  for (GemmBatchItem &It : Items) {
    It.M = It.N = It.K = 8;
    It.A = It.B = AB.data();
    It.Lda = It.Ldb = It.Ldc = 8;
    It.Beta = 0.0f;
  }
  Items[0].Alpha = 0.0f; // degenerate: beta == 0 would zero C0
  Items[0].C = C0.data();
  Items[1].C = C1.data();
  EXPECT_TRUE(E.sgemmBatched(Items, 2));
  EXPECT_EQ(C0, std::vector<float>(8 * 8, 3.0f));
  EXPECT_EQ(C1, std::vector<float>(8 * 8, 3.0f));
}
