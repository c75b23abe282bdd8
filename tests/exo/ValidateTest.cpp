//===- ValidateTest.cpp - Dynamic equivalence validation ------------------===//

#include "exo/sched/Validate.h"

#include "exo/ir/Builder.h"
#include "exo/pattern/Cursor.h"
#include "exo/sched/Schedule.h"

#include "TestProcs.h"

#include <gtest/gtest.h>

using namespace exo;
using exotest::makeMicroGemm;

namespace {

/// \p P with its reduction into C turned into a plain assignment: same
/// parameter list (the same Param objects), different result.
Proc assignInsteadOfReduce(const Proc &P) {
  auto A = findStmt(P, "C[_] += _");
  EXPECT_TRUE(static_cast<bool>(A));
  const auto *S = castS<AssignStmt>(stmtAt(P, *A));
  return spliceAt(
      P, *A, {AssignStmt::make(S->buffer(), S->indices(), S->rhs(), false)});
}

/// \p P with the loop pair \p Pair swapped: a correct rewrite.
Proc reordered(const Proc &P, const char *Pair = "j i") {
  Expected<Proc> Q = reorderLoops(P, Pair);
  EXPECT_TRUE(static_cast<bool>(Q)) << Q.message();
  return Q ? Q.take() : P;
}

/// A register file holding f32, for set_memory.
const MemSpace *testRegisters() {
  return MemSpace::makeRegisterFile("ValidateTestRegs",
                                    {{ScalarKind::F32, {"float", 1}}});
}

/// A check's outcome and the interpreter runs it made on this thread.
struct Checked {
  Error Err;
  uint64_t Interps = 0;
};

Checked check(const Proc &P0, const Proc &P1, int Trials, unsigned Seed) {
  const uint64_t Before = validationInterpretations();
  Error Err = checkProcsEquivalent(P0, P1, Trials, Seed);
  return {std::move(Err), validationInterpretations() - Before};
}

} // namespace

TEST(ValidateTest, IdenticalProcsAgree) {
  Proc P = makeMicroGemm();
  Error Err = checkProcsEquivalent(P, P, 3, 42);
  EXPECT_FALSE(Err) << Err.message();
}

TEST(ValidateTest, DetectsSemanticChange) {
  Proc P = makeMicroGemm();
  // Corrupt the rewrite: swap the reduce into a plain assign.
  Error Err = checkProcsEquivalent(P, assignInsteadOfReduce(P), 3, 42);
  ASSERT_TRUE(Err);
  EXPECT_NE(Err.message().find("diverge"), std::string::npos)
      << Err.message();
}

TEST(ValidateTest, DetectsDroppedStatement) {
  Proc P = makeMicroGemm();
  auto A = findStmt(P, "C[_] += _");
  ASSERT_TRUE(static_cast<bool>(A));
  Proc Bad = spliceAt(P, *A, {});
  EXPECT_TRUE(checkProcsEquivalent(P, Bad, 3, 7));
}

TEST(ValidateTest, SignatureChangeDiagnosed) {
  Proc P = makeMicroGemm();
  Proc Q = P.withParams(std::vector<Param>(P.params().begin(),
                                           P.params().end() - 1));
  EXPECT_TRUE(checkProcsEquivalent(P, Q, 1, 1));
}

TEST(ValidateTest, ValidateRewriteRespectsOptOut) {
  Proc P = makeMicroGemm();
  auto A = findStmt(P, "C[_] += _");
  Proc Bad = spliceAt(P, *A, {});
  SchedOptions Opts;
  Opts.Validate = false;
  EXPECT_FALSE(validateRewrite(P, Bad, Opts, "test"));
  Opts.Validate = true;
  EXPECT_TRUE(validateRewrite(P, Bad, Opts, "test"));
}

TEST(ValidateTest, RespectsPreconditionsWhenSampling) {
  // A proc whose precondition constrains a size (KC % 4 == 0): sampling
  // must only use conforming sizes, so validation succeeds for a rewrite
  // that is only correct under the precondition.
  ProcBuilder B("p");
  ExprPtr N = B.sizeParam("N");
  B.tensorParam("y", ScalarKind::F32, {N}, MemSpace::dram(), true);
  B.precond(BinOpExpr::make(BinOpExpr::Op::Eq, N % 4, idx(0)));
  ExprPtr I = B.beginFor("i", idx(0), N);
  B.reduce("y", {I}, ConstExpr::makeFloat(1.0, ScalarKind::F32));
  B.endFor();
  Proc P = B.build();
  EXPECT_FALSE(checkProcsEquivalent(P, P, 2, 5));
}

// The tests below cover the Before-reuse of Validate.h: a check whose
// Before is the last passing check's After, on the same instance, takes
// Before's outputs from that record.

TEST(ValidateTest, WrongRewriteAfterReusedBeforeStillFails) {
  const SchedOptions &Opts = defaultSchedOptions();
  Proc Q = reordered(makeMicroGemm()); // record: After = Q
  Proc Bad = assignInsteadOfReduce(Q);
  // Before (Q) comes from the record; only Bad runs, and diverges on the
  // first trial.
  Checked C = check(Q, Bad, Opts.ValidationTrials, Opts.Seed);
  EXPECT_EQ(C.Interps, 1u);
  ASSERT_TRUE(C.Err);
  EXPECT_NE(C.Err.message().find("diverge"), std::string::npos)
      << C.Err.message();
}

TEST(ValidateTest, SameSignatureDifferentProcIsInterpretedAfresh) {
  const SchedOptions &Opts = defaultSchedOptions();
  Proc Q = reordered(makeMicroGemm()); // record: After = Q
  // R shares Q's Param objects but not its body, so it must run itself;
  // taking Q's outputs for it would fail this (correct) check.
  Proc R = assignInsteadOfReduce(Q);
  Checked C = check(R, R, Opts.ValidationTrials, Opts.Seed);
  EXPECT_EQ(C.Interps, 2u * Opts.ValidationTrials);
  EXPECT_FALSE(C.Err) << C.Err.message();
}

TEST(ValidateTest, ChangedSeedOrTrialCountGetsNoReuse) {
  Proc P = makeMicroGemm();
  Proc Q = reordered(P);
  Proc Back = reordered(Q, "i j"); // a correct rewrite of Q
  // Another seed draws another instance: Q runs again, and the check
  // still passes.
  ASSERT_FALSE(checkProcsEquivalent(P, Q, 2, 11)); // record: Q, seed 11
  Checked C = check(Q, Back, 2, 12);
  EXPECT_EQ(C.Interps, 4u);
  EXPECT_FALSE(C.Err) << C.Err.message();
  ASSERT_FALSE(checkProcsEquivalent(P, Q, 2, 11)); // record: Q, 2 trials
  C = check(Q, Back, 3, 11);
  EXPECT_EQ(C.Interps, 6u);
  EXPECT_FALSE(C.Err) << C.Err.message();
  // The positive control: same seed and trial count reuse Q's outputs.
  ASSERT_FALSE(checkProcsEquivalent(P, Q, 2, 11));
  C = check(Q, Back, 2, 11);
  EXPECT_EQ(C.Interps, 2u);
  EXPECT_FALSE(C.Err) << C.Err.message();
}

TEST(ValidateTest, FailedCheckKeepsLastPassingAfter) {
  Proc P = makeMicroGemm();
  Proc Q = reordered(P);
  Proc Back = reordered(Q, "i j");
  Proc Bad = assignInsteadOfReduce(Q);
  ASSERT_FALSE(checkProcsEquivalent(P, Q, 2, 5)); // record: After = Q
  ASSERT_TRUE(checkProcsEquivalent(Q, Bad, 2, 5));
  // The failure left the record at Q: Q as Before is still reused...
  Checked C = check(Q, Back, 2, 5);
  EXPECT_EQ(C.Interps, 2u);
  EXPECT_FALSE(C.Err) << C.Err.message();
  // ...and Bad, which never passed, runs itself.
  ASSERT_FALSE(checkProcsEquivalent(P, Q, 2, 5));
  ASSERT_TRUE(checkProcsEquivalent(Q, Bad, 2, 5));
  EXPECT_EQ(check(Bad, Bad, 2, 5).Interps, 4u);
}

TEST(ValidateTest, ChainOfRewritesInterpretsEachProcOnce) {
  const int Trials = defaultSchedOptions().ValidationTrials;
  Expected<Proc> P0 = partialEval(makeMicroGemm(), {{"MR", 8}, {"NR", 12}});
  ASSERT_TRUE(static_cast<bool>(P0)) << P0.message();
  const uint64_t Before = validationInterpretations();
  // Three validated rewrites, each fed the previous one's result: four
  // procs per trial, not six.
  Expected<Proc> P1 = divideLoop(*P0, "for i in _: _", 4, "it", "itt", true);
  ASSERT_TRUE(static_cast<bool>(P1)) << P1.message();
  Expected<Proc> P2 = divideLoop(*P1, "for j in _: _", 4, "jt", "jtt", true);
  ASSERT_TRUE(static_cast<bool>(P2)) << P2.message();
  Expected<Proc> P3 = unrollLoop(*P2, "for itt in _: _");
  ASSERT_TRUE(static_cast<bool>(P3)) << P3.message();
  EXPECT_EQ(validationInterpretations() - Before, 4u * Trials);
  // set_memory is not validated and rebuilds the loops around the buffer
  // it re-homes. The interpreter never reads a memory space, so the check
  // after it still takes its Before from the record: one proc per trial
  // for each of the two checks.
  Expected<Proc> P4 = stageMem(*P3, "C[_] += _", "C", "C_reg");
  ASSERT_TRUE(static_cast<bool>(P4)) << P4.message();
  Expected<Proc> P5 = setMemory(*P4, "C_reg", testRegisters());
  ASSERT_TRUE(static_cast<bool>(P5)) << P5.message();
  Expected<Proc> P6 = unrollLoop(*P5, "for jtt in _: _");
  ASSERT_TRUE(static_cast<bool>(P6)) << P6.message();
  EXPECT_EQ(validationInterpretations() - Before, 6u * Trials);
}

TEST(ValidateTest, BodyChangedAfterSetMemoryIsInterpreted) {
  const SchedOptions &Opts = defaultSchedOptions();
  const int Trials = Opts.ValidationTrials;
  Expected<Proc> S = stageMem(reordered(makeMicroGemm()), "C[_] += _", "C",
                              "C_reg"); // record: After = S
  ASSERT_TRUE(static_cast<bool>(S)) << S.message();
  Expected<Proc> M = setMemory(*S, "C_reg", testRegisters());
  ASSERT_TRUE(static_cast<bool>(M)) << M.message();
  // M's reduction into C_reg made a plain assignment: more than a memory
  // annotation changed, so Bad runs itself and the check catches it.
  auto A = findStmt(*M, "C_reg[_] += _");
  ASSERT_TRUE(static_cast<bool>(A));
  const auto *R = castS<AssignStmt>(stmtAt(*M, *A));
  Proc Bad = spliceAt(
      *M, *A, {AssignStmt::make(R->buffer(), R->indices(), R->rhs(), false)});
  Checked C = check(Bad, *M, Trials, Opts.Seed);
  EXPECT_EQ(C.Interps, 2u);
  ASSERT_TRUE(C.Err);
  EXPECT_NE(C.Err.message().find("diverge"), std::string::npos)
      << C.Err.message();
  // The positive control: M itself, memory-only apart from the record,
  // takes its Before from it.
  ASSERT_FALSE(checkProcsEquivalent(reordered(makeMicroGemm()), *S, Trials,
                                    Opts.Seed));
  C = check(*M, *M, Trials, Opts.Seed);
  EXPECT_EQ(C.Interps, 1u * Trials);
  EXPECT_FALSE(C.Err) << C.Err.message();
}
