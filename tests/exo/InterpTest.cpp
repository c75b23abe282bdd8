//===- InterpTest.cpp - Reference interpreter -----------------------------===//

#include "exo/interp/Interp.h"

#include "exo/ir/Builder.h"
#include "exo/isa/IsaLib.h"

#include <gtest/gtest.h>

using namespace exo;

namespace {

/// y[i] += x[i] over N.
Proc axpyProc() {
  ProcBuilder B("axpy");
  ExprPtr N = B.sizeParam("N");
  B.tensorParam("x", ScalarKind::F32, {N}, MemSpace::dram(), false);
  B.tensorParam("y", ScalarKind::F32, {N}, MemSpace::dram(), true);
  ExprPtr I = B.beginFor("i", idx(0), N);
  B.reduce("y", {I}, B.readOf("x", {I}));
  B.endFor();
  return B.build();
}

} // namespace

TEST(InterpTest, SimpleLoop) {
  Proc P = axpyProc();
  std::vector<double> X{1, 2, 3, 4}, Y{10, 20, 30, 40};
  Error Err = interpret(P, {{"N", 4}},
                        {{"x", {X.data(), {4}}}, {"y", {Y.data(), {4}}}});
  ASSERT_FALSE(Err) << Err.message();
  EXPECT_EQ(Y, (std::vector<double>{11, 22, 33, 44}));
}

TEST(InterpTest, MissingArgumentsAreDiagnosed) {
  Proc P = axpyProc();
  std::vector<double> X{1};
  EXPECT_TRUE(interpret(P, {{"N", 1}}, {{"x", {X.data(), {1}}}}));
  EXPECT_TRUE(interpret(P, {}, {}));
}

TEST(InterpTest, ShapeMismatch) {
  Proc P = axpyProc();
  std::vector<double> X{1, 2}, Y{1, 2};
  Error Err = interpret(P, {{"N", 4}},
                        {{"x", {X.data(), {2}}}, {"y", {Y.data(), {2}}}});
  EXPECT_TRUE(Err);
}

TEST(InterpTest, NonPositiveSizeRejected) {
  Proc P = axpyProc();
  std::vector<double> X{1}, Y{1};
  Error Err = interpret(P, {{"N", 0}},
                        {{"x", {X.data(), {0}}}, {"y", {Y.data(), {0}}}});
  EXPECT_TRUE(Err);
}

TEST(InterpTest, OutOfBoundsAccessCaught) {
  // y[i+1] over i in [0, N) walks off the end.
  ProcBuilder B("oob");
  ExprPtr N = B.sizeParam("N");
  B.tensorParam("y", ScalarKind::F32, {N}, MemSpace::dram(), true);
  ExprPtr I = B.beginFor("i", idx(0), N);
  B.assign("y", {I + 1}, ConstExpr::makeFloat(0.0, ScalarKind::F32));
  B.endFor();
  Proc P = B.build();
  std::vector<double> Y(3);
  Error Err = interpret(P, {{"N", 3}}, {{"y", {Y.data(), {3}}}});
  ASSERT_TRUE(Err);
  EXPECT_NE(Err.message().find("out-of-bounds"), std::string::npos);
}

TEST(InterpTest, PreconditionChecked) {
  ProcBuilder B("pre");
  ExprPtr N = B.sizeParam("N");
  B.tensorParam("y", ScalarKind::F32, {N}, MemSpace::dram(), true);
  B.precond(BinOpExpr::make(BinOpExpr::Op::Ge, N, idx(4)));
  Proc P = B.build();
  std::vector<double> Y(8);
  EXPECT_FALSE(interpret(P, {{"N", 8}}, {{"y", {Y.data(), {8}}}}));
  std::vector<double> Y2(2);
  EXPECT_TRUE(interpret(P, {{"N", 2}}, {{"y", {Y2.data(), {2}}}}));
}

TEST(InterpTest, F32RoundingOnStore) {
  // Storing a value not representable in f32 rounds it.
  ProcBuilder B("round");
  B.tensorParam("y", ScalarKind::F32, {idx(1)}, MemSpace::dram(), true);
  B.assign("y", {idx(0)},
           ConstExpr::makeFloat(1.0 + 1e-12, ScalarKind::F64));
  Proc P = B.build();
  std::vector<double> Y{0};
  // The rhs mixes f64 const into an f32 store; interp rounds on store.
  ASSERT_FALSE(interpret(P, {}, {{"y", {Y.data(), {1}}}}));
  EXPECT_EQ(Y[0], 1.0);
}

TEST(InterpTest, LeadStrideTensor) {
  // C: f32[2, 3] with row stride 5.
  ProcBuilder B("strided");
  ExprPtr Ldc = B.sizeParam("ldc");
  B.tensorParam("C", ScalarKind::F32, {idx(2), idx(3)}, MemSpace::dram(),
                true, "ldc");
  ExprPtr J = B.beginFor("j", idx(0), idx(2));
  ExprPtr I = B.beginFor("i", idx(0), idx(3));
  B.assign("C", {J, I}, ConstExpr::makeFloat(7.0, ScalarKind::F32));
  B.endFor();
  B.endFor();
  Proc P = B.build();

  std::vector<double> C(10, -1.0);
  ASSERT_FALSE(interpret(P, {{"ldc", 5}}, {{"C", {C.data(), {2, 3}}}}));
  for (int J2 = 0; J2 < 2; ++J2)
    for (int I2 = 0; I2 < 5; ++I2)
      EXPECT_EQ(C[J2 * 5 + I2], I2 < 3 ? 7.0 : -1.0)
          << "row " << J2 << " col " << I2;
}

TEST(InterpTest, InstrCallRunsSemantics) {
  // Call the portable vector load/store pair to copy 4 elements.
  const IsaLib &Isa = portableIsa();
  InstrPtr Vld = Isa.load(ScalarKind::F32);
  InstrPtr Vst = Isa.store(ScalarKind::F32);
  const MemSpace *Reg = Isa.space(ScalarKind::F32);

  ProcBuilder B("copy4");
  B.tensorParam("src", ScalarKind::F32, {idx(4)}, MemSpace::dram(), false);
  B.tensorParam("dst", ScalarKind::F32, {idx(4)}, MemSpace::dram(), true);
  B.alloc("r", ScalarKind::F32, {idx(4)}, Reg);
  B.call(Vld, {CallArg::window("r", {WindowDim::interval(idx(0), idx(4))}),
               CallArg::window("src", {WindowDim::interval(idx(0), idx(4))})});
  B.call(Vst, {CallArg::window("dst", {WindowDim::interval(idx(0), idx(4))}),
               CallArg::window("r", {WindowDim::interval(idx(0), idx(4))})});
  Proc P = B.build();

  std::vector<double> Src{1, 2, 3, 4}, Dst(4, 0);
  ASSERT_FALSE(interpret(
      P, {}, {{"src", {Src.data(), {4}}}, {"dst", {Dst.data(), {4}}}}));
  EXPECT_EQ(Dst, Src);
}

TEST(InterpTest, WindowOutOfBoundsCaught) {
  const IsaLib &Isa = portableIsa();
  InstrPtr Vld = Isa.load(ScalarKind::F32);
  const MemSpace *Reg = Isa.space(ScalarKind::F32);

  ProcBuilder B("badwin");
  B.tensorParam("src", ScalarKind::F32, {idx(4)}, MemSpace::dram(), false);
  B.alloc("r", ScalarKind::F32, {idx(4)}, Reg);
  B.call(Vld, {CallArg::window("r", {WindowDim::interval(idx(0), idx(4))}),
               CallArg::window("src", {WindowDim::interval(idx(2), idx(4))})});
  Proc P = B.build();
  std::vector<double> Src{1, 2, 3, 4};
  Error Err = interpret(P, {}, {{"src", {Src.data(), {4}}}});
  ASSERT_TRUE(Err);
  EXPECT_NE(Err.message().find("out of bounds"), std::string::npos);
}

TEST(InterpTest, LaneFmaSemantics) {
  const IsaLib &Isa = portableIsa();
  InstrPtr Fma = Isa.fmaLane(ScalarKind::F32);
  const MemSpace *Reg = Isa.space(ScalarKind::F32);

  // dst (DRAM-backed via load/store not needed: operate on register allocs
  // seeded by scalar assignments).
  ProcBuilder B("fma");
  B.tensorParam("out", ScalarKind::F32, {idx(4)}, MemSpace::dram(), true);
  B.alloc("d", ScalarKind::F32, {idx(4)}, Reg);
  B.alloc("a", ScalarKind::F32, {idx(4)}, Reg);
  B.alloc("b", ScalarKind::F32, {idx(4)}, Reg);
  ExprPtr I = B.beginFor("i", idx(0), idx(4));
  B.assign("d", {I}, ConstExpr::makeFloat(1.0, ScalarKind::F32));
  B.assign("a", {I}, ConstExpr::makeFloat(2.0, ScalarKind::F32));
  B.assign("b", {I}, ConstExpr::makeFloat(3.0, ScalarKind::F32));
  B.endFor();
  B.call(Fma, {CallArg::window("d", {WindowDim::interval(idx(0), idx(4))}),
               CallArg::window("a", {WindowDim::interval(idx(0), idx(4))}),
               CallArg::window("b", {WindowDim::interval(idx(0), idx(4))}),
               CallArg::scalar(idx(2))});
  ExprPtr I2 = B.beginFor("i", idx(0), idx(4));
  B.assign("out", {I2}, B.readOf("d", {I2}));
  B.endFor();
  Proc P = B.build();

  std::vector<double> Out(4, 0);
  ASSERT_FALSE(interpret(P, {}, {{"out", {Out.data(), {4}}}}));
  // d[i] = 1 + 2 * b[2] = 1 + 2*3 = 7.
  EXPECT_EQ(Out, (std::vector<double>{7, 7, 7, 7}));
}

TEST(InterpTest, CallArityMismatchDiagnosed) {
  const IsaLib &Isa = portableIsa();
  ProcBuilder B("badcall");
  B.tensorParam("src", ScalarKind::F32, {idx(4)}, MemSpace::dram(), false);
  B.alloc("r", ScalarKind::F32, {idx(4)}, Isa.space(ScalarKind::F32));
  // Only one argument for a two-parameter instruction.
  B.call(Isa.load(ScalarKind::F32),
         {CallArg::window("r", {WindowDim::interval(idx(0), idx(4))})});
  Proc P = B.build();
  std::vector<double> Src{1, 2, 3, 4};
  Error Err = interpret(P, {}, {{"src", {Src.data(), {4}}}});
  ASSERT_TRUE(Err);
  EXPECT_NE(Err.message().find("args"), std::string::npos) << Err.message();
}

TEST(InterpTest, ScalarForWindowParamDiagnosed) {
  const IsaLib &Isa = portableIsa();
  ProcBuilder B("badarg");
  B.tensorParam("src", ScalarKind::F32, {idx(4)}, MemSpace::dram(), false);
  B.alloc("r", ScalarKind::F32, {idx(4)}, Isa.space(ScalarKind::F32));
  B.call(Isa.load(ScalarKind::F32),
         {CallArg::scalar(idx(0)),
          CallArg::window("src", {WindowDim::interval(idx(0), idx(4))})});
  Proc P = B.build();
  std::vector<double> Src{1, 2, 3, 4};
  Error Err = interpret(P, {}, {{"src", {Src.data(), {4}}}});
  ASSERT_TRUE(Err);
  EXPECT_NE(Err.message().find("scalar"), std::string::npos);
}

TEST(InterpTest, ZeroTripLoopsExecuteNothing) {
  ProcBuilder B("zero");
  ExprPtr N = B.sizeParam("N");
  B.tensorParam("y", ScalarKind::F32, {N}, MemSpace::dram(), true);
  ExprPtr I = B.beginFor("i", idx(0), idx(0));
  B.assign("y", {I}, ConstExpr::makeFloat(9.0, ScalarKind::F32));
  B.endFor();
  Proc P = B.build();
  std::vector<double> Y{1, 2};
  ASSERT_FALSE(interpret(P, {{"N", 2}}, {{"y", {Y.data(), {2}}}}));
  EXPECT_EQ(Y, (std::vector<double>{1, 2}));
}

TEST(InterpTest, NestedLoopShadowingRestoresOuterValue) {
  // for i in (0,2): { y[i] = 0; for i in (0,1): y[i] += 1; y[i] += 2 }
  // The outer i must be restored after the inner loop.
  ProcBuilder B("shadow");
  B.tensorParam("y", ScalarKind::F32, {idx(2)}, MemSpace::dram(), true);
  ExprPtr I = B.beginFor("i", idx(0), idx(2));
  B.assign("y", {I}, ConstExpr::makeFloat(0.0, ScalarKind::F32));
  ExprPtr I2 = B.beginFor("i", idx(0), idx(1));
  B.reduce("y", {I2}, ConstExpr::makeFloat(1.0, ScalarKind::F32));
  B.endFor();
  B.reduce("y", {I}, ConstExpr::makeFloat(2.0, ScalarKind::F32));
  B.endFor();
  Proc P = B.build();
  std::vector<double> Y{-1, -1};
  ASSERT_FALSE(interpret(P, {}, {{"y", {Y.data(), {2}}}}));
  // i=0: y0=0, inner y0+=1, outer y0+=2 -> 3. i=1: y1=0, inner y0+=1 (=4),
  // y1+=2 -> 2.
  EXPECT_EQ(Y, (std::vector<double>{4, 2}));
}

TEST(InterpTest, AllocInLoopIsFreshZeroEveryIteration) {
  // for i in (0,3): { t : f32[1]; t[0] += 1; y[i] = t[0] }
  // Every execution of the Alloc binds new zeroed storage, so each
  // iteration sees 1, not a running count.
  ProcBuilder B("fresh");
  B.tensorParam("y", ScalarKind::F32, {idx(3)}, MemSpace::dram(), true);
  ExprPtr I = B.beginFor("i", idx(0), idx(3));
  B.alloc("t", ScalarKind::F32, {idx(1)}, MemSpace::dram());
  B.reduce("t", {idx(0)}, ConstExpr::makeFloat(1.0, ScalarKind::F32));
  B.assign("y", {I}, B.readOf("t", {idx(0)}));
  B.endFor();
  Proc P = B.build();
  std::vector<double> Y{-1, -1, -1};
  ASSERT_FALSE(interpret(P, {}, {{"y", {Y.data(), {3}}}}));
  EXPECT_EQ(Y, (std::vector<double>{1, 1, 1}));
}

TEST(InterpTest, LoopVariableIsUnboundAfterItsLoop) {
  ProcBuilder B("escape");
  B.tensorParam("y", ScalarKind::F32, {idx(2)}, MemSpace::dram(), true);
  ExprPtr I = B.beginFor("i", idx(0), idx(2));
  B.assign("y", {I}, ConstExpr::makeFloat(0.0, ScalarKind::F32));
  B.endFor();
  B.assign("y", {I}, ConstExpr::makeFloat(1.0, ScalarKind::F32));
  Proc P = B.build();
  std::vector<double> Y{-1, -1};
  Error Err = interpret(P, {}, {{"y", {Y.data(), {2}}}});
  ASSERT_TRUE(Err);
  EXPECT_NE(Err.message().find("unbound variable 'i'"), std::string::npos)
      << Err.message();
}

TEST(InterpTest, BufferReadBeforeItsAllocIsUnknown) {
  ProcBuilder B("early");
  B.tensorParam("y", ScalarKind::F32, {idx(1)}, MemSpace::dram(), true);
  B.assign("y", {idx(0)}, read("t", {idx(0)}, ScalarKind::F32));
  B.alloc("t", ScalarKind::F32, {idx(1)}, MemSpace::dram());
  Proc P = B.build();
  std::vector<double> Y{-1};
  Error Err = interpret(P, {}, {{"y", {Y.data(), {1}}}});
  ASSERT_TRUE(Err);
  EXPECT_NE(Err.message().find("access to unknown buffer 't'"),
            std::string::npos)
      << Err.message();
}

TEST(InterpTest, InstrBodyCannotSeeCallerVariables) {
  // The instruction body reads `j`, which only the caller binds: a callee
  // frame holds its parameters and nothing else.
  ProcBuilder S("peek");
  S.tensorParam("dst", ScalarKind::F32, {idx(1)}, MemSpace::dram(), true);
  S.assign("dst", {idx(0)}, var("j"));
  InstrPtr Peek = Instr::make(S.build(), "/* peek */");

  ProcBuilder B("caller");
  B.tensorParam("y", ScalarKind::F32, {idx(2)}, MemSpace::dram(), true);
  ExprPtr J = B.beginFor("j", idx(0), idx(2));
  B.call(Peek, {CallArg::window("y", {WindowDim::interval(J, idx(1))})});
  B.endFor();
  Proc P = B.build();
  std::vector<double> Y{-1, -1};
  Error Err = interpret(P, {}, {{"y", {Y.data(), {2}}}});
  ASSERT_TRUE(Err);
  EXPECT_NE(Err.message().find("unbound variable 'j'"), std::string::npos)
      << Err.message();
}

TEST(InterpTest, CancellingIndexTermsStillNeedTheirVariables) {
  // y[j - j + 0 * k]: the index is 0 for any j and k, but both variables
  // must be bound, and the first unbound one in the expression is named.
  ProcBuilder B("cancel");
  B.tensorParam("y", ScalarKind::F32, {idx(1)}, MemSpace::dram(), true);
  B.assign("y", {var("j") - var("j") + idx(0) * var("k")},
           ConstExpr::makeFloat(1.0, ScalarKind::F32));
  Proc P = B.build();
  std::vector<double> Y{-1};
  Error Err = interpret(P, {}, {{"y", {Y.data(), {1}}}});
  ASSERT_TRUE(Err);
  EXPECT_NE(Err.message().find("unbound variable 'j'"), std::string::npos)
      << Err.message();
}
