//===- IsaTest.cpp - Instruction libraries --------------------------------===//

#include "exo/isa/IsaLib.h"

#include "exo/codegen/CEmit.h"
#include "exo/ir/Builder.h"
#include "exo/ir/Printer.h"
#include "exo/jit/Jit.h"

#include <gtest/gtest.h>

#include <set>

using namespace exo;

TEST(IsaTest, RegistryContainsAll) {
  auto All = allIsas();
  ASSERT_EQ(All.size(), 4u);
  EXPECT_NE(findIsa("neon"), nullptr);
  EXPECT_NE(findIsa("avx2"), nullptr);
  EXPECT_NE(findIsa("avx512"), nullptr);
  EXPECT_NE(findIsa("portable"), nullptr);
  EXPECT_EQ(findIsa("riscv"), nullptr);
}

TEST(IsaTest, PortableAlwaysExecutable) {
  EXPECT_TRUE(portableIsa().hostExecutable());
}

TEST(IsaTest, LaneCounts) {
  EXPECT_EQ(neonIsa().lanes(ScalarKind::F32), 4u);
  EXPECT_EQ(neonIsa().lanes(ScalarKind::F16), 8u);
  EXPECT_EQ(avx2Isa().lanes(ScalarKind::F32), 8u);
  EXPECT_EQ(avx512Isa().lanes(ScalarKind::F32), 16u);
  EXPECT_EQ(portableIsa().lanes(ScalarKind::F32), 4u);
  EXPECT_EQ(portableIsa().lanes(ScalarKind::F64), 2u);
}

TEST(IsaTest, NeonMatchesPaperFig3) {
  // The store and lane-FMA definitions must carry the paper's exact C
  // lowerings (Fig. 3) and the loop semantics shown there.
  const IsaLib &Neon = neonIsa();
  InstrPtr Vst = Neon.store(ScalarKind::F32);
  ASSERT_NE(Vst, nullptr);
  EXPECT_EQ(Vst->name(), "neon_vst_4xf32");
  EXPECT_EQ(Vst->cFormat(), "vst1q_f32(&{dst_data}, {src_data});");
  EXPECT_EQ(printProc(Vst->semantics()),
            "def neon_vst_4xf32(dst: f32[4] @ DRAM, src: f32[4] @ Neon):\n"
            "    for i in seq(0, 4):\n"
            "        dst[i] = src[i]\n");

  InstrPtr Fmla = Neon.fmaLane(ScalarKind::F32);
  ASSERT_NE(Fmla, nullptr);
  // Including the paper's lane-range asserts (Fig. 3 lines 19-20).
  EXPECT_EQ(printProc(Fmla->semantics()),
            "def neon_vfmla_4xf32_4xf32(dst: f32[4] @ Neon, "
            "lhs: f32[4] @ Neon, rhs: f32[4] @ Neon, l: index):\n"
            "    assert l >= 0\n"
            "    assert l < 4\n"
            "    for i in seq(0, 4):\n"
            "        dst[i] += lhs[i] * rhs[l]\n");
}

TEST(IsaTest, NeonF16UsesNeon8f) {
  const IsaLib &Neon = neonIsa();
  EXPECT_EQ(Neon.space(ScalarKind::F16)->name(), "Neon8f");
  EXPECT_EQ(Neon.space(ScalarKind::F16)->vecType(ScalarKind::F16).CType,
            "float16x8_t");
  ASSERT_NE(Neon.fmaLane(ScalarKind::F16), nullptr);
  EXPECT_EQ(Neon.fmaLane(ScalarKind::F16)->name(), "neon_vfmla_8xf16_8xf16");
}

TEST(IsaTest, AvxHasBroadcastNotLane) {
  EXPECT_EQ(avx2Isa().fmaLane(ScalarKind::F32), nullptr);
  ASSERT_NE(avx2Isa().fmaBroadcast(ScalarKind::F32), nullptr);
  EXPECT_EQ(avx512Isa().fmaLane(ScalarKind::F32), nullptr);
  ASSERT_NE(avx512Isa().fmaBroadcast(ScalarKind::F32), nullptr);
}

TEST(IsaTest, InstrSemanticsShapesAreConsistent) {
  // Every instruction's semantic proc must have matching window ranks and
  // constant extents equal to the lane count.
  for (const IsaLib *Isa : allIsas()) {
    for (ScalarKind Ty : {ScalarKind::F16, ScalarKind::F32, ScalarKind::F64}) {
      if (!Isa->supports(Ty))
        continue;
      for (InstrPtr I : {Isa->load(Ty), Isa->store(Ty), Isa->fmaLane(Ty),
                         Isa->fmaBroadcast(Ty), Isa->broadcast(Ty)}) {
        if (!I)
          continue;
        const Proc &Sem = I->semantics();
        ASSERT_EQ(Sem.body().size(), 1u) << I->name();
        EXPECT_TRUE(isaS<ForStmt>(Sem.body()[0])) << I->name();
        for (const Param &P : Sem.params()) {
          if (P.PKind != Param::Kind::Tensor)
            continue;
          EXPECT_EQ(P.Shape.size(), 1u) << I->name();
        }
      }
    }
  }
}

namespace {

/// Every instruction \p Isa offers, over every scalar kind and role.
std::vector<InstrPtr> allInstrs(const IsaLib &Isa) {
  std::vector<InstrPtr> Out;
  std::set<std::string> Seen;
  for (ScalarKind Ty : {ScalarKind::F16, ScalarKind::BF16, ScalarKind::F32,
                        ScalarKind::F64, ScalarKind::I8, ScalarKind::I16,
                        ScalarKind::I32}) {
    std::vector<InstrPtr> Cands = {Isa.dotAccum(Ty)};
    if (Isa.supports(Ty))
      Cands.insert(Cands.end(), {Isa.load(Ty), Isa.store(Ty), Isa.fmaLane(Ty),
                                 Isa.fmaBroadcast(Ty), Isa.broadcast(Ty)});
    for (const InstrPtr &I : Cands)
      if (I && Seen.insert(I->name()).second)
        Out.push_back(I);
  }
  return Out;
}

/// A proc making one call to \p I: DRAM operands become parameters of the
/// instruction's shape, register operands one register each, and an index
/// operand (a lane) is 0.
Proc probeProc(const InstrPtr &I) {
  ProcBuilder B("probe_" + I->name());
  std::vector<CallArg> Args;
  for (const Param &Pa : I->semantics().params()) {
    if (Pa.PKind != Param::Kind::Tensor) {
      Args.push_back(CallArg::scalar(idx(0)));
      continue;
    }
    std::vector<ExprPtr> Shape = Pa.Shape;
    if (Pa.Mem->isRegisterFile()) {
      Shape = {idx(Pa.Mem->lanes(Pa.Ty))};
      B.alloc(Pa.Name, Pa.Ty, Shape, Pa.Mem);
    } else {
      B.tensorParam(Pa.Name, Pa.Ty, Shape, Pa.Mem, Pa.Mutable);
    }
    std::vector<WindowDim> Dims;
    for (const ExprPtr &Extent : Shape)
      Dims.push_back(WindowDim::interval(idx(0), Extent));
    Args.push_back(CallArg::window(Pa.Name, std::move(Dims)));
  }
  B.call(I, std::move(Args));
  return B.build();
}

} // namespace

// Anything a library offers on a host where it claims to run must compile
// there: an entry naming an intrinsic the compiler lacks would otherwise
// only ever run inside the interpreter.
TEST(IsaTest, EveryHostExecutableInstructionCompiles) {
  if (!jitAvailable())
    GTEST_SKIP() << "no working C compiler";
  int Compiled = 0;
  for (const IsaLib *Isa : allIsas()) {
    if (!Isa->hostExecutable())
      continue;
    for (const InstrPtr &I : allInstrs(*Isa)) {
      Proc P = probeProc(I);
      CodegenOptions Opts;
      Opts.Isa = Isa;
      Expected<std::string> Src = emitCModule(P, Opts);
      ASSERT_TRUE(static_cast<bool>(Src)) << I->name() << ": "
                                          << Src.message();
      Expected<JitKernelPtr> K = jitCompile(*Src, P.name(), Isa->jitFlags());
      EXPECT_TRUE(static_cast<bool>(K))
          << Isa->name() << " " << I->name() << ": " << K.message();
      ++Compiled;
    }
  }
  EXPECT_GT(Compiled, 0);
}
