//===- KernelRegistry.cpp -------------------------------------------------===//

#include "ukr/KernelRegistry.h"

#include "obs/Obs.h"

using namespace exo;
using namespace ukr;

Expected<Kernel> ukr::buildKernel(const UkrConfig &Cfg,
                                  const SchedOptions &Opts) {
  auto Res = [&] {
    // Schedule + rewrite validation + C emission, apart from the disk
    // probe, dlopen or compile that follows (nested in jit.build).
    obs::Span Span("ukr.generate");
    return generateUkernel(Cfg, Opts);
  }();
  if (!Res)
    return Res.takeError();

  Kernel K;
  K.Cfg = Cfg;
  K.Style = Res->Style;
  K.Final = Res->Final;
  K.CSource = std::move(Res->CSource);

  bool Executable = K.Style == FmaStyle::Scalar ||
                    (Cfg.Isa && Cfg.Isa->hostExecutable());
  // gcc 12 on x86 has no __bf16 type (storage or otherwise), so bf16
  // kernels stay textual/interpreter artifacts on this host rather than
  // turning into a hard JIT compile error.
#if !defined(__aarch64__)
  if (Cfg.Ty == ScalarKind::BF16 || Cfg.accKind() == ScalarKind::BF16)
    Executable = false;
#endif
  if (Executable && jitAvailable()) {
    std::string Flags = K.Style == FmaStyle::Scalar ? "-march=native"
                                                     : Cfg.Isa->jitFlags();
    auto Jit = jitCompile(K.CSource, Cfg.kernelName(), Flags);
    if (!Jit)
      return Jit.takeError();
    K.Jit = Jit.take();
    if (Cfg.Ty == ScalarKind::F32) {
      if (Cfg.GeneralAlphaBeta)
        K.FnAxpby = K.Jit->as<MicroKernelAxpbyF32>();
      else
        K.Fn = K.Jit->as<MicroKernelF32>();
    } else if (Cfg.Ty == ScalarKind::I8 &&
               Cfg.accKind() == ScalarKind::I32 && !Cfg.GeneralAlphaBeta) {
      K.FnI8 = K.Jit->as<MicroKernelI8I32>();
    }
  }
  return K;
}

UkrConfig ukr::shapeConfig(int64_t Mr, int64_t Nr, const IsaLib *Preferred,
                           bool UnrollCompute, ScalarKind Ty) {
  UkrConfig Cfg;
  Cfg.MR = Mr;
  Cfg.NR = Nr;
  Cfg.Ty = Ty;
  Cfg.UnrollCompute = UnrollCompute;
  Cfg.Isa = Preferred ? Preferred : bestIsaForMr(Mr);
  if (Ty != ScalarKind::F32) {
    // Narrow kinds keep a vector library only when it actually has
    // instructions for them (e.g. Neon f16); otherwise the scalar schedule
    // is the correct degradation — same rule effectiveStyle applies, made
    // explicit here so kernelName reflects it.
    if (Cfg.Isa && !Cfg.Isa->supports(Ty))
      Cfg.Isa = nullptr;
    // i8 and bf16 compute is defined through widening dot units; their
    // kernels accumulate in i32/f32 (see UkrConfig::WidenAcc).
    if (Ty == ScalarKind::I8 || Ty == ScalarKind::BF16)
      Cfg.WidenAcc = true;
  }
  if (!Cfg.Isa)
    Cfg.Style = FmaStyle::Scalar;
  return Cfg;
}

const IsaLib *ukr::bestIsaForMr(int64_t MR) {
  const IsaLib *Best = nullptr;
  unsigned BestLanes = 0;
  for (const IsaLib *I : allIsas()) {
    if (!I->hostExecutable() || !I->supports(ScalarKind::F32))
      continue;
    unsigned L = I->lanes(ScalarKind::F32);
    if (MR % L == 0 && L > BestLanes) {
      Best = I;
      BestLanes = L;
    }
  }
  return Best;
}
