//===- Avx.cpp - Intel AVX2 and AVX-512 instruction libraries -------------===//
//
// The §III-C portability path: the same schedules retargeted to x86. These
// libraries use broadcast-style FMA (`_mm256_fmadd_ps` with a broadcast of
// one B element from memory) — the idiomatic x86 GEMM inner op, and the
// adaptation the paper describes for ISAs without a lane-indexed FMA.
//
//===----------------------------------------------------------------------===//

#include "exo/isa/InstrBuilders.h"
#include "exo/isa/IsaLib.h"

using namespace exo;

namespace {

class AvxIsaBase : public IsaLib {
public:
  AvxIsaBase(const std::string &IsaName, const std::string &SpaceName,
             const std::string &CType, unsigned Lanes,
             const std::string &Mnemo, std::string Flags)
      : IsaName(IsaName), Lanes(Lanes), Flags(std::move(Flags)) {
    Space = MemSpace::makeRegisterFile(SpaceName,
                                       {{ScalarKind::F32, {CType, Lanes}}});
    std::string L = std::to_string(Lanes);
    LoadF32 = makeLoadInstr(IsaName + "_loadu_" + L + "xf32", ScalarKind::F32,
                            Lanes, Space,
                            "{dst_data} = " + Mnemo + "_loadu_ps(&{src_data});");
    StoreF32 = makeStoreInstr(IsaName + "_storeu_" + L + "xf32",
                              ScalarKind::F32, Lanes, Space,
                              Mnemo + "_storeu_ps(&{dst_data}, {src_data});");
    FmaBcstF32 = makeFmaBroadcastInstr(
        IsaName + "_fmadd_bcst_" + L + "xf32", ScalarKind::F32, Lanes, Space,
        "{dst_data} = " + Mnemo + "_fmadd_ps({lhs_data}, " + Mnemo +
            "_set1_ps({s_data}), {dst_data});");
    BcstF32 = makeBroadcastInstr(IsaName + "_set1_" + L + "xf32",
                                 ScalarKind::F32, Lanes, Space,
                                 "{dst_data} = " + Mnemo +
                                     "_set1_ps({s_data});");
  }

  std::string name() const override { return IsaName; }
  bool supports(ScalarKind Ty) const override {
    return Ty == ScalarKind::F32;
  }
  const MemSpace *space(ScalarKind) const override { return Space; }
  std::string prologue() const override {
    return "#include <immintrin.h>\n";
  }
  std::string jitFlags() const override { return Flags; }

  InstrPtr load(ScalarKind Ty) const override {
    return Ty == ScalarKind::F32 ? LoadF32 : nullptr;
  }
  InstrPtr store(ScalarKind Ty) const override {
    return Ty == ScalarKind::F32 ? StoreF32 : nullptr;
  }
  InstrPtr fmaLane(ScalarKind) const override { return nullptr; }
  InstrPtr fmaBroadcast(ScalarKind Ty) const override {
    return Ty == ScalarKind::F32 ? FmaBcstF32 : nullptr;
  }
  InstrPtr broadcast(ScalarKind Ty) const override {
    return Ty == ScalarKind::F32 ? BcstF32 : nullptr;
  }

private:
  std::string IsaName;
  unsigned Lanes;
  std::string Flags;
  const MemSpace *Space = nullptr;
  InstrPtr LoadF32, StoreF32, FmaBcstF32, BcstF32;
};

class Avx2Isa final : public AvxIsaBase {
public:
  Avx2Isa()
      : AvxIsaBase("avx2", "AVX2", "__m256", 8, "_mm256", "-mavx2 -mfma") {}
  bool hostExecutable() const override {
    return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  }
};

class Avx512Isa final : public AvxIsaBase {
public:
  Avx512Isa()
      : AvxIsaBase("avx512", "AVX512", "__m512", 16, "_mm512",
                   "-mavx512f") {}
  bool hostExecutable() const override {
    return __builtin_cpu_supports("avx512f");
  }
};

} // namespace

const IsaLib &exo::avx2Isa() {
  static Avx2Isa Isa;
  return Isa;
}

const IsaLib &exo::avx512Isa() {
  static Avx512Isa Isa;
  return Isa;
}
