//===- Portable.cpp - GCC vector-extension instruction library ------------===//
//
// A lane-FMA ISA with exactly the shape of the paper's Neon library, but
// expressed with GCC generic vector extensions so the generated C compiles
// and runs on any GCC/Clang host. This is the executable stand-in for Neon
// on the x86 machines this repository is tested on: schedules written for
// `neonIsa()` run unchanged against `portableIsa()`.
//
//===----------------------------------------------------------------------===//

#include "exo/isa/InstrBuilders.h"
#include "exo/isa/IsaLib.h"

using namespace exo;

namespace {

class PortableIsa final : public IsaLib {
public:
  PortableIsa() {
    F32Space = MemSpace::makeRegisterFile(
        "Vec4F", {{ScalarKind::F32, {"exo_v4f", 4}}});
    F64Space = MemSpace::makeRegisterFile(
        "Vec2D", {{ScalarKind::F64, {"exo_v2d", 2}}});
    I32Space = MemSpace::makeRegisterFile(
        "Vec4I", {{ScalarKind::I32, {"exo_v4i", 4}}});

    LoadF32 = makeLoadInstr("vec_ld_4xf32", ScalarKind::F32, 4, F32Space,
                            "{dst_data} = *(const exo_v4f *)&{src_data};");
    StoreF32 = makeStoreInstr("vec_st_4xf32", ScalarKind::F32, 4, F32Space,
                              "*(exo_v4f *)&{dst_data} = {src_data};");
    FmaLaneF32 = makeFmaLaneInstr(
        "vec_fmla_4xf32_4xf32", ScalarKind::F32, 4, F32Space,
        "{dst_data} += {lhs_data} * {rhs_data}[{l}];");
    FmaBcstF32 = makeFmaBroadcastInstr("vec_fmadd_4xf32", ScalarKind::F32, 4,
                                       F32Space,
                                       "{dst_data} += {lhs_data} * {s_data};");
    // Broadcasts store lane by lane: exact for -0 and NaN payloads, and
    // free of the literal braces the codegen would read as placeholders.
    BcstF32 = makeBroadcastInstr(
        "vec_dup_4xf32", ScalarKind::F32, 4, F32Space,
        "{dst_data}[0] = {dst_data}[1] = {dst_data}[2] = {dst_data}[3] = "
        "{s_data};");

    LoadF64 = makeLoadInstr("vec_ld_2xf64", ScalarKind::F64, 2, F64Space,
                            "{dst_data} = *(const exo_v2d *)&{src_data};");
    StoreF64 = makeStoreInstr("vec_st_2xf64", ScalarKind::F64, 2, F64Space,
                              "*(exo_v2d *)&{dst_data} = {src_data};");
    FmaLaneF64 = makeFmaLaneInstr(
        "vec_fmla_2xf64_2xf64", ScalarKind::F64, 2, F64Space,
        "{dst_data} += {lhs_data} * {rhs_data}[{l}];");
    FmaBcstF64 = makeFmaBroadcastInstr("vec_fmadd_2xf64", ScalarKind::F64, 2,
                                       F64Space,
                                       "{dst_data} += {lhs_data} * {s_data};");
    BcstF64 = makeBroadcastInstr("vec_dup_2xf64", ScalarKind::F64, 2,
                                 F64Space,
                                 "{dst_data}[0] = {dst_data}[1] = {s_data};");

    LoadI32 = makeLoadInstr("vec_ld_4xi32", ScalarKind::I32, 4, I32Space,
                            "{dst_data} = *(const exo_v4i *)&{src_data};");
    StoreI32 = makeStoreInstr("vec_st_4xi32", ScalarKind::I32, 4, I32Space,
                              "*(exo_v4i *)&{dst_data} = {src_data};");
    FmaLaneI32 = makeFmaLaneInstr(
        "vec_fmla_4xi32_4xi32", ScalarKind::I32, 4, I32Space,
        "{dst_data} += {lhs_data} * {rhs_data}[{l}];");
    FmaBcstI32 = makeFmaBroadcastInstr("vec_fmadd_4xi32", ScalarKind::I32, 4,
                                       I32Space,
                                       "{dst_data} += {lhs_data} * {s_data};");
    BcstI32 = makeBroadcastInstr(
        "vec_dup_4xi32", ScalarKind::I32, 4, I32Space,
        "{dst_data}[0] = {dst_data}[1] = {dst_data}[2] = {dst_data}[3] = "
        "{s_data};");
  }

  std::string name() const override { return "portable"; }
  bool hostExecutable() const override { return true; }
  bool supports(ScalarKind Ty) const override {
    return Ty == ScalarKind::F32 || Ty == ScalarKind::F64 ||
           Ty == ScalarKind::I32;
  }
  const MemSpace *space(ScalarKind Ty) const override {
    if (Ty == ScalarKind::F64)
      return F64Space;
    if (Ty == ScalarKind::I32)
      return I32Space;
    return F32Space;
  }

  std::string prologue() const override {
    return "typedef float exo_v4f __attribute__((vector_size(16), "
           "aligned(4)));\n"
           "typedef double exo_v2d __attribute__((vector_size(16), "
           "aligned(8)));\n"
           "#include <stdint.h>\n"
           "typedef int32_t exo_v4i __attribute__((vector_size(16), "
           "aligned(4)));\n";
  }
  // JIT compiles for this host; the emitted C itself stays portable.
  std::string jitFlags() const override { return "-march=native"; }

  InstrPtr load(ScalarKind Ty) const override {
    return pick(Ty, LoadF32, LoadF64, LoadI32);
  }
  InstrPtr store(ScalarKind Ty) const override {
    return pick(Ty, StoreF32, StoreF64, StoreI32);
  }
  InstrPtr fmaLane(ScalarKind Ty) const override {
    return pick(Ty, FmaLaneF32, FmaLaneF64, FmaLaneI32);
  }
  InstrPtr fmaBroadcast(ScalarKind Ty) const override {
    return pick(Ty, FmaBcstF32, FmaBcstF64, FmaBcstI32);
  }
  InstrPtr broadcast(ScalarKind Ty) const override {
    return pick(Ty, BcstF32, BcstF64, BcstI32);
  }

private:
  static InstrPtr pick(ScalarKind Ty, const InstrPtr &F32,
                       const InstrPtr &F64, const InstrPtr &I32) {
    if (Ty == ScalarKind::F32)
      return F32;
    if (Ty == ScalarKind::F64)
      return F64;
    if (Ty == ScalarKind::I32)
      return I32;
    return nullptr;
  }

  const MemSpace *F32Space = nullptr;
  const MemSpace *F64Space = nullptr;
  const MemSpace *I32Space = nullptr;
  InstrPtr LoadF32, StoreF32, FmaLaneF32, FmaBcstF32, BcstF32;
  InstrPtr LoadF64, StoreF64, FmaLaneF64, FmaBcstF64, BcstF64;
  InstrPtr LoadI32, StoreI32, FmaLaneI32, FmaBcstI32, BcstI32;
};

} // namespace

const IsaLib &exo::portableIsa() {
  static PortableIsa Isa;
  return Isa;
}
