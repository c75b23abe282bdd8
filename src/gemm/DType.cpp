//===- DType.cpp - GEMM element type traits and conversions ---------------===//
//
// Part of the exo-ukr project. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//

#include "gemm/DType.h"

#include <cmath>
#include <cstring>

namespace gemm {

const char *dtypeName(DType Ty) {
  switch (Ty) {
  case DType::F32:
    return "f32";
  case DType::F16:
    return "f16";
  case DType::BF16:
    return "bf16";
  case DType::I8I32:
    return "i8";
  }
  return "?";
}

bool parseDType(const std::string &Name, DType &Out) {
  if (Name == "f32") {
    Out = DType::F32;
    return true;
  }
  if (Name == "f16") {
    Out = DType::F16;
    return true;
  }
  if (Name == "bf16") {
    Out = DType::BF16;
    return true;
  }
  if (Name == "i8" || Name == "i8i32") {
    Out = DType::I8I32;
    return true;
  }
  return false;
}

unsigned dtypeInBytes(DType Ty) {
  switch (Ty) {
  case DType::F32:
    return 4;
  case DType::F16:
  case DType::BF16:
    return 2;
  case DType::I8I32:
    return 1;
  }
  return 4;
}

unsigned dtypeOutBytes(DType Ty) {
  switch (Ty) {
  case DType::F32:
  case DType::I8I32:
    return 4;
  case DType::F16:
  case DType::BF16:
    return 2;
  }
  return 4;
}

unsigned dtypePackBytes(DType Ty) {
  return Ty == DType::I8I32 ? 1 : 4;
}

bool dtypeIsInt(DType Ty) { return Ty == DType::I8I32; }

exo::ScalarKind dtypeScalarKind(DType Ty) {
  switch (Ty) {
  case DType::F32:
    return exo::ScalarKind::F32;
  case DType::F16:
    return exo::ScalarKind::F16;
  case DType::BF16:
    return exo::ScalarKind::BF16;
  case DType::I8I32:
    return exo::ScalarKind::I8;
  }
  return exo::ScalarKind::F32;
}

//===----------------------------------------------------------------------===//
// binary16
//===----------------------------------------------------------------------===//

float f16ToF32(uint16_t H) {
  uint32_t Sign = (uint32_t)(H >> 15) << 31;
  uint32_t Exp = (H >> 10) & 0x1f;
  uint32_t Mant = H & 0x3ff;
  uint32_t Bits;
  if (Exp == 0) {
    if (Mant == 0) {
      Bits = Sign; // +-0
    } else {
      // Subnormal: normalize the mantissa into f32 range. The subnormal
      // scale is 2^-14 (0.M * 2^-14), and each normalizing shift costs
      // one more exponent step.
      int Shift = 0;
      while (!(Mant & 0x400)) {
        Mant <<= 1;
        ++Shift;
      }
      Mant &= 0x3ff;
      Bits = Sign | ((uint32_t)(127 - 14 - Shift) << 23) | (Mant << 13);
    }
  } else if (Exp == 0x1f) {
    Bits = Sign | 0x7f800000u | (Mant << 13); // inf / NaN
  } else {
    Bits = Sign | ((Exp + (127 - 15)) << 23) | (Mant << 13);
  }
  float F;
  std::memcpy(&F, &Bits, sizeof(F));
  return F;
}

uint16_t f32ToF16(float F) {
  uint32_t Bits;
  std::memcpy(&Bits, &F, sizeof(Bits));
  uint16_t Sign = (uint16_t)((Bits >> 16) & 0x8000u);
  uint32_t Exp = (Bits >> 23) & 0xff;
  uint32_t Mant = Bits & 0x7fffff;
  if (Exp == 0xff) // inf / NaN (keep a mantissa bit so NaN stays NaN)
    return (uint16_t)(Sign | 0x7c00u | (Mant ? 0x200u | (Mant >> 13) : 0));
  // Re-bias; values below the subnormal range need a wider shift.
  int32_t E = (int32_t)Exp - 127 + 15;
  if (E >= 0x1f)
    return (uint16_t)(Sign | 0x7c00u); // overflow -> inf
  uint32_t Full = Mant | 0x800000u;    // implicit leading 1
  uint32_t Shift = 13;
  if (E <= 0) {
    if (E < -10)
      return Sign; // underflow -> +-0
    Shift = (uint32_t)(13 + 1 - E);
    E = 0;
  }
  uint32_t Half = E == 0 ? Full >> Shift : Mant >> 13;
  uint32_t Dropped = E == 0 ? Full & ((1u << Shift) - 1)
                            : Mant & 0x1fffu;
  uint32_t Mid = E == 0 ? 1u << (Shift - 1) : 0x1000u;
  uint16_t Out = (uint16_t)(Sign | ((uint32_t)E << 10) | Half);
  // Round to nearest, ties to even. Carry may bump into the next exponent,
  // which is exactly what integer increment does for IEEE layouts.
  if (Dropped > Mid || (Dropped == Mid && (Half & 1)))
    ++Out;
  return Out;
}

} // namespace gemm
