//===-- x86/Encoder.cpp - IA-32 machine-code emitter ----------------------===//
//
// Part of the PGSD project, a reproduction of "Profile-guided Automated
// Software Diversity" (Homescu et al., CGO 2013).
//
//===----------------------------------------------------------------------===//

#include "x86/Encoder.h"

#include <algorithm>
#include <cassert>

using namespace pgsd;
using namespace pgsd::x86;

void Encoder::grow(size_t Bytes) {
  Out.resize(std::max(Pos + Bytes, 2 * Out.size()));
}

uint8_t *Encoder::modRMMem(uint8_t *P, uint8_t RegField, const Mem &M) {
  assert(RegField < 8 && "reg field out of range");
  if (!M.HasBase) {
    // Absolute [disp32]: mod = 00, rm = 101.
    *P++ = static_cast<uint8_t>((RegField << 3) | 0x05);
    put32(P, static_cast<uint32_t>(M.Disp));
    return P + 4;
  }

  uint8_t Base = regNum(M.Base);
  bool NeedSIB = M.Base == Reg::ESP; // rm = 100 selects a SIB byte
  // [EBP] with mod = 00 would mean [disp32]; force a disp8 of zero.
  uint8_t Mod;
  if (M.Disp == 0 && M.Base != Reg::EBP)
    Mod = 0;
  else if (fitsInt8(M.Disp))
    Mod = 1;
  else
    Mod = 2;

  uint8_t RM = NeedSIB ? 4 : Base;
  *P++ = static_cast<uint8_t>((Mod << 6) | (RegField << 3) | RM);
  if (NeedSIB)
    *P++ = 0x24; // scale = 0, index = none, base = ESP
  if (Mod == 1) {
    *P++ = static_cast<uint8_t>(static_cast<int8_t>(M.Disp));
  } else if (Mod == 2) {
    put32(P, static_cast<uint32_t>(M.Disp));
    P += 4;
  }
  return P;
}

void Encoder::movStoreImm(const Mem &Dst, int32_t Imm) {
  op(0xC7, 0, Dst); // MOV r/m32, imm32 (/0)
  put32(at(4), static_cast<uint32_t>(Imm));
  Pos += 4;
}

void Encoder::aluRM(AluOp Op, Reg Dst, const Mem &Src) {
  // Row base + 3: op r32, r/m32.
  op(static_cast<uint8_t>((static_cast<uint8_t>(Op) << 3) | 0x03),
     regNum(Dst), Src);
}

void Encoder::retImm(uint16_t PopBytes) {
  uint8_t *P = at(3);
  P[0] = 0xC2;
  P[1] = static_cast<uint8_t>(PopBytes);
  P[2] = static_cast<uint8_t>(PopBytes >> 8);
  Pos += 3;
}

void Encoder::intN(uint8_t Vector) {
  uint8_t *P = at(2);
  P[0] = 0xCD;
  P[1] = Vector;
  Pos += 2;
}
