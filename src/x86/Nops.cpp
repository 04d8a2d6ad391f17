//===-- x86/Nops.cpp - NOP candidate table (paper Table 1) ----------------===//
//
// Part of the PGSD project, a reproduction of "Profile-guided Automated
// Software Diversity" (Homescu et al., CGO 2013).
//
//===----------------------------------------------------------------------===//

#include "x86/Nops.h"

#include <cassert>

using namespace pgsd;
using namespace pgsd::x86;

// Paper Table 1, in order. The one-byte NOP stores 0 as its second byte.
static constexpr NopInfo NopRows[NumNopKinds] = {
    {NopKind::Nop90, "NOP", {0x90, 0x00}, 1, "-", false},
    {NopKind::MovEspEsp, "MOV ESP, ESP", {0x89, 0xE4}, 2, "IN", false},
    {NopKind::MovEbpEbp, "MOV EBP, EBP", {0x89, 0xED}, 2, "IN", false},
    {NopKind::LeaEsiEsi, "LEA ESI, [ESI]", {0x8D, 0x36}, 2, "SS:", false},
    {NopKind::LeaEdiEdi, "LEA EDI, [EDI]", {0x8D, 0x3F}, 2, "AAS", false},
    {NopKind::XchgEspEsp, "XCHG ESP, ESP", {0x87, 0xE4}, 2, "IN", true},
    {NopKind::XchgEbpEbp, "XCHG EBP, EBP", {0x87, 0xED}, 2, "IN", true},
};

const NopInfo &x86::nopInfo(NopKind Kind) {
  unsigned Index = static_cast<unsigned>(Kind);
  assert(Index < NumNopKinds && "invalid NOP kind");
  assert(NopRows[Index].Kind == Kind && "table order mismatch");
  return NopRows[Index];
}

const NopInfo *x86::nopTable(size_t &Count) {
  Count = NumNopKinds;
  return NopRows;
}

bool x86::matchNopAt(const uint8_t *Bytes, size_t Size, bool IncludeXchg,
                     NopKind &KindOut) {
  if (Size == 0)
    return false;
  for (const NopInfo &Info : NopRows) {
    if (Info.LocksBus && !IncludeXchg)
      continue;
    if (Info.Length > Size)
      continue;
    if (Bytes[0] != Info.Bytes[0])
      continue;
    if (Info.Length == 2 && Bytes[1] != Info.Bytes[1])
      continue;
    KindOut = Info.Kind;
    return true;
  }
  return false;
}
