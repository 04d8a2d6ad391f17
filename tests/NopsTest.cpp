//===-- tests/NopsTest.cpp - Paper Table 1 validation ----------------------===//
//
// Part of the PGSD project, a reproduction of "Profile-guided Automated
// Software Diversity" (Homescu et al., CGO 2013).
//
// Validates Table 1 of the paper: the NOP candidate encodings, and the
// security property that the *second byte* of each two-byte candidate
// decodes to something an attacker cannot use (IN is privileged, SS: is
// a bare prefix, AAS is harmless).
//
//===----------------------------------------------------------------------===//

#include "x86/Decoder.h"
#include "x86/Nops.h"

#include <gtest/gtest.h>

#include <cstring>

using namespace pgsd;
using namespace pgsd::x86;

TEST(Nops, TableMatchesPaper) {
  size_t Count;
  const NopInfo *Table = nopTable(Count);
  ASSERT_EQ(Count, 7u);

  struct Row {
    const char *Mnemonic;
    uint8_t B0, B1;
    uint8_t Len;
    const char *Second;
    bool Locks;
  };
  const Row Expected[] = {
      {"NOP", 0x90, 0x00, 1, "-", false},
      {"MOV ESP, ESP", 0x89, 0xE4, 2, "IN", false},
      {"MOV EBP, EBP", 0x89, 0xED, 2, "IN", false},
      {"LEA ESI, [ESI]", 0x8D, 0x36, 2, "SS:", false},
      {"LEA EDI, [EDI]", 0x8D, 0x3F, 2, "AAS", false},
      {"XCHG ESP, ESP", 0x87, 0xE4, 2, "IN", true},
      {"XCHG EBP, EBP", 0x87, 0xED, 2, "IN", true},
  };
  for (size_t I = 0; I != Count; ++I) {
    EXPECT_STREQ(Table[I].Mnemonic, Expected[I].Mnemonic);
    EXPECT_EQ(Table[I].Bytes[0], Expected[I].B0);
    if (Expected[I].Len == 2) {
      EXPECT_EQ(Table[I].Bytes[1], Expected[I].B1);
    }
    EXPECT_EQ(Table[I].Length, Expected[I].Len);
    EXPECT_STREQ(Table[I].SecondByteDecoding, Expected[I].Second);
    EXPECT_EQ(Table[I].LocksBus, Expected[I].Locks);
  }
}

TEST(Nops, DefaultSetExcludesXchg) {
  EXPECT_EQ(NumDefaultNopKinds, 5u);
  size_t Count;
  const NopInfo *Table = nopTable(Count);
  for (size_t I = 0; I != NumDefaultNopKinds; ++I)
    EXPECT_FALSE(Table[I].LocksBus)
        << "default candidate " << I << " must not lock the bus";
}

TEST(Nops, AllCandidatesDecodeAsSingleValidInstructions) {
  size_t Count;
  const NopInfo *Table = nopTable(Count);
  for (size_t I = 0; I != Count; ++I) {
    Decoded D;
    ASSERT_TRUE(decodeInstr(Table[I].Bytes, Table[I].Length, D))
        << Table[I].Mnemonic;
    EXPECT_EQ(D.Length, Table[I].Length) << Table[I].Mnemonic;
    EXPECT_EQ(D.Class, InstrClass::Normal) << Table[I].Mnemonic;
  }
}

TEST(Nops, SecondBytesAreUselessToAttackers) {
  // The design rationale from the paper, checked against our decoder.
  // 89 E4 / 89 ED / 87 E4 / 87 ED: second byte E4/ED = IN, privileged.
  for (uint8_t B : {0xE4, 0xED}) {
    uint8_t Buf[2] = {B, 0x10};
    Decoded D;
    decodeInstr(Buf, 2, D);
    EXPECT_EQ(D.Class, InstrClass::Privileged);
  }
  // 8D 3F: second byte 3F = AAS, a harmless one-byte instruction.
  {
    uint8_t Buf[1] = {0x3F};
    Decoded D;
    ASSERT_TRUE(decodeInstr(Buf, 1, D));
    EXPECT_EQ(D.Class, InstrClass::Normal);
    EXPECT_EQ(D.Length, 1u);
  }
  // 8D 36: second byte 36 = SS: prefix; alone it is not an instruction.
  {
    uint8_t Buf[1] = {0x36};
    Decoded D;
    EXPECT_FALSE(decodeInstr(Buf, 1, D));
    EXPECT_EQ(D.NumPrefixes, 1u);
  }
}

TEST(Nops, MatchNopAt) {
  NopKind Kind;
  const uint8_t MovEspEsp[] = {0x89, 0xE4};
  EXPECT_TRUE(matchNopAt(MovEspEsp, 2, /*IncludeXchg=*/false, Kind));
  EXPECT_EQ(Kind, NopKind::MovEspEsp);

  const uint8_t Nop90[] = {0x90};
  EXPECT_TRUE(matchNopAt(Nop90, 1, false, Kind));
  EXPECT_EQ(Kind, NopKind::Nop90);

  const uint8_t Xchg[] = {0x87, 0xE4};
  EXPECT_FALSE(matchNopAt(Xchg, 2, /*IncludeXchg=*/false, Kind));
  EXPECT_TRUE(matchNopAt(Xchg, 2, /*IncludeXchg=*/true, Kind));
  EXPECT_EQ(Kind, NopKind::XchgEspEsp);

  // A MOV that is not register-to-same-register is not a NOP.
  const uint8_t RealMov[] = {0x89, 0xC3};
  EXPECT_FALSE(matchNopAt(RealMov, 2, true, Kind));
  // Truncated two-byte candidates do not match.
  const uint8_t Partial[] = {0x89};
  EXPECT_FALSE(matchNopAt(Partial, 1, true, Kind));
  EXPECT_FALSE(matchNopAt(Partial, 0, true, Kind));
}
