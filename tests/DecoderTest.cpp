//===-- tests/DecoderTest.cpp - IA-32 decoder tests ------------------------===//
//
// Part of the PGSD project, a reproduction of "Profile-guided Automated
// Software Diversity" (Homescu et al., CGO 2013).
//
//===----------------------------------------------------------------------===//

#include "x86/Decoder.h"

#include "support/Rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

using namespace pgsd;
using namespace pgsd::x86;

namespace {

Decoded decodeBytes(std::initializer_list<uint8_t> Bytes) {
  std::vector<uint8_t> V(Bytes);
  Decoded D;
  decodeInstr(V.data(), V.size(), D);
  return D;
}

bool decodesOK(std::initializer_list<uint8_t> Bytes) {
  std::vector<uint8_t> V(Bytes);
  Decoded D;
  return decodeInstr(V.data(), V.size(), D);
}

} // namespace

TEST(Decoder, SingleByteBasics) {
  EXPECT_EQ(decodeBytes({0x90}).Length, 1u); // NOP
  EXPECT_EQ(decodeBytes({0x90}).Class, InstrClass::Normal);
  EXPECT_EQ(decodeBytes({0xC3}).Class, InstrClass::Ret);
  EXPECT_EQ(decodeBytes({0xC9}).Length, 1u); // LEAVE
  EXPECT_EQ(decodeBytes({0x50}).Length, 1u); // PUSH EAX
  EXPECT_EQ(decodeBytes({0x58}).Length, 1u); // POP EAX
  EXPECT_EQ(decodeBytes({0x99}).Length, 1u); // CDQ
}

TEST(Decoder, RetForms) {
  Decoded RetImm = decodeBytes({0xC2, 0x08, 0x00});
  EXPECT_EQ(RetImm.Class, InstrClass::RetImm);
  EXPECT_EQ(RetImm.Length, 3u);
  EXPECT_EQ(RetImm.Imm, 8);
  EXPECT_TRUE(RetImm.isFreeBranch());
  EXPECT_EQ(decodeBytes({0xCB}).Class, InstrClass::RetFar);
  EXPECT_EQ(decodeBytes({0xCA, 0x04, 0x00}).Class, InstrClass::RetFar);
}

TEST(Decoder, ImmediateForms) {
  // MOV EAX, imm32.
  Decoded MovImm = decodeBytes({0xB8, 0x78, 0x56, 0x34, 0x12});
  EXPECT_EQ(MovImm.Length, 5u);
  EXPECT_EQ(MovImm.Imm, 0x12345678);
  // ADD EAX, imm32 (row short form).
  EXPECT_EQ(decodeBytes({0x05, 1, 0, 0, 0}).Length, 5u);
  // ADD AL, imm8.
  EXPECT_EQ(decodeBytes({0x04, 0x7F}).Length, 2u);
  // PUSH imm8 / imm32.
  EXPECT_EQ(decodeBytes({0x6A, 0x05}).Length, 2u);
  EXPECT_EQ(decodeBytes({0x68, 1, 2, 3, 4}).Length, 5u);
  // Sign extension of imm8.
  EXPECT_EQ(decodeBytes({0x6A, 0xFF}).Imm, -1);
}

TEST(Decoder, ModRMRegisterForm) {
  // MOV EBX, EAX = 89 C3.
  Decoded D = decodeBytes({0x89, 0xC3});
  EXPECT_EQ(D.Length, 2u);
  EXPECT_TRUE(D.HasModRM);
  EXPECT_EQ(D.modField(), 3u);
  EXPECT_EQ(D.regField(), 0u); // EAX
  EXPECT_EQ(D.rmField(), 3u);  // EBX
}

TEST(Decoder, ModRMMemoryForms) {
  // MOV EAX, [ECX] -> 8B 01.
  EXPECT_EQ(decodeBytes({0x8B, 0x01}).Length, 2u);
  // MOV EAX, [ECX+disp8] -> 8B 41 10.
  EXPECT_EQ(decodeBytes({0x8B, 0x41, 0x10}).Length, 3u);
  // MOV EAX, [ECX+disp32].
  EXPECT_EQ(decodeBytes({0x8B, 0x81, 1, 2, 3, 4}).Length, 6u);
  // MOV EAX, [disp32] (mod=00 rm=101).
  EXPECT_EQ(decodeBytes({0x8B, 0x05, 1, 2, 3, 4}).Length, 6u);
}

TEST(Decoder, SIBForms) {
  // MOV EAX, [ESP] -> 8B 04 24.
  EXPECT_EQ(decodeBytes({0x8B, 0x04, 0x24}).Length, 3u);
  // MOV EAX, [ESP+disp8] -> 8B 44 24 08.
  EXPECT_EQ(decodeBytes({0x8B, 0x44, 0x24, 0x08}).Length, 4u);
  // MOV EAX, [EAX + EBX*4 + disp32] -> 8B 84 98 disp32.
  EXPECT_EQ(decodeBytes({0x8B, 0x84, 0x98, 1, 2, 3, 4}).Length, 7u);
  // SIB with no base (mod=00, base=101): disp32 follows.
  EXPECT_EQ(decodeBytes({0x8B, 0x04, 0x9D, 1, 2, 3, 4}).Length, 7u);
}

TEST(Decoder, ControlFlowClasses) {
  EXPECT_EQ(decodeBytes({0xE8, 0, 0, 0, 0}).Class, InstrClass::CallRel);
  EXPECT_EQ(decodeBytes({0xE9, 0, 0, 0, 0}).Class, InstrClass::JmpRel);
  EXPECT_EQ(decodeBytes({0xEB, 0x10}).Class, InstrClass::JmpRel);
  EXPECT_EQ(decodeBytes({0x74, 0x10}).Class, InstrClass::Jcc);
  EXPECT_EQ(decodeBytes({0x0F, 0x84, 0, 0, 0, 0}).Class, InstrClass::Jcc);
  EXPECT_EQ(decodeBytes({0x0F, 0x84, 0, 0, 0, 0}).Length, 6u);
  EXPECT_EQ(decodeBytes({0xE2, 0xFE}).Class, InstrClass::Loop);
  EXPECT_EQ(decodeBytes({0xCD, 0x80}).Class, InstrClass::IntN);
  EXPECT_EQ(decodeBytes({0xCD, 0x80}).Imm, int64_t{0x80} - 0x100);
}

TEST(Decoder, IndirectBranchesAreFreeBranches) {
  // CALL EAX = FF D0; JMP EAX = FF E0.
  Decoded CallInd = decodeBytes({0xFF, 0xD0});
  EXPECT_EQ(CallInd.Class, InstrClass::CallInd);
  EXPECT_TRUE(CallInd.isFreeBranch());
  Decoded JmpInd = decodeBytes({0xFF, 0xE0});
  EXPECT_EQ(JmpInd.Class, InstrClass::JmpInd);
  EXPECT_TRUE(JmpInd.isFreeBranch());
  // JMP [EBX] = FF 23.
  EXPECT_EQ(decodeBytes({0xFF, 0x23}).Class, InstrClass::JmpInd);
  // Group 5 /7 is undefined.
  EXPECT_FALSE(decodesOK({0xFF, 0xF8}));
}

TEST(Decoder, PrivilegedInstructions) {
  // The paper's NOP candidates rely on IN faulting in user mode.
  EXPECT_EQ(decodeBytes({0xE4, 0x10}).Class, InstrClass::Privileged);
  EXPECT_EQ(decodeBytes({0xEC}).Class, InstrClass::Privileged);
  EXPECT_EQ(decodeBytes({0xF4}).Class, InstrClass::Privileged); // HLT
  EXPECT_EQ(decodeBytes({0xFA}).Class, InstrClass::Privileged); // CLI
  EXPECT_EQ(decodeBytes({0x0F, 0x30}).Class, InstrClass::Privileged);
}

TEST(Decoder, UndefinedOpcodes) {
  EXPECT_FALSE(decodesOK({0xD6}));        // SALC
  EXPECT_FALSE(decodesOK({0x0F, 0x0B})); // UD2
  EXPECT_FALSE(decodesOK({0x0F, 0xB9, 0xC0})); // UD1
  EXPECT_FALSE(decodesOK({0x0F, 0xFF, 0xC0})); // UD0
  // LEA with register operand is undefined.
  EXPECT_FALSE(decodesOK({0x8D, 0xC0}));
  // Unpopulated 0F slot.
  EXPECT_FALSE(decodesOK({0x0F, 0x04}));
}

TEST(Decoder, GroupRefinements) {
  // C6 /0 is MOV r/m8, imm8; other /n undefined.
  EXPECT_TRUE(decodesOK({0xC6, 0x00, 0x42}));
  EXPECT_FALSE(decodesOK({0xC6, 0x08, 0x42}));
  // 8F /0 POP r/m; /1 undefined.
  EXPECT_TRUE(decodesOK({0x8F, 0x00}));
  EXPECT_FALSE(decodesOK({0x8F, 0x08}));
  // FE group: only INC/DEC rm8.
  EXPECT_TRUE(decodesOK({0xFE, 0x00}));
  EXPECT_FALSE(decodesOK({0xFE, 0x38}));
  // MOV CS, rm is undefined.
  EXPECT_FALSE(decodesOK({0x8E, 0xC8}));
}

TEST(Decoder, Group3TestImmediates) {
  // F7 /0 = TEST r/m32, imm32 (ModRM + imm32).
  EXPECT_EQ(decodeBytes({0xF7, 0xC0, 1, 2, 3, 4}).Length, 6u);
  // F7 /3 = NEG r/m32 (no immediate).
  EXPECT_EQ(decodeBytes({0xF7, 0xD8}).Length, 2u);
  // F6 /0 = TEST r/m8, imm8.
  EXPECT_EQ(decodeBytes({0xF6, 0xC0, 0x42}).Length, 3u);
  // F7 /7 = IDIV.
  EXPECT_EQ(decodeBytes({0xF7, 0xF9}).Length, 2u);
}

TEST(Decoder, Prefixes) {
  // Operand-size prefix shrinks immediates: 66 B8 imm16.
  EXPECT_EQ(decodeBytes({0x66, 0xB8, 0x34, 0x12}).Length, 4u);
  // Segment prefix.
  EXPECT_EQ(decodeBytes({0x36, 0x8B, 0x01}).Length, 3u);
  EXPECT_EQ(decodeBytes({0x36, 0x8B, 0x01}).NumPrefixes, 1u);
  // REP MOVSD.
  EXPECT_EQ(decodeBytes({0xF3, 0xA5}).Length, 2u);
  // LOCK ADD [EAX], EAX.
  EXPECT_EQ(decodeBytes({0xF0, 0x01, 0x00}).Length, 3u);
  // Address-size prefix: 16-bit ModRM (67 8B 07 = MOV EAX, [BX]).
  EXPECT_EQ(decodeBytes({0x67, 0x8B, 0x07}).Length, 3u);
  // 16-bit disp16 form (mod=00, rm=110).
  EXPECT_EQ(decodeBytes({0x67, 0x8B, 0x06, 0x10, 0x20}).Length, 5u);
}

TEST(Decoder, TruncationFails) {
  EXPECT_FALSE(decodesOK({0xB8}));             // MOV EAX, imm32 cut short
  EXPECT_FALSE(decodesOK({0xB8, 1, 2, 3}));    // one byte short
  EXPECT_FALSE(decodesOK({0x8B}));             // missing ModRM
  EXPECT_FALSE(decodesOK({0x8B, 0x81, 1, 2})); // truncated disp32
  EXPECT_FALSE(decodesOK({0x66}));             // prefix only
  EXPECT_FALSE(decodesOK({0x0F}));             // escape only
}

TEST(Decoder, AllPrefixInstructionRejected) {
  std::vector<uint8_t> Bytes(20, 0x66);
  Decoded D;
  EXPECT_FALSE(decodeInstr(Bytes.data(), Bytes.size(), D));
}

TEST(Decoder, TwoByteMap) {
  // IMUL r32, r/m32 = 0F AF /r.
  EXPECT_EQ(decodeBytes({0x0F, 0xAF, 0xC1}).Length, 3u);
  // MOVZX r32, r/m8 = 0F B6 /r.
  EXPECT_EQ(decodeBytes({0x0F, 0xB6, 0xC0}).Length, 3u);
  // SETcc = 0F 90+cc /r.
  EXPECT_EQ(decodeBytes({0x0F, 0x94, 0xC0}).Length, 3u);
  // RDTSC usable in user mode.
  EXPECT_EQ(decodeBytes({0x0F, 0x31}).Class, InstrClass::Normal);
  // CPUID.
  EXPECT_EQ(decodeBytes({0x0F, 0xA2}).Length, 2u);
  // BSWAP EDI.
  EXPECT_EQ(decodeBytes({0x0F, 0xCF}).Length, 2u);
  // SHLD r/m32, r32, imm8.
  EXPECT_EQ(decodeBytes({0x0F, 0xA4, 0xC1, 0x04}).Length, 4u);
  // SYSENTER classifies with software interrupts.
  EXPECT_EQ(decodeBytes({0x0F, 0x34}).Class, InstrClass::IntN);
}

TEST(Decoder, ThreeByteEscapes) {
  // 0F 38 xx /r: PSHUFB mm, mm (0F 38 00 C1).
  EXPECT_EQ(decodeBytes({0x0F, 0x38, 0x00, 0xC1}).Length, 4u);
  // 0F 3A xx /r imm8: PALIGNR (0F 3A 0F C1 04).
  EXPECT_EQ(decodeBytes({0x0F, 0x3A, 0x0F, 0xC1, 0x04}).Length, 5u);
}

TEST(Decoder, FarPointerForms) {
  // CALL ptr16:32 = 9A + 6 bytes.
  Decoded D = decodeBytes({0x9A, 1, 2, 3, 4, 5, 6});
  EXPECT_EQ(D.Length, 7u);
  EXPECT_EQ(D.Class, InstrClass::CallRel);
  // JMP ptr16:32 = EA + 6 bytes.
  EXPECT_EQ(decodeBytes({0xEA, 1, 2, 3, 4, 5, 6}).Length, 7u);
  // With operand-size prefix: ptr16:16 = 4 bytes.
  EXPECT_EQ(decodeBytes({0x66, 0x9A, 1, 2, 3, 4}).Length, 6u);
}

TEST(Decoder, EnterAndMoffs) {
  // ENTER imm16, imm8.
  EXPECT_EQ(decodeBytes({0xC8, 0x10, 0x00, 0x02}).Length, 4u);
  // MOV EAX, moffs32.
  EXPECT_EQ(decodeBytes({0xA1, 1, 2, 3, 4}).Length, 5u);
  // With address-size prefix the offset is 16-bit.
  EXPECT_EQ(decodeBytes({0x67, 0xA1, 1, 2}).Length, 4u);
}

TEST(Decoder, X87EscapesTakeModRM) {
  EXPECT_EQ(decodeBytes({0xD8, 0xC1}).Length, 2u); // FADD ST, ST(1)
  EXPECT_EQ(decodeBytes({0xD9, 0x45, 0x08}).Length, 3u); // FLD [EBP+8]
}

/// Robustness sweep: the decoder must never read out of bounds or crash
/// on arbitrary bytes -- the gadget scanner feeds it every offset of the
/// image. (Run under ASan this also proves memory safety.)
class DecoderFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DecoderFuzzTest, ArbitraryBytesNeverMisbehave) {
  Rng R(GetParam());
  std::vector<uint8_t> Buf(64);
  for (int Iter = 0; Iter != 2000; ++Iter) {
    for (uint8_t &B : Buf)
      B = static_cast<uint8_t>(R.next());
    size_t Len = 1 + R.nextBelow(Buf.size());
    Decoded D;
    bool OK = decodeInstr(Buf.data(), Len, D);
    if (OK) {
      EXPECT_GE(D.Length, 1u);
      EXPECT_LE(D.Length, 15u);
      EXPECT_LE(static_cast<size_t>(D.Length), Len);
      EXPECT_NE(D.Class, InstrClass::Invalid);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DecoderFuzzTest,
                         ::testing::Range<uint64_t>(0, 8));

/// decodeLenClass against decodeInstr on every 3-byte prefix (opcode,
/// ModRM and SIB of a one-byte instruction; 0F, opcode and ModRM of a
/// two-byte one), bare and after each legacy prefix the fast path steps
/// over (SS 0x36, LOCK 0xF0), each followed by two fixed random tails:
/// the (valid, Length, Class) triples must be equal, Length included on
/// invalid decodes. The tails' first bytes differ in SIB base (5 or
/// not), so the two-byte map's SIB forms are covered both ways. A sample
/// of the prefixes is also cut to every length from 1 to 15, where the
/// fast path hands over to the general decoder.
TEST(Decoder, LenClassMatchesDecodeInstrOnEveryThreeBytePrefix) {
  constexpr size_t TailBytes = 16;
  Rng R(0x5EEDF00D);
  uint8_t Tails[2][TailBytes];
  for (auto &Tail : Tails)
    for (uint8_t &B : Tail)
      B = static_cast<uint8_t>(R.next());
  Tails[0][0] = static_cast<uint8_t>((Tails[0][0] & ~7u) | 5u);
  Tails[1][0] = static_cast<uint8_t>((Tails[1][0] & ~7u) | 4u);

  uint8_t Buf[1 + 3 + TailBytes];
  unsigned Failures = 0;
  auto Check = [&](const uint8_t *Bytes, size_t Size) {
    Decoded D;
    const bool FullOk = decodeInstr(Bytes, Size, D);
    uint8_t Len = 0;
    InstrClass Class = InstrClass::Invalid;
    const bool LeanOk = decodeLenClass(Bytes, Size, Len, Class);
    if (LeanOk == FullOk && Len == D.Length && Class == D.Class)
      return;
    if (++Failures > 10)
      return;
    std::string Hex;
    for (size_t I = 0; I != Size; ++I) {
      static const char Digits[] = "0123456789ABCDEF";
      Hex += Digits[Bytes[I] >> 4];
      Hex += Digits[Bytes[I] & 15];
      Hex += ' ';
    }
    ADD_FAILURE() << "bytes " << Hex << "(size " << Size << "): decodeInstr ("
                  << FullOk << ", " << int(D.Length) << ", "
                  << int(D.Class) << ") vs decodeLenClass (" << LeanOk
                  << ", " << int(Len) << ", " << int(Class) << ")";
  };
  // Lead 0 checks the bare prefixes from Buf + 1.
  for (const uint8_t Lead : {uint8_t(0), uint8_t(0x36), uint8_t(0xF0)}) {
    Buf[0] = Lead;
    const uint8_t *Start = Lead == 0 ? Buf + 1 : Buf;
    const size_t Full = static_cast<size_t>(Buf + sizeof(Buf) - Start);
    for (const auto &Tail : Tails) {
      std::copy(Tail, Tail + TailBytes, Buf + 4);
      for (uint32_t P = 0; P != 1u << 24; ++P) {
        Buf[1] = static_cast<uint8_t>(P >> 16);
        Buf[2] = static_cast<uint8_t>(P >> 8);
        Buf[3] = static_cast<uint8_t>(P);
        Check(Start, Full);
        if (P % 4099 == 0)
          for (size_t Size = 1; Size <= 15; ++Size)
            Check(Start, Size);
      }
    }
  }
  EXPECT_EQ(Failures, 0u);
}
