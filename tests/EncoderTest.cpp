//===-- tests/EncoderTest.cpp - IA-32 encoder tests ------------------------===//
//
// Part of the PGSD project, a reproduction of "Profile-guided Automated
// Software Diversity" (Homescu et al., CGO 2013).
//
//===----------------------------------------------------------------------===//

#include "x86/Decoder.h"
#include "x86/Encoder.h"
#include "x86/Nops.h"

#include "support/Rng.h"

#include <gtest/gtest.h>

using namespace pgsd;
using namespace pgsd::x86;

namespace {

std::vector<uint8_t> bytesOf(void (*Emit)(Encoder &)) {
  std::vector<uint8_t> Out;
  Encoder E(Out);
  Emit(E);
  E.finish();
  return Out;
}

} // namespace

TEST(Encoder, GoldenBytes) {
  // Spot-check known IA-32 encodings byte for byte.
  EXPECT_EQ(bytesOf([](Encoder &E) { E.movRR(Reg::EBX, Reg::EAX); }),
            (std::vector<uint8_t>{0x89, 0xC3}));
  EXPECT_EQ(bytesOf([](Encoder &E) { E.movRI(Reg::EAX, 0x12345678); }),
            (std::vector<uint8_t>{0xB8, 0x78, 0x56, 0x34, 0x12}));
  EXPECT_EQ(bytesOf([](Encoder &E) { E.ret(); }),
            (std::vector<uint8_t>{0xC3}));
  EXPECT_EQ(bytesOf([](Encoder &E) { E.leave(); }),
            (std::vector<uint8_t>{0xC9}));
  EXPECT_EQ(bytesOf([](Encoder &E) { E.pushR(Reg::EBP); }),
            (std::vector<uint8_t>{0x55}));
  EXPECT_EQ(bytesOf([](Encoder &E) { E.popR(Reg::EDI); }),
            (std::vector<uint8_t>{0x5F}));
  EXPECT_EQ(bytesOf([](Encoder &E) { E.cdq(); }),
            (std::vector<uint8_t>{0x99}));
  EXPECT_EQ(bytesOf([](Encoder &E) { E.intN(0x80); }),
            (std::vector<uint8_t>{0xCD, 0x80}));
  EXPECT_EQ(
      bytesOf([](Encoder &E) { E.aluRR(AluOp::Add, Reg::ECX, Reg::EDX); }),
      (std::vector<uint8_t>{0x01, 0xD1}));
  EXPECT_EQ(
      bytesOf([](Encoder &E) { E.aluRR(AluOp::Cmp, Reg::EAX, Reg::EBX); }),
      (std::vector<uint8_t>{0x39, 0xD8}));
  EXPECT_EQ(bytesOf([](Encoder &E) { E.imulRR(Reg::EAX, Reg::ECX); }),
            (std::vector<uint8_t>{0x0F, 0xAF, 0xC1}));
}

TEST(Encoder, AluImmediateSelectsShortForm) {
  // imm8 range uses 83 /n, otherwise 81 /n.
  auto Short = bytesOf([](Encoder &E) { E.aluRI(AluOp::Sub, Reg::ESP, 8); });
  EXPECT_EQ(Short, (std::vector<uint8_t>{0x83, 0xEC, 0x08}));
  auto Long =
      bytesOf([](Encoder &E) { E.aluRI(AluOp::Sub, Reg::ESP, 0x1000); });
  EXPECT_EQ(Long[0], 0x81);
  EXPECT_EQ(Long.size(), 6u);
  // Boundary values.
  EXPECT_EQ(bytesOf([](Encoder &E) {
              E.aluRI(AluOp::Add, Reg::EAX, 127);
            }).size(),
            3u);
  EXPECT_EQ(bytesOf([](Encoder &E) {
              E.aluRI(AluOp::Add, Reg::EAX, 128);
            }).size(),
            6u);
  EXPECT_EQ(bytesOf([](Encoder &E) {
              E.aluRI(AluOp::Add, Reg::EAX, -128);
            }).size(),
            3u);
}

TEST(Encoder, MemoryOperands) {
  // [EBP] forces a zero disp8 (mod=01).
  auto EbpNoDisp =
      bytesOf([](Encoder &E) { E.movLoad(Reg::EAX, Mem::base(Reg::EBP)); });
  EXPECT_EQ(EbpNoDisp, (std::vector<uint8_t>{0x8B, 0x45, 0x00}));
  // [ESP] requires a SIB byte.
  auto EspBase =
      bytesOf([](Encoder &E) { E.movLoad(Reg::EAX, Mem::base(Reg::ESP)); });
  EXPECT_EQ(EspBase, (std::vector<uint8_t>{0x8B, 0x04, 0x24}));
  // [ECX] with no displacement is the two-byte form.
  auto Plain =
      bytesOf([](Encoder &E) { E.movLoad(Reg::EAX, Mem::base(Reg::ECX)); });
  EXPECT_EQ(Plain, (std::vector<uint8_t>{0x8B, 0x01}));
  // Absolute [disp32].
  auto Abs =
      bytesOf([](Encoder &E) { E.movLoad(Reg::EAX, Mem::abs(0x1234)); });
  EXPECT_EQ(Abs, (std::vector<uint8_t>{0x8B, 0x05, 0x34, 0x12, 0, 0}));
}

TEST(Encoder, NopEncodings) {
  // The encoder's NOPs are exactly the paper's Table 1 bytes.
  size_t Count;
  const NopInfo *Table = nopTable(Count);
  for (size_t I = 0; I != Count; ++I) {
    std::vector<uint8_t> Out;
    Encoder E(Out);
    E.nop(Table[I].Kind);
    E.finish();
    ASSERT_EQ(Out.size(), Table[I].Length);
    EXPECT_EQ(Out[0], Table[I].Bytes[0]);
    if (Table[I].Length == 2) {
      EXPECT_EQ(Out[1], Table[I].Bytes[1]);
    }
  }
}

TEST(Encoder, BranchPatching) {
  std::vector<uint8_t> Out;
  Encoder E(Out);
  size_t J = E.jmpRel();
  E.movRI(Reg::EAX, 1);
  size_t Target = E.offset();
  E.ret();
  E.patchRel32(J, Target);
  E.finish();
  // rel32 = Target - (J + 4).
  int32_t Rel = static_cast<int32_t>(Out[J]) | (Out[J + 1] << 8) |
                (Out[J + 2] << 16) | (Out[J + 3] << 24);
  EXPECT_EQ(Rel, static_cast<int32_t>(Target - (J + 4)));
}

TEST(Encoder, BackwardBranch) {
  std::vector<uint8_t> Out;
  Encoder E(Out);
  size_t Loop = E.offset();
  E.aluRI(AluOp::Sub, Reg::ECX, 1);
  size_t J = E.jccRel(CondCode::NE);
  E.patchRel32(J, Loop);
  E.finish();
  int32_t Rel = static_cast<int32_t>(Out[J]) | (Out[J + 1] << 8) |
                (Out[J + 2] << 16) | (Out[J + 3] << 24);
  EXPECT_LT(Rel, 0);
  EXPECT_EQ(Rel, static_cast<int32_t>(Loop) - static_cast<int32_t>(J + 4));
}

TEST(Encoder, IncMemReturnsDispOffset) {
  std::vector<uint8_t> Out;
  Encoder E(Out);
  size_t Disp = E.incMem(Mem::abs(0));
  E.finish();
  EXPECT_EQ(Out.size(), 6u); // FF 05 disp32
  EXPECT_EQ(Out[0], 0xFF);
  EXPECT_EQ(Out[1], 0x05);
  EXPECT_EQ(Disp, 2u);
}

TEST(Encoder, RoomAheadOfTheCursorIsTrimmed) {
  // The room reserve() makes, and the room each encoder grows, sit past
  // offset() until finish() trims them; encoding may go on after it.
  std::vector<uint8_t> Out = {0xAA};
  Encoder E(Out);
  EXPECT_EQ(E.offset(), 1u);
  E.reserve(100);
  EXPECT_GE(Out.size(), 101u);
  E.ret();
  E.finish();
  EXPECT_EQ(Out, (std::vector<uint8_t>{0xAA, 0xC3}));
  for (int I = 0; I != 40; ++I)
    E.movRI(Reg::EAX, I);
  E.finish();
  EXPECT_EQ(Out.size(), 2u + 40u * 5u);
  EXPECT_EQ(Out[2], 0xB8);
}

TEST(Encoder, SetccConstraint) {
  auto Set = bytesOf([](Encoder &E) { E.setccR8(CondCode::E, Reg::EAX); });
  EXPECT_EQ(Set, (std::vector<uint8_t>{0x0F, 0x94, 0xC0}));
  auto Zext = bytesOf([](Encoder &E) { E.movzxR8(Reg::EAX, Reg::EAX); });
  EXPECT_EQ(Zext, (std::vector<uint8_t>{0x0F, 0xB6, 0xC0}));
}

/// Round-trip property: everything the encoder can emit must decode to
/// exactly one instruction of the right length and a non-invalid class.
TEST(Encoder, EveryEmissionDecodes) {
  struct Case {
    const char *Name;
    void (*Emit)(Encoder &);
    InstrClass Class;
  };
  const Case Cases[] = {
      {"movRR", [](Encoder &E) { E.movRR(Reg::ESI, Reg::EDI); },
       InstrClass::Normal},
      {"movRI", [](Encoder &E) { E.movRI(Reg::EBX, -5); },
       InstrClass::Normal},
      {"load", [](Encoder &E) { E.movLoad(Reg::EDX, Mem::base(Reg::EBX, 124)); },
       InstrClass::Normal},
      {"store", [](Encoder &E) { E.movStore(Mem::base(Reg::ESI, -4), Reg::ECX); },
       InstrClass::Normal},
      {"storeImm", [](Encoder &E) { E.movStoreImm(Mem::base(Reg::EBP, -8), 7); },
       InstrClass::Normal},
      {"lea", [](Encoder &E) { E.leaRM(Reg::EAX, Mem::base(Reg::EBP, -12)); },
       InstrClass::Normal},
      {"aluRM", [](Encoder &E) { E.aluRM(AluOp::Add, Reg::EAX, Mem::base(Reg::ECX, 4)); },
       InstrClass::Normal},
      {"neg", [](Encoder &E) { E.negR(Reg::EDX); }, InstrClass::Normal},
      {"not", [](Encoder &E) { E.notR(Reg::EDX); }, InstrClass::Normal},
      {"shl", [](Encoder &E) { E.shiftRI(ShiftOp::Shl, Reg::EAX, 3); },
       InstrClass::Normal},
      {"sarCL", [](Encoder &E) { E.shiftRCL(ShiftOp::Sar, Reg::EAX); },
       InstrClass::Normal},
      {"test", [](Encoder &E) { E.testRR(Reg::EAX, Reg::EAX); },
       InstrClass::Normal},
      {"idiv", [](Encoder &E) { E.idivR(Reg::ECX); }, InstrClass::Normal},
      {"pushI", [](Encoder &E) { E.pushI(123456); }, InstrClass::Normal},
      {"callInd", [](Encoder &E) { E.callInd(Reg::EAX); },
       InstrClass::CallInd},
      {"jmpInd", [](Encoder &E) { E.jmpInd(Reg::EDX); },
       InstrClass::JmpInd},
      {"retImm", [](Encoder &E) { E.retImm(8); }, InstrClass::RetImm},
  };
  for (const Case &C : Cases) {
    std::vector<uint8_t> Out;
    Encoder E(Out);
    C.Emit(E);
    E.finish();
    Decoded D;
    ASSERT_TRUE(decodeInstr(Out.data(), Out.size(), D)) << C.Name;
    EXPECT_EQ(D.Length, Out.size()) << C.Name;
    EXPECT_EQ(D.Class, C.Class) << C.Name;
  }
}

/// Property sweep: random instruction streams decode back with exactly
/// the emitted boundaries.
class EncodeDecodeRoundTrip : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EncodeDecodeRoundTrip, BoundariesPreserved) {
  Rng R(GetParam() * 7919 + 3);
  std::vector<uint8_t> Out;
  Encoder E(Out);
  std::vector<size_t> Starts;

  auto RandomReg = [&] { return static_cast<Reg>(R.nextBelow(8)); };
  auto RandomMem = [&] {
    if (R.nextBernoulli(0.2))
      return Mem::abs(static_cast<int32_t>(R.next()));
    return Mem::base(RandomReg(),
                     static_cast<int32_t>(R.nextInRange(-4096, 4096)));
  };

  for (int I = 0; I != 300; ++I) {
    Starts.push_back(E.offset());
    switch (R.nextBelow(14)) {
    case 0:
      E.movRR(RandomReg(), RandomReg());
      break;
    case 1:
      E.movRI(RandomReg(), static_cast<int32_t>(R.next()));
      break;
    case 2:
      E.movLoad(RandomReg(), RandomMem());
      break;
    case 3:
      E.movStore(RandomMem(), RandomReg());
      break;
    case 4:
      E.aluRR(static_cast<AluOp>(R.nextBelow(8)), RandomReg(), RandomReg());
      break;
    case 5:
      E.aluRI(static_cast<AluOp>(R.nextBelow(8)), RandomReg(),
              static_cast<int32_t>(R.next()));
      break;
    case 6:
      E.imulRR(RandomReg(), RandomReg());
      break;
    case 7:
      E.shiftRI(ShiftOp::Shl, RandomReg(),
                static_cast<uint8_t>(R.nextBelow(32)));
      break;
    case 8:
      E.testRR(RandomReg(), RandomReg());
      break;
    case 9:
      E.pushR(RandomReg());
      break;
    case 10:
      E.popR(RandomReg());
      break;
    case 11:
      E.nop(static_cast<NopKind>(R.nextBelow(NumNopKinds)));
      break;
    case 12:
      E.leaRM(RandomReg(), Mem::base(RandomReg(),
                                     static_cast<int32_t>(R.nextBelow(64))));
      break;
    default:
      E.movStoreImm(RandomMem(), static_cast<int32_t>(R.next()));
      break;
    }
  }
  size_t End = E.offset();
  E.finish();
  ASSERT_EQ(Out.size(), End);

  // Linear decode must land exactly on every recorded boundary.
  size_t Pos = 0;
  size_t Index = 0;
  while (Pos < End) {
    ASSERT_LT(Index, Starts.size());
    ASSERT_EQ(Pos, Starts[Index]);
    Decoded D;
    ASSERT_TRUE(decodeInstr(Out.data() + Pos, End - Pos, D));
    Pos += D.Length;
    ++Index;
  }
  EXPECT_EQ(Index, Starts.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, EncodeDecodeRoundTrip,
                         ::testing::Range<uint64_t>(0, 10));
