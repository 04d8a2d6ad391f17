//===-- codegen/Linker.cpp - Mini linker / image builder -------------------===//
//
// Part of the PGSD project, a reproduction of "Profile-guided Automated
// Software Diversity" (Homescu et al., CGO 2013).
//
//===----------------------------------------------------------------------===//

#include "codegen/Linker.h"

#include "x86/Encoder.h"

#include <cassert>

using namespace pgsd;
using namespace pgsd::codegen;
using x86::AluOp;
using x86::Encoder;
using x86::Mem;
using x86::Reg;
using x86::ShiftOp;

namespace {

/// Emits the C-runtime stub through \p E. When \p StubRng is non-null,
/// Table 1 NOPs are inserted before instructions with the configured
/// probability (the "also diversify the C library" extension).
class StubBuilder {
public:
  StubBuilder(Encoder &Enc, Rng *R, double P)
      : E(Enc), StubRng(R), NopProb(P) {}

  /// Rolls the diversification dice before one emitted instruction.
  void pre() {
    if (!StubRng || !StubRng->nextBernoulli(NopProb))
      return;
    // Default candidate set (the bus-locking XCHG pair stays excluded).
    auto Kind = static_cast<x86::NopKind>(
        StubRng->nextBelow(x86::NumDefaultNopKinds));
    E.nop(Kind);
  }

  /// Standard wrapper prologue.
  void prologue() {
    pre();
    E.pushR(Reg::EBP);
    pre();
    E.movRR(Reg::EBP, Reg::ESP);
  }

  /// Standard wrapper epilogue.
  void epilogue() {
    pre();
    E.leave();
    pre();
    E.ret();
  }

  Encoder &E;
  Rng *StubRng;
  double NopProb;
};

} // namespace

std::vector<uint8_t> codegen::buildRuntimeStub(
    std::array<uint32_t, ir::NumIntrinsics> &IntrinsicOffsets,
    uint32_t &CallMainField, const LinkOptions &Opts) {
  std::vector<uint8_t> Bytes;
  Encoder E(Bytes);
  Rng StubRng(Opts.StubSeed);
  StubBuilder S(E, Opts.DiversifyStub ? &StubRng : nullptr,
                Opts.StubNopProbability);
  auto P = [&] { S.pre(); };

  // --- _start: call main, pass the result to SYS_exit. --------------
  CallMainField = static_cast<uint32_t>(E.callRel() /* main */);
  P();
  E.movRR(Reg::EBX, Reg::EAX); // exit status
  P();
  E.movRI(Reg::EAX, 1); // SYS_exit
  P();
  E.intN(0x80);

  auto BeginFn = [&](ir::Intrinsic I) {
    IntrinsicOffsets[static_cast<size_t>(I)] =
        static_cast<uint32_t>(E.offset());
    S.prologue();
  };

  // --- print_int: format into the static conversion buffer, then
  // SYS_write. The digit loop is real code; its buffer address is a
  // fixed scratch location in the data segment.
  constexpr int32_t ConvBuf = static_cast<int32_t>(GlobalsBase) - 0x40;
  BeginFn(ir::Intrinsic::PrintI32);
  P();
  E.movLoad(Reg::EAX, Mem::base(Reg::EBP, 8));
  P();
  E.movRI(Reg::ECX, 10);
  P();
  E.leaRM(Reg::EDX, Mem::base(Reg::EBP, -4));
  // digit loop: divide by 10, store remainder
  size_t DigitLoop = E.offset();
  P();
  E.cdq();
  // A real libc uses unsigned div here; idiv keeps the stub honest
  // enough for byte-level analysis.
  P();
  E.movRI(Reg::ECX, 10);
  P();
  E.idivR(Reg::ECX);
  P();
  E.aluRI(AluOp::Add, Reg::EDX, '0');
  P();
  E.movStore(Mem::abs(ConvBuf), Reg::EDX);
  P();
  E.testRR(Reg::EAX, Reg::EAX);
  size_t LoopBranch = E.jccRel(x86::CondCode::NE);
  E.patchRel32(LoopBranch, DigitLoop);
  P();
  E.movRI(Reg::EBX, 1); // fd = stdout
  P();
  E.movRI(Reg::ECX, ConvBuf);
  P();
  E.movRI(Reg::EDX, 12); // max length
  P();
  E.movRI(Reg::EAX, 4); // SYS_write
  P();
  E.intN(0x80);
  S.epilogue();

  // --- print_char: one-byte SYS_write. -------------------------------
  BeginFn(ir::Intrinsic::PrintChar);
  P();
  E.movLoad(Reg::ECX, Mem::base(Reg::EBP, 8));
  P();
  E.movStore(Mem::abs(ConvBuf), Reg::ECX);
  P();
  E.movRI(Reg::ECX, ConvBuf);
  P();
  E.movRI(Reg::EBX, 1);
  P();
  E.movRI(Reg::EDX, 1);
  P();
  E.movRI(Reg::EAX, 4);
  P();
  E.intN(0x80);
  S.epilogue();

  // --- read_int: SYS_read into the buffer plus a parse loop. ---------
  BeginFn(ir::Intrinsic::ReadI32);
  P();
  E.movRI(Reg::EBX, 0); // fd = stdin
  P();
  E.movRI(Reg::ECX, ConvBuf);
  P();
  E.movRI(Reg::EDX, 12);
  P();
  E.movRI(Reg::EAX, 3); // SYS_read
  P();
  E.intN(0x80);
  P();
  E.movLoad(Reg::ECX, Mem::abs(ConvBuf));
  P();
  E.movRR(Reg::EAX, Reg::ECX);
  P();
  E.aluRI(AluOp::Sub, Reg::EAX, '0');
  S.epilogue();

  // --- input_len: modeled as an fcntl-style query. --------------------
  BeginFn(ir::Intrinsic::InputLen);
  P();
  E.movRI(Reg::EBX, 0);
  P();
  E.movRI(Reg::ECX, 0);
  P();
  E.movRI(Reg::EAX, 0x36); // SYS_ioctl
  P();
  E.intN(0x80);
  S.epilogue();

  // --- sink: fold the argument into a checksum word. ------------------
  constexpr int32_t SinkWord = static_cast<int32_t>(GlobalsBase) - 0x44;
  BeginFn(ir::Intrinsic::Sink);
  P();
  E.movLoad(Reg::ECX, Mem::base(Reg::EBP, 8));
  P();
  E.movLoad(Reg::EDX, Mem::abs(SinkWord));
  P();
  E.aluRR(AluOp::Xor, Reg::EDX, Reg::ECX);
  P();
  E.movStore(Mem::abs(SinkWord), Reg::EDX);
  S.epilogue();

  // --- memcpy-like helper: the kind of object the linker drags in from
  // libc.a. Word-copy loop with the classic register choreography.
  S.prologue();
  P();
  E.movLoad(Reg::ECX, Mem::base(Reg::EBP, 16)); // count
  P();
  E.movLoad(Reg::EDX, Mem::base(Reg::EBP, 12)); // src
  P();
  E.movLoad(Reg::EBX, Mem::base(Reg::EBP, 8)); // dst (callee-saved abuse)
  size_t CopyLoop = E.offset();
  P();
  E.testRR(Reg::ECX, Reg::ECX);
  size_t CopyDone = E.jccRel(x86::CondCode::E);
  P();
  E.movLoad(Reg::EAX, Mem::base(Reg::EDX, 0));
  P();
  E.movStore(Mem::base(Reg::EBX, 0), Reg::EAX);
  P();
  E.aluRI(AluOp::Add, Reg::EDX, 4);
  P();
  E.aluRI(AluOp::Add, Reg::EBX, 4);
  P();
  E.aluRI(AluOp::Sub, Reg::ECX, 1);
  size_t CopyBack = E.jmpRel();
  E.patchRel32(CopyBack, CopyLoop);
  E.patchRel32(CopyDone, E.offset());
  S.epilogue();

  // --- hash-like helper (strlen/strcmp stand-in): shift/xor loop. -----
  S.prologue();
  P();
  E.movLoad(Reg::EDX, Mem::base(Reg::EBP, 8));
  P();
  E.movRI(Reg::EAX, 0x1505);
  P();
  E.movRI(Reg::ECX, 5);
  size_t HashLoop = E.offset();
  P();
  E.movRR(Reg::EBX, Reg::EAX);
  P();
  E.shiftRCL(ShiftOp::Shl, Reg::EBX);
  P();
  E.aluRR(AluOp::Add, Reg::EBX, Reg::EAX);
  P();
  E.movRR(Reg::EAX, Reg::EBX);
  P();
  E.aluRI(AluOp::Sub, Reg::EDX, 1);
  P();
  E.testRR(Reg::EDX, Reg::EDX);
  size_t HashBack = E.jccRel(x86::CondCode::NE);
  E.patchRel32(HashBack, HashLoop);
  S.epilogue();

  E.finish();
  return Bytes;
}

namespace {

/// The C-runtime stub is a pure constant when DiversifyStub is off (the
/// Rng is never consulted), so every undiversified link in a variant
/// sweep can share one prebuilt copy. Built on first use; the magic
/// static makes concurrent first calls safe.
struct CachedStub {
  std::vector<uint8_t> Bytes;
  std::array<uint32_t, ir::NumIntrinsics> IntrinsicOffsets{};
  uint32_t CallMainField = 0;
};

const CachedStub &plainRuntimeStub() {
  static const CachedStub Stub = [] {
    CachedStub S;
    LinkOptions Plain; // DiversifyStub defaults to false
    S.Bytes = buildRuntimeStub(S.IntrinsicOffsets, S.CallMainField, Plain);
    return S;
  }();
  return Stub;
}

} // namespace

namespace {

/// The layout step every link shares: the C-runtime stub at offset 0,
/// then Scratch.Codes[F] for each function of \p M in module order, each
/// aligned, then the data layout and every relocation.
Image layOut(const mir::MModule &M, const LinkOptions &Opts,
             LinkScratch &Scratch) {
  assert(M.EntryFunction >= 0 && "module has no entry function");
  Image Img;

  uint32_t Align = Opts.FunctionAlignment ? Opts.FunctionAlignment : 1;
  assert((Align & (Align - 1)) == 0 && "alignment must be a power of two");
  auto PadTo = [&](uint32_t Boundary) {
    while (Img.Text.size() % Boundary != 0)
      Img.Text.push_back(0x90); // NOP padding, like a real assembler
  };

  // 1. C-runtime stub at offset 0 (crt*.o + libc objects equivalent).
  uint32_t CallMainField = 0;
  if (!Opts.DiversifyStub) {
    const CachedStub &Stub = plainRuntimeStub();
    Img.Text.insert(Img.Text.end(), Stub.Bytes.begin(), Stub.Bytes.end());
    Img.IntrinsicOffsets = Stub.IntrinsicOffsets;
    CallMainField = Stub.CallMainField;
  } else {
    std::vector<uint8_t> Stub =
        buildRuntimeStub(Img.IntrinsicOffsets, CallMainField, Opts);
    Img.Text.insert(Img.Text.end(), Stub.begin(), Stub.end());
  }
  Img.StubSize = static_cast<uint32_t>(Img.Text.size());
  Img.EntryOffset = 0;

  // 2. Program functions, in module order, from the per-slot buffers,
  // into .text sized once for them and their alignment.
  const std::vector<FunctionCode> &Codes = Scratch.Codes;
  size_t FunctionBytes = 0;
  for (size_t F = 0; F != M.Functions.size(); ++F)
    FunctionBytes += Codes[F].Bytes.size() + Align - 1;
  Img.Text.reserve(Img.Text.size() + FunctionBytes);
  Img.FuncOffsets.resize(M.Functions.size());
  for (size_t F = 0; F != M.Functions.size(); ++F) {
    PadTo(Align);
    Img.FuncOffsets[F] = static_cast<uint32_t>(Img.Text.size());
    Img.Text.insert(Img.Text.end(), Codes[F].Bytes.begin(),
                    Codes[F].Bytes.end());
  }

  // 3. Data layout.
  Img.GlobalAddrs.resize(M.Globals.size());
  uint32_t DataCursor = GlobalsBase;
  for (size_t G = 0; G != M.Globals.size(); ++G) {
    Img.GlobalAddrs[G] = DataCursor;
    DataCursor += (M.Globals[G].SizeBytes + 3u) & ~3u;
  }
  Img.GlobalsEnd = DataCursor;

  // 4. Resolve relocations.
  auto Patch32 = [&](uint32_t Offset, uint32_t Value) {
    assert(Offset + 4 <= Img.Text.size() && "relocation out of range");
    Img.Text[Offset] = static_cast<uint8_t>(Value);
    Img.Text[Offset + 1] = static_cast<uint8_t>(Value >> 8);
    Img.Text[Offset + 2] = static_cast<uint8_t>(Value >> 16);
    Img.Text[Offset + 3] = static_cast<uint8_t>(Value >> 24);
  };
  auto PatchRel32 = [&](uint32_t FieldOffset, uint32_t TargetOffset) {
    Patch32(FieldOffset, TargetOffset - (FieldOffset + 4));
  };

  PatchRel32(CallMainField,
             Img.FuncOffsets[static_cast<size_t>(M.EntryFunction)]);
  for (size_t F = 0; F != M.Functions.size(); ++F) {
    uint32_t Base = Img.FuncOffsets[F];
    for (const Reloc &R : Codes[F].Relocs) {
      uint32_t At = Base + R.Offset;
      switch (R.Kind) {
      case RelocKind::CallFunc:
        PatchRel32(At, Img.FuncOffsets[R.Index]);
        break;
      case RelocKind::CallIntr:
        PatchRel32(At, Img.IntrinsicOffsets[R.Index]);
        break;
      case RelocKind::GlobalAbs:
        Patch32(At, Img.GlobalAddrs[R.Index]);
        break;
      case RelocKind::CounterAbs:
        Patch32(At, CountersBase + 4 * R.Index);
        break;
      }
    }
  }
  return Img;
}

/// One scratch per thread: the batch fan-out links thousands of variants
/// per worker, and every variant of one module has near-identical
/// layout, so recycled buffers hit their high-water capacity after the
/// first link.
LinkScratch &threadScratch() {
  thread_local LinkScratch Scratch;
  return Scratch;
}

} // namespace

Image codegen::link(const mir::MModule &M, const LinkOptions &Opts) {
  return link(M, Opts, threadScratch());
}

Image codegen::link(const mir::MModule &M, const LinkOptions &Opts,
                    LinkScratch &Scratch) {
  if (Scratch.Codes.size() < M.Functions.size())
    Scratch.Codes.resize(M.Functions.size());
  for (size_t F = 0; F != M.Functions.size(); ++F)
    emitFunction(M.Functions[F], Scratch.Codes[F]);
  return layOut(M, Opts, Scratch);
}

Image codegen::linkSpliced(const mir::MModule &Variant,
                           const mir::MModule &Baseline,
                           const std::vector<FunctionCode> &BaseCode,
                           const LinkOptions &Opts) {
  const size_t NumFunctions = Variant.Functions.size();
  if (Baseline.Functions.size() != NumFunctions ||
      BaseCode.size() != NumFunctions)
    return link(Variant, Opts);
  LinkScratch &Scratch = threadScratch();
  if (Scratch.Codes.size() < NumFunctions)
    Scratch.Codes.resize(NumFunctions);
  for (size_t F = 0; F != NumFunctions; ++F)
    if (!spliceFunction(Variant.Functions[F], Baseline.Functions[F],
                        BaseCode[F], Scratch.Codes[F]))
      emitFunction(Variant.Functions[F], Scratch.Codes[F]);
  return layOut(Variant, Opts, Scratch);
}
