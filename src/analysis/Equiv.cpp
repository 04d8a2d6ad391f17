//===-- analysis/Equiv.cpp - Translation validation for variants -----------===//
//
// Part of the PGSD project, a reproduction of "Profile-guided Automated
// Software Diversity" (Homescu et al., CGO 2013).
//
// Implementation notes:
//
//  * Terms are hash-consed in a per-function arena shared by both sides
//    of every block pair, so "same symbolic value" is pointer (index)
//    equality. The arena indexes its term vector with an open-addressing
//    table of ids, so ids stay dense and in insertion order. Entry
//    symbols (RegIn, FlagsIn) mean "at entry of the block currently
//    being compared" on both sides; comparisons never cross block
//    pairs, so reusing them across blocks is sound.
//
//  * Loads carry a memory epoch -- the number of preceding writes,
//    calls, and counter increments in the same block -- so two loads
//    from one address only unify when no write could have intervened.
//    Epochs align across the two sides exactly when the event traces
//    align, which the trace comparison enforces first.
//
//  * The symbolic push stack starts empty at block entry; a pop (or a
//    call argument) reaching below it yields a StackHole symbol with a
//    per-block ordinal. Both sides draw holes in lockstep when their
//    traces align, so a genuine cross-block stack imbalance still shows
//    up as an exit-depth or hole-ordinal mismatch.
//
//  * EFLAGS follow the lazy model of mexec/Interp.h: CMP/TEST build a
//    definition term, anything analysis::flagEffect classifies as
//    Clobbers replaces the term with a per-block clobber ordinal, and
//    Jcc/Setcc consume whatever term is current. An inserted
//    value-preserving clobber (the dynamically invisible MirFault
//    class) therefore refutes at the consuming branch.
//
//===----------------------------------------------------------------------===//

#include "analysis/Equiv.h"

#include "analysis/Analysis.h"
#include "obs/Metrics.h"

#include <array>
#include <bit>
#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <optional>
#include <vector>

using namespace pgsd;
using namespace pgsd::analysis;
using mir::MBasicBlock;
using mir::MFunction;
using mir::MInstr;
using mir::MModule;
using mir::MOp;
using x86::Reg;

namespace {

std::string format(const char *Fmt, ...)
    __attribute__((format(printf, 1, 2)));

std::string format(const char *Fmt, ...) {
  char Buf[512];
  va_list Ap;
  va_start(Ap, Fmt);
  std::vsnprintf(Buf, sizeof(Buf), Fmt, Ap);
  va_end(Ap);
  return Buf;
}

//===----------------------------------------------------------------------===//
// Term arena
//===----------------------------------------------------------------------===//

/// Symbolic value and flag-state constructors.
enum class TK : uint8_t {
  RegIn,        ///< Sub = register; value at block entry.
  Const,        ///< Imm.
  GlobalAddr,   ///< Imm = global index.
  FrameAddr,    ///< Imm = EBP displacement (lea).
  Alu,          ///< Sub = x86::AluOp; X op Y.
  Imul,         ///< X * Y.
  Shift,        ///< Sub = x86::ShiftOp; X by Y.
  Neg,          ///< -X.
  Not,          ///< ~X.
  CdqHigh,      ///< Sign-bit fill of X (EDX after cdq).
  Movzx,        ///< Zero-extended low byte of X.
  SetccV,       ///< Sub = x86::CondCode; 0/1 from flags term X.
  Load,         ///< mem[X + Imm] at epoch Y.
  FrameLoad,    ///< frame[Imm] at epoch Y.
  CallVal,      ///< Sub = 0 eax / 1 ecx / 2 edx after call event Imm.
  DivQuot,      ///< Quotient of div event Imm.
  DivRem,       ///< Remainder of div event Imm.
  StackHole,    ///< Imm = ordinal; value popped from below block entry.
  FlagsIn,      ///< EFLAGS at block entry.
  FlagsCmp,     ///< Sub = 0 cmp / 1 test; operands X, Y.
  FlagsClobber, ///< Imm = per-block clobber ordinal.
};

struct Term {
  TK Kind = TK::Const;
  uint8_t Sub = 0;
  int32_t Imm = 0;
  uint32_t X = 0;
  uint32_t Y = 0;

  bool operator==(const Term &O) const {
    return Kind == O.Kind && Sub == O.Sub && Imm == O.Imm && X == O.X &&
           Y == O.Y;
  }
};

/// Mixes every field of \p T into 64 bits (a MurmurHash3 finalizer
/// over the packed fields), so the low bits index a power-of-two table.
uint64_t hashTerm(const Term &T) {
  uint64_t H = static_cast<uint64_t>(T.Kind) |
               (static_cast<uint64_t>(T.Sub) << 8) |
               (static_cast<uint64_t>(static_cast<uint32_t>(T.Imm)) << 32);
  H ^= std::rotl(((static_cast<uint64_t>(T.Y) << 32) | T.X) *
                     0x9E3779B97F4A7C15ull,
                 31);
  H ^= H >> 33;
  H *= 0xFF51AFD7ED558CCDull;
  H ^= H >> 33;
  H *= 0xC4CEB9FE1A85EC53ull;
  H ^= H >> 33;
  return H;
}

/// Hash-consing arena: intern() returns a stable id; identical terms
/// get identical ids, so symbolic equality is id equality. Ids are
/// dense and in insertion order. The index is an open-addressing table
/// (linear probing, at most half full) of id + 1 over Terms, 0 marking
/// an empty slot.
class Arena {
public:
  /// The floor keeps the entry symbols (8 registers + flags) internable
  /// even under an absurdly small test-provided cap.
  explicit Arena(uint32_t CapIn)
      : Cap(CapIn < 64 ? 64 : CapIn), Slots(InitialSlots, 0) {}

  uint32_t intern(const Term &T) {
    size_t Mask = Slots.size() - 1;
    size_t H = static_cast<size_t>(hashTerm(T)) & Mask;
    for (; Slots[H] != 0; H = (H + 1) & Mask)
      if (Terms[Slots[H] - 1] == T)
        return Slots[H] - 1;
    if (Terms.size() >= Cap) {
      Overflowed = true;
      return 0; // id 0 stays valid; the caller checks overflowed()
    }
    uint32_t Id = static_cast<uint32_t>(Terms.size());
    Terms.push_back(T);
    Slots[H] = Id + 1;
    if (2 * Terms.size() > Slots.size())
      grow();
    return Id;
  }

  const Term &operator[](uint32_t Id) const { return Terms[Id]; }
  bool overflowed() const { return Overflowed; }

private:
  static constexpr size_t InitialSlots = 256;

  /// Doubles the table and re-inserts every id in order.
  void grow() {
    std::vector<uint32_t> Next(2 * Slots.size(), 0);
    size_t Mask = Next.size() - 1;
    for (uint32_t Id = 0; Id != Terms.size(); ++Id) {
      size_t H = static_cast<size_t>(hashTerm(Terms[Id])) & Mask;
      while (Next[H] != 0)
        H = (H + 1) & Mask;
      Next[H] = Id + 1;
    }
    Slots = std::move(Next);
  }

  uint32_t Cap;
  bool Overflowed = false;
  std::vector<Term> Terms;
  std::vector<uint32_t> Slots;
};

const char *aluStr(x86::AluOp Op) {
  switch (Op) {
  case x86::AluOp::Add:
    return "add";
  case x86::AluOp::Or:
    return "or";
  case x86::AluOp::Adc:
    return "adc";
  case x86::AluOp::Sbb:
    return "sbb";
  case x86::AluOp::And:
    return "and";
  case x86::AluOp::Sub:
    return "sub";
  case x86::AluOp::Xor:
    return "xor";
  case x86::AluOp::Cmp:
    return "cmp";
  }
  return "<bad>";
}

const char *shiftStr(x86::ShiftOp Op) {
  switch (Op) {
  case x86::ShiftOp::Shl:
    return "shl";
  case x86::ShiftOp::Shr:
    return "shr";
  case x86::ShiftOp::Sar:
    return "sar";
  }
  return "<bad>";
}

/// Renders term \p Id to bounded depth for counterexample messages;
/// operands beyond the depth cap render as "..".
std::string termStr(const Arena &A, uint32_t Id, unsigned Depth = 3) {
  if (Depth == 0)
    return "..";
  const Term &T = A[Id];
  auto Op = [&](uint32_t X) { return termStr(A, X, Depth - 1); };
  switch (T.Kind) {
  case TK::RegIn:
    return format("%s@entry", x86::regName(static_cast<Reg>(T.Sub)));
  case TK::Const:
    return format("%d", T.Imm);
  case TK::GlobalAddr:
    return format("&global#%d", T.Imm);
  case TK::FrameAddr:
    return format("&[ebp%+d]", T.Imm);
  case TK::Alu:
    return format("%s(%s, %s)", aluStr(static_cast<x86::AluOp>(T.Sub)),
                  Op(T.X).c_str(), Op(T.Y).c_str());
  case TK::Imul:
    return format("imul(%s, %s)", Op(T.X).c_str(), Op(T.Y).c_str());
  case TK::Shift:
    return format("%s(%s, %s)", shiftStr(static_cast<x86::ShiftOp>(T.Sub)),
                  Op(T.X).c_str(), Op(T.Y).c_str());
  case TK::Neg:
    return format("neg(%s)", Op(T.X).c_str());
  case TK::Not:
    return format("not(%s)", Op(T.X).c_str());
  case TK::CdqHigh:
    return format("sext_hi(%s)", Op(T.X).c_str());
  case TK::Movzx:
    return format("zext8(%s)", Op(T.X).c_str());
  case TK::SetccV:
    return format("set%s(%s)",
                  x86::condName(static_cast<x86::CondCode>(T.Sub)),
                  Op(T.X).c_str());
  case TK::Load:
    return format("mem[%s%+d]@%u", Op(T.X).c_str(), T.Imm, T.Y);
  case TK::FrameLoad:
    return format("frame[%+d]@%u", T.Imm, T.Y);
  case TK::CallVal:
    return format("call#%d.%s", T.Imm,
                  T.Sub == 0 ? "eax" : (T.Sub == 1 ? "ecx" : "edx"));
  case TK::DivQuot:
    return format("div#%d.q", T.Imm);
  case TK::DivRem:
    return format("div#%d.r", T.Imm);
  case TK::StackHole:
    return format("stack?#%d", T.Imm);
  case TK::FlagsIn:
    return "flags@entry";
  case TK::FlagsCmp:
    return format("flags(%s %s, %s)", T.Sub == 0 ? "cmp" : "test",
                  Op(T.X).c_str(), Op(T.Y).c_str());
  case TK::FlagsClobber:
    return format("flags(clobbered#%d)", T.Imm);
  }
  return "<bad>";
}

//===----------------------------------------------------------------------===//
// Event trace
//===----------------------------------------------------------------------===//

/// One observable (or ordering-relevant) effect of a block: memory
/// accesses, calls, counter increments, and potentially trapping
/// divisions, in program order. NOP insertion and block shifting add,
/// remove, and reorder none of these, so the prover requires the two
/// traces to match position by position.
struct Event {
  enum class K : uint8_t {
    Load,       ///< A = base term, Disp.
    Store,      ///< A = base term, Disp, B = value.
    FrameLoad,  ///< Disp.
    FrameStore, ///< Disp, B = value.
    Call,       ///< Target + Args (top of stack first).
    Div,        ///< A = divisor, B = dividend low, C = dividend high.
    ProfInc,    ///< Disp = counter id.
  };
  K Kind = K::Load;
  uint32_t A = 0, B = 0, C = 0;
  int32_t Disp = 0;
  bool IsIntrinsic = false;
  uint32_t Func = 0;
  uint8_t Intr = 0;
  std::vector<uint32_t> Args;
  uint32_t SrcInstr = 0; ///< Provenance (not compared).

  bool sameAs(const Event &O) const {
    return Kind == O.Kind && A == O.A && B == O.B && C == O.C &&
           Disp == O.Disp && IsIntrinsic == O.IsIntrinsic &&
           Func == O.Func && Intr == O.Intr && Args == O.Args;
  }
};

std::string eventStr(const Arena &A, const Event &E) {
  switch (E.Kind) {
  case Event::K::Load:
    return format("load [%s%+d]", termStr(A, E.A, 2).c_str(), E.Disp);
  case Event::K::Store:
    return format("store [%s%+d] = %s", termStr(A, E.A, 2).c_str(),
                  E.Disp, termStr(A, E.B, 2).c_str());
  case Event::K::FrameLoad:
    return format("load [ebp%+d]", E.Disp);
  case Event::K::FrameStore:
    return format("store [ebp%+d] = %s", E.Disp,
                  termStr(A, E.B, 2).c_str());
  case Event::K::Call: {
    std::string Out = "call ";
    Out += E.IsIntrinsic
               ? ir::intrinsicName(static_cast<ir::Intrinsic>(E.Intr))
               : format("func#%u", E.Func).c_str();
    Out += "(";
    for (size_t I = 0; I != E.Args.size(); ++I) {
      if (I)
        Out += ", ";
      Out += termStr(A, E.Args[I], 2);
    }
    Out += ")";
    return Out;
  }
  case Event::K::Div:
    return format("idiv %s (edx:eax = %s:%s)", termStr(A, E.A, 2).c_str(),
                  termStr(A, E.C, 2).c_str(), termStr(A, E.B, 2).c_str());
  case Event::K::ProfInc:
    return format("counter#%d += 1", E.Disp);
  }
  return "<bad>";
}

//===----------------------------------------------------------------------===//
// Symbolic block execution
//===----------------------------------------------------------------------===//

/// Exit state of one symbolically executed block.
struct BlockExec {
  std::array<uint32_t, x86::NumRegs> Regs{};
  uint32_t Flags = 0;
  std::vector<uint32_t> Stack; ///< Symbolic push stack (top = back).
  std::vector<Event> Events;

  struct CondBr {
    uint8_t CC = 0;
    uint32_t Cond = 0;    ///< Flags term at the branch.
    int32_t Target = 0;   ///< Raw (unshifted) block id.
    uint32_t SrcInstr = 0;
  };
  std::vector<CondBr> Branches;

  /// Reads of ECX/EDX while they hold a call-clobbered value. Under
  /// real cdecl those registers are garbage after a call, so any
  /// dependence on them -- even a dead one -- cannot be proven
  /// equivalent; the traces must match read for read.
  struct PoisonRead {
    uint8_t RegNum = 0;
    uint32_t SrcInstr = 0;
    bool operator==(const PoisonRead &O) const {
      return RegNum == O.RegNum;
    }
  };
  std::vector<PoisonRead> PoisonReads;

  enum class Exit : uint8_t { Fallthrough, Jump, Ret };
  Exit ExitKind = Exit::Fallthrough;
  int32_t JumpTarget = 0;
  uint32_t JumpInstr = 0;

  bool Malformed = false; ///< Non-NOP instruction after the terminator.
  uint32_t MalformedInstr = 0;
  bool BadTarget = false; ///< Branch target outside the function.
  uint32_t BadTargetInstr = 0;
  int32_t BadTargetVal = 0;
};

/// Symbolically executes \p BB over \p A. \p M resolves call-target
/// argument counts; \p NumBlocks bounds branch targets. When
/// \p HoldsAtEntry is non-null, physical register R starts the block
/// holding the entry symbol of register (*HoldsAtEntry)[R] -- the
/// inverse of a callee-saved renaming, so a renamed variant's pi(r)
/// carries baseline r's entry value through the comparison.
BlockExec execBlock(const MModule &M, const MBasicBlock &BB,
                    size_t NumBlocks, Arena &A,
                    const std::array<uint8_t, x86::NumRegs>
                        *HoldsAtEntry = nullptr) {
  BlockExec S;
  for (unsigned R = 0; R != x86::NumRegs; ++R)
    S.Regs[R] = A.intern(
        {TK::RegIn,
         HoldsAtEntry ? (*HoldsAtEntry)[R] : static_cast<uint8_t>(R), 0,
         0, 0});
  S.Flags = A.intern({TK::FlagsIn, 0, 0, 0, 0});

  uint32_t Epoch = 0;      ///< Writes + calls + counter bumps so far.
  int32_t ClobberOrd = 0;  ///< Flag clobbers so far.
  int32_t HoleOrd = 0;     ///< Stack holes drawn so far.

  auto Reg_ = [&](Reg R) -> uint32_t & {
    return S.Regs[x86::regNum(R)];
  };
  auto Clobber = [&]() {
    S.Flags = A.intern({TK::FlagsClobber, 0, ClobberOrd++, 0, 0});
  };
  auto Hole = [&]() {
    return A.intern({TK::StackHole, 0, HoleOrd++, 0, 0});
  };
  auto Pop = [&]() {
    if (S.Stack.empty())
      return Hole();
    uint32_t T = S.Stack.back();
    S.Stack.pop_back();
    return T;
  };
  auto CheckTarget = [&](int32_t Target, uint32_t K) {
    if (Target >= 0 && static_cast<size_t>(Target) < NumBlocks)
      return true;
    if (!S.BadTarget) {
      S.BadTarget = true;
      S.BadTargetInstr = K;
      S.BadTargetVal = Target;
    }
    return false;
  };

  for (uint32_t K = 0; K != BB.Instrs.size(); ++K) {
    const MInstr &I = BB.Instrs[K];
    if (isInsertedNop(I))
      continue; // NOP normalization: provably effect-free (Table 1).
    if (S.ExitKind != BlockExec::Exit::Fallthrough) {
      // Control already left the block; anything after the terminator
      // can never be equivalent to a baseline that lacks it.
      if (!S.Malformed) {
        S.Malformed = true;
        S.MalformedInstr = K;
      }
      break;
    }
    // CallVal terms for ECX/EDX stand for garbage on real hardware (the
    // interpreter models them deterministically, which is exactly why
    // this class of defect is dynamically invisible); record every read
    // of one so the comparison can demand the dependence traces match.
    // The read mask finds such a read; the ordered visitor records it.
    auto Poisoned = [&](unsigned Rn) {
      const Term &T = A[S.Regs[Rn]];
      return T.Kind == TK::CallVal && T.Sub != 0;
    };
    bool ReadsPoison = false;
    for (unsigned Rd = mir::readRegs(I); Rd != 0 && !ReadsPoison;
         Rd &= Rd - 1)
      ReadsPoison = Poisoned(static_cast<unsigned>(std::countr_zero(Rd)));
    if (ReadsPoison)
      forEachReadReg(I, [&](Reg R) {
        if (Poisoned(x86::regNum(R)))
          S.PoisonReads.push_back({x86::regNum(R), K});
      });
    switch (I.Op) {
    case MOp::MovRR:
      Reg_(I.Dst) = Reg_(I.Src);
      break;
    case MOp::MovRI:
      Reg_(I.Dst) = A.intern({TK::Const, 0, I.Imm, 0, 0});
      break;
    case MOp::MovGlobal:
      Reg_(I.Dst) = A.intern({TK::GlobalAddr, 0, I.Imm, 0, 0});
      break;
    case MOp::Load: {
      uint32_t Base = Reg_(I.Src);
      S.Events.push_back(
          {Event::K::Load, Base, 0, 0, I.Imm, false, 0, 0, {}, K});
      Reg_(I.Dst) = A.intern({TK::Load, 0, I.Imm, Base, Epoch});
      break;
    }
    case MOp::Store:
      S.Events.push_back({Event::K::Store, Reg_(I.Dst), Reg_(I.Src), 0,
                          I.Imm, false, 0, 0, {}, K});
      ++Epoch;
      break;
    case MOp::LoadFrame:
      S.Events.push_back(
          {Event::K::FrameLoad, 0, 0, 0, I.Imm, false, 0, 0, {}, K});
      Reg_(I.Dst) = A.intern({TK::FrameLoad, 0, I.Imm, 0, Epoch});
      break;
    case MOp::StoreFrame:
      S.Events.push_back({Event::K::FrameStore, 0, Reg_(I.Src), 0, I.Imm,
                          false, 0, 0, {}, K});
      ++Epoch;
      break;
    case MOp::LeaFrame:
      Reg_(I.Dst) = A.intern({TK::FrameAddr, 0, I.Imm, 0, 0});
      break;
    case MOp::AluRR:
    case MOp::AluRI: {
      uint32_t Rhs = I.Op == MOp::AluRR
                         ? Reg_(I.Src)
                         : A.intern({TK::Const, 0, I.Imm, 0, 0});
      if (I.Alu == x86::AluOp::Cmp) {
        S.Flags = A.intern({TK::FlagsCmp, 0, 0, Reg_(I.Dst), Rhs});
      } else {
        Reg_(I.Dst) = A.intern({TK::Alu, static_cast<uint8_t>(I.Alu), 0,
                                Reg_(I.Dst), Rhs});
        Clobber();
      }
      break;
    }
    case MOp::ImulRR:
      Reg_(I.Dst) = A.intern({TK::Imul, 0, 0, Reg_(I.Dst), Reg_(I.Src)});
      Clobber();
      break;
    case MOp::Cdq:
      Reg_(Reg::EDX) = A.intern({TK::CdqHigh, 0, 0, Reg_(Reg::EAX), 0});
      break;
    case MOp::Idiv: {
      int32_t Ev = static_cast<int32_t>(S.Events.size());
      S.Events.push_back({Event::K::Div, Reg_(I.Src), Reg_(Reg::EAX),
                          Reg_(Reg::EDX), 0, false, 0, 0, {}, K});
      Reg_(Reg::EAX) = A.intern({TK::DivQuot, 0, Ev, 0, 0});
      Reg_(Reg::EDX) = A.intern({TK::DivRem, 0, Ev, 0, 0});
      Clobber();
      break;
    }
    case MOp::Neg:
      Reg_(I.Dst) = A.intern({TK::Neg, 0, 0, Reg_(I.Dst), 0});
      Clobber();
      break;
    case MOp::Not: // preserves EFLAGS on IA-32
      Reg_(I.Dst) = A.intern({TK::Not, 0, 0, Reg_(I.Dst), 0});
      break;
    case MOp::ShiftRI:
      Reg_(I.Dst) =
          A.intern({TK::Shift, static_cast<uint8_t>(I.Shift), 0,
                    Reg_(I.Dst), A.intern({TK::Const, 0, I.Imm, 0, 0})});
      Clobber();
      break;
    case MOp::ShiftRC:
      Reg_(I.Dst) = A.intern({TK::Shift, static_cast<uint8_t>(I.Shift), 0,
                              Reg_(I.Dst), Reg_(Reg::ECX)});
      Clobber();
      break;
    case MOp::TestRR:
      S.Flags = A.intern({TK::FlagsCmp, 1, 0, Reg_(I.Dst), Reg_(I.Src)});
      break;
    case MOp::Setcc:
      Reg_(I.Dst) = A.intern(
          {TK::SetccV, static_cast<uint8_t>(I.CC), 0, S.Flags, 0});
      break;
    case MOp::Movzx8:
      Reg_(I.Dst) = A.intern({TK::Movzx, 0, 0, Reg_(I.Src), 0});
      break;
    case MOp::Push:
      S.Stack.push_back(Reg_(I.Src));
      break;
    case MOp::PushI:
      S.Stack.push_back(A.intern({TK::Const, 0, I.Imm, 0, 0}));
      break;
    case MOp::Pop:
      Reg_(I.Dst) = Pop();
      break;
    case MOp::AdjustSP: {
      // Argument cleanup (add esp, imm): discards imm/4 pushed words.
      // A negative adjustment opens fresh unnamed slots.
      int32_t Words = I.Imm / 4;
      for (; Words > 0; --Words)
        (void)Pop();
      for (; Words < 0; ++Words)
        S.Stack.push_back(Hole());
      Clobber();
      break;
    }
    case MOp::Call: {
      Event E;
      E.Kind = Event::K::Call;
      E.IsIntrinsic = I.Target.IsIntrinsic;
      E.Func = I.Target.Func;
      E.Intr = static_cast<uint8_t>(I.Target.Intr);
      E.SrcInstr = K;
      // cdecl: arguments sit on the stack, first argument on top; the
      // caller cleans up afterwards, so the stack is read, not popped.
      unsigned Words = calleeArgWords(M, I.Target);
      for (unsigned W = 0; W != Words; ++W)
        E.Args.push_back(W < S.Stack.size()
                             ? S.Stack[S.Stack.size() - 1 - W]
                             : Hole());
      int32_t Ev = static_cast<int32_t>(S.Events.size());
      S.Events.push_back(std::move(E));
      ++Epoch; // the callee may write any memory
      Reg_(Reg::EAX) = A.intern({TK::CallVal, 0, Ev, 0, 0});
      Reg_(Reg::ECX) = A.intern({TK::CallVal, 1, Ev, 0, 0});
      Reg_(Reg::EDX) = A.intern({TK::CallVal, 2, Ev, 0, 0});
      Clobber();
      break;
    }
    case MOp::Jmp:
      CheckTarget(I.Imm, K);
      S.ExitKind = BlockExec::Exit::Jump;
      S.JumpTarget = I.Imm;
      S.JumpInstr = K;
      break;
    case MOp::Jcc:
      CheckTarget(I.Imm, K);
      S.Branches.push_back(
          {static_cast<uint8_t>(I.CC), S.Flags, I.Imm, K});
      break;
    case MOp::Ret:
      S.ExitKind = BlockExec::Exit::Ret;
      S.JumpInstr = K;
      break;
    case MOp::ProfInc:
      S.Events.push_back(
          {Event::K::ProfInc, 0, 0, 0, I.Imm, false, 0, 0, {}, K});
      ++Epoch;
      Clobber();
      break;
    case MOp::Nop:
      break; // unreachable: isInsertedNop skipped it
    }
  }
  return S;
}

//===----------------------------------------------------------------------===//
// Function comparison
//===----------------------------------------------------------------------===//

enum class Verdict : uint8_t { Proved, Refuted, Aborted };

/// True when blocks 0 and 1 of \p VF are the block-shift prelude
/// insertBlockShift produces, *proven* effect-free by symbolic
/// execution: no events, no conditional branches, every register and
/// the flags term untouched, stack empty, unconditional jump to block
/// 2. Structural recognition alone would trust the pad; this executes
/// it.
bool provenShiftPrelude(const MModule &VM, const MFunction &VF,
                        Arena &A) {
  for (uint32_t B = 0; B != 2; ++B) {
    BlockExec E = execBlock(VM, VF.Blocks[B], VF.Blocks.size(), A);
    if (E.Malformed || E.BadTarget || !E.Events.empty() ||
        !E.Branches.empty() || !E.Stack.empty())
      return false;
    if (E.ExitKind != BlockExec::Exit::Jump || E.JumpTarget != 2)
      return false;
    for (unsigned R = 0; R != x86::NumRegs; ++R)
      if (A[E.Regs[R]].Kind != TK::RegIn || A[E.Regs[R]].Sub != R)
        return false;
    if (A[E.Flags].Kind != TK::FlagsIn)
      return false;
  }
  return true;
}

/// Module-level preconditions shared by every function comparison of
/// one proveEquivalent call: the caller's facts, and whatever the
/// prover had to compute itself (at most once per module).
struct ModuleContext {
  const MModule &BM;
  const MModule &VM;
  EquivFacts Facts;
  EquivStats &Stats;

  /// Non-identity callee-saved renamings are only sound when neither
  /// module reads EBX/ESI/EDI before defining them (RegLiveness): the
  /// renamed registers' entry values are then provably dead, so
  /// "variant pi(r) plays baseline r's role" holds from function entry
  /// even though the caller loaded different values into them.
  bool livenessOk() {
    auto Verdict = [](std::optional<bool> &Known, const MModule &M) {
      if (!Known)
        Known = analyzeModule(
                    M, AnalysisOptions::only(CheckerKind::RegLiveness))
                    .ok();
      return *Known;
    };
    return Verdict(Facts.BaselineLiveness, BM) &&
           Verdict(Facts.VariantLiveness, VM);
  }
};

/// Compares every corresponding block pair of \p BF / \p VF under the
/// callee-saved renaming \p Pi (variant register Pi[r] plays baseline
/// r's role; caller-saved registers are always fixed points). On
/// refutation or abort, appends exactly one diagnostic to \p R.
Verdict compareBlocks(const MModule &BM, const MFunction &BF,
                      const MModule &VM, const MFunction &VF,
                      const EquivOptions &Opts, uint32_t Shift,
                      const std::array<uint8_t, x86::NumRegs> &Pi,
                      verify::Report &R) {
  using verify::ErrorCode;
  auto Refute = [&](std::string Context) {
    R.add(ErrorCode::EquivRefuted, std::move(Context));
    return Verdict::Refuted;
  };

  // Inverse renaming: which baseline register's entry value each
  // variant physical register carries.
  std::array<uint8_t, x86::NumRegs> InvPi;
  for (unsigned Rn = 0; Rn != x86::NumRegs; ++Rn)
    InvPi[Pi[Rn]] = static_cast<uint8_t>(Rn);

  Arena A(Opts.MaxTermsPerFunction);

  for (uint32_t BI = 0; BI != BF.Blocks.size(); ++BI) {
    uint32_t VI = BI + Shift;
    BlockExec EB = execBlock(BM, BF.Blocks[BI], BF.Blocks.size(), A);
    BlockExec EV =
        execBlock(VM, VF.Blocks[VI], VF.Blocks.size(), A, &InvPi);
    if (A.overflowed()) {
      R.add(ErrorCode::EquivAborted,
            format("%s: mbb%u: term budget exhausted; no verdict",
                   BF.Name.c_str(), VI));
      return Verdict::Aborted;
    }
    // A malformed *baseline* is a pipeline bug, not a variant defect:
    // no verdict.
    if (EB.Malformed || EB.BadTarget) {
      R.add(ErrorCode::EquivAborted,
            format("%s: baseline mbb%u is malformed; no verdict",
                   BF.Name.c_str(), BI));
      return Verdict::Aborted;
    }
    if (EV.Malformed)
      return Refute(
          instrLocation(VF, VI, EV.MalformedInstr) +
          ": effectful instruction after the block terminator");
    if (EV.BadTarget)
      return Refute(instrLocation(VF, VI, EV.BadTargetInstr) +
                    format(": branch target mbb%d out of range "
                           "(function has %zu blocks)",
                           EV.BadTargetVal, VF.Blocks.size()));

    // Location prefix for block-level (no single instruction) findings.
    std::string BlockLoc =
        Shift ? format("%s: mbb%u (baseline mbb%u)", BF.Name.c_str(), VI,
                       BI)
              : format("%s: mbb%u", BF.Name.c_str(), VI);

    // 1. The effect traces, position by position; the first mismatch is
    // the counterexample. One relaxation for schedule randomization:
    // loads have no side effect and carry no epoch of their own, so a
    // maximal run of read events (the reads between two consecutive
    // barriers) matches as a multiset -- same length, same elements,
    // any order. Everything else stays strictly positional, keeping
    // write/call/div ordering intact.
    size_t Common = std::min(EB.Events.size(), EV.Events.size());
    auto IsRead = [](const Event &Ev) {
      return Ev.Kind == Event::K::Load || Ev.Kind == Event::K::FrameLoad;
    };
    for (size_t E = 0; E != Common;) {
      if (EB.Events[E].sameAs(EV.Events[E])) {
        ++E;
        continue;
      }
      size_t RB = E, RV = E;
      while (RB != EB.Events.size() && IsRead(EB.Events[RB]))
        ++RB;
      while (RV != EV.Events.size() && IsRead(EV.Events[RV]))
        ++RV;
      bool RunsMatch = RB != E && RB - E == RV - E;
      if (RunsMatch) {
        std::vector<bool> Used(RB - E, false);
        for (size_t V = E; V != RV && RunsMatch; ++V) {
          RunsMatch = false;
          for (size_t B = E; B != RB; ++B)
            if (!Used[B - E] && EV.Events[V].sameAs(EB.Events[B])) {
              Used[B - E] = true;
              RunsMatch = true;
              break;
            }
        }
      }
      if (RunsMatch) {
        E = RB;
        continue;
      }
      return Refute(
          instrLocation(VF, VI, EV.Events[E].SrcInstr) +
          format(": effect #%zu differs from baseline: ", E) +
          eventStr(A, EV.Events[E]) + " vs " +
          eventStr(A, EB.Events[E]));
    }
    if (EV.Events.size() > EB.Events.size()) {
      const Event &E = EV.Events[Common];
      return Refute(instrLocation(VF, VI, E.SrcInstr) +
                    format(": extra effect #%zu not in baseline: ",
                           Common) +
                    eventStr(A, E));
    }
    if (EB.Events.size() > EV.Events.size()) {
      const Event &E = EB.Events[Common];
      return Refute(BlockLoc +
                    format(": baseline effect #%zu missing: ", Common) +
                    eventStr(A, E) + " ('" +
                    mir::printInstr(BF.Blocks[BI].Instrs[E.SrcInstr]) +
                    "' at baseline mbb" + format("%u #%u", BI,
                                                 E.SrcInstr) +
                    ")");
    }

    // 2. Call-clobbered register dependences: ECX/EDX after a call are
    // arbitrary under real cdecl, so the two sides must read them (or
    // not) in lockstep; an extra read is unprovable even when the value
    // dies immediately.
    if (EB.PoisonReads != EV.PoisonReads) {
      if (EV.PoisonReads.size() > EB.PoisonReads.size()) {
        const BlockExec::PoisonRead &Pr =
            EV.PoisonReads[EB.PoisonReads.size()];
        return Refute(
            instrLocation(VF, VI, Pr.SrcInstr) +
            format(": reads caller-saved %s while it holds a "
                   "call-clobbered value; no matching read in baseline",
                   x86::regName(static_cast<Reg>(Pr.RegNum))));
      }
      return Refute(BlockLoc +
                    ": call-clobbered register dependences differ from "
                    "baseline");
    }

    // 3. Conditional branches: same count, same condition code, same
    // symbolic flags term, and targets equal modulo the layout shift.
    if (EB.Branches.size() != EV.Branches.size())
      return Refute(BlockLoc +
                    format(": %zu conditional branches vs baseline's %zu",
                           EV.Branches.size(), EB.Branches.size()));
    for (size_t J = 0; J != EB.Branches.size(); ++J) {
      const BlockExec::CondBr &BBr = EB.Branches[J];
      const BlockExec::CondBr &VBr = EV.Branches[J];
      std::string Loc = instrLocation(VF, VI, VBr.SrcInstr);
      if (BBr.CC != VBr.CC)
        return Refute(Loc + format(": condition code differs from "
                                   "baseline 'j%s'",
                                   x86::condName(static_cast<x86::CondCode>(
                                       BBr.CC))));
      if (BBr.Cond != VBr.Cond)
        return Refute(Loc + ": branch condition differs from baseline: " +
                      termStr(A, VBr.Cond) + " vs " +
                      termStr(A, BBr.Cond));
      if (VBr.Target - static_cast<int32_t>(Shift) != BBr.Target)
        return Refute(Loc +
                      format(": branch target mbb%d does not map to "
                             "baseline target mbb%d under layout shift "
                             "%u",
                             VBr.Target, BBr.Target, Shift));
    }

    // 4. The terminator.
    if (EB.ExitKind != EV.ExitKind) {
      auto Name = [](BlockExec::Exit E) {
        switch (E) {
        case BlockExec::Exit::Fallthrough:
          return "fallthrough";
        case BlockExec::Exit::Jump:
          return "jump";
        case BlockExec::Exit::Ret:
          return "return";
        }
        return "<bad>";
      };
      return Refute(BlockLoc +
                    format(": block exit differs from baseline (%s vs "
                           "%s)",
                           Name(EV.ExitKind), Name(EB.ExitKind)));
    }
    if (EB.ExitKind == BlockExec::Exit::Jump &&
        EV.JumpTarget - static_cast<int32_t>(Shift) != EB.JumpTarget)
      return Refute(instrLocation(VF, VI, EV.JumpInstr) +
                    format(": jump target mbb%d does not map to baseline "
                           "target mbb%d under layout shift %u",
                           EV.JumpTarget, EB.JumpTarget, Shift));

    // 5. Exit register environment: all eight, conservatively -- a
    // value dead at block exit still refutes, which over-rejects only
    // modules no PGSD transform produces. Variant Pi[Rn] plays
    // baseline Rn's role.
    for (unsigned Rn = 0; Rn != x86::NumRegs; ++Rn)
      if (EB.Regs[Rn] != EV.Regs[Pi[Rn]])
        return Refute(BlockLoc +
                      format(": register %s exits the block as ",
                             x86::regName(static_cast<Reg>(Rn))) +
                      termStr(A, EV.Regs[Pi[Rn]]) + "; baseline has " +
                      termStr(A, EB.Regs[Rn]));

    // 6. Exit stack: depth and contents.
    if (EB.Stack != EV.Stack)
      return Refute(BlockLoc +
                    format(": block exits with %zu words pushed; "
                           "baseline has %zu",
                           EV.Stack.size(), EB.Stack.size()));

    // 7. Exit flags term (EFLAGS may be consumed by a later block).
    if (EB.Flags != EV.Flags)
      return Refute(BlockLoc +
                    ": EFLAGS exit state differs from baseline: " +
                    termStr(A, EV.Flags) + " vs " +
                    termStr(A, EB.Flags));
  }
  return Verdict::Proved;
}

/// Compares one function pair; on refutation or abort, appends exactly
/// one diagnostic to \p R and returns. \p BM / \p VM are the enclosing
/// modules (call-target argument counts). \p Witness is the untrusted
/// CalleeSavedRenamings row register shuffling claims it applied, or
/// any value >= NumCalleeSavedRenamings for none.
///
/// The verdict is a function of the candidates' outcomes in canonical
/// order, whatever order they are tried in: Proved when any candidate
/// proves; otherwise Aborted with the first canonical candidate that
/// ran out of terms; otherwise Refuted with the first canonical
/// candidate's counterexample. So the witness is tried first and, when
/// it proves, is the only candidate run; the rest follow in canonical
/// order, skipping it.
Verdict compareFunction(const MModule &BM, const MFunction &BF,
                        const MModule &VM, const MFunction &VF,
                        const EquivOptions &Opts, ModuleContext &Ctx,
                        unsigned Witness, verify::Report &R) {
  using verify::ErrorCode;
  auto Refute = [&](std::string Context) {
    R.add(ErrorCode::EquivRefuted, std::move(Context));
    return Verdict::Refuted;
  };

  // Prologue and epilogue are emitted from function metadata, so
  // metadata equality is the symbolic equality of those implicit
  // instruction sequences (frame allocation, callee-saved saves).
  if (BF.Name != VF.Name || BF.NumParams != VF.NumParams)
    return Refute(format("%s: function signature differs from baseline "
                         "(%s/%u params vs %s/%u params)",
                         BF.Name.c_str(), VF.Name.c_str(), VF.NumParams,
                         BF.Name.c_str(), BF.NumParams));
  if (BF.FrameBytes != VF.FrameBytes ||
      BF.ValueSlotsLowDisp != VF.ValueSlotsLowDisp)
    return Refute(format("%s: frame layout differs from baseline "
                         "(%u bytes, low disp %d vs %u bytes, low disp "
                         "%d)",
                         BF.Name.c_str(), VF.FrameBytes,
                         VF.ValueSlotsLowDisp, BF.FrameBytes,
                         BF.ValueSlotsLowDisp));

  // Block correspondence under the layout permutation: identity, or a
  // proven two-block shift prelude mapping baseline i to variant i+2.
  // The prelude touches no registers, so recognition is independent of
  // any callee-saved renaming.
  uint32_t Shift = 0;
  if (VF.Blocks.size() == BF.Blocks.size() + 2) {
    Arena PreA(Opts.MaxTermsPerFunction);
    if (provenShiftPrelude(VM, VF, PreA))
      Shift = 2;
  }
  if (Shift == 0 && VF.Blocks.size() != BF.Blocks.size())
    return Refute(format("%s: %zu blocks do not correspond to baseline's "
                         "%zu (no provable shift prelude)",
                         BF.Name.c_str(), VF.Blocks.size(),
                         BF.Blocks.size()));

  // Candidate renamings pi of the cdecl callee-saved class {EBX, ESI,
  // EDI}: register shuffling renames whole live ranges, so the variant
  // is compared with pi(r) playing baseline r's role. The save set
  // must follow the renaming -- pi(r) saved exactly when baseline
  // saves r -- which is also what keeps the emitted prologue/epilogue
  // contract intact. Identity is first in the canonical order, so
  // unrenamed variants keep refuting with the counterexample they
  // always have.
  auto UsedIn = [](const MFunction &F, uint8_t Rn) {
    return Rn == 3 ? F.UsesEbx : (Rn == 6 ? F.UsesEsi : F.UsesEdi);
  };
  // A function pair that never touches a callee-saved register
  // compares identically under every renaming; only identity is worth
  // trying (and the liveness precondition need not be computed).
  auto TouchesSaved = [](const MFunction &F) {
    constexpr uint8_t SavedMask = (1u << 3) | (1u << 6) | (1u << 7);
    for (const MBasicBlock &BB : F.Blocks)
      for (const MInstr &I : BB.Instrs)
        if (((1u << x86::regNum(I.Dst)) | (1u << x86::regNum(I.Src))) &
            SavedMask)
          return true;
    return false;
  };
  bool OnlyIdentity = !TouchesSaved(BF) && !TouchesSaved(VF);

  // The soundness gates every candidate passes before it is compared,
  // whether the witness named it or the canonical order reached it.
  const uint8_t *Identity = CalleeSavedRenamings[0];
  auto Eligible = [&](unsigned Row) {
    const uint8_t *P = CalleeSavedRenamings[Row];
    for (unsigned J = 0; J != 3; ++J)
      if (UsedIn(VF, P[J]) != UsedIn(BF, Identity[J]))
        return false;
    return Row == 0 || (!OnlyIdentity && Ctx.livenessOk());
  };

  // Each eligible candidate's outcome, by canonical row; its report
  // holds the one diagnostic of a refutation or abort.
  std::array<std::optional<Verdict>, NumCalleeSavedRenamings> Outcome;
  std::array<verify::Report, NumCalleeSavedRenamings> Sub;
  auto Proves = [&](unsigned Row) {
    if (!Eligible(Row))
      return false;
    const uint8_t *P = CalleeSavedRenamings[Row];
    std::array<uint8_t, x86::NumRegs> Pi;
    for (unsigned Rn = 0; Rn != x86::NumRegs; ++Rn)
      Pi[Rn] = static_cast<uint8_t>(Rn);
    Pi[3] = P[0];
    Pi[6] = P[1];
    Pi[7] = P[2];
    ++Ctx.Stats.CandidatesTried;
    Outcome[Row] = compareBlocks(BM, BF, VM, VF, Opts, Shift, Pi, Sub[Row]);
    return *Outcome[Row] == Verdict::Proved;
  };
  if (Witness < NumCalleeSavedRenamings && Proves(Witness))
    return Verdict::Proved;
  for (unsigned Row = 0; Row != NumCalleeSavedRenamings; ++Row)
    if (Row != Witness && Proves(Row))
      return Verdict::Proved;

  // No candidate proved: the first canonical abort, else the first
  // canonical counterexample (identity's when the save sets match),
  // keeping the choice deterministic and independent of the witness.
  for (Verdict Want : {Verdict::Aborted, Verdict::Refuted})
    for (unsigned Row = 0; Row != NumCalleeSavedRenamings; ++Row)
      if (Outcome[Row] == Want) {
        R.merge(Sub[Row]);
        return Want;
      }
  // No renaming is compatible with the two save sets (or the sound
  // ones were filtered); the metadata itself is the counterexample.
  return Refute(format("%s: callee-saved register set differs from "
                       "baseline",
                       BF.Name.c_str()));
}

/// Bucket bounds for the per-function proof-time histogram (seconds).
constexpr double FuncSecondsBounds[] = {1e-5, 3e-5, 1e-4, 3e-4,
                                        1e-3, 3e-3, 1e-2, 1e-1};

} // namespace

verify::Report analysis::proveEquivalent(const MModule &Baseline,
                                         const MModule &Variant,
                                         const EquivOptions &Opts,
                                         EquivStats *Stats,
                                         const EquivFacts &Facts,
                                         std::span<const uint8_t> Witness) {
  obs::Span Prove("equiv.prove");
  verify::Report R;
  EquivStats Local;
  EquivStats &St = Stats ? *Stats : Local;
  const bool Timed = obs::enabled();

  // Module-level shape: function table, entry point, global image
  // layout, counter table. Any mismatch here changes the linked image
  // or the observable memory layout.
  if (Baseline.Functions.size() != Variant.Functions.size()) {
    R.add(verify::ErrorCode::EquivRefuted,
          format("module: %zu functions vs baseline's %zu",
                 Variant.Functions.size(), Baseline.Functions.size()));
  } else if (Baseline.EntryFunction != Variant.EntryFunction) {
    R.add(verify::ErrorCode::EquivRefuted,
          format("module: entry function #%d differs from baseline #%d",
                 Variant.EntryFunction, Baseline.EntryFunction));
  } else if (Baseline.NumProfCounters != Variant.NumProfCounters) {
    R.add(verify::ErrorCode::EquivRefuted,
          format("module: %u profile counters vs baseline's %u",
                 Variant.NumProfCounters, Baseline.NumProfCounters));
  } else if (Baseline.Globals.size() != Variant.Globals.size()) {
    R.add(verify::ErrorCode::EquivRefuted,
          format("module: %zu globals vs baseline's %zu",
                 Variant.Globals.size(), Baseline.Globals.size()));
  } else {
    for (size_t G = 0; G != Baseline.Globals.size(); ++G)
      if (Baseline.Globals[G].SizeBytes != Variant.Globals[G].SizeBytes ||
          Baseline.Globals[G].Init != Variant.Globals[G].Init) {
        R.add(verify::ErrorCode::EquivRefuted,
              format("module: global #%zu layout differs from baseline",
                     G));
        break;
      }
  }

  if (R.ok()) {
    ModuleContext Ctx{Baseline, Variant, Facts, St};
    for (size_t F = 0; F != Baseline.Functions.size(); ++F) {
      if (R.Diags.size() >= Opts.MaxDiagnostics)
        break;
      double T0 = 0.0;
      if (Timed)
        T0 = std::chrono::duration<double>(
                 std::chrono::steady_clock::now().time_since_epoch())
                 .count();
      unsigned W =
          F < Witness.size() ? Witness[F] : NumCalleeSavedRenamings;
      Verdict V =
          compareFunction(Baseline, Baseline.Functions[F], Variant,
                          Variant.Functions[F], Opts, Ctx, W, R);
      if (Timed) {
        double T1 = std::chrono::duration<double>(
                        std::chrono::steady_clock::now()
                            .time_since_epoch())
                        .count();
        obs::histogramObserve("equiv.function_seconds", T1 - T0,
                              FuncSecondsBounds);
      }
      switch (V) {
      case Verdict::Proved:
        ++St.FunctionsProved;
        break;
      case Verdict::Refuted:
        ++St.FunctionsRefuted;
        break;
      case Verdict::Aborted:
        ++St.FunctionsAborted;
        break;
      }
    }
  }

  // Module verdict counters partition equiv.modules_checked: a module
  // with both refuted and aborted functions counts as refuted (there is
  // a counterexample regardless of the aborted remainder).
  obs::counterAdd("equiv.modules_checked");
  if (R.has(verify::ErrorCode::EquivRefuted))
    obs::counterAdd("equiv.modules_refuted");
  else if (R.has(verify::ErrorCode::EquivAborted))
    obs::counterAdd("equiv.modules_aborted");
  else
    obs::counterAdd("equiv.modules_proved");
  return R;
}
