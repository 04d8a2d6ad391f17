//===-- analysis/Checkers.cpp - The six MIR safety checkers ----------------===//
//
// Part of the PGSD project, a reproduction of "Profile-guided Automated
// Software Diversity" (Homescu et al., CGO 2013).
//
// Each checker proves one invariant class that diversification (and the
// backend before it) must preserve. The flow-sensitive ones share the
// forward worklist engine in Dataflow.h: solve to fixpoint, then re-walk
// every reached block applying the same transfer function and checking
// each instruction's precondition against the in-flight state.
//
//===----------------------------------------------------------------------===//

#include "analysis/Checkers.h"

#include "analysis/Dataflow.h"

#include <cstdarg>
#include <cstdio>
#include <string>
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

/// Appends one location-tagged diagnostic, honouring the report cap.
void addDiag(verify::Report &R, const AnalysisOptions &Opts,
             CheckerKind K, const MFunction &F, uint32_t Block,
             uint32_t Instr, const std::string &Msg) {
  if (R.Diags.size() >= Opts.MaxDiagnostics)
    return;
  R.add(checkerErrorCode(K), instrLocation(F, Block, Instr) + ": " + Msg);
}

std::string fmt(const char *Format, ...)
    __attribute__((format(printf, 1, 2)));

std::string fmt(const char *Format, ...) {
  char Buf[192];
  va_list Ap;
  va_start(Ap, Format);
  std::vsnprintf(Buf, sizeof(Buf), Format, Ap);
  va_end(Ap);
  return Buf;
}

uint8_t regBit(Reg R) { return static_cast<uint8_t>(1u << x86::regNum(R)); }

} // namespace

//===----------------------------------------------------------------------===//
// 1. CFG well-formedness (structural gate)
//===----------------------------------------------------------------------===//

void detail::checkCfgWellFormed(const MModule &M, uint32_t FuncIdx,
                                const AnalysisOptions &Opts,
                                verify::Report &R) {
  const MFunction &F = M.Functions[FuncIdx];
  const CheckerKind CK = CheckerKind::CfgWellFormed;
  if (F.Blocks.empty()) {
    if (R.Diags.size() < Opts.MaxDiagnostics)
      R.add(checkerErrorCode(CK),
            F.Name + ": machine function has no blocks");
    return;
  }
  for (uint32_t B = 0; B != F.Blocks.size(); ++B) {
    const MBasicBlock &BB = F.Blocks[B];
    bool InBranchGroup = false;
    bool Ended = false;
    for (uint32_t K = 0; K != BB.Instrs.size(); ++K) {
      const MInstr &I = BB.Instrs[K];
      if (Ended) {
        addDiag(R, Opts, CK, F, B, K,
                "instruction after the block's jmp/ret terminator");
        break; // everything past the terminator is equally dead
      }
      if (I.Op == MOp::Jcc) {
        InBranchGroup = true;
      } else if (I.Op == MOp::Jmp || I.Op == MOp::Ret) {
        Ended = true;
      } else if (InBranchGroup && I.Op != MOp::Nop) {
        // Only NOPs (from the diversity pass) may interleave with the
        // trailing branch group.
        addDiag(R, Opts, CK, F, B, K,
                "non-branch instruction inside the trailing branch group");
      }
      if ((I.Op == MOp::Jmp || I.Op == MOp::Jcc) &&
          (I.Imm < 0 || static_cast<size_t>(I.Imm) >= F.Blocks.size()))
        addDiag(R, Opts, CK, F, B, K,
                fmt("branch target mbb%d out of range (function has %zu "
                    "blocks)",
                    I.Imm, F.Blocks.size()));
      if (I.Op == MOp::Call && !I.Target.IsIntrinsic &&
          I.Target.Func >= M.Functions.size())
        addDiag(R, Opts, CK, F, B, K,
                fmt("call target func#%u out of range (module has %zu "
                    "functions)",
                    I.Target.Func, M.Functions.size()));
      if (I.Op == MOp::ProfInc &&
          (I.Imm < 0 ||
           static_cast<uint32_t>(I.Imm) >= M.NumProfCounters))
        addDiag(R, Opts, CK, F, B, K,
                fmt("profile counter #%d out of range (module has %u "
                    "counters)",
                    I.Imm, M.NumProfCounters));
      if ((I.Op == MOp::Setcc && x86::regNum(I.Dst) >= 4) ||
          (I.Op == MOp::Movzx8 && x86::regNum(I.Src) >= 4))
        addDiag(R, Opts, CK, F, B, K,
                "operand has no 8-bit subregister (need eax/ecx/edx/ebx)");
    }
    if (!Ended && B + 1 == F.Blocks.size())
      addDiag(R, Opts, CK, F, B,
              BB.Instrs.empty()
                  ? 0
                  : static_cast<uint32_t>(BB.Instrs.size()) - 1,
              "last block falls through the end of the function");
  }
}

//===----------------------------------------------------------------------===//
// 2. Register def-before-use liveness
//===----------------------------------------------------------------------===//

namespace {

/// Bitmask of registers holding a definition on *every* path from entry.
struct LivenessDomain {
  using State = uint8_t;

  State boundary() const {
    // The prologue establishes ESP and EBP; everything else is garbage
    // until the function writes it.
    return regBit(Reg::ESP) | regBit(Reg::EBP);
  }

  void transfer(State &S, const MInstr &I, uint32_t, uint32_t) const {
    S |= mir::writtenRegs(I);
  }

  bool meetInto(State &Into, const State &From) const {
    State Met = Into & From; // defined only when defined on both paths
    if (Met == Into)
      return false;
    Into = Met;
    return true;
  }
};

} // namespace

void detail::checkRegLiveness(const MModule &M, uint32_t FuncIdx,
                              const AnalysisOptions &Opts,
                              verify::Report &R) {
  const MFunction &F = M.Functions[FuncIdx];
  LivenessDomain Dom;
  auto Fix = solveForward(F, Dom);
  for (uint32_t B = 0; B != F.Blocks.size(); ++B) {
    if (!Fix.Reached[B])
      continue;
    uint8_t S = Fix.In[B];
    const MBasicBlock &BB = F.Blocks[B];
    for (uint32_t K = 0; K != BB.Instrs.size(); ++K) {
      const MInstr &I = BB.Instrs[K];
      // The mask finds a violation; the ordered visitor reports it.
      if (mir::readRegs(I) & ~S)
        forEachReadReg(I, [&](Reg Read) {
          if (!(S & regBit(Read)))
            addDiag(R, Opts, CheckerKind::RegLiveness, F, B, K,
                    fmt("reads %s, which no definition reaches on "
                        "every path from entry",
                        x86::regName(Read)));
        });
      Dom.transfer(S, I, B, K);
    }
  }
}

//===----------------------------------------------------------------------===//
// 3. EFLAGS dataflow
//===----------------------------------------------------------------------===//

namespace {

/// Lattice: Defined > Undefined > Clobbered (meet takes the minimum).
/// Clobbered states remember the first clobbering site for diagnostics.
struct FlagsDomain {
  struct State {
    enum Rank : uint8_t { Clobbered = 0, Undefined = 1, Defined = 2 };
    uint8_t R = Undefined;
    uint32_t ClobBlock = 0;
    uint32_t ClobInstr = 0;
  };

  State boundary() const { return State(); } // Undefined at entry

  void transfer(State &S, const MInstr &I, uint32_t B, uint32_t K) const {
    switch (flagEffect(I)) {
    case FlagEffect::Defines:
      S.R = State::Defined;
      break;
    case FlagEffect::Clobbers:
      S.R = State::Clobbered;
      S.ClobBlock = B;
      S.ClobInstr = K;
      break;
    case FlagEffect::Neutral:
      break;
    }
  }

  bool meetInto(State &Into, const State &From) const {
    if (From.R >= Into.R)
      return false;
    Into = From;
    return true;
  }
};

} // namespace

void detail::checkEflagsFlow(const MModule &M, uint32_t FuncIdx,
                             const AnalysisOptions &Opts,
                             verify::Report &R) {
  const MFunction &F = M.Functions[FuncIdx];
  FlagsDomain Dom;
  auto Fix = solveForward(F, Dom);
  for (uint32_t B = 0; B != F.Blocks.size(); ++B) {
    if (!Fix.Reached[B])
      continue;
    FlagsDomain::State S = Fix.In[B];
    const MBasicBlock &BB = F.Blocks[B];
    for (uint32_t K = 0; K != BB.Instrs.size(); ++K) {
      const MInstr &I = BB.Instrs[K];
      if (I.Op == MOp::Jcc || I.Op == MOp::Setcc) {
        if (S.R == FlagsDomain::State::Undefined)
          addDiag(R, Opts, CheckerKind::EflagsFlow, F, B, K,
                  "consumes EFLAGS that no cmp/test defines on some path "
                  "from entry");
        else if (S.R == FlagsDomain::State::Clobbered)
          addDiag(R, Opts, CheckerKind::EflagsFlow, F, B, K,
                  fmt("consumes EFLAGS clobbered by '%s' at mbb%u #%u",
                      mir::printInstr(
                          F.Blocks[S.ClobBlock].Instrs[S.ClobInstr])
                          .c_str(),
                      S.ClobBlock, S.ClobInstr));
      }
      Dom.transfer(S, I, B, K);
    }
  }
}

//===----------------------------------------------------------------------===//
// 4. Push/pop stack-depth balance
//===----------------------------------------------------------------------===//

namespace {

/// Bytes pushed relative to the post-prologue stack pointer. Conflict
/// marks a join whose predecessors disagree -- per-path balance broken.
struct StackDomain {
  struct State {
    bool Conflict = false;
    int32_t Depth = 0;
  };

  State boundary() const { return State(); }

  void transfer(State &S, const MInstr &I, uint32_t, uint32_t) const {
    if (S.Conflict)
      return;
    switch (I.Op) {
    case MOp::Push:
    case MOp::PushI:
      S.Depth += 4;
      break;
    case MOp::Pop:
      S.Depth -= 4;
      break;
    case MOp::AdjustSP:
      S.Depth -= I.Imm; // add esp, imm releases imm pushed bytes
      break;
    default:
      // Call is depth-neutral: the callee pops only the return address
      // (cdecl: the caller releases arguments via AdjustSP).
      break;
    }
  }

  bool meetInto(State &Into, const State &From) const {
    if (Into.Conflict)
      return false;
    if (From.Conflict || From.Depth != Into.Depth) {
      Into.Conflict = true;
      return true;
    }
    return false;
  }
};

} // namespace

void detail::checkStackBalance(const MModule &M, uint32_t FuncIdx,
                               const AnalysisOptions &Opts,
                               verify::Report &R) {
  const MFunction &F = M.Functions[FuncIdx];
  StackDomain Dom;
  auto Fix = solveForward(F, Dom);
  const CheckerKind CK = CheckerKind::StackBalance;

  // Per-block out-states, to report a conflict only at the *frontier*
  // join (the first block where balanced paths disagree), not at every
  // block downstream of it.
  std::vector<StackDomain::State> Out(F.Blocks.size());
  for (uint32_t B = 0; B != F.Blocks.size(); ++B) {
    Out[B] = Fix.In[B];
    const MBasicBlock &BB = F.Blocks[B];
    for (uint32_t K = 0; K != BB.Instrs.size(); ++K)
      Dom.transfer(Out[B], BB.Instrs[K], B, K);
  }
  std::vector<bool> HasCleanPred(F.Blocks.size(), false);
  for (uint32_t B = 0; B != F.Blocks.size(); ++B) {
    if (!Fix.Reached[B])
      continue;
    for (uint32_t Succ : F.successors(B))
      if (!Out[B].Conflict)
        HasCleanPred[Succ] = true;
  }

  for (uint32_t B = 0; B != F.Blocks.size(); ++B) {
    if (!Fix.Reached[B])
      continue;
    StackDomain::State S = Fix.In[B];
    if (S.Conflict) {
      if (HasCleanPred[B])
        addDiag(R, Opts, CK, F, B, 0,
                "stack depth at block entry differs between predecessor "
                "paths");
      continue; // depth unknown; instruction checks would be noise
    }
    const MBasicBlock &BB = F.Blocks[B];
    for (uint32_t K = 0; K != BB.Instrs.size(); ++K) {
      const MInstr &I = BB.Instrs[K];
      switch (I.Op) {
      case MOp::Pop:
        if (S.Depth < 4)
          addDiag(R, Opts, CK, F, B, K,
                  fmt("pop underflows the pushed area (depth %d bytes)",
                      S.Depth));
        break;
      case MOp::AdjustSP:
        if (S.Depth - I.Imm < 0)
          addDiag(R, Opts, CK, F, B, K,
                  fmt("stack adjustment by %d drops depth below zero "
                      "(depth %d bytes)",
                      I.Imm, S.Depth));
        break;
      case MOp::Call: {
        int32_t Need =
            4 * static_cast<int32_t>(calleeArgWords(M, I.Target));
        if (S.Depth < Need)
          addDiag(R, Opts, CK, F, B, K,
                  fmt("call needs %d argument bytes but only %d are "
                      "pushed",
                      Need, S.Depth));
        break;
      }
      case MOp::Ret:
        if (S.Depth != 0)
          addDiag(R, Opts, CK, F, B, K,
                  fmt("returns with %d bytes still pushed", S.Depth));
        break;
      default:
        break;
      }
      Dom.transfer(S, I, B, K);
    }
  }
}

//===----------------------------------------------------------------------===//
// 5. Frame-slot bounds
//===----------------------------------------------------------------------===//

void detail::checkFrameBounds(const MModule &M, uint32_t FuncIdx,
                              const AnalysisOptions &Opts,
                              verify::Report &R) {
  const MFunction &F = M.Functions[FuncIdx];
  const CheckerKind CK = CheckerKind::FrameBounds;
  const int32_t Low = -static_cast<int32_t>(F.FrameBytes);
  const int32_t ParamHigh = 8 + 4 * (static_cast<int32_t>(F.NumParams) - 1);
  for (uint32_t B = 0; B != F.Blocks.size(); ++B) {
    const MBasicBlock &BB = F.Blocks[B];
    for (uint32_t K = 0; K != BB.Instrs.size(); ++K) {
      const MInstr &I = BB.Instrs[K];
      if (I.Op != MOp::LoadFrame && I.Op != MOp::StoreFrame &&
          I.Op != MOp::LeaFrame)
        continue;
      if (I.Imm % 4 != 0) {
        addDiag(R, Opts, CK, F, B, K,
                fmt("frame access at [ebp%+d] is not 4-byte aligned",
                    I.Imm));
        continue;
      }
      if (I.Imm >= 0) {
        // Positive displacements may only read/write incoming parameter
        // slots; [ebp+0]/[ebp+4] are the saved EBP and return address.
        if (I.Op == MOp::LeaFrame)
          addDiag(R, Opts, CK, F, B, K,
                  "takes the address of a parameter slot (frame objects "
                  "live below ebp)");
        else if (F.NumParams == 0 || I.Imm < 8 || I.Imm > ParamHigh)
          addDiag(R, Opts, CK, F, B, K,
                  fmt("frame access at [ebp%+d] does not address one of "
                      "the %u incoming parameter slots",
                      I.Imm, F.NumParams));
        continue;
      }
      if (I.Imm < Low) {
        addDiag(R, Opts, CK, F, B, K,
                fmt("frame access at [ebp%+d] escapes the %u-byte frame",
                    I.Imm, F.FrameBytes));
        continue;
      }
      // Region separation below EBP: scalar value slots live in
      // [ValueSlotsLowDisp, -4]; frame objects strictly below. A scalar
      // load from the object area (or a lea into the scalar area) means
      // the backend's no-alias reasoning is broken.
      if (I.Op == MOp::LeaFrame) {
        if (I.Imm >= F.ValueSlotsLowDisp)
          addDiag(R, Opts, CK, F, B, K,
                  fmt("lea target [ebp%+d] lies in the scalar value-slot "
                      "area (objects live strictly below [ebp%+d])",
                      I.Imm, F.ValueSlotsLowDisp));
      } else if (I.Imm < F.ValueSlotsLowDisp) {
        addDiag(R, Opts, CK, F, B, K,
                fmt("scalar frame access at [ebp%+d] lies in the "
                    "frame-object area (value slots start at [ebp%+d])",
                    I.Imm, F.ValueSlotsLowDisp));
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// 6. Calling-convention conformance
//===----------------------------------------------------------------------===//

namespace {

/// Bitmask of caller-saved registers whose value a preceding Call has
/// destroyed and nothing has redefined since, on *some* path.
struct PoisonDomain {
  using State = uint8_t;

  State boundary() const { return 0; }

  void transfer(State &S, const MInstr &I, uint32_t, uint32_t) const {
    S &= static_cast<uint8_t>(~mir::writtenRegs(I));
    if (I.Op == MOp::Call)
      S |= regBit(Reg::ECX) | regBit(Reg::EDX);
  }

  bool meetInto(State &Into, const State &From) const {
    State Met = Into | From; // poisoned on any path is poisoned
    if (Met == Into)
      return false;
    Into = Met;
    return true;
  }
};

} // namespace

void detail::checkCallConv(const MModule &M, uint32_t FuncIdx,
                           const AnalysisOptions &Opts,
                           verify::Report &R) {
  const MFunction &F = M.Functions[FuncIdx];
  const CheckerKind CK = CheckerKind::CallConv;
  PoisonDomain Dom;
  auto Fix = solveForward(F, Dom);
  for (uint32_t B = 0; B != F.Blocks.size(); ++B) {
    if (!Fix.Reached[B])
      continue;
    uint8_t S = Fix.In[B];
    const MBasicBlock &BB = F.Blocks[B];
    for (uint32_t K = 0; K != BB.Instrs.size(); ++K) {
      const MInstr &I = BB.Instrs[K];
      if (mir::readRegs(I) & S)
        forEachReadReg(I, [&](Reg Read) {
          if (S & regBit(Read))
            addDiag(R, Opts, CK, F, B, K,
                    fmt("reads %s, which a preceding call clobbered "
                        "(cdecl caller-saved), before any redefinition",
                        x86::regName(Read)));
        });
      Dom.transfer(S, I, B, K);
    }
  }

  // Local shape checks (no dataflow needed).
  for (uint32_t B = 0; B != F.Blocks.size(); ++B) {
    const MBasicBlock &BB = F.Blocks[B];
    for (uint32_t K = 0; K != BB.Instrs.size(); ++K) {
      const MInstr &I = BB.Instrs[K];
      // Writes to ESP/EBP happen only in the expanded prologue/epilogue
      // and via AdjustSP; anything else corrupts the frame linkage.
      if (mir::writtenRegs(I) & (regBit(Reg::ESP) | regBit(Reg::EBP)))
        forEachWrittenReg(I, [&](Reg W) {
          if (W == Reg::ESP || W == Reg::EBP)
            addDiag(R, Opts, CK, F, B, K,
                    fmt("writes %s outside the prologue/epilogue "
                        "contract",
                        x86::regName(W)));
        });
      if (I.Op != MOp::Idiv)
        continue;
      // IDIV needs its EDX:EAX dividend established by a CDQ that is
      // still in effect: only flag-transparent NOPs may sit in between
      // (exactly what the diversity pass inserts).
      bool SetupOk = false;
      for (uint32_t J = K; J-- > 0;) {
        if (BB.Instrs[J].Op == MOp::Nop)
          continue;
        SetupOk = BB.Instrs[J].Op == MOp::Cdq;
        break;
      }
      if (!SetupOk)
        addDiag(R, Opts, CK, F, B, K,
                "idiv without a cdq immediately before it: EDX:EAX "
                "dividend not set up");
      if (I.Src == Reg::EAX || I.Src == Reg::EDX || I.Src == Reg::ESP ||
          I.Src == Reg::EBP)
        addDiag(R, Opts, CK, F, B, K,
                fmt("idiv divisor in %s conflicts with the EDX:EAX "
                    "dividend or frame registers",
                    x86::regName(I.Src)));
    }
  }
}
