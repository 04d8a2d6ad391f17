//===-- analysis/MirFault.cpp - Seeded MIR-level fault injection -----------===//
//
// Part of the PGSD project, a reproduction of "Profile-guided Automated
// Software Diversity" (Homescu et al., CGO 2013).
//
// Site selection is the whole game here: every class first enumerates
// all positions where the mutation provably violates its paired
// checker's invariant (using the same dataflow facts the checker will
// compute), then lets the seed pick uniformly among them. That makes
// the tests' 100%-detection assertion meaningful -- a surviving fault
// indicts the checker, never the injector's luck.
//
//===----------------------------------------------------------------------===//

#include "analysis/MirFault.h"

#include "analysis/Dataflow.h"
#include "support/Rng.h"

#include <array>
#include <cstdio>

using namespace pgsd;
using namespace pgsd::analysis;
using mir::MBasicBlock;
using mir::MFunction;
using mir::MInstr;
using mir::MModule;
using mir::MOp;
using x86::Reg;

namespace {

/// One mutation site: function / block / instruction index, plus a
/// class-specific discriminator for classes with several shapes.
struct Site {
  uint32_t Func = 0;
  uint32_t Block = 0;
  uint32_t Instr = 0;
  uint32_t Shape = 0;
};

/// Reaching-definitions mask, same lattice the RegLiveness checker uses
/// (kept local: the checker's domain is an implementation detail of
/// Checkers.cpp; both read the one register-effect table).
struct LiveDomain {
  using State = uint8_t;
  State boundary() const {
    return static_cast<uint8_t>((1u << x86::regNum(Reg::ESP)) |
                                (1u << x86::regNum(Reg::EBP)));
  }
  void transfer(State &S, const MInstr &I, uint32_t, uint32_t) const {
    S |= mir::writtenRegs(I);
  }
  bool meetInto(State &Into, const State &From) const {
    State Met = Into & From;
    if (Met == Into)
      return false;
    Into = Met;
    return true;
  }
};

uint8_t bit(Reg R) { return static_cast<uint8_t>(1u << x86::regNum(R)); }

/// True when \p I writes its Dst without reading it (or anything whose
/// removal would touch flags or the stack) -- safe to delete for a pure
/// use-before-def violation.
bool isPureDef(const MInstr &I) {
  switch (I.Op) {
  case MOp::MovRR:
  case MOp::MovRI:
  case MOp::MovGlobal:
  case MOp::Load:
  case MOp::LoadFrame:
  case MOp::LeaFrame:
    return true;
  default:
    return false;
  }
}

void describe(std::string *Desc, const MModule &M, const Site &S,
              const char *What) {
  if (!Desc)
    return;
  char Buf[160];
  std::snprintf(Buf, sizeof(Buf), "%s at %s: mbb%u #%u", What,
                M.Functions[S.Func].Name.c_str(), S.Block, S.Instr);
  *Desc = Buf;
}

std::vector<Site> sitesCfgBreak(const MModule &M) {
  std::vector<Site> Sites;
  for (uint32_t F = 0; F != M.Functions.size(); ++F)
    for (uint32_t B = 0; B != M.Functions[F].Blocks.size(); ++B) {
      const MBasicBlock &BB = M.Functions[F].Blocks[B];
      for (uint32_t K = 0; K != BB.Instrs.size(); ++K) {
        const MInstr &I = BB.Instrs[K];
        if (I.Op == MOp::Jmp || I.Op == MOp::Jcc)
          Sites.push_back({F, B, K, 0}); // retarget out of range
        else if (I.Op == MOp::ProfInc)
          Sites.push_back({F, B, K, 1}); // counter id out of range
        else if (I.Op == MOp::Ret)
          Sites.push_back({F, B, K, 2}); // plant code after terminator
      }
    }
  return Sites;
}

std::vector<Site> sitesDroppedDef(const MModule &M) {
  std::vector<Site> Sites;
  LiveDomain Dom;
  for (uint32_t F = 0; F != M.Functions.size(); ++F) {
    const MFunction &Fn = M.Functions[F];
    auto Fix = solveForward(Fn, Dom);
    for (uint32_t B = 0; B != Fn.Blocks.size(); ++B) {
      if (!Fix.Reached[B])
        continue;
      uint8_t S = Fix.In[B];
      const MBasicBlock &BB = Fn.Blocks[B];
      for (uint32_t K = 0; K != BB.Instrs.size(); ++K) {
        const MInstr &I = BB.Instrs[K];
        if (isPureDef(I) && !(S & bit(I.Dst))) {
          // Deleting this leaves Dst undefined at block entry and
          // beyond; eligible when a read of Dst follows in-block before
          // any other definition of it.
          for (uint32_t J = K + 1; J != BB.Instrs.size(); ++J) {
            if (mir::readRegs(BB.Instrs[J]) & bit(I.Dst)) {
              Sites.push_back({F, B, K, 0});
              break;
            }
            if (mir::writtenRegs(BB.Instrs[J]) & bit(I.Dst))
              break;
          }
        }
        Dom.transfer(S, I, B, K);
      }
    }
  }
  return Sites;
}

std::vector<Site> sitesFlagClobber(const MModule &M) {
  std::vector<Site> Sites;
  LiveDomain Dom; // only for the reached-block mask
  for (uint32_t F = 0; F != M.Functions.size(); ++F) {
    const MFunction &Fn = M.Functions[F];
    auto Fix = solveForward(Fn, Dom);
    for (uint32_t B = 0; B != Fn.Blocks.size(); ++B) {
      if (!Fix.Reached[B])
        continue;
      const MBasicBlock &BB = Fn.Blocks[B];
      for (uint32_t K = 0; K != BB.Instrs.size(); ++K) {
        if (flagEffect(BB.Instrs[K]) != FlagEffect::Defines)
          continue;
        // Eligible when a consumer follows with nothing but
        // flag-neutral instructions in between: the inserted clobber
        // lands at K+1, upstream of the consumer on every path to it.
        for (uint32_t J = K + 1; J != BB.Instrs.size(); ++J) {
          const MInstr &N = BB.Instrs[J];
          if (N.Op == MOp::Jcc || N.Op == MOp::Setcc) {
            Sites.push_back({F, B, K, 0});
            break;
          }
          if (flagEffect(N) != FlagEffect::Neutral)
            break;
        }
      }
    }
  }
  return Sites;
}

std::vector<Site> sitesUnbalancedPush(const MModule &M) {
  std::vector<Site> Sites;
  LiveDomain Dom;
  for (uint32_t F = 0; F != M.Functions.size(); ++F) {
    const MFunction &Fn = M.Functions[F];
    auto Fix = solveForward(Fn, Dom);
    for (uint32_t B = 0; B != Fn.Blocks.size(); ++B) {
      if (!Fix.Reached[B])
        continue;
      const MBasicBlock &BB = Fn.Blocks[B];
      bool SawJcc = false;
      for (uint32_t K = 0; K != BB.Instrs.size(); ++K) {
        SawJcc |= BB.Instrs[K].Op == MOp::Jcc;
        // Push directly before a reached Ret (outside any branch
        // group): the Ret's depth check fires unconditionally.
        if (BB.Instrs[K].Op == MOp::Ret && !SawJcc)
          Sites.push_back({F, B, K, 0});
      }
    }
  }
  return Sites;
}

std::vector<Site> sitesFrameEscape(const MModule &M) {
  std::vector<Site> Sites;
  for (uint32_t F = 0; F != M.Functions.size(); ++F)
    for (uint32_t B = 0; B != M.Functions[F].Blocks.size(); ++B) {
      const MBasicBlock &BB = M.Functions[F].Blocks[B];
      for (uint32_t K = 0; K != BB.Instrs.size(); ++K) {
        MOp Op = BB.Instrs[K].Op;
        if (Op == MOp::LoadFrame || Op == MOp::StoreFrame ||
            Op == MOp::LeaFrame)
          Sites.push_back({F, B, K, 0});
      }
    }
  return Sites;
}

std::vector<Site> sitesIllegalReorder(const MModule &M) {
  // A StoreFrame at K whose value is read back by a LoadFrame at J
  // (same displacement, no intervening store to it): hoisting the load
  // above the store reorders across a true memory dependence, so the
  // variant's effect trace shows the load before the store while the
  // baseline's shows the opposite -- a guaranteed positional mismatch
  // the prover's read-run commutation cannot (and must not) absorb.
  // Shape carries J.
  std::vector<Site> Sites;
  for (uint32_t F = 0; F != M.Functions.size(); ++F)
    for (uint32_t B = 0; B != M.Functions[F].Blocks.size(); ++B) {
      const MBasicBlock &BB = M.Functions[F].Blocks[B];
      for (uint32_t K = 0; K != BB.Instrs.size(); ++K) {
        if (BB.Instrs[K].Op != MOp::StoreFrame)
          continue;
        for (uint32_t J = K + 1; J != BB.Instrs.size(); ++J) {
          const MInstr &N = BB.Instrs[J];
          if (N.Op == MOp::StoreFrame && N.Imm == BB.Instrs[K].Imm)
            break;
          if (N.Op == MOp::Jmp || N.Op == MOp::Jcc || N.Op == MOp::Ret)
            break;
          if (N.Op == MOp::LoadFrame && N.Imm == BB.Instrs[K].Imm) {
            Sites.push_back({F, B, K, J});
            break;
          }
        }
      }
    }
  return Sites;
}

std::vector<Site> sitesLiveRangeSwap(const MModule &M) {
  // A StoreFrame at K whose source register r was last defined in-block
  // by a value-producing instruction (not a plain copy or pop): rewrite
  // the store to read a register s that is untouched so far in the
  // block. The variant's store event then carries the entry symbol of
  // s where the baseline carries r's computed term -- different term
  // kinds, so the mismatch survives every callee-saved renaming the
  // prover may try. Shape carries s's register number.
  std::vector<Site> Sites;
  for (uint32_t F = 0; F != M.Functions.size(); ++F)
    for (uint32_t B = 0; B != M.Functions[F].Blocks.size(); ++B) {
      const MBasicBlock &BB = M.Functions[F].Blocks[B];
      uint8_t Written = 0;
      std::array<MOp, x86::NumRegs> LastDef;
      LastDef.fill(MOp::Nop);
      for (uint32_t K = 0; K != BB.Instrs.size(); ++K) {
        const MInstr &I = BB.Instrs[K];
        if (I.Op == MOp::StoreFrame) {
          unsigned Rn = x86::regNum(I.Src);
          if ((Written & (1u << Rn)) && LastDef[Rn] != MOp::MovRR &&
              LastDef[Rn] != MOp::Pop)
            for (unsigned Sn = 0; Sn != x86::NumRegs; ++Sn) {
              if (Sn == Rn || Sn == x86::regNum(Reg::ESP) ||
                  Sn == x86::regNum(Reg::EBP) ||
                  (Written & (1u << Sn)))
                continue;
              Sites.push_back({F, B, K, Sn});
              break;
            }
        }
        const uint8_t W = mir::writtenRegs(I);
        Written |= W;
        for (unsigned Rn = 0; Rn != x86::NumRegs; ++Rn)
          if (W & (1u << Rn))
            LastDef[Rn] = I.Op;
      }
    }
  return Sites;
}

std::vector<Site> sitesCallContractBreak(const MModule &M) {
  std::vector<Site> Sites;
  LiveDomain Dom;
  for (uint32_t F = 0; F != M.Functions.size(); ++F) {
    const MFunction &Fn = M.Functions[F];
    auto Fix = solveForward(Fn, Dom);
    for (uint32_t B = 0; B != Fn.Blocks.size(); ++B) {
      const MBasicBlock &BB = Fn.Blocks[B];
      for (uint32_t K = 0; K != BB.Instrs.size(); ++K) {
        const MInstr &I = BB.Instrs[K];
        if (I.Op == MOp::Cdq) {
          // Deleting the CDQ orphans the IDIV it feeds (the dividend
          // setup check is structural, so reachability is irrelevant).
          for (uint32_t J = K + 1; J != BB.Instrs.size(); ++J) {
            if (BB.Instrs[J].Op == MOp::Nop)
              continue;
            if (BB.Instrs[J].Op == MOp::Idiv)
              Sites.push_back({F, B, K, 0});
            break;
          }
        } else if (I.Op == MOp::Call && Fix.Reached[B]) {
          // Reading ECX right after the call consumes a caller-saved
          // register the callee destroyed.
          Sites.push_back({F, B, K, 1});
        }
      }
    }
  }
  return Sites;
}

} // namespace

const char *analysis::mirFaultClassName(MirFaultClass C) {
  switch (C) {
  case MirFaultClass::CfgBreak:
    return "cfg-break";
  case MirFaultClass::DroppedDef:
    return "dropped-def";
  case MirFaultClass::FlagClobber:
    return "flag-clobber";
  case MirFaultClass::UnbalancedPush:
    return "unbalanced-push";
  case MirFaultClass::FrameEscape:
    return "frame-escape";
  case MirFaultClass::CallContractBreak:
    return "call-contract-break";
  case MirFaultClass::IllegalReorder:
    return "illegal-reorder";
  case MirFaultClass::LiveRangeSwap:
    return "live-range-swap";
  }
  return "<bad>";
}

CheckerKind analysis::mirFaultTargetChecker(MirFaultClass C) {
  return static_cast<CheckerKind>(static_cast<uint8_t>(C));
}

bool analysis::injectMirFault(MModule &M, MirFaultClass C, uint64_t Seed,
                              std::string *Desc) {
  std::vector<Site> Sites;
  switch (C) {
  case MirFaultClass::CfgBreak:
    Sites = sitesCfgBreak(M);
    break;
  case MirFaultClass::DroppedDef:
    Sites = sitesDroppedDef(M);
    break;
  case MirFaultClass::FlagClobber:
    Sites = sitesFlagClobber(M);
    break;
  case MirFaultClass::UnbalancedPush:
    Sites = sitesUnbalancedPush(M);
    break;
  case MirFaultClass::FrameEscape:
    Sites = sitesFrameEscape(M);
    break;
  case MirFaultClass::CallContractBreak:
    Sites = sitesCallContractBreak(M);
    break;
  case MirFaultClass::IllegalReorder:
    Sites = sitesIllegalReorder(M);
    break;
  case MirFaultClass::LiveRangeSwap:
    Sites = sitesLiveRangeSwap(M);
    break;
  }
  if (Sites.empty())
    return false;

  Rng R(Seed);
  const Site S = Sites[R.nextBelow(Sites.size())];
  MFunction &Fn = M.Functions[S.Func];
  std::vector<MInstr> &Instrs = Fn.Blocks[S.Block].Instrs;
  const MInstr Victim = Instrs[S.Instr];

  switch (C) {
  case MirFaultClass::CfgBreak:
    if (S.Shape == 0) {
      Instrs[S.Instr].Imm = static_cast<int32_t>(Fn.Blocks.size()) + 3;
      describe(Desc, M, S, "retargeted branch out of range");
    } else if (S.Shape == 1) {
      Instrs[S.Instr].Imm = static_cast<int32_t>(M.NumProfCounters) + 5;
      describe(Desc, M, S, "retargeted profile counter out of range");
    } else {
      MInstr Dead;
      Dead.Op = MOp::MovRI;
      Dead.Dst = Reg::EAX;
      Dead.Imm = 0;
      Instrs.insert(Instrs.begin() + S.Instr + 1, Dead);
      describe(Desc, M, S, "planted instruction after ret");
    }
    break;
  case MirFaultClass::DroppedDef:
    describe(Desc, M, S, "dropped definition");
    Instrs.erase(Instrs.begin() + S.Instr);
    break;
  case MirFaultClass::FlagClobber: {
    // ADD r, 0 preserves the register's value (so nothing else changes)
    // while overwriting every arithmetic flag the consumer needs. The
    // operand register is whatever the cmp/test just read, hence
    // certainly defined.
    MInstr Clobber;
    Clobber.Op = MOp::AluRI;
    Clobber.Alu = x86::AluOp::Add;
    Clobber.Dst = Victim.Dst;
    Clobber.Imm = 0;
    Instrs.insert(Instrs.begin() + S.Instr + 1, Clobber);
    describe(Desc, M, S, "inserted flag clobber after");
    break;
  }
  case MirFaultClass::UnbalancedPush: {
    MInstr Push;
    Push.Op = MOp::PushI;
    Push.Imm = 0;
    Instrs.insert(Instrs.begin() + S.Instr, Push);
    describe(Desc, M, S, "inserted unmatched push before");
    break;
  }
  case MirFaultClass::FrameEscape:
    Instrs[S.Instr].Imm = -static_cast<int32_t>(Fn.FrameBytes) - 8;
    describe(Desc, M, S, "redirected frame access out of bounds");
    break;
  case MirFaultClass::CallContractBreak:
    if (S.Shape == 0) {
      describe(Desc, M, S, "deleted cdq before idiv");
      Instrs.erase(Instrs.begin() + S.Instr);
    } else {
      MInstr Read;
      Read.Op = MOp::MovRR;
      Read.Dst = Reg::EAX;
      Read.Src = Reg::ECX;
      Instrs.insert(Instrs.begin() + S.Instr + 1, Read);
      describe(Desc, M, S, "read caller-saved ecx after call");
    }
    break;
  case MirFaultClass::IllegalReorder: {
    MInstr Ld = Instrs[S.Shape];
    Instrs.erase(Instrs.begin() + S.Shape);
    Instrs.insert(Instrs.begin() + S.Instr, Ld);
    describe(Desc, M, S, "hoisted frame load above its store");
    break;
  }
  case MirFaultClass::LiveRangeSwap:
    Instrs[S.Instr].Src = static_cast<Reg>(S.Shape);
    describe(Desc, M, S, "swapped stored value to a conflicting register");
    break;
  }
  return true;
}
