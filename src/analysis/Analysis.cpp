//===-- analysis/Analysis.cpp - MIR static analysis framework --------------===//
//
// Part of the PGSD project, a reproduction of "Profile-guided Automated
// Software Diversity" (Homescu et al., CGO 2013).
//
//===----------------------------------------------------------------------===//

#include "analysis/Analysis.h"

#include "analysis/Checkers.h"
#include "obs/Metrics.h"

#include <cstdio>

using namespace pgsd;
using namespace pgsd::analysis;
using mir::MInstr;
using mir::MOp;
using x86::Reg;

const char *analysis::checkerName(CheckerKind K) {
  switch (K) {
  case CheckerKind::CfgWellFormed:
    return "cfg-well-formed";
  case CheckerKind::RegLiveness:
    return "reg-liveness";
  case CheckerKind::EflagsFlow:
    return "eflags-flow";
  case CheckerKind::StackBalance:
    return "stack-balance";
  case CheckerKind::FrameBounds:
    return "frame-bounds";
  case CheckerKind::CallConv:
    return "call-conv";
  }
  return "<bad>";
}

verify::ErrorCode analysis::checkerErrorCode(CheckerKind K) {
  switch (K) {
  case CheckerKind::CfgWellFormed:
    return verify::ErrorCode::AnalysisCfgMalformed;
  case CheckerKind::RegLiveness:
    return verify::ErrorCode::AnalysisUseBeforeDef;
  case CheckerKind::EflagsFlow:
    return verify::ErrorCode::AnalysisFlagsUnproven;
  case CheckerKind::StackBalance:
    return verify::ErrorCode::AnalysisStackImbalance;
  case CheckerKind::FrameBounds:
    return verify::ErrorCode::AnalysisFrameOutOfBounds;
  case CheckerKind::CallConv:
    return verify::ErrorCode::AnalysisCallConvViolation;
  }
  return verify::ErrorCode::None;
}

FlagEffect analysis::flagEffect(const MInstr &I) {
  switch (I.Op) {
  case MOp::AluRR:
  case MOp::AluRI:
    // CMP is the sanctioned producer; every other ALU form overwrites
    // EFLAGS as a side effect no consumer may rely on.
    return I.Alu == x86::AluOp::Cmp ? FlagEffect::Defines
                                    : FlagEffect::Clobbers;
  case MOp::TestRR:
    return FlagEffect::Defines;
  case MOp::ImulRR:
  case MOp::Neg:
  case MOp::ShiftRI:
  case MOp::ShiftRC:
  case MOp::Idiv:
  case MOp::AdjustSP: // add esp, imm
  case MOp::ProfInc:  // add dword [counter], 1
  case MOp::Call:     // callee executes arbitrary flag-writing code
    return FlagEffect::Clobbers;
  case MOp::MovRR:
  case MOp::MovRI:
  case MOp::MovGlobal:
  case MOp::Load:
  case MOp::Store:
  case MOp::LoadFrame:
  case MOp::StoreFrame:
  case MOp::LeaFrame:
  case MOp::Cdq:
  case MOp::Not: // unlike NEG, NOT preserves EFLAGS on IA-32
  case MOp::Setcc:
  case MOp::Movzx8:
  case MOp::Push:
  case MOp::PushI:
  case MOp::Pop:
  case MOp::Jmp:
  case MOp::Jcc:
  case MOp::Ret:
  case MOp::Nop: // every Table 1 candidate preserves EFLAGS
    return FlagEffect::Neutral;
  }
  return FlagEffect::Clobbers; // unknown opcode: be conservative
}

bool analysis::isInsertedNop(const MInstr &I) {
  // The insertion pass only ever adds MOp::Nop (one Table 1 candidate
  // per site); no other opcode is a removable decoration.
  return I.Op == MOp::Nop;
}

void analysis::forEachReadReg(const MInstr &I,
                              const std::function<void(Reg)> &Fn) {
  switch (I.Op) {
  case MOp::MovRR:
  case MOp::Movzx8:
  case MOp::Load:
    Fn(I.Src);
    break;
  case MOp::Store:
    Fn(I.Dst); // address base
    Fn(I.Src); // stored value
    break;
  case MOp::StoreFrame:
  case MOp::Push:
    Fn(I.Src);
    break;
  case MOp::AluRR:
  case MOp::ImulRR:
  case MOp::TestRR:
    Fn(I.Dst);
    Fn(I.Src);
    break;
  case MOp::AluRI:
  case MOp::Neg:
  case MOp::Not:
  case MOp::ShiftRI:
    Fn(I.Dst);
    break;
  case MOp::ShiftRC:
    Fn(I.Dst);
    Fn(Reg::ECX); // shift count in CL
    break;
  case MOp::Cdq:
    Fn(Reg::EAX);
    break;
  case MOp::Idiv:
    Fn(I.Src);
    Fn(Reg::EAX); // dividend low half
    Fn(Reg::EDX); // dividend high half (set up by CDQ)
    break;
  case MOp::Ret:
    Fn(Reg::EAX); // return value
    break;
  // Setcc writes only the 8-bit subregister; the generated code always
  // masks through MOVZX before the value escapes, so the upper bits it
  // technically merges with are never observed and Setcc is treated as
  // a pure definition.
  case MOp::Setcc:
  case MOp::MovRI:
  case MOp::MovGlobal:
  case MOp::LoadFrame:
  case MOp::LeaFrame:
  case MOp::PushI:
  case MOp::Pop:
  case MOp::AdjustSP:
  case MOp::Call:
  case MOp::Jmp:
  case MOp::Jcc:
  case MOp::Nop:
  case MOp::ProfInc:
    break;
  }
}

void analysis::forEachWrittenReg(const MInstr &I,
                                 const std::function<void(Reg)> &Fn) {
  switch (I.Op) {
  case MOp::MovRR:
  case MOp::MovRI:
  case MOp::MovGlobal:
  case MOp::Load:
  case MOp::LoadFrame:
  case MOp::LeaFrame:
  case MOp::Setcc:
  case MOp::Movzx8:
  case MOp::Pop:
  case MOp::ImulRR:
  case MOp::Neg:
  case MOp::Not:
  case MOp::ShiftRI:
  case MOp::ShiftRC:
    Fn(I.Dst);
    break;
  case MOp::AluRR:
  case MOp::AluRI:
    if (I.Alu != x86::AluOp::Cmp)
      Fn(I.Dst);
    break;
  case MOp::Cdq:
    Fn(Reg::EDX);
    break;
  case MOp::Idiv:
    Fn(Reg::EAX);
    Fn(Reg::EDX);
    break;
  case MOp::Call:
    // cdecl caller-saved set. EAX carries the return value; ECX/EDX
    // hold garbage, which the CallConv checker polices separately.
    Fn(Reg::EAX);
    Fn(Reg::ECX);
    Fn(Reg::EDX);
    break;
  case MOp::Store:
  case MOp::StoreFrame:
  case MOp::Push:
  case MOp::PushI:
  case MOp::AdjustSP:
  case MOp::TestRR:
  case MOp::Jmp:
  case MOp::Jcc:
  case MOp::Ret:
  case MOp::Nop:
  case MOp::ProfInc:
    break;
  }
}

unsigned analysis::calleeArgWords(const mir::MModule &M,
                                  const ir::Callee &Target) {
  if (!Target.IsIntrinsic) {
    if (Target.Func >= M.Functions.size())
      return 0; // CFG checker reports the bad target
    return M.Functions[Target.Func].NumParams;
  }
  switch (Target.Intr) {
  case ir::Intrinsic::PrintI32:
  case ir::Intrinsic::PrintChar:
  case ir::Intrinsic::Sink:
    return 1;
  case ir::Intrinsic::ReadI32:
  case ir::Intrinsic::InputLen:
    return 0;
  }
  return 0;
}

AnalysisOptions AnalysisOptions::all() { return AnalysisOptions(); }

AnalysisOptions AnalysisOptions::only(CheckerKind K) {
  AnalysisOptions Opts;
  for (unsigned C = 0; C != NumCheckers; ++C)
    Opts.Enabled[C] = false;
  // The CFG gate stays on: flow-sensitive checkers must not run on a
  // function whose branch targets do not resolve.
  Opts.Enabled[static_cast<unsigned>(CheckerKind::CfgWellFormed)] = true;
  Opts.Enabled[static_cast<unsigned>(K)] = true;
  return Opts;
}

std::string analysis::instrLocation(const mir::MFunction &F,
                                    uint32_t Block, uint32_t Instr) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), ": mbb%u #%u", Block, Instr);
  std::string Out = F.Name + Buf;
  if (Block < F.Blocks.size() &&
      Instr < F.Blocks[Block].Instrs.size()) {
    Out += " '";
    Out += mir::printInstr(F.Blocks[Block].Instrs[Instr]);
    Out += "'";
  }
  return Out;
}

namespace {

/// Span names for per-checker timings, indexed by CheckerKind. Static
/// strings because obs::Span keeps only the pointer.
constexpr const char *CheckerSpanNames[analysis::NumCheckers] = {
    "analysis.cfg-well-formed", "analysis.reg-liveness",
    "analysis.eflags-flow",     "analysis.stack-balance",
    "analysis.frame-bounds",    "analysis.call-conv",
};

} // namespace

verify::Report analysis::analyzeModule(const mir::MModule &M,
                                       const AnalysisOptions &Opts) {
  verify::Report R;
  // Per-checker timing is sampled once per call: when telemetry is off,
  // every span below is constructed with a null name and reads no clock.
  const bool Timed = obs::enabled();
  auto Enabled = [&](CheckerKind K) {
    return Opts.Enabled[static_cast<unsigned>(K)];
  };
  auto SpanName = [&](CheckerKind K) {
    return Timed ? CheckerSpanNames[static_cast<unsigned>(K)] : nullptr;
  };
  for (uint32_t F = 0; F != M.Functions.size(); ++F) {
    if (R.Diags.size() >= Opts.MaxDiagnostics)
      break;
    size_t Before = R.Diags.size();
    if (Enabled(CheckerKind::CfgWellFormed)) {
      obs::Span S(SpanName(CheckerKind::CfgWellFormed));
      detail::checkCfgWellFormed(M, F, Opts, R);
    }
    // A structurally broken function would send the dataflow solver
    // through out-of-range branch targets; report it and move on.
    if (R.Diags.size() != Before)
      continue;
    if (Enabled(CheckerKind::RegLiveness)) {
      obs::Span S(SpanName(CheckerKind::RegLiveness));
      detail::checkRegLiveness(M, F, Opts, R);
    }
    if (Enabled(CheckerKind::EflagsFlow)) {
      obs::Span S(SpanName(CheckerKind::EflagsFlow));
      detail::checkEflagsFlow(M, F, Opts, R);
    }
    if (Enabled(CheckerKind::StackBalance)) {
      obs::Span S(SpanName(CheckerKind::StackBalance));
      detail::checkStackBalance(M, F, Opts, R);
    }
    if (Enabled(CheckerKind::FrameBounds)) {
      obs::Span S(SpanName(CheckerKind::FrameBounds));
      detail::checkFrameBounds(M, F, Opts, R);
    }
    if (Enabled(CheckerKind::CallConv)) {
      obs::Span S(SpanName(CheckerKind::CallConv));
      detail::checkCallConv(M, F, Opts, R);
    }
  }
  if (Timed) {
    obs::counterAdd("analysis.modules_analyzed");
    if (!R.ok())
      obs::counterAdd("analysis.modules_rejected");
  }
  return R;
}

verify::Report analysis::checkEflags(const mir::MModule &M) {
  return analyzeModule(M, AnalysisOptions::only(CheckerKind::EflagsFlow));
}
