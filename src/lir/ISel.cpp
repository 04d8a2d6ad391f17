//===-- lir/ISel.cpp - IR to machine-IR instruction selection -------------===//
//
// Part of the PGSD project, a reproduction of "Profile-guided Automated
// Software Diversity" (Homescu et al., CGO 2013).
//
//===----------------------------------------------------------------------===//

#include "lir/ISel.h"

#include "lir/RegPlan.h"
#include "obs/Metrics.h"

#include <cassert>
#include <map>
#include <set>

using namespace pgsd;
using namespace pgsd::lir;
using namespace pgsd::ir;
using mir::MInstr;
using mir::MOp;
using x86::Reg;

namespace {

/// Register allocation is the one costly sub-stage of selection; time it
/// separately so metrics.json can break "isel" down further. The span is
/// inert (no clock reads) while telemetry is disabled.
auto timedPlanFunction(const Function &Fn) {
  obs::Span S("pipeline.regalloc");
  return planFunction(Fn);
}

class Selector {
public:
  Selector(const ir::Module &Mod, const Function &Fn, mir::MFunction &Out)
      : M(Mod), F(Fn), MF(Out), Plan(timedPlanFunction(Fn)) {
    computeKnownConstants();
  }

  void run();

private:
  MInstr &emit(MOp Op) {
    CurBB->Instrs.emplace_back();
    MInstr &I = CurBB->Instrs.back();
    I.Op = Op;
    return I;
  }

  void emitMovRR(Reg Dst, Reg Src) {
    if (Dst == Src)
      return;
    MInstr &I = emit(MOp::MovRR);
    I.Dst = Dst;
    I.Src = Src;
  }

  /// Single-definition constant values can fold into immediate operand
  /// forms (the -O2 code quality the paper's baseline has).
  void computeKnownConstants() {
    std::vector<unsigned> DefCount(F.NumValues, 0);
    std::vector<bool> IsConst(F.NumValues, false);
    KnownConst.assign(F.NumValues, 0);
    for (ValueId V = 0; V != F.NumParams; ++V)
      ++DefCount[V];
    for (const ir::BasicBlock &BB : F.Blocks)
      for (const Instr &I : BB.Instrs) {
        ValueId D;
        switch (I.Op) {
        case Opcode::Store:
        case Opcode::Br:
        case Opcode::CondBr:
        case Opcode::Ret:
          continue;
        default:
          D = I.Dst;
          break;
        }
        if (D == NoValue)
          continue;
        ++DefCount[D];
        IsConst[D] = I.Op == Opcode::Const;
        if (IsConst[D])
          KnownConst[D] = static_cast<int32_t>(I.Imm);
      }
    HasConst.assign(F.NumValues, false);
    for (ValueId V = 0; V != F.NumValues; ++V)
      HasConst[V] = DefCount[V] == 1 && IsConst[V];

    // Use counts, to prove a comparison feeds only its branch.
    UseCount.assign(F.NumValues, 0);
    auto Count = [&](ValueId V) {
      if (V != NoValue)
        ++UseCount[V];
    };
    for (const ir::BasicBlock &BB : F.Blocks)
      for (const Instr &I : BB.Instrs) {
        switch (I.Op) {
        case Opcode::Const:
        case Opcode::GlobalAddr:
        case Opcode::FrameAddr:
        case Opcode::Br:
          break;
        case Opcode::Copy:
        case Opcode::Neg:
        case Opcode::Not:
        case Opcode::Load:
        case Opcode::CondBr:
          Count(I.A);
          break;
        case Opcode::Store:
          Count(I.A);
          Count(I.B);
          break;
        case Opcode::Call:
          for (ValueId Arg : I.Args)
            Count(Arg);
          break;
        case Opcode::Ret:
          Count(I.A);
          break;
        default:
          Count(I.A);
          Count(I.B);
          break;
        }
      }
  }

  /// Returns true (and the value) when \p V is a foldable constant.
  bool constOf(ValueId V, int32_t &Out) const {
    if (!HasConst[V])
      return false;
    Out = KnownConst[V];
    return true;
  }

  /// Returns a register holding value \p V for *read-only* use: the
  /// planned register when promoted, otherwise a load (or immediate
  /// materialization) into \p Scratch.
  Reg operandReg(ValueId V, Reg Scratch) {
    int32_t K;
    if (constOf(V, K)) {
      MInstr &I = emit(MOp::MovRI);
      I.Dst = Scratch;
      I.Imm = K;
      return Scratch;
    }
    const ValueLoc &Loc = Plan.Values[V];
    if (Loc.InReg)
      return Loc.R;
    MInstr &I = emit(MOp::LoadFrame);
    I.Dst = Scratch;
    I.Imm = Loc.FrameDisp;
    return Scratch;
  }

  /// Loads value \p V into exactly \p Dst (copying when promoted).
  void loadTo(Reg Dst, ValueId V) {
    int32_t K;
    if (constOf(V, K)) {
      MInstr &I = emit(MOp::MovRI);
      I.Dst = Dst;
      I.Imm = K;
      return;
    }
    const ValueLoc &Loc = Plan.Values[V];
    if (Loc.InReg) {
      emitMovRR(Dst, Loc.R);
      return;
    }
    MInstr &I = emit(MOp::LoadFrame);
    I.Dst = Dst;
    I.Imm = Loc.FrameDisp;
  }

  /// Stores register \p Src into value \p V's home.
  void writeValue(ValueId V, Reg Src) {
    const ValueLoc &Loc = Plan.Values[V];
    if (Loc.InReg) {
      emitMovRR(Loc.R, Src);
      return;
    }
    MInstr &I = emit(MOp::StoreFrame);
    I.Src = Src;
    I.Imm = Loc.FrameDisp;
  }

  /// Emits `cmp` setting flags for comparison instruction \p I.
  void emitCompare(const Instr &I) {
    loadTo(Reg::EAX, I.A);
    int32_t K;
    if (constOf(I.B, K)) {
      MInstr &Cmp = emit(MOp::AluRI);
      Cmp.Alu = x86::AluOp::Cmp;
      Cmp.Dst = Reg::EAX;
      Cmp.Imm = K;
    } else {
      Reg B = operandReg(I.B, Reg::ECX);
      MInstr &Cmp = emit(MOp::AluRR);
      Cmp.Alu = x86::AluOp::Cmp;
      Cmp.Dst = Reg::EAX;
      Cmp.Src = B;
    }
  }

  void selectInstr(const Instr &I);

  const ir::Module &M;
  const Function &F;
  mir::MFunction &MF;
  FramePlan Plan;
  std::vector<int32_t> KnownConst;
  std::vector<bool> HasConst;
  std::vector<unsigned> UseCount;
  mir::MBasicBlock *CurBB = nullptr;
};

bool isComparison(Opcode Op) {
  switch (Op) {
  case Opcode::CmpEq:
  case Opcode::CmpNe:
  case Opcode::CmpLt:
  case Opcode::CmpLe:
  case Opcode::CmpGt:
  case Opcode::CmpGe:
    return true;
  default:
    return false;
  }
}

/// Maps IR comparison opcodes to IA-32 condition codes (signed forms).
x86::CondCode ccFor(Opcode Op) {
  switch (Op) {
  case Opcode::CmpEq:
    return x86::CondCode::E;
  case Opcode::CmpNe:
    return x86::CondCode::NE;
  case Opcode::CmpLt:
    return x86::CondCode::L;
  case Opcode::CmpLe:
    return x86::CondCode::LE;
  case Opcode::CmpGt:
    return x86::CondCode::G;
  case Opcode::CmpGe:
    return x86::CondCode::GE;
  default:
    assert(false && "not a comparison");
    return x86::CondCode::E;
  }
}

void Selector::selectInstr(const Instr &I) {
  switch (I.Op) {
  case Opcode::Const: {
    const ValueLoc &Loc = Plan.Values[I.Dst];
    if (Loc.InReg) {
      MInstr &MI = emit(MOp::MovRI);
      MI.Dst = Loc.R;
      MI.Imm = static_cast<int32_t>(I.Imm);
      return;
    }
    MInstr &MI = emit(MOp::MovRI);
    MI.Dst = Reg::EAX;
    MI.Imm = static_cast<int32_t>(I.Imm);
    writeValue(I.Dst, Reg::EAX);
    return;
  }

  case Opcode::Copy: {
    Reg Src = operandReg(I.A, Reg::EAX);
    writeValue(I.Dst, Src);
    return;
  }

  case Opcode::Add:
  case Opcode::Sub:
  case Opcode::Mul:
  case Opcode::And:
  case Opcode::Or:
  case Opcode::Xor: {
    loadTo(Reg::EAX, I.A);
    if (I.Op == Opcode::Mul) {
      Reg B = operandReg(I.B, Reg::ECX);
      MInstr &MI = emit(MOp::ImulRR);
      MI.Dst = Reg::EAX;
      MI.Src = B;
    } else {
      x86::AluOp Alu;
      switch (I.Op) {
      case Opcode::Add:
        Alu = x86::AluOp::Add;
        break;
      case Opcode::Sub:
        Alu = x86::AluOp::Sub;
        break;
      case Opcode::And:
        Alu = x86::AluOp::And;
        break;
      case Opcode::Or:
        Alu = x86::AluOp::Or;
        break;
      default:
        Alu = x86::AluOp::Xor;
        break;
      }
      int32_t K;
      if (constOf(I.B, K)) {
        MInstr &MI = emit(MOp::AluRI);
        MI.Dst = Reg::EAX;
        MI.Imm = K;
        MI.Alu = Alu;
      } else {
        Reg B = operandReg(I.B, Reg::ECX);
        MInstr &MI = emit(MOp::AluRR);
        MI.Dst = Reg::EAX;
        MI.Src = B;
        MI.Alu = Alu;
      }
    }
    writeValue(I.Dst, Reg::EAX);
    return;
  }

  case Opcode::Div:
  case Opcode::Rem: {
    loadTo(Reg::EAX, I.A);
    // The divisor must not sit in EDX (CDQ overwrites it); promoted
    // registers are safe, frame slots load into ECX.
    Reg B = operandReg(I.B, Reg::ECX);
    emit(MOp::Cdq);
    MInstr &MI = emit(MOp::Idiv);
    MI.Src = B;
    writeValue(I.Dst, I.Op == Opcode::Div ? Reg::EAX : Reg::EDX);
    return;
  }

  case Opcode::Shl:
  case Opcode::AShr: {
    loadTo(Reg::EAX, I.A);
    int32_t K;
    if (constOf(I.B, K)) {
      MInstr &MI = emit(MOp::ShiftRI);
      MI.Dst = Reg::EAX;
      MI.Imm = K & 31;
      MI.Shift =
          I.Op == Opcode::Shl ? x86::ShiftOp::Shl : x86::ShiftOp::Sar;
    } else {
      loadTo(Reg::ECX, I.B);
      MInstr &MI = emit(MOp::ShiftRC);
      MI.Dst = Reg::EAX;
      MI.Shift =
          I.Op == Opcode::Shl ? x86::ShiftOp::Shl : x86::ShiftOp::Sar;
    }
    writeValue(I.Dst, Reg::EAX);
    return;
  }

  case Opcode::Neg:
  case Opcode::Not: {
    loadTo(Reg::EAX, I.A);
    MInstr &MI = emit(I.Op == Opcode::Neg ? MOp::Neg : MOp::Not);
    MI.Dst = Reg::EAX;
    writeValue(I.Dst, Reg::EAX);
    return;
  }

  case Opcode::CmpEq:
  case Opcode::CmpNe:
  case Opcode::CmpLt:
  case Opcode::CmpLe:
  case Opcode::CmpGt:
  case Opcode::CmpGe: {
    emitCompare(I);
    MInstr &Set = emit(MOp::Setcc);
    Set.CC = ccFor(I.Op);
    Set.Dst = Reg::EAX;
    MInstr &Zext = emit(MOp::Movzx8);
    Zext.Dst = Reg::EAX;
    Zext.Src = Reg::EAX;
    writeValue(I.Dst, Reg::EAX);
    return;
  }

  case Opcode::Load: {
    Reg A = operandReg(I.A, Reg::EAX);
    MInstr &MI = emit(MOp::Load);
    MI.Dst = Reg::EAX;
    MI.Src = A;
    MI.Imm = static_cast<int32_t>(I.Imm);
    writeValue(I.Dst, Reg::EAX);
    return;
  }

  case Opcode::Store: {
    Reg A = operandReg(I.A, Reg::EAX);
    Reg B = operandReg(I.B, Reg::ECX);
    MInstr &MI = emit(MOp::Store);
    MI.Dst = A;
    MI.Src = B;
    MI.Imm = static_cast<int32_t>(I.Imm);
    return;
  }

  case Opcode::GlobalAddr: {
    MInstr &MI = emit(MOp::MovGlobal);
    MI.Dst = Reg::EAX;
    MI.Imm = static_cast<int32_t>(I.Imm);
    writeValue(I.Dst, Reg::EAX);
    return;
  }

  case Opcode::FrameAddr: {
    MInstr &MI = emit(MOp::LeaFrame);
    MI.Dst = Reg::EAX;
    MI.Imm = Plan.ObjectDisp[static_cast<size_t>(I.Imm)];
    writeValue(I.Dst, Reg::EAX);
    return;
  }

  case Opcode::Call: {
    // cdecl: push arguments right-to-left, caller cleans up.
    for (size_t A = I.Args.size(); A-- > 0;) {
      int32_t K;
      if (constOf(I.Args[A], K)) {
        MInstr &P = emit(MOp::PushI);
        P.Imm = K;
        continue;
      }
      Reg R = operandReg(I.Args[A], Reg::EAX);
      MInstr &P = emit(MOp::Push);
      P.Src = R;
    }
    MInstr &C = emit(MOp::Call);
    C.Target = I.Target;
    if (!I.Args.empty()) {
      MInstr &Sp = emit(MOp::AdjustSP);
      Sp.Imm = static_cast<int32_t>(I.Args.size() * 4);
    }
    if (I.Dst != NoValue)
      writeValue(I.Dst, Reg::EAX);
    return;
  }

  case Opcode::Br: {
    MInstr &MI = emit(MOp::Jmp);
    MI.Imm = static_cast<int32_t>(I.Succ0);
    return;
  }

  case Opcode::CondBr: {
    Reg A = operandReg(I.A, Reg::EAX);
    MInstr &T = emit(MOp::TestRR);
    T.Dst = A;
    T.Src = A;
    MInstr &J = emit(MOp::Jcc);
    J.CC = x86::CondCode::NE;
    J.Imm = static_cast<int32_t>(I.Succ0);
    MInstr &E = emit(MOp::Jmp);
    E.Imm = static_cast<int32_t>(I.Succ1);
    return;
  }

  case Opcode::Ret: {
    if (I.A == NoValue) {
      MInstr &Z = emit(MOp::MovRI);
      Z.Dst = Reg::EAX;
      Z.Imm = 0;
    } else {
      loadTo(Reg::EAX, I.A);
    }
    emit(MOp::Ret);
    return;
  }
  }
}

void Selector::run() {
  MF.Name = F.Name;
  MF.NumParams = F.NumParams;
  MF.FrameBytes = Plan.FrameBytes;
  MF.ValueSlotsLowDisp = Plan.ValueSlotsLowDisp;
  MF.UsesEbx = Plan.UsesEbx;
  MF.UsesEsi = Plan.UsesEsi;
  MF.UsesEdi = Plan.UsesEdi;
  MF.Blocks.resize(F.Blocks.size());

  for (size_t B = 0; B != F.Blocks.size(); ++B) {
    CurBB = &MF.Blocks[B];
    CurBB->Name = F.Blocks[B].Name;
    // Entry block: move promoted parameters from their incoming stack
    // slots into their registers.
    if (B == 0) {
      for (ValueId V = 0; V != F.NumParams; ++V) {
        const ValueLoc &Loc = Plan.Values[V];
        if (!Loc.InReg)
          continue;
        MInstr &L = emit(MOp::LoadFrame);
        L.Dst = Loc.R;
        L.Imm = Loc.FrameDisp;
      }
    }
    const auto &Instrs = F.Blocks[B].Instrs;
    for (size_t K = 0; K != Instrs.size(); ++K) {
      // Fuse `x = a cmp b; condbr x` into `cmp a, b; jcc` when the
      // comparison result feeds only this branch (standard -O2 branch
      // lowering; also what keeps hot loop headers tight).
      if (K + 1 != Instrs.size() && isComparison(Instrs[K].Op) &&
          Instrs[K + 1].Op == Opcode::CondBr &&
          Instrs[K + 1].A == Instrs[K].Dst &&
          UseCount[Instrs[K].Dst] == 1 &&
          !Plan.Values[Instrs[K].Dst].InReg) {
        emitCompare(Instrs[K]);
        MInstr &J = emit(MOp::Jcc);
        J.CC = ccFor(Instrs[K].Op);
        J.Imm = static_cast<int32_t>(Instrs[K + 1].Succ0);
        MInstr &E = emit(MOp::Jmp);
        E.Imm = static_cast<int32_t>(Instrs[K + 1].Succ1);
        ++K;
        continue;
      }
      selectInstr(Instrs[K]);
    }
  }
}

} // namespace

mir::MModule lir::selectInstructions(const ir::Module &M) {
  assert(ir::verify(M).empty() && "IR module must verify before ISel");
  mir::MModule MM;
  MM.Name = M.Name;
  MM.Globals = M.Globals;
  MM.EntryFunction = M.entryFunction();
  MM.Functions.resize(M.Functions.size());
  for (size_t F = 0; F != M.Functions.size(); ++F) {
    Selector S(M, M.Functions[F], MM.Functions[F]);
    S.run();
  }
  assert(mir::verify(MM).empty() && "ISel produced invalid machine IR");
  return MM;
}

unsigned lir::peephole(mir::MModule &M) {
  unsigned NumChanged = 0;
  for (mir::MFunction &F : M.Functions) {
    // 1. Block-local slot forwarding: track which register currently
    //    holds each frame slot's value; reloads become register moves.
    //    Scalar slots cannot alias anything else (MiniC has no
    //    address-of on scalars; LeaFrame pointers only reach the object
    //    area strictly below ValueSlotsLowDisp).
    for (mir::MBasicBlock &BB : F.Blocks) {
      std::map<int32_t, Reg> SlotInReg;
      std::vector<MInstr> Out;
      Out.reserve(BB.Instrs.size());
      for (MInstr I : BB.Instrs) {
        if (I.Op == MOp::LoadFrame) {
          auto It = SlotInReg.find(I.Imm);
          if (It != SlotInReg.end()) {
            ++NumChanged;
            if (It->second == I.Dst)
              continue; // value already there
            I.Op = MOp::MovRR;
            I.Src = It->second;
          }
        }
        // Self-moves are dead.
        if (I.Op == MOp::MovRR && I.Dst == I.Src) {
          ++NumChanged;
          continue;
        }
        // Invalidate mappings whose register gets overwritten.
        const uint8_t Written = mir::writtenRegs(I);
        for (auto It = SlotInReg.begin(); It != SlotInReg.end();)
          It = Written & (1u << x86::regNum(It->second))
                   ? SlotInReg.erase(It)
                   : std::next(It);
        // Record new slot/register facts.
        if (I.Op == MOp::StoreFrame)
          SlotInReg[I.Imm] = I.Src;
        else if (I.Op == MOp::LoadFrame)
          SlotInReg[I.Imm] = I.Dst;
        Out.push_back(I);
      }
      BB.Instrs = std::move(Out);
    }

    // 2. Block-local dead scratch-register moves: a MovRI/MovRR/
    //    LoadFrame/LeaFrame/MovGlobal into EAX/ECX/EDX whose result is
    //    overwritten before any read is dead. None of these touch
    //    EFLAGS, so removal cannot disturb the cmp/test+jcc contract.
    //    EBX/ESI/EDI carry values across blocks and are left alone.
    for (mir::MBasicBlock &BB : F.Blocks) {
      std::vector<bool> Dead(BB.Instrs.size(), false);
      bool LiveReg[x86::NumRegs];
      for (unsigned R = 0; R != x86::NumRegs; ++R)
        LiveReg[R] = true;
      LiveReg[x86::regNum(Reg::EAX)] = false;
      LiveReg[x86::regNum(Reg::ECX)] = false;
      LiveReg[x86::regNum(Reg::EDX)] = false;
      for (size_t K = BB.Instrs.size(); K-- > 0;) {
        const MInstr &I = BB.Instrs[K];
        bool RemovableKind =
            I.Op == MOp::MovRI || I.Op == MOp::MovRR ||
            I.Op == MOp::LoadFrame || I.Op == MOp::LeaFrame ||
            I.Op == MOp::MovGlobal;
        unsigned DstN = x86::regNum(I.Dst);
        if (RemovableKind && !LiveReg[DstN] &&
            (I.Dst == Reg::EAX || I.Dst == Reg::ECX ||
             I.Dst == Reg::EDX)) {
          Dead[K] = true;
          ++NumChanged;
          continue;
        }
        // Update liveness: writes kill, reads gen.
        const uint8_t Written = mir::writtenRegs(I);
        // Read-modify-write instructions also read their destination.
        bool ReadsDst = false;
        switch (I.Op) {
        case MOp::AluRR:
        case MOp::AluRI:
        case MOp::ImulRR:
        case MOp::Neg:
        case MOp::Not:
        case MOp::ShiftRI:
        case MOp::ShiftRC:
        case MOp::Setcc:
        case MOp::TestRR:
        case MOp::Store:
          ReadsDst = true;
          break;
        default:
          break;
        }
        for (unsigned R = 0; R != x86::NumRegs; ++R)
          if (Written & (1u << R))
            LiveReg[R] = false;
        if (ReadsDst)
          LiveReg[x86::regNum(I.Dst)] = true;
        switch (I.Op) { // source reads
        case MOp::MovRR:
        case MOp::Load:
        case MOp::Store:
        case MOp::StoreFrame:
        case MOp::AluRR:
        case MOp::ImulRR:
        case MOp::TestRR:
        case MOp::Movzx8:
        case MOp::Idiv:
        case MOp::Push:
          LiveReg[x86::regNum(I.Src)] = true;
          break;
        default:
          break;
        }
        switch (I.Op) { // implicit reads
        case MOp::Cdq:
        case MOp::Ret: // return value
          LiveReg[x86::regNum(Reg::EAX)] = true;
          break;
        case MOp::Idiv:
          LiveReg[x86::regNum(Reg::EAX)] = true;
          LiveReg[x86::regNum(Reg::EDX)] = true;
          break;
        case MOp::ShiftRC:
          LiveReg[x86::regNum(Reg::ECX)] = true;
          break;
        default:
          break;
        }
      }
      std::vector<MInstr> Kept2;
      Kept2.reserve(BB.Instrs.size());
      for (size_t K = 0; K != BB.Instrs.size(); ++K)
        if (!Dead[K])
          Kept2.push_back(BB.Instrs[K]);
      BB.Instrs = std::move(Kept2);
    }

    // 3. Frame dead-store elimination: after forwarding, a StoreFrame
    //    to a scalar value slot whose displacement is never loaded
    //    anywhere in the function is dead (no-alias argument above).
    std::set<int32_t> ReadDisps;
    for (const mir::MBasicBlock &BB : F.Blocks)
      for (const MInstr &I : BB.Instrs)
        if (I.Op == MOp::LoadFrame)
          ReadDisps.insert(I.Imm);
    for (mir::MBasicBlock &BB : F.Blocks) {
      std::vector<MInstr> Kept;
      Kept.reserve(BB.Instrs.size());
      for (const MInstr &I : BB.Instrs) {
        if (I.Op == MOp::StoreFrame && I.Imm >= F.ValueSlotsLowDisp &&
            !ReadDisps.count(I.Imm)) {
          ++NumChanged;
          continue;
        }
        Kept.push_back(I);
      }
      BB.Instrs = std::move(Kept);
    }
  }
  return NumChanged;
}


