//===-- analysis/Analysis.h - MIR static analysis framework ------*- C++ -*-===//
//
// Part of the PGSD project, a reproduction of "Profile-guided Automated
// Software Diversity" (Homescu et al., CGO 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Rule-based static analysis over machine IR: proves the invariants NOP
/// insertion must preserve *before* any variant executes. The paper's
/// central claim -- NOP insertion at the low-level representation is
/// semantics-preserving (Section 4, Table 1) -- is checked dynamically
/// by verify/ (differential execution over an input battery); the
/// analyzer here proves the same class of properties in microseconds by
/// dataflow over the block CFG, and catches violations the battery can
/// never exercise, such as a flag clobber on an untaken path.
///
/// Six checkers run on the shared forward-dataflow engine
/// (analysis/Dataflow.h) or as structural scans:
///
///  1. CfgWellFormed -- terminator placement, branch-target validity,
///     call-target and ProfInc counter-id ranges, 8-bit subregister
///     constraints. Runs first; a function it rejects is skipped by the
///     flow-sensitive checkers, whose solver indexes blocks by branch
///     target.
///  2. RegLiveness -- every register read is preceded by a definition on
///     every path from the function entry (ESP/EBP are defined by the
///     prologue; a Call defines EAX/ECX/EDX).
///  3. EflagsFlow -- every Jcc/Setcc is reached by a CMP/TEST with no
///     EFLAGS-clobbering instruction in between, on every path. This is
///     the checker that statically validates Table 1: every candidate
///     NOP must be flag-transparent (flagEffect == Neutral) to be
///     inserted between a flag definition and its consumer.
///  4. StackBalance -- push/pop/AdjustSP depth is consistent at every
///     join, never underflows, covers each Call's pushed arguments, and
///     returns to zero at every Ret.
///  5. FrameBounds -- LoadFrame/StoreFrame/LeaFrame displacements stay
///     inside the function's frame: scalar slots within
///     [-FrameBytes, -4] and at or above ValueSlotsLowDisp, LeaFrame
///     only in the object area strictly below it, positive
///     displacements only at incoming parameter slots.
///  6. CallConv -- cdecl conformance: no read of caller-saved ECX/EDX
///     after a Call before redefinition, IDIV preceded by CDQ with
///     nothing but NOPs in between, divisor not in EAX/EDX, and no
///     writes to ESP/EBP outside AdjustSP.
///
/// Diagnostics reuse verify::ErrorCode (one code per checker) and carry
/// function name, block index, instruction index, and the printed
/// instruction, e.g.
///
///   [analysis-flags-unproven] main: mbb2 #4 'jl mbb1': ...
///
//===----------------------------------------------------------------------===//

#ifndef PGSD_ANALYSIS_ANALYSIS_H
#define PGSD_ANALYSIS_ANALYSIS_H

#include "lir/MIR.h"
#include "verify/Diagnostic.h"
#include "x86/X86.h"

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace pgsd {
namespace analysis {

/// The checkers, in the order analyzeModule runs them per function.
enum class CheckerKind : uint8_t {
  CfgWellFormed = 0,
  RegLiveness,
  EflagsFlow,
  StackBalance,
  FrameBounds,
  CallConv,
};

/// Number of checkers (for sweep loops).
inline constexpr unsigned NumCheckers = 6;

/// Returns a stable kebab-case name ("cfg-well-formed", ...).
const char *checkerName(CheckerKind K);

/// Returns the verify::ErrorCode this checker's diagnostics carry.
verify::ErrorCode checkerErrorCode(CheckerKind K);

/// How one machine instruction interacts with EFLAGS on real IA-32.
///
/// `Defines` is deliberately limited to CMP and TEST: those are the only
/// producers whose consumption the generated code (and the interpreter's
/// lazy flag model) relies on. Arithmetic that *sets* flags as a side
/// effect (ADD, NEG, shifts, ...) is classified as `Clobbers`, because a
/// Jcc reading those flags would diverge between the interpreter and the
/// emitted binary.
enum class FlagEffect : uint8_t {
  Neutral,  ///< Leaves EFLAGS untouched (all Table 1 NOPs, MOVs, ...).
  Defines,  ///< CMP/TEST: establishes the state Jcc/Setcc consume.
  Clobbers, ///< Overwrites EFLAGS with values no consumer may rely on.
};

/// Classifies \p I. The NOP-insertion pass consults this for every
/// candidate before placing it: only Neutral instructions may be
/// inserted between a flag definition and its consumer, which is the
/// static form of Table 1's "preserves all processor state" claim.
FlagEffect flagEffect(const mir::MInstr &I);

/// True when \p I is an inserted diversity NOP: an instruction the
/// NOP-insertion pass may have added and every comparison against the
/// baseline must ignore. The equivalence prover's normalization uses
/// this one definition. Every MOp::Nop carries a Table 1 candidate
/// (x86/Nops.h) and is flag-transparent by construction (flagEffect ==
/// Neutral).
bool isInsertedNop(const mir::MInstr &I);

/// Invokes \p Fn for every register \p I reads, in operand order: the
/// ordered form of mir::readRegs (same set, same exclusions), for
/// diagnostics that name each register. Checkers test the mask first
/// and visit only when it shows a violation.
void forEachReadReg(const mir::MInstr &I,
                    const std::function<void(x86::Reg)> &Fn);

/// Invokes \p Fn for every register \p I writes, in operand order: the
/// ordered form of mir::writtenRegs. A Call reports EAX/ECX/EDX (the
/// cdecl caller-saved set): they are *defined* after the call in the
/// liveness sense, while the CallConv checker separately rejects reads
/// of the clobbered ECX/EDX.
void forEachWrittenReg(const mir::MInstr &I,
                       const std::function<void(x86::Reg)> &Fn);

/// Number of argument words \p Target consumes from the stack.
unsigned calleeArgWords(const mir::MModule &M, const ir::Callee &Target);

/// Configuration of one analysis run.
struct AnalysisOptions {
  /// Per-checker enable switches, indexed by CheckerKind.
  bool Enabled[NumCheckers] = {true, true, true, true, true, true};

  /// Diagnostic cap per run; a corrupt module yields a bounded report
  /// instead of one diagnostic per instruction.
  unsigned MaxDiagnostics = 64;

  /// Convenience: everything on (the default).
  static AnalysisOptions all();
  /// Convenience: only \p K (plus CfgWellFormed, which gates the
  /// flow-sensitive checkers and is always kept on).
  static AnalysisOptions only(CheckerKind K);
};

/// Renders "func: mbb<B> #<K> '<instr>'" for diagnostics.
std::string instrLocation(const mir::MFunction &F, uint32_t Block,
                          uint32_t Instr);

/// Runs the enabled checkers over every function of \p M. An empty
/// report is a proof (within the rule set) that the module upholds the
/// invariants diversification must preserve.
verify::Report analyzeModule(const mir::MModule &M,
                             const AnalysisOptions &Opts =
                                 AnalysisOptions());

/// The EFLAGS checker alone (with its CFG gate). The NOP-insertion pass
/// asserts this stays clean after every transformation.
verify::Report checkEflags(const mir::MModule &M);

} // namespace analysis
} // namespace pgsd

#endif // PGSD_ANALYSIS_ANALYSIS_H
