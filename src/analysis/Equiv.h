//===-- analysis/Equiv.h - Translation validation for variants ---*- C++ -*-===//
//
// Part of the PGSD project, a reproduction of "Profile-guided Automated
// Software Diversity" (Homescu et al., CGO 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Translation validation: a symbolic proof that a diversified variant
/// is observationally equivalent to its baseline, computed without
/// executing either module. The paper's premise -- NOP insertion and
/// block shifting preserve semantics -- is discharged dynamically by
/// verify::diffExecute over an input battery, which can miss any
/// divergence the battery does not exercise. The prover here discharges
/// it statically: its cost is independent of battery size and its
/// guarantee independent of input coverage.
///
/// Per matched function pair, the prover
///
///  1. recovers the block correspondence under the block-shift layout
///     permutation (identity, or baseline block i <-> variant block
///     i+2 once the two-block entry prelude is proven effect-free),
///  2. symbolically executes each block pair over an effect algebra: a
///     dense register environment of hash-consed terms, a lazy EFLAGS
///     term (CMP/TEST build definitions, everything analysis::flagEffect
///     classifies as Clobbers invalidates), a symbolic push stack, and
///     an ordered trace of memory / call / profile-counter events,
///  3. normalizes away inserted NOPs (analysis::isInsertedNop), and
///  4. requires the two sides to agree on the full event trace, every
///     conditional branch condition and (shift-corrected) target, the
///     terminator, the exit register environment, the exit stack, and
///     the exit flags term.
///
/// Register shuffling renames the callee-saved class {EBX, ESI, EDI}, so
/// each function pair is compared under candidate renamings
/// (CalleeSavedRenamings). Non-identity candidates need the RegLiveness
/// verdict of both modules; a caller that has already computed those
/// verdicts on the exact modules passes them as EquivFacts and the
/// prover does not analyse either module again. A caller may also pass
/// the renaming witness register shuffling recorded
/// (diversity::RegShuffleStats::Renamings): each function tries its
/// witnessed row first, then the canonical order without it. The
/// witness is a hint, not a claim: every candidate still has to pass
/// the same soundness gates and the full block comparison, a refuted
/// function still reports the first canonical candidate's
/// counterexample, and a wrong, out-of-range, missing or over-long
/// witness changes only the time taken, never the report.
///
/// A disagreement is a counterexample, reported as a structured
/// verify::Diagnostic naming the function, the block pair, and the
/// first mismatching effect with the offending instruction pretty-
/// printed via mir::printInstr. The proof is sound for acceptance: the
/// effect algebra never identifies two computations that could differ
/// concretely, so "proved" implies observational equivalence under the
/// execution model of mexec/Interp.h. It is deliberately conservative
/// for rejection -- semantically equal but syntactically different
/// computations (e.g. re-associated arithmetic) are refuted, which is
/// exactly right for transforms whose contract is "the instruction
/// stream minus NOPs is unchanged".
///
//===----------------------------------------------------------------------===//

#ifndef PGSD_ANALYSIS_EQUIV_H
#define PGSD_ANALYSIS_EQUIV_H

#include "lir/MIR.h"
#include "verify/Diagnostic.h"

#include <cstdint>
#include <optional>
#include <span>

namespace pgsd {
namespace analysis {

/// The renamings of the cdecl callee-saved class {EBX, ESI, EDI}, as
/// (pi(ebx), pi(esi), pi(edi)) register-number rows, identity first.
/// The prover tries them in this (canonical) order; register shuffling
/// draws a row from it (rows 0-1 only when EBX is pinned), so the row
/// index is the witness the prover accepts.
inline constexpr unsigned NumCalleeSavedRenamings = 6;
inline constexpr uint8_t CalleeSavedRenamings[NumCalleeSavedRenamings][3] = {
    {3, 6, 7}, {3, 7, 6}, {6, 3, 7}, {6, 7, 3}, {7, 3, 6}, {7, 6, 3},
};

/// Configuration of one equivalence proof.
struct EquivOptions {
  /// Diagnostic cap per run: the prover stops collecting
  /// counterexamples (at most one per function) once reached.
  unsigned MaxDiagnostics = 16;

  /// Term-arena cap per function pair; exceeding it aborts the proof of
  /// that function with ErrorCode::EquivAborted instead of a verdict.
  /// Generous: real functions build a few terms per instruction.
  uint32_t MaxTermsPerFunction = 1u << 22;
};

/// Tally of one proveEquivalent call, per matched function.
struct EquivStats {
  uint64_t FunctionsProved = 0;
  uint64_t FunctionsRefuted = 0;
  uint64_t FunctionsAborted = 0;
  /// Renaming candidates compared block by block, summed over
  /// functions: one per function when the first candidate proves it.
  uint64_t CandidatesTried = 0;
};

/// Verdicts the caller has already computed on the exact modules it
/// passes to proveEquivalent. An unset verdict is computed by the prover
/// the first time a non-identity renaming needs it, so passing no facts
/// gives the same report at the cost of the analysis.
struct EquivFacts {
  /// analyzeModule with CheckerKind::RegLiveness enabled found no
  /// use-before-def on the baseline / on the variant.
  std::optional<bool> BaselineLiveness;
  std::optional<bool> VariantLiveness;
};

/// Proves \p Variant observationally equivalent to \p Baseline. An
/// empty report is the proof; otherwise every diagnostic carries
/// ErrorCode::EquivRefuted with a counterexample (or EquivAborted when
/// the prover could not finish a function). Exports equiv.* metrics
/// (modules_checked / proved / refuted / aborted counters and a
/// per-function wall-time histogram) when telemetry is enabled.
///
/// \p Facts must hold for exactly \p Baseline and \p Variant (see
/// EquivFacts). \p Witness, when non-empty, names one
/// CalleeSavedRenamings row per function, in function order; it is
/// untrusted and never changes the report.
verify::Report proveEquivalent(const mir::MModule &Baseline,
                               const mir::MModule &Variant,
                               const EquivOptions &Opts = EquivOptions(),
                               EquivStats *Stats = nullptr,
                               const EquivFacts &Facts = EquivFacts(),
                               std::span<const uint8_t> Witness = {});

} // namespace analysis
} // namespace pgsd

#endif // PGSD_ANALYSIS_EQUIV_H
