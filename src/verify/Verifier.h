//===-- verify/Verifier.h - Variant verification pipeline -------*- C++ -*-===//
//
// Part of the PGSD project, a reproduction of "Profile-guided Automated
// Software Diversity" (Homescu et al., CGO 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Generate-and-check: the paper's claim that NOP insertion "does not
/// affect program semantics" (Section 3) is trusted by construction in
/// the transformation pass, and *checked* here before a variant is
/// accepted. verifyVariant is the one admission function: the variant
/// factory (driver::makeVariantVerified), `pgsdc diversify` and the
/// tests all admit a variant through it. It runs, in order:
///
///  0. Equality modulo NOPs: when mir::equalModuloNops(Baseline,
///     Variant) holds and the baseline's six-checker analysis is clean
///     (BaselineCache::analysisClean(), once per cache), the variant is
///     settled: stages 1, 2 and 5 are skipped, stages 3 and 4 still run,
///     and the attempt counts in BaselineCache::identical(). Otherwise
///     every stage below runs, and an unclean baseline's variant is
///     rejected by its own analysis, with its own diagnostics.
///  1. Static analysis: the six analysis/ checkers on the variant MIR.
///  2. Translation validation: the equivalence prover (analysis/Equiv.h)
///     must prove the variant observationally equivalent to the
///     baseline. Either static stage rejects the variant on its own;
///     nothing later runs.
///  3. mir::verify, then profile flow: stamped counts must respect CFG
///     flow conservation.
///  4. Image integrity: the linked .text must byte-match a deterministic
///     re-emission of the variant MIR, decode end-to-end as valid IA-32,
///     and keep every relative branch target inside the image. A {nop}
///     image is spliced from the baseline's encoding, so for it the
///     re-emission is a second encoder.
///  5. Differential execution: baseline and variant MIR run on a
///     deterministic input battery; exit code, output checksum, output
///     text, and trap behaviour must agree input-for-input.
///
/// Why stage 0 may skip stages 1, 2 and 5. The relation says: deleting
/// every MOp::Nop from both modules leaves them equal in every field
/// execution reads, and every NOP of the variant is followed by a
/// non-NOP of its own block. Then the variant runs the baseline's
/// instruction sequence with NOPs in between, so it agrees with it on
/// every input (stage 5), and the prover would prove it (stage 2). Each
/// checker of stage 1 gives the variant the baseline's verdict:
///
///  - a NOP is the identity of every checker's transfer function:
///    flagEffect(MOp::Nop) is Neutral (EflagsFlow), mir::readRegs and
///    mir::writtenRegs are empty for it (RegLiveness, and CallConv's
///    caller-saved reads and ESP/EBP writes), it moves no stack pointer
///    (StackBalance) and touches no frame slot (FrameBounds). Every
///    non-NOP therefore sees the state it sees in the baseline;
///  - no checker reports a NOP itself: it has no branch, call or counter
///    target (CfgWellFormed's range checks) and no 8-bit operand;
///  - the position-based rules admit NOPs: CfgWellFormed allows NOPs
///    inside the trailing branch group, CallConv skips NOPs between CDQ
///    and IDIV, and no variant NOP ends a block, so a block's terminator
///    stays its last instruction and the last block cannot fall through.
///
/// tests/MirEquivTest.cpp pins the consequence on the suite: every
/// NOP-only variant gets its baseline's analyzer verdict and is proved.
///
/// The checks overlap on purpose, and tests/AdmissionCoverageTest.cpp
/// measures how: it injects every verify::FaultInjector and
/// analysis::MirFault class, runs each check on its own, and pins which
/// checks catch each class and that none escapes verifyVariant.
///
//===----------------------------------------------------------------------===//

#ifndef PGSD_VERIFY_VERIFIER_H
#define PGSD_VERIFY_VERIFIER_H

#include "codegen/Linker.h"
#include "lir/MIR.h"
#include "mexec/Interp.h"
#include "verify/Diagnostic.h"

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

namespace pgsd {
namespace verify {

class BaselineCache;

/// Configuration of one verification run.
struct VerifyOptions {
  /// Inputs for differential execution; when empty, defaultInputBattery()
  /// is used. Each entry is one read_int() stream.
  std::vector<std::vector<int32_t>> InputBattery;

  /// Dynamic instruction budget for the baseline run of each input. The
  /// variant run gets 3 * the baseline's executed instructions + 4096:
  /// NOP insertion adds at most one NOP per instruction, and a shift
  /// prelude adds a jump (plus its NOP) per call, so a correct variant
  /// is never failed for executing what it legitimately contains. The
  /// NOP bound is checked, not assumed: mir::equalModuloNops, which
  /// settles NOP-only variants without running them, requires every NOP
  /// to precede a non-NOP of its block (at most 2 * Instructions + 1
  /// steps); a variant that breaks it runs under this budget.
  uint64_t MaxSteps = 50'000'000;

  /// Enable the translation-validation stage of verifyVariant: the
  /// symbolic equivalence prover (analysis/Equiv.h) must prove the
  /// variant observationally equivalent to the baseline before any
  /// dynamic verification runs. A refutation rejects the variant with
  /// ErrorCode::EquivRejected (and moves driver::makeVariantVerified's
  /// retry schedule to the next seed). Tests turn it off to reach
  /// differential execution with a fault the prover would refute.
  bool CheckEquiv = true;

  /// Link options the image under test was produced with; the re-link
  /// comparison must use the same ones.
  codegen::LinkOptions Link;

  /// Retry budget for driver::makeVariantVerified (total attempts,
  /// including the first).
  unsigned MaxAttempts = 3;

  /// Seed-space backoff stride for the retry schedule (RetrySchedule
  /// below). 0 -- the default -- reproduces the historical schedule
  /// deriveRetrySeed(Seed, Attempt) exactly; a nonzero stride walks the
  /// base seed forward by a linearly growing step per attempt so
  /// repeated retry loops (nvx respawn after seed exhaustion) fan out
  /// into fresh seed neighbourhoods instead of re-mining one.
  uint64_t SeedStride = 0;

  /// Optional shared baseline run cache (verify/BaselineCache.h). When
  /// set, diffExecute takes its battery and baseline RunResults from the
  /// cache instead of re-running the baseline, verifyVariant takes the
  /// baseline's analysis verdict from it, and the attempts settled by
  /// mir::equalModuloNops are counted there (BaselineCache::identical());
  /// the cache must have been built from the same baseline module and
  /// equivalent options. When null, callers that verify repeatedly
  /// (retry loops, batches) still get a per-call battery built exactly
  /// once.
  const BaselineCache *Cache = nullptr;

  /// Test seam: invoked on each candidate variant before verification
  /// (fault-injection tests corrupt the candidate here). Receives the
  /// variant MIR, its linked image, and the seed of the attempt.
  std::function<void(mir::MModule &, codegen::Image &, uint64_t)>
      InjectFault;
};

/// The deterministic input battery used when VerifyOptions::InputBattery
/// is empty: edge-case streams (empty, zeros, negatives, boundary
/// values) plus short pseudo-random streams.
std::vector<std::vector<int32_t>> defaultInputBattery();

/// Seed of retry attempt \p Attempt for base seed \p Seed. Attempt 0 is
/// the seed itself; later attempts apply a SplitMix64-style mix so the
/// schedule is deterministic yet decorrelated.
uint64_t deriveRetrySeed(uint64_t Seed, unsigned Attempt);

/// Deterministic bounded-retry seed schedule, shared by the verified
/// variant factory (driver::makeVariantVerified) and the nvx respawn
/// path so both walk seeds the same way. Attempt k draws
/// deriveRetrySeed(Base + Stride * T(k), k) where T(k) = k*(k+1)/2 is
/// the k-th triangular number: with Stride == 0 that is byte-for-byte
/// the historical schedule, and a nonzero Stride is a backoff in seed
/// space -- each attempt jumps a linearly growing distance from the
/// base, so independent schedules with distinct strides decorrelate
/// even from a shared base seed. Purely computational: callers decide
/// what an "attempt" does; the schedule only hands out seeds until the
/// budget runs dry.
class RetrySchedule {
public:
  /// \p MaxAttempts counts total attempts including the first; 0 is
  /// clamped to 1 (a schedule that can never hand out a seed is useless
  /// and historically MaxAttempts==0 meant one attempt).
  RetrySchedule(uint64_t BaseSeed, unsigned MaxAttempts,
                uint64_t SeedStride = 0)
      : Base(BaseSeed), Stride(SeedStride),
        Budget(MaxAttempts == 0 ? 1 : MaxAttempts) {}

  /// Seed of attempt \p Attempt (0-based), independent of cursor state.
  uint64_t seedFor(unsigned Attempt) const {
    uint64_t Tri = (static_cast<uint64_t>(Attempt) * (Attempt + 1)) / 2;
    return deriveRetrySeed(Base + Stride * Tri, Attempt);
  }

  /// True once every budgeted attempt has been drawn.
  bool exhausted() const { return Next >= Budget; }

  /// Hands out the next attempt's seed and advances. Precondition:
  /// !exhausted().
  uint64_t next() { return seedFor(Next++); }

  /// Attempts drawn so far.
  unsigned attemptsMade() const { return Next; }

  /// Total attempt budget (>= 1).
  unsigned budget() const { return Budget; }

private:
  uint64_t Base;
  uint64_t Stride;
  unsigned Budget;
  unsigned Next = 0;
};

/// Admits or rejects \p Variant (with linked image \p Image) against
/// \p Baseline through every check in the order of the file comment.
/// Returns an empty report when the variant is admitted. A static
/// rejection ends with ErrorCode::StaticAnalysisRejected or
/// ErrorCode::EquivRejected. \p Witness is register shuffling's
/// per-function renaming row (RegShuffleStats::Renamings), a hint the
/// prover checks and never trusts. When Opts.Cache was built on
/// \p Baseline itself, the baseline's analysis and liveness verdicts
/// come from it instead of being re-derived. \p ModuloNops, when given,
/// is set to whether stage 0 settled the variant.
Report verifyVariant(const mir::MModule &Baseline,
                     const mir::MModule &Variant,
                     const codegen::Image &Image,
                     const VerifyOptions &Opts,
                     std::span<const uint8_t> Witness = {},
                     bool *ModuloNops = nullptr);

/// The differential-execution family alone: \p Variant must match
/// \p Baseline input-for-input on the battery, unless
/// mir::equalModuloNops(Baseline, Variant) already settles that it does
/// on every input. Precondition: mir::verify(Variant) is clean.
Report verifyExecution(const mir::MModule &Baseline,
                       const mir::MModule &Variant,
                       const VerifyOptions &Opts);

/// The image-integrity family alone (re-link compare, decode walk,
/// branch-target bounds). Exposed for tools that have an image but no
/// baseline to diff against.
Report verifyImage(const mir::MModule &Variant, const codegen::Image &Image,
                   const codegen::LinkOptions &Link);

/// The image family's decode walk alone, on raw \p Text: every
/// instruction valid and every relative branch target inside it.
Report verifyImageDecode(std::span<const uint8_t> Text);

/// The profile-sanity family alone: stamped per-block counts of \p M
/// must satisfy CFG flow conservation (a block cannot execute more often
/// than its predecessors combined, and an executed non-returning block
/// must hand control to some successor).
Report verifyProfileFlow(const mir::MModule &M);

} // namespace verify
} // namespace pgsd

#endif // PGSD_VERIFY_VERIFIER_H
