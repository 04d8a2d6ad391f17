//===-- verify/FaultInjector.h - Verification self-test harness -*- C++ -*-===//
//
// Part of the PGSD project, a reproduction of "Profile-guided Automated
// Software Diversity" (Homescu et al., CGO 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Deliberate corruption of diversified variants, used to prove the
/// verifier's checks actually fire. A verification pipeline that is
/// never exercised against broken inputs silently decays into a rubber
/// stamp; the fault matrix below is the regression harness that keeps
/// each check family honest (tests assert 100% detection per class).
///
/// Fault classes model realistic toolchain defects:
///  * TextBitFlip       -- memory/storage corruption of the image.
///  * DroppedRelocation -- a linker fixup left unapplied.
///  * MangledBranchTarget -- a diversification pass retargeting a branch
///    (the bug class NOP insertion could introduce if it touched
///    terminators).
///  * WrongLengthNop    -- emitted NOP bytes replaced by a different
///    sequence, desynchronizing image from MIR.
///  * CorruptProfileCount -- stamped counts inconsistent with CFG flow
///    (a profile mapped onto the wrong program, or counter overflow).
///  * TruncatedText     -- an image cut short mid-instruction.
///
//===----------------------------------------------------------------------===//

#ifndef PGSD_VERIFY_FAULTINJECTOR_H
#define PGSD_VERIFY_FAULTINJECTOR_H

#include "codegen/Linker.h"
#include "lir/MIR.h"
#include "support/Rng.h"

#include <cstdint>

namespace pgsd {
namespace verify {

/// One corruption class the injector can apply.
enum class FaultClass : uint8_t {
  TextBitFlip,
  DroppedRelocation,
  MangledBranchTarget,
  WrongLengthNop,
  CorruptProfileCount,
  TruncatedText,
};

/// Number of fault classes (for sweep loops).
inline constexpr unsigned NumFaultClasses = 6;

/// Returns a stable kebab-case name ("text-bit-flip", ...).
const char *faultClassName(FaultClass Class);

/// Applies one fault of a chosen class to a (MIR, image) pair. Site
/// selection is seeded and deterministic. MIR-level faults re-link the
/// image from the corrupted MIR so the pair stays internally coherent
/// (detection must come from the prover, profile or differential
/// checks, not from a trivial MIR/image disagreement); image-level
/// faults leave the MIR untouched.
class FaultInjector {
public:
  explicit FaultInjector(uint64_t Seed,
                         const codegen::LinkOptions &LinkOpts =
                             codegen::LinkOptions())
      : Gen(Seed), Link(LinkOpts) {}

  /// Corrupts \p Variant / \p Image. Returns false when the class has no
  /// eligible site in this variant (e.g. no two-byte NOP to mangle); the
  /// artifacts are unchanged in that case.
  bool inject(FaultClass Class, mir::MModule &Variant,
              codegen::Image &Image);

private:
  bool flipTextBit(codegen::Image &Image);
  bool dropRelocation(const mir::MModule &Variant, codegen::Image &Image);
  bool mangleBranchTarget(mir::MModule &Variant, codegen::Image &Image);
  bool mangleNopLength(codegen::Image &Image);
  bool corruptProfileCount(mir::MModule &Variant);
  bool truncateText(codegen::Image &Image);

  Rng Gen;
  codegen::LinkOptions Link;
};

} // namespace verify
} // namespace pgsd

#endif // PGSD_VERIFY_FAULTINJECTOR_H
