//===-- diversity/RegShuffle.h - Register-allocation shuffling ---*- C++ -*-===//
//
// Part of the PGSD project, a reproduction of "Profile-guided Automated
// Software Diversity" (Homescu et al., CGO 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Register-allocation shuffling: per function, permute the physical
/// assignment of the cdecl callee-saved class {EBX, ESI, EDI}. The class
/// is liveness-compatible by construction -- every member is preserved
/// across calls by the prologue/epilogue save set, so a permutation
/// applied uniformly to every operand of a function (and to its
/// UsesEbx/UsesEsi/UsesEdi save flags) renames whole live ranges without
/// crossing any.
///
/// The caller-saved registers are pinned: EAX/ECX/EDX carry cdecl return
/// value/clobber semantics the equivalence prover models by physical
/// identity (call#n.eax, idiv quotients, shift-by-CL), and ESP/EBP are
/// structural. EBX is additionally pinned whenever the function uses it
/// as an 8-bit subregister (Setcc destination or Movzx8 source): ESI/EDI
/// have no low byte on IA-32, so such a live range cannot move.
///
/// Renaming adds no instructions and no executed cycles, so the hot/cold
/// overhead budget never throttles it: every function draws a
/// permutation (identity included, keeping per-function outcomes
/// decorrelated across seeds) regardless of profile counts.
///
//===----------------------------------------------------------------------===//

#ifndef PGSD_DIVERSITY_REGSHUFFLE_H
#define PGSD_DIVERSITY_REGSHUFFLE_H

#include "diversity/NopInsertion.h"
#include "lir/MIR.h"
#include "support/Rng.h"

#include <cstdint>
#include <vector>

namespace pgsd {
namespace diversity {

/// Counters reported by one run of the shuffler.
struct RegShuffleStats {
  uint64_t FunctionsConsidered = 0;
  /// Functions that drew a non-identity permutation.
  uint64_t FunctionsShuffled = 0;
  /// Callee-saved registers moved off their original assignment,
  /// summed over shuffled functions (2 or 3 per function).
  uint64_t RegsRemapped = 0;
  /// The renaming witness: per function, in function order, the
  /// analysis::CalleeSavedRenamings row applied (0 for the identity
  /// draw). The equivalence prover tries that row first.
  std::vector<uint8_t> Renamings;
};

/// Shuffles the callee-saved register assignment of every function of
/// \p M in place, drawing randomness from \p Generator. The result
/// verifies (mir::verify) and is provable by the equivalence prover's
/// renaming-aware matcher.
RegShuffleStats shuffleRegisters(mir::MModule &M, Rng &Generator);

} // namespace diversity
} // namespace pgsd

#endif // PGSD_DIVERSITY_REGSHUFFLE_H
