//===-- mexec/RunMemo.h - Runs of NOP-only variants, derived ----*- C++ -*-===//
//
// Part of the PGSD project, a reproduction of "Profile-guided Automated
// Software Diversity" (Homescu et al., CGO 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's Figure 4 is the profile-weighted cost of the inserted
/// NOPs: each NOP costs its kind's cycles once per execution of the code
/// around it. Both engines treat a NOP as a counted, cycle-only step, so
/// a module that mir::equalModuloNops its NOP-free form runs that form's
/// instruction sequence with the NOPs interleaved. runMemoized therefore
/// runs each (module with NOPs removed, input) pair once per process on
/// the fast engine, counting entries into each segment (see
/// Precompiled.h), and derives every module equal to it modulo NOPs:
///
///   Instructions = base + sum over NOPs of entries(its segment)
///   Cycles10     = base + sum over NOPs of entries(its segment) * cost
///
/// with the XCHG cost for bus-locking NOPs. Output, checksum, exit code,
/// counters and block counts are the base's. A NOP belongs to the
/// segment of the instruction after it; segments, not blocks, because a
/// NOP between a block's Jcc and its Jmp runs only when the Jcc falls
/// through.
///
/// A lookup hashes the module with NOPs skipped (mir::hashModuloNops),
/// then makes one walk of the module that both checks
/// mir::equalModuloNops against the stored NOP-free copy (no digest is
/// trusted) and sums each NOP's segment entries. The entries of one module's inputs share one
/// NOP-free copy. The memo holds RunMemoCapacity entries and evicts the
/// least recently used.
///
/// It is the one process-wide store of runs: verify::BaselineCache fills
/// each baseline battery entry through it, so a later batch, serve
/// process or nvx respawn of the same program recalls its battery
/// instead of running it again.
///
/// It runs the module plainly instead (a fallback) when:
///  - the options carry a Cancel flag or a cost model other than the
///    default;
///  - the module is not its NOP-free form plus single NOPs (two NOPs in
///    a row, or one ending a block);
///  - the stored run trapped, or its stream split a segment, and the
///    module has NOPs;
///  - the derived instruction count exceeds MaxSteps.
/// A miss costs the one run of the NOP-free form; a fallback on a miss
/// costs one more. Counters: mexec.run_memo.fills (runs stored),
/// mexec.run_memo.derived (calls answered from an entry),
/// mexec.run_memo.fallbacks (calls answered by a plain run) and
/// mexec.run_memo.copies (NOP-free module copies made: a fill shares the
/// copy a stored entry of the same module already keeps). Every call is
/// derived or a fallback, so fills <= derived + fallbacks.
///
/// Thread-safe: entries are immutable once stored, and one mutex guards
/// only the lookup and the insertion, never a run. Concurrent misses on
/// one pair are merged: the first fills, the others wait for its entry,
/// so a cold pair is run once however many threads ask for it.
///
//===----------------------------------------------------------------------===//

#ifndef PGSD_MEXEC_RUNMEMO_H
#define PGSD_MEXEC_RUNMEMO_H

#include "lir/MIR.h"
#include "mexec/Interp.h"

#include <cstddef>

namespace pgsd {
namespace mexec {

/// Entries the process-wide memo holds at most: 64 programs' 8-input
/// default batteries, enough for the 19-program suite (152 pairs) and a
/// transform matrix over 40 program builds (320 pairs) without eviction.
inline constexpr size_t RunMemoCapacity = 512;

/// Returns exactly what Precompiled(M, Opts.Costs).run(Opts) returns,
/// deriving it from a stored run of M's NOP-free form when it can.
RunResult runMemoized(const mir::MModule &M, const RunOptions &Opts);

} // namespace mexec
} // namespace pgsd

#endif // PGSD_MEXEC_RUNMEMO_H
