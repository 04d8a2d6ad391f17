//===-- lir/RegPlan.h - Register planning / frame layout ---------*- C++ -*-===//
//
// Part of the PGSD project, a reproduction of "Profile-guided Automated
// Software Diversity" (Homescu et al., CGO 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Register allocation for the backend ("even more optimizations (such as
/// register allocation)" in the paper's Section 4 pipeline description).
///
/// The planner computes IR-value liveness by iterative dataflow, builds
/// conservative live-interval hulls over a linearized block order, and
/// greedily assigns the hottest non-overlapping values to the IA-32
/// callee-saved registers (EBX/ESI/EDI). Everything else receives a frame
/// slot; EAX/ECX/EDX remain free as instruction-selection scratch (EAX
/// additionally carries return values, ECX shift counts, EDX division
/// high halves). Loop depth is estimated from retreating edges so loop
/// counters win registers -- that is what makes hot loops genuinely hot,
/// which the profile-guided NOP heuristic then exploits.
///
//===----------------------------------------------------------------------===//

#ifndef PGSD_LIR_REGPLAN_H
#define PGSD_LIR_REGPLAN_H

#include "ir/IR.h"
#include "x86/X86.h"

#include <cstdint>
#include <vector>

namespace pgsd {
namespace lir {

/// Where one IR value lives for the whole function.
struct ValueLoc {
  bool InReg = false;
  x86::Reg R = x86::Reg::EBX; ///< Valid when InReg.
  int32_t FrameDisp = 0;      ///< EBP-relative home slot (also for params).
};

/// Complete frame/register plan for one function.
struct FramePlan {
  std::vector<ValueLoc> Values;    ///< Indexed by ir::ValueId.
  std::vector<int32_t> ObjectDisp; ///< EBP-relative, per frame object.
  uint32_t FrameBytes = 0;         ///< Locals + spills below EBP.
  /// Lowest EBP-relative displacement of any scalar value slot; frame
  /// objects sit strictly below it.
  int32_t ValueSlotsLowDisp = 0;
  bool UsesEbx = false;
  bool UsesEsi = false;
  bool UsesEdi = false;

  /// Estimated loop depth per block (0 = not in a loop).
  std::vector<uint32_t> LoopDepth;
};

/// A set of IR values, as ascending ValueIds.
using LiveSet = std::vector<ir::ValueId>;

/// Computes per-block liveness (LiveIn sets) for \p F; exposed for tests.
/// Sparse, so its cost follows the live values and not Blocks x Values.
std::vector<LiveSet> computeLiveIn(const ir::Function &F);

/// Builds the register/frame plan for \p F.
FramePlan planFunction(const ir::Function &F);

} // namespace lir
} // namespace pgsd

#endif // PGSD_LIR_REGPLAN_H
