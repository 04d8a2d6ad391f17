//===-- profile/Profile.h - Edge profiling infrastructure --------*- C++ -*-===//
//
// Part of the PGSD project, a reproduction of "Profile-guided Automated
// Software Diversity" (Homescu et al., CGO 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The profiling infrastructure the paper builds on (Section 3.1/4): the
/// compiler "only inserts counters for the minimal required subset of
/// edges on the control flow graph" and "derives all basic block
/// execution counts from that minimal set of per-edge counters"
/// (Neustifter-style edge profiling).
///
/// Implementation: per machine function, build the CFG with a virtual
/// node closing entry/exit flow, compute a *maximal* spanning tree under
/// static frequency weights (hot edges join the tree and stay free), and
/// instrument only the non-tree edges -- splitting edges where needed.
/// After a training run, flow conservation recovers every edge count and
/// hence every block count. Per-block counts are exactly what the
/// profile-guided NOP heuristic consumes ("all instructions in a basic
/// block are executed the same number of times", Section 3.1).
///
//===----------------------------------------------------------------------===//

#ifndef PGSD_PROFILE_PROFILE_H
#define PGSD_PROFILE_PROFILE_H

#include "lir/MIR.h"
#include "mexec/Interp.h"

#include <cstdint>
#include <vector>

namespace pgsd {
namespace profile {

/// One logical CFG edge of the pre-instrumentation function.
struct EdgeInfo {
  uint32_t From;      ///< Source block (== NumBlocks for the virtual entry).
  uint32_t To;        ///< Target block (== NumBlocks for the virtual exit).
  int32_t CounterId;  ///< Counter index, or -1 for spanning-tree edges.
};

/// Instrumentation record for one function.
struct FuncInstrumentation {
  uint32_t NumBlocks = 0; ///< Block count before instrumentation.
  std::vector<EdgeInfo> Edges;
};

/// Instrumentation record for a module.
struct InstrumentationPlan {
  std::vector<FuncInstrumentation> Funcs;
  uint32_t NumCounters = 0;
};

/// Recovered execution counts.
struct ProfileData {
  /// BlockCounts[f][b] for the *original* (uninstrumented) block ids.
  std::vector<std::vector<uint64_t>> BlockCounts;
  uint64_t MaxCount = 0; ///< Paper's x_max: hottest block in the program.

  bool empty() const { return BlockCounts.empty(); }
};

/// Inserts edge counters into \p M in place (new split blocks are
/// appended, so original block ids remain stable) and returns the plan.
InstrumentationPlan instrumentModule(mir::MModule &M);

/// Recovers all block counts from the counter values of a training run.
/// Requires the run to have terminated normally (flow conservation).
ProfileData recoverCounts(const InstrumentationPlan &Plan,
                          const std::vector<uint64_t> &Counters);

/// Stamps \p M (an *uninstrumented* module with the same block structure
/// the plan was built from) with per-block ProfileCount values. Returns
/// false, stamping nothing, when \p Data has another function count or
/// another block count in some function.
bool applyCounts(mir::MModule &M, const ProfileData &Data);

/// Convenience pipeline: clone \p M, instrument the clone, execute it on
/// \p TrainOptions, and recover counts. \p M itself is not modified.
ProfileData profileModule(const mir::MModule &M,
                          const mexec::RunOptions &TrainOptions);

/// Serializes \p Data as a stable text format ("pgsd-profile v1": one
/// `func block count` triple per line), the moral equivalent of the
/// .profdata file a real PGO workflow stores between the training and
/// release builds.
std::string serializeProfile(const ProfileData &Data);

/// Parses serializeProfile output of a profile of \p M. Returns false
/// (and leaves \p Out empty) on malformed input and on a profile whose
/// shape differs from \p M's. Every number must be a whole unsigned
/// decimal token that fits in 64 bits. Each `func F blocks N` header
/// must name the next function of \p M and its block count, checked
/// before the counts are allocated, and the file must cover every
/// function.
bool deserializeProfile(const std::string &Text, const mir::MModule &M,
                        ProfileData &Out);

} // namespace profile
} // namespace pgsd

#endif // PGSD_PROFILE_PROFILE_H
