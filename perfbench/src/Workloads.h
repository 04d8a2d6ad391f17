//===-- perfbench/src/Workloads.h - The four benchmark workloads -*- C++ -*-===//
//
// Part of the PGSD project, a reproduction of "Profile-guided Automated
// Software Diversity" (Homescu et al., CGO 2013).
//
//===----------------------------------------------------------------------===//

#ifndef PGSD_PERFBENCH_WORKLOADS_H
#define PGSD_PERFBENCH_WORKLOADS_H

#include "Harness.h"

#include <string>
#include <vector>

namespace pgsd {
namespace perfbench {

/// Workload names accepted by --workload.
const std::vector<std::string> &workloadNames();

/// Runs the workload named in \p C and fills \p Out. Output-check
/// mismatches end the process through checkFailed().
void runWorkload(Context &C, Report &Out);

} // namespace perfbench
} // namespace pgsd

#endif // PGSD_PERFBENCH_WORKLOADS_H
