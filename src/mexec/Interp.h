//===-- mexec/Interp.h - Machine-IR execution engine -------------*- C++ -*-===//
//
// Part of the PGSD project, a reproduction of "Profile-guided Automated
// Software Diversity" (Homescu et al., CGO 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes machine IR with a per-instruction cycle cost model. This is
/// the testbed substitute for the paper's Xeon 5150 wall-clock runs: MIR
/// instructions map one-to-one to emitted IA-32 instructions, so charging
/// per-instruction costs reproduces the mechanism behind the paper's
/// Figure 4 -- LLVM 3.1 performed no profile-guided optimizations, so
/// "the performance gains come solely from inserting fewer NOPs in
/// frequently executed code" (Section 5.1). NOPs charge a small
/// fetch/decode cost; the optional XCHG NOPs charge the bus-lock penalty
/// that made the paper exclude them (Section 3).
///
/// The same engine drives profiling runs: ProfInc pseudo-instructions
/// increment edge counters, and ground-truth per-block execution counts
/// can be collected to validate the minimal-counter profiling
/// infrastructure.
///
//===----------------------------------------------------------------------===//

#ifndef PGSD_MEXEC_INTERP_H
#define PGSD_MEXEC_INTERP_H

#include "lir/MIR.h"

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace pgsd {
namespace mexec {

/// Per-instruction costs in tenths of a cycle.
///
/// Magnitudes follow Agner-Fog-style throughput/latency blends for the
/// Core-era microarchitecture the paper measured on: cheap ALU/moves,
/// pricier memory ops, expensive divide, and a NOP that only consumes a
/// fetch/decode slot (a fraction of a cycle on a superscalar core).
struct CostModel {
  // Effective (throughput-blended) costs on a ~3-wide core: simple ALU
  // ops retire several per cycle, memory ops carry L1 latency, divide
  // serializes.
  uint32_t MovRR = 3;
  uint32_t MovRI = 3;
  uint32_t Lea = 4;
  uint32_t Alu = 4;
  uint32_t Imul = 15;
  uint32_t Idiv = 250;
  uint32_t Load = 15;
  uint32_t Store = 15;
  uint32_t FrameLoad = 10;  ///< [ebp+d]: usually an L1 hit.
  uint32_t FrameStore = 10;
  uint32_t Push = 8;
  uint32_t Pop = 8;
  uint32_t Call = 40;
  uint32_t Ret = 40;
  uint32_t JmpTaken = 8;
  uint32_t JccTaken = 16;
  uint32_t JccNotTaken = 6;
  uint32_t Nop = 2;       ///< Table 1 NOPs: a fetch/decode slot.
  uint32_t XchgNop = 30;  ///< XCHG forms lock the bus (paper Section 3).
  uint32_t ProfInc = 25;  ///< Memory read-modify-write.
  uint32_t Intrinsic = 600; ///< Syscall-wrapper round trip.

  /// Field-wise equality; the precompiled engine bakes one cost model
  /// into its instruction stream and compares against RunOptions::Costs
  /// to decide whether the baked stream is usable for a given run.
  bool operator==(const CostModel &) const = default;
};

/// Cap on RunResult::Output: both print intrinsics stop appending once
/// the collected text reaches this size (the checksum keeps folding, so
/// behaviour stays observable past the cap).
inline constexpr size_t OutputCapBytes = 1u << 20;

/// Up-front RunResult::Output reservation when CollectOutput is set:
/// covers virtually every battery/test program without ever committing
/// the full cap per run.
inline constexpr size_t OutputReserveBytes = 1u << 12;

/// Instruction stride at which both engines poll RunOptions::Cancel.
/// 1024 instructions keep the worst-case reaction latency far below any
/// realistic lockstep timeout; the fast engine folds the next poll point
/// and the step budget into the one limit its segment heads compare
/// against, so polling costs nothing between poll points.
inline constexpr uint64_t CancelPollStride = 1024;

/// Inputs and limits for one run.
struct RunOptions {
  std::vector<int32_t> Input;      ///< Stream consumed by read_int().
  uint64_t MaxSteps = 4ull << 30;  ///< Dynamic instruction budget.
  uint32_t MaxCallDepth = 8192;
  bool CollectBlockCounts = false; ///< Ground-truth per-block counts.
  bool CollectOutput = false;      ///< Keep printed text (tests only).
  CostModel Costs;

  /// Cooperative cancellation for external watchdogs (the N-variant
  /// lockstep monitor arms this to enforce wall-clock timeouts). Both
  /// engines poll the flag every CancelPollStride-th counted
  /// instruction -- at identical points in the instruction stream, so a
  /// flag that is already set when the run starts traps bit-identically
  /// on either engine (EngineParityTest pins this). A flag raised
  /// mid-run traps at the next poll point, with TrapKind::Cancelled;
  /// *when* that poll happens is inherently wall-clock dependent, so
  /// mid-run cancellation is the one part of a RunResult outside the
  /// bit-identity contract. Null (the default) disables polling.
  const std::atomic<bool> *Cancel = nullptr;
};

/// Machine-level classification of why a run trapped. The string
/// TrapReason carries the human-readable detail; the kind is what
/// programs (the variant verifier, the CLI exit-code mapping) switch on.
enum class TrapKind : uint8_t {
  None,           ///< The run did not trap.
  StepBudget,     ///< RunOptions::MaxSteps exhausted.
  CallDepth,      ///< RunOptions::MaxCallDepth exceeded.
  DivideByZero,   ///< IDIV #DE: zero divisor or quotient overflow.
  BadMemory,      ///< Load/store outside the flat memory image.
  StackOverflow,  ///< ESP pushed below codegen::StackLimit.
  BadInstruction, ///< Opcode/operand combination codegen never emits.
  Cancelled,      ///< RunOptions::Cancel observed set at a poll point.
};

/// Returns a stable lowercase name ("step-budget", "bad-memory", ...).
const char *trapKindName(TrapKind Kind);

/// Result of one run.
struct RunResult {
  bool Trapped = false;
  TrapKind Trap = TrapKind::None;
  std::string TrapReason;
  int32_t ExitCode = 0;
  uint64_t Cycles10 = 0;      ///< Total cost in tenths of a cycle.
  uint64_t Instructions = 0;  ///< Dynamic MIR instructions executed.
  uint32_t Checksum = 1;      ///< FNV-style fold of all printed/sunk data.
  std::string Output;         ///< When CollectOutput.
  std::vector<uint64_t> Counters; ///< ProfInc counters (instrumented).
  /// BlockCounts[f][b]: executions of block b of function f (when
  /// CollectBlockCounts).
  std::vector<std::vector<uint64_t>> BlockCounts;

  /// Cost in cycles.
  double cycles() const { return static_cast<double>(Cycles10) / 10.0; }
};

/// Runs \p M from its entry function with the tree-walking reference
/// engine. This is the semantic oracle: mexec::Precompiled must produce
/// bit-identical RunResults, and the engine-parity test suite holds it
/// to that.
RunResult run(const mir::MModule &M, const RunOptions &Opts);

/// The engine driver::execute runs on: the precompiled direct-threaded
/// engine (mexec/Precompiled.h), which is what ships, or the
/// tree-walking oracle above, which tests compare it against. The two
/// are bit-identical by contract. Outside the tests, only perfbench
/// still passes Reference, to check sampled runs against the oracle;
/// driver::execute's parameter goes with the next change to perfbench.
enum class Engine : uint8_t {
  Fast,      ///< Precompiled direct-threaded stream (default).
  Reference, ///< Tree-walking oracle.
};

} // namespace mexec
} // namespace pgsd

#endif // PGSD_MEXEC_INTERP_H
