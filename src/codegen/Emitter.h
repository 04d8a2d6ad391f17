//===-- codegen/Emitter.h - Machine-IR to object code -----------*- C++ -*-===//
//
// Part of the PGSD project, a reproduction of "Profile-guided Automated
// Software Diversity" (Homescu et al., CGO 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The "Code Gen" stage of the paper's Figure 3: turns machine IR into
/// IA-32 object code. Every MIR instruction emits exactly one native
/// instruction; prologues/epilogues are expanded around the body here,
/// after the NOP-insertion pass has run on the MIR.
///
/// Intra-function branches are resolved immediately (two-pass rel32
/// patching); calls, global addresses, and profiling-counter addresses
/// are left as relocations for the linker.
///
/// A NOP-only variant has a second encoding path: spliceFunction copies
/// its baseline's code instruction by instruction and writes the Table 1
/// NOPs between, as the paper's backend inserts them just before
/// emission (Section 4).
///
//===----------------------------------------------------------------------===//

#ifndef PGSD_CODEGEN_EMITTER_H
#define PGSD_CODEGEN_EMITTER_H

#include "lir/MIR.h"

#include <cstdint>
#include <vector>

namespace pgsd {
namespace codegen {

/// Relocation kinds the linker resolves.
enum class RelocKind : uint8_t {
  CallFunc,   ///< rel32 to module function #Index.
  CallIntr,   ///< rel32 to intrinsic stub #Index.
  GlobalAbs,  ///< abs32 address of global #Index.
  CounterAbs, ///< abs32 address of profiling counter #Index.
};

/// One unresolved reference in emitted code.
struct Reloc {
  RelocKind Kind;
  uint32_t Offset; ///< Byte offset of the 32-bit field within the code.
  uint32_t Index;
  uint32_t Instr;  ///< The MIR instruction it is in (block order).
};

/// One intra-function branch: its rel32 field and the block it targets.
struct BranchFixup {
  uint32_t FieldOffset; ///< Byte offset of the rel32 field within the code.
  uint32_t TargetBlock;
  uint32_t Instr; ///< The MIR instruction it is in (block order).
};

/// Object code for one function.
struct FunctionCode {
  std::vector<uint8_t> Bytes;
  std::vector<Reloc> Relocs;         ///< Ascending by Offset.
  std::vector<BranchFixup> Fixups;   ///< Ascending by FieldOffset; patched.
  /// Start offset of each MIR instruction in block order (a Ret's
  /// epilogue and an elided fallthrough jump included), then
  /// Bytes.size(). Recorded by emitFunction; spliceFunction reads it
  /// from the baseline's code and leaves its own output's empty.
  std::vector<uint32_t> InstrOffsets;
};

/// Emits machine code for \p F.
FunctionCode emitFunction(const mir::MFunction &F);

/// As above, emitting into \p Out (cleared first, capacity kept). Batch
/// loops pass the same FunctionCode per slot so code and reloc buffers
/// are reused across variants instead of reallocated per emit.
void emitFunction(const mir::MFunction &F, FunctionCode &Out);

/// Encodes \p Variant, a NOP-only variant of \p Baseline, from
/// \p BaseCode = emitFunction(Baseline) into \p Out: each non-NOP
/// instruction copies its baseline bytes, each MOp::Nop writes its
/// Table 1 bytes, relocations move with their instruction, and branch
/// rel32s are re-patched from the variant's block offsets. The result
/// equals emitFunction(Variant) whenever deleting every MOp::Nop from
/// \p Variant leaves \p Baseline (mir::equalModuloNops' relation, which
/// NOP insertion produces by construction); the splice reads only the
/// variant's opcodes and NOP kinds, so that relation is the caller's to
/// keep. Returns false, leaving \p Out unspecified, when the two do not
/// line up: a different frame or block count, a block whose non-NOP
/// count is not the baseline's (so also a baseline with NOPs of its
/// own), or a baseline instruction longer than 16 bytes.
bool spliceFunction(const mir::MFunction &Variant,
                    const mir::MFunction &Baseline,
                    const FunctionCode &BaseCode, FunctionCode &Out);

} // namespace codegen
} // namespace pgsd

#endif // PGSD_CODEGEN_EMITTER_H
