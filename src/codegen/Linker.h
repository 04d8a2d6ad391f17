//===-- codegen/Linker.h - Mini linker / image builder -----------*- C++ -*-===//
//
// Part of the PGSD project, a reproduction of "Profile-guided Automated
// Software Diversity" (Homescu et al., CGO 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The "Linker" stage of the paper's Figure 3: lays out the final .text
/// image from per-function object code, resolves relocations, and assigns
/// data addresses.
///
/// Layout mirrors a real 32-bit Linux link: a fixed, *undiversified*
/// C-runtime stub (_start, syscall wrappers, small helpers) first -- the
/// counterpart of crt*.o and the static libc objects -- followed by the
/// (possibly diversified) program functions, each aligned like a normal
/// compiler would. The undiversified stub is what produces the constant
/// residue of surviving gadgets the paper observes in Tables 2 and 3
/// ("the remaining gadgets ... come from the small C library object files
/// that the linker adds to the binary"). A flag diversifies the stub too,
/// reproducing the paper's suggested fix.
///
/// A link is two steps: per-function encoding, then one layout step
/// (stub, alignment, data, relocations) that every link shares. link()
/// encodes with the emitter; linkSpliced() encodes a NOP-only variant by
/// splicing its baseline's code (codegen::spliceFunction), so the two
/// differ only in how function bytes are produced.
///
//===----------------------------------------------------------------------===//

#ifndef PGSD_CODEGEN_LINKER_H
#define PGSD_CODEGEN_LINKER_H

#include "codegen/Emitter.h"
#include "codegen/Layout.h"
#include "ir/IR.h"
#include "lir/MIR.h"
#include "support/Rng.h"

#include <array>
#include <cstdint>
#include <vector>

namespace pgsd {
namespace codegen {

/// Linker configuration.
struct LinkOptions {
  /// Function start alignment in bytes (power of two). Real toolchains
  /// use 16; 1 disables alignment.
  uint32_t FunctionAlignment = 16;

  /// Also diversify the C-runtime stub (the paper's "could be easily
  /// fixed in practice by also diversifying the C library code").
  bool DiversifyStub = false;

  /// NOP probability used for the stub when DiversifyStub is set.
  double StubNopProbability = 0.3;

  /// Seed for stub diversification.
  uint64_t StubSeed = 1;
};

/// A linked process image.
struct Image {
  std::vector<uint8_t> Text;    ///< Final .text bytes.
  uint32_t TextBase = codegen::TextBase;

  uint32_t EntryOffset = 0;     ///< _start (inside the stub).
  uint32_t StubSize = 0;        ///< Bytes of C-runtime stub at offset 0.
  std::vector<uint32_t> FuncOffsets; ///< Per module function.
  std::array<uint32_t, ir::NumIntrinsics> IntrinsicOffsets{};

  std::vector<uint32_t> GlobalAddrs; ///< Absolute address per global.
  uint32_t GlobalsEnd = codegen::GlobalsBase; ///< One past the last byte.
};

/// Reusable scratch state for link() and linkSpliced(). Batch loops
/// pass the same instance (one per worker thread) so per-function
/// buffers are recycled across variants. The .text vector is sized once
/// from those buffers instead of growing through reallocation.
struct LinkScratch {
  std::vector<FunctionCode> Codes;
};

/// Emits every function of \p M and links the image. The two-argument
/// form uses a thread-local LinkScratch, so repeated links on one
/// thread (the batch fan-out) amortize buffer growth automatically.
Image link(const mir::MModule &M, const LinkOptions &Opts = LinkOptions());
Image link(const mir::MModule &M, const LinkOptions &Opts,
           LinkScratch &Scratch);

/// Links \p Variant, a NOP-only variant of \p Baseline, whose functions'
/// code \p BaseCode holds (emitFunction of each, in module order): each
/// function is spliced from its baseline code (spliceFunction), and one
/// that does not line up with it is emitted instead. The image equals
/// link(Variant, Opts) whenever \p Variant is equal to \p Baseline
/// modulo NOPs; verify::verifyImage's re-link checks exactly that.
Image linkSpliced(const mir::MModule &Variant, const mir::MModule &Baseline,
                  const std::vector<FunctionCode> &BaseCode,
                  const LinkOptions &Opts = LinkOptions());

/// Builds just the C-runtime stub (exposed for tests and the gadget
/// analysis of the undiversified residue). \p IntrinsicOffsets receives
/// the entry offset of each intrinsic wrapper; \p CallMainField receives
/// the offset of _start's rel32 call-to-main field.
std::vector<uint8_t>
buildRuntimeStub(std::array<uint32_t, ir::NumIntrinsics> &IntrinsicOffsets,
                 uint32_t &CallMainField, const LinkOptions &Opts);

} // namespace codegen
} // namespace pgsd

#endif // PGSD_CODEGEN_LINKER_H
