//===-- driver/Driver.h - End-to-end pipeline facade -------------*- C++ -*-===//
//
// Part of the PGSD project, a reproduction of "Profile-guided Automated
// Software Diversity" (Homescu et al., CGO 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One-call public API over the whole pipeline of the paper's Figure 3:
///
///   source --parse/lower--> IR --O2--> MIR --[profile]--> counts
///          --[NOP insertion]--> diversified MIR --emit/link--> image
///
/// Typical use (see examples/quickstart.cpp):
/// \code
///   driver::Program P = driver::compileProgram(Source, "demo");
///   driver::profileAndStamp(P, TrainInput);               // train run
///   auto Opts = diversity::DiversityOptions::profiled(
///       diversity::ProbabilityModel::Log, 0.0, 0.3);
///   driver::Variant V = driver::makeVariant(P, Opts, /*Seed=*/42);
///   auto Result = driver::execute(V.MIR, RefInput);       // measure
///   auto Gadgets = gadget::scanGadgets(V.Image.Text.data(),
///                                      V.Image.Text.size());
/// \endcode
///
//======---------------------------------------------------------------===//

#ifndef PGSD_DRIVER_DRIVER_H
#define PGSD_DRIVER_DRIVER_H

#include "codegen/Linker.h"
#include "diversity/NopInsertion.h"
#include "diversity/Transform.h"
#include "ir/IR.h"
#include "lir/MIR.h"
#include "mexec/Interp.h"
#include "profile/Profile.h"
#include "verify/Diagnostic.h"
#include "verify/Verifier.h"

#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace pgsd {
namespace driver {

/// A program's baseline encoding: codegen::emitFunction of each function
/// of its MIR (bytes, relocations, branch fixups, instruction offsets),
/// encoded on first use under a once-flag, so the batch and serve
/// workers that share one Program share one copy and only read it.
/// NOP-only variants splice it (codegen::linkSpliced). A copied Program
/// encodes its own MIR afresh; a moved-from one has none, and its
/// variants take the emitter.
class BaselineCode {
public:
  BaselineCode() : S(std::make_unique<State>()) {}
  BaselineCode(const BaselineCode &) : BaselineCode() {}
  BaselineCode &operator=(const BaselineCode &) {
    S = std::make_unique<State>();
    return *this;
  }
  BaselineCode(BaselineCode &&) noexcept = default;
  BaselineCode &operator=(BaselineCode &&) noexcept = default;

  /// The encoding of \p MIR, the owning Program's, encoded by the first
  /// call. Only profile counts of that MIR may change after the first
  /// call (they do not reach the bytes). Null for a moved-from Program.
  const std::vector<codegen::FunctionCode> *
  get(const mir::MModule &MIR) const;

private:
  struct State {
    std::once_flag Once;
    std::vector<codegen::FunctionCode> Functions;
  };
  std::unique_ptr<State> S;
};

/// A compiled (but not yet diversified) program.
struct Program {
  verify::Report Diags; ///< Structured diagnostics; empty when usable.
  std::string Name;
  ir::Module IR;        ///< After mid-level optimization.
  mir::MModule MIR;     ///< Machine IR; profile-stamped after
                        ///< profileAndStamp.
  bool HasProfile = false;
  BaselineCode Code;    ///< MIR's encoding, for NOP-only variants.

  /// True when compilation succeeded and the program is usable.
  bool ok() const { return Diags.ok(); }
  /// All diagnostics rendered one per line (for logs and test output).
  std::string errors() const { return Diags.str(); }
};

/// Compiles MiniC \p Source. \p Optimize runs the -O2-style pipeline.
Program compileProgram(std::string_view Source, const std::string &Name,
                       bool Optimize = true);

/// Runs the instrumented program on \p TrainInput and stamps per-block
/// execution counts into P.MIR. Returns false when the training run
/// trapped (the program is left unstamped).
bool profileAndStamp(Program &P, const std::vector<int32_t> &TrainInput);

/// A diversified build.
struct Variant {
  mir::MModule MIR;
  codegen::Image Image;
  /// Per-transform counters of the pipeline that produced this variant.
  diversity::PipelineStats Pipeline;
};

/// Produces a diversified variant of \p P under transform pipeline
/// \p Pipe and links its image. When \p Pipe is exactly {nop}, the
/// image is spliced from P's baseline encoding (P.Code) rather than
/// re-emitted: the same bytes, since the variant is its baseline with
/// Table 1 NOPs between instructions. Every other pipeline emits.
Variant makeVariant(const Program &P, const diversity::Pipeline &Pipe,
                    const diversity::DiversityOptions &Opts, uint64_t Seed,
                    const codegen::LinkOptions &Link = codegen::LinkOptions());

/// Produces a diversified variant of \p P (NOP insertion only -- the
/// default pipeline) and links its image.
Variant makeVariant(const Program &P,
                    const diversity::DiversityOptions &Opts, uint64_t Seed,
                    const codegen::LinkOptions &Link = codegen::LinkOptions());

/// Links the undiversified baseline image of \p P.
codegen::Image linkBaseline(const Program &P,
                            const codegen::LinkOptions &Link =
                                codegen::LinkOptions());

/// Executes machine IR on \p Input with the default cost model, on the
/// fast (precompiled) engine unless \p E selects the reference oracle.
/// The fast engine runs each (module with NOPs removed, input) pair once
/// per process and derives every module equal to it modulo NOPs from
/// that run's segment counts (mexec::runMemoized): a NOP-only variant's
/// result is its baseline's plus each NOP's cost times the entries into
/// its segment, exactly what a run returns. It still runs the module
/// when the stored run trapped, the derived count would exceed the step
/// budget, or the module is not its NOP-free form plus single NOPs. The
/// reference engine always executes, so it stays the oracle tests
/// compare against. perfbench is its last caller outside the tests (it
/// checks sampled runs against the oracle); \p E goes with the next
/// change to perfbench.
mexec::RunResult execute(const mir::MModule &MIR,
                         const std::vector<int32_t> &Input,
                         bool CollectOutput = false,
                         mexec::Engine E = mexec::Engine::Fast);

/// A diversified build that has been through the verification pipeline.
struct VerifiedVariant {
  Variant V;              ///< Accepted variant, or the baseline fallback.
  verify::Report Report;  ///< Diagnostics from every failed attempt.
  uint64_t SeedUsed = 0;  ///< Seed of the accepted attempt.
  unsigned Attempts = 0;  ///< Variant builds tried (1 when first passed).
  bool UsedFallback = false; ///< True when V is the undiversified image.
  /// True when the accepted attempt was settled by equality modulo NOPs
  /// to its analyzer-clean baseline (verify::verifyVariant's stage 0),
  /// so no analysis, proof or run of the variant was needed.
  bool ModuloNops = false;

  /// True when a diversified variant passed verification.
  bool ok() const { return !UsedFallback; }
};

/// Produces a *verified* diversified variant of \p P under transform
/// pipeline \p Pipe: builds a variant, admits or rejects it through
/// verify::verifyVariant (the one admission function, with the
/// pipeline's renaming witness), and on rejection retries with seeds
/// from verify::RetrySchedule (bounded by VOpts.MaxAttempts). Every
/// attempt shares one baseline cache: the caller's, or one built here,
/// whose runs the process-wide run memo keeps. When every attempt
/// fails, degrades gracefully to the undiversified baseline image and
/// reports ErrorCode::RetriesExhausted instead of aborting -- a
/// deployment pipeline prefers an unprotected-but-correct binary plus a
/// loud diagnostic over no binary at all.
VerifiedVariant
makeVariantVerified(const Program &P, const diversity::Pipeline &Pipe,
                    const diversity::DiversityOptions &Opts, uint64_t Seed,
                    const verify::VerifyOptions &VOpts =
                        verify::VerifyOptions(),
                    const codegen::LinkOptions &Link =
                        codegen::LinkOptions());

} // namespace driver
} // namespace pgsd

#endif // PGSD_DRIVER_DRIVER_H
