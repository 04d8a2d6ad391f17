//===-- verify/Diagnostic.h - Structured pipeline diagnostics ----*- C++ -*-===//
//
// Part of the PGSD project, a reproduction of "Profile-guided Automated
// Software Diversity" (Homescu et al., CGO 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The structured diagnostic type threaded through the driver, the
/// variant verifier, and the pgsdc CLI. Replaces the old `bool OK` +
/// free-form `std::string Errors` convention: every failure carries a
/// machine-checkable error code plus human-readable context, so callers
/// can branch on *what* went wrong (retry a verification failure, map a
/// parse error to a distinct process exit code) instead of string
/// matching.
///
//===----------------------------------------------------------------------===//

#ifndef PGSD_VERIFY_DIAGNOSTIC_H
#define PGSD_VERIFY_DIAGNOSTIC_H

#include <cstdint>
#include <string>
#include <vector>

namespace pgsd {
namespace verify {

/// Error taxonomy for the whole build-and-verify pipeline.
enum class ErrorCode : uint8_t {
  None = 0,

  // Compilation stage.
  ParseError,  ///< MiniC frontend rejected the source.
  IRInvalid,   ///< Internal: mid-level IR failed its verifier.
  MIRInvalid,  ///< Internal: machine IR failed its verifier.

  // Profiling stage.
  TrainingRunTrapped,   ///< Instrumented training run did not finish.
  ProfileMalformed,     ///< Saved profile file failed to parse.
  ProfileShapeMismatch, ///< Profile does not match the program's CFG.
  ProfileFlowInvalid,   ///< Stamped counts violate CFG flow conservation.

  // Differential execution (variant vs. baseline).
  TrapMismatch,     ///< One side trapped, or trap kinds differ.
  ExitCodeMismatch, ///< Exit codes differ on some battery input.
  ChecksumMismatch, ///< Output checksums differ on some battery input.
  OutputMismatch,   ///< Collected output text differs.

  // Image integrity.
  ImageTextMismatch,      ///< .text differs from re-emission of the MIR.
  ImageDecodeInvalid,     ///< .text does not decode as valid IA-32.
  BranchTargetOutOfRange, ///< A rel branch escapes the image.

  // Static analysis (analysis/): one code per checker, so tests and
  // tools can assert *which* invariant a mutation broke.
  AnalysisCfgMalformed,      ///< Terminators/targets/counter ids invalid.
  AnalysisUseBeforeDef,      ///< Register read without a dominating def.
  AnalysisFlagsUnproven,     ///< Jcc/Setcc not proven reached by cmp/test.
  AnalysisStackImbalance,    ///< Push/pop depth broken on some path.
  AnalysisFrameOutOfBounds,  ///< Frame access escapes its planned region.
  AnalysisCallConvViolation, ///< cdecl contract broken at a call/idiv.
  StaticAnalysisRejected,    ///< Summary code: the analyzer vetoed a
                             ///< variant before differential execution.

  // Translation validation (analysis/Equiv): symbolic proof that a
  // variant is observationally equivalent to its baseline.
  EquivRefuted, ///< The prover found a counterexample (first mismatching
                ///< symbolic effect, branch condition, or exit state).
  EquivAborted, ///< The prover could not finish (malformed baseline or
                ///< resource cap); no verdict either way.
  EquivRejected,///< Summary code: translation validation vetoed a
                ///< variant before differential execution.

  // Driver / CLI policy.
  RetriesExhausted, ///< All reseeded attempts failed; baseline used.
  FileIOError,      ///< A file could not be read or written.
  UsageError,       ///< Bad command line.
};

/// Returns a stable kebab-case name for \p Code ("checksum-mismatch").
const char *errorCodeName(ErrorCode Code);

/// One diagnostic: a code plus free-form context.
struct Diagnostic {
  ErrorCode Code = ErrorCode::None;
  std::string Context;

  /// Renders as "[checksum-mismatch] input #2: 1b8f... != 77a0...".
  std::string str() const;
};

/// An ordered collection of diagnostics; empty means success.
struct Report {
  std::vector<Diagnostic> Diags;

  bool ok() const { return Diags.empty(); }
  void add(ErrorCode Code, std::string Context) {
    Diags.push_back({Code, std::move(Context)});
  }
  /// Appends every diagnostic of \p Other.
  void merge(const Report &Other) {
    Diags.insert(Diags.end(), Other.Diags.begin(), Other.Diags.end());
  }
  bool has(ErrorCode Code) const {
    for (const Diagnostic &D : Diags)
      if (D.Code == Code)
        return true;
    return false;
  }
  /// Code of the first diagnostic, or None when the report is clean.
  ErrorCode firstCode() const {
    return Diags.empty() ? ErrorCode::None : Diags.front().Code;
  }
  /// All diagnostics rendered one per line.
  std::string str() const;
};

} // namespace verify
} // namespace pgsd

#endif // PGSD_VERIFY_DIAGNOSTIC_H
