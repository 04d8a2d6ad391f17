//===-- verify/Diagnostic.cpp - Structured pipeline diagnostics ------------===//
//
// Part of the PGSD project, a reproduction of "Profile-guided Automated
// Software Diversity" (Homescu et al., CGO 2013).
//
//===----------------------------------------------------------------------===//

#include "verify/Diagnostic.h"

using namespace pgsd;
using namespace pgsd::verify;

const char *verify::errorCodeName(ErrorCode Code) {
  switch (Code) {
  case ErrorCode::None:
    return "none";
  case ErrorCode::ParseError:
    return "parse-error";
  case ErrorCode::IRInvalid:
    return "ir-invalid";
  case ErrorCode::MIRInvalid:
    return "mir-invalid";
  case ErrorCode::TrainingRunTrapped:
    return "training-run-trapped";
  case ErrorCode::ProfileMalformed:
    return "profile-malformed";
  case ErrorCode::ProfileShapeMismatch:
    return "profile-shape-mismatch";
  case ErrorCode::ProfileFlowInvalid:
    return "profile-flow-invalid";
  case ErrorCode::TrapMismatch:
    return "trap-mismatch";
  case ErrorCode::ExitCodeMismatch:
    return "exit-code-mismatch";
  case ErrorCode::ChecksumMismatch:
    return "checksum-mismatch";
  case ErrorCode::OutputMismatch:
    return "output-mismatch";
  case ErrorCode::ImageTextMismatch:
    return "image-text-mismatch";
  case ErrorCode::ImageDecodeInvalid:
    return "image-decode-invalid";
  case ErrorCode::BranchTargetOutOfRange:
    return "branch-target-out-of-range";
  case ErrorCode::AnalysisCfgMalformed:
    return "analysis-cfg-malformed";
  case ErrorCode::AnalysisUseBeforeDef:
    return "analysis-use-before-def";
  case ErrorCode::AnalysisFlagsUnproven:
    return "analysis-flags-unproven";
  case ErrorCode::AnalysisStackImbalance:
    return "analysis-stack-imbalance";
  case ErrorCode::AnalysisFrameOutOfBounds:
    return "analysis-frame-out-of-bounds";
  case ErrorCode::AnalysisCallConvViolation:
    return "analysis-callconv-violation";
  case ErrorCode::StaticAnalysisRejected:
    return "static-analysis-rejected";
  case ErrorCode::EquivRefuted:
    return "equiv-refuted";
  case ErrorCode::EquivAborted:
    return "equiv-aborted";
  case ErrorCode::EquivRejected:
    return "equiv-rejected";
  case ErrorCode::RetriesExhausted:
    return "retries-exhausted";
  case ErrorCode::FileIOError:
    return "file-io-error";
  case ErrorCode::UsageError:
    return "usage-error";
  }
  return "unknown";
}

std::string Diagnostic::str() const {
  std::string Out = "[";
  Out += errorCodeName(Code);
  Out += "]";
  if (!Context.empty()) {
    Out += " ";
    Out += Context;
  }
  return Out;
}

std::string Report::str() const {
  std::string Out;
  for (const Diagnostic &D : Diags) {
    Out += D.str();
    Out += "\n";
  }
  return Out;
}
