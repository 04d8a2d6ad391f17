//===-- tools/pgsdc.cpp - PGSD command-line driver --------------------------===//
//
// Part of the PGSD project, a reproduction of "Profile-guided Automated
// Software Diversity" (Homescu et al., CGO 2013).
//
// The user-facing compiler driver, modeled on the workflow of the
// paper's diversifying multicompiler. Like the multicompiler's declared
// cl::opt knobs, every flag and subcommand is declared once, in the
// Flags and Commands tables below; parsing, per-command flag checks,
// dispatch and the usage text (`pgsdc` with no arguments) all derive
// from them. Exit codes form a small taxonomy so scripts can tell
// failure modes apart (see ExitCode below).
//
//===----------------------------------------------------------------------===//

#include "analysis/Analysis.h"
#include "analysis/Equiv.h"
#include "diversity/NopInsertion.h"
#include "diversity/Transform.h"
#include "driver/Batch.h"
#include "driver/Driver.h"
#include "workloads/Workloads.h"
#include "gadget/Attack.h"
#include "gadget/Scanner.h"
#include "nvx/Nvx.h"
#include "obs/Json.h"
#include "obs/Metrics.h"
#include "profile/Profile.h"
#include "serve/Server.h"
#include "support/TablePrinter.h"
#include "verify/Verifier.h"
#include "x86/Disasm.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

using namespace pgsd;

namespace {

/// Process exit codes. 1 is reserved for the simulated program's own
/// nonzero exit status (`run` passes it through), so tool failures
/// start at 2 and are distinct per failure class.
enum ExitCode : int {
  ExitOK = 0,
  ExitUsage = 2,        ///< Bad command line.
  ExitParse = 3,        ///< Source failed to compile.
  ExitFileIO = 4,       ///< Cannot read or write a file.
  ExitTrap = 5,         ///< Simulated program trapped.
  ExitVerifyFailed = 6,   ///< Variant failed verification.
  ExitBadProfile = 7,     ///< Profile file malformed or mismatched.
  ExitAnalysisFailed = 8, ///< Static analyzer rejected the MIR.
  ExitNoQuorum = 9,       ///< nvx: a lockstep round had no quorum.
  ExitEquivRefuted = 10,  ///< Translation validation refuted a variant.
  ExitServeShed = 11,     ///< serve: requests shed under overload.
};

bool readFile(const std::string &Path, std::string &Out) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  std::ostringstream SS;
  SS << In.rdbuf();
  Out = SS.str();
  return true;
}

bool writeFile(const std::string &Path, const std::string &Data) {
  std::ofstream Out(Path, std::ios::binary);
  if (!Out)
    return false;
  Out << Data;
  // operator<< alone can leave a failure sitting in the stream buffer
  // (a full disk surfaces at flush time); without this, good() reported
  // success for data that never reached the file.
  Out.flush();
  return Out.good();
}

/// Strict full-token parse of an unsigned decimal. Rejects empty input,
/// trailing garbage, a leading '-' (strtoull silently *wraps* negatives
/// instead of failing), and out-of-range values.
bool parseUint64Strict(const char *Text, uint64_t &Out) {
  if (!Text || !*Text)
    return false;
  for (const char *C = Text; *C; ++C)
    if (!std::isdigit(static_cast<unsigned char>(*C)) &&
        !(C == Text && *C == '+'))
      return false;
  errno = 0;
  char *End = nullptr;
  unsigned long long V = std::strtoull(Text, &End, 10);
  if (End == Text || *End != '\0' || errno == ERANGE)
    return false;
  Out = V;
  return true;
}

bool parseUnsignedStrict(const char *Text, unsigned &Out) {
  uint64_t V = 0;
  if (!parseUint64Strict(Text, V) ||
      V > std::numeric_limits<unsigned>::max())
    return false;
  Out = static_cast<unsigned>(V);
  return true;
}

/// Strict full-token parse of a finite double (no trailing garbage, no
/// overflow-to-inf, no nan).
bool parseDoubleStrict(const char *Text, double &Out) {
  if (!Text || !*Text)
    return false;
  errno = 0;
  char *End = nullptr;
  double V = std::strtod(Text, &End);
  if (End == Text || *End != '\0' || errno == ERANGE || !std::isfinite(V))
    return false;
  Out = V;
  return true;
}

struct Options {
  std::string File;
  bool Suite = false;      ///< analyze/equiv: the workload battery.
  std::string InputText;
  std::string ProfileFile;
  std::string OutFile;
  uint64_t Seed = 1;
  double PMin = 0.0;       ///< Fraction; --pmin is given in percent.
  double PMax = 0.30;      ///< Fraction; --pmax is given in percent.
  std::string Model = "log";
  unsigned Retries = 3;
  unsigned Variants = 3;
  unsigned Seeds = 8;      ///< Batch size (batch/gadgets commands).
  bool SeedsSet = false;   ///< --seeds given (gadgets sweep trigger).
  unsigned Jobs = 0;       ///< Worker threads; 0 means all cores.
  std::string OutDir;      ///< Where batch writes variant images.
  std::string MetricsFile; ///< Enable telemetry, write JSON here.
  unsigned Replicas = 3;   ///< nvx replica count.
  nvx::VotePolicy Policy = nvx::VotePolicy::Majority;
  double TimeoutSeconds = 5.0; ///< nvx per-round wall budget.
  uint64_t Requests = 64;  ///< serve: request count.
  std::string StoreDir;    ///< serve: persistent store root.
  unsigned QueueDepth = 16; ///< serve: admission slots beyond workers.
  double AdmitWaitSeconds = 30.0; ///< serve: backpressure budget.
  bool Xchg = false;
  bool Optimize = true;
  diversity::Pipeline Pipe;  ///< --transforms pipeline (default: nop).
};

// Flag setters store a value into the Options field they are bound to
// and return nullptr, or return why the value is invalid. Numeric
// values parse strictly: "8x", "1e99", "-3" and overflow all fail the
// command line (exit 2) instead of silently feeding the pipeline a
// wrapped or truncated value.

template <std::string Options::*F>
const char *text(Options &O, const char *V) {
  O.*F = V;
  return nullptr;
}

template <bool Options::*F, bool On>
const char *toggle(Options &O, const char *) {
  O.*F = On;
  return nullptr;
}

template <uint64_t Options::*F> const char *u64(Options &O, const char *V) {
  return parseUint64Strict(V, O.*F) ? nullptr : "expected an unsigned integer";
}

template <unsigned Options::*F> const char *count(Options &O, const char *V) {
  return parseUnsignedStrict(V, O.*F) ? nullptr
                                      : "expected an unsigned integer";
}

template <unsigned Options::*F>
const char *positive(Options &O, const char *V) {
  if (const char *Why = count<F>(O, V))
    return Why;
  return O.*F == 0 ? "must be at least 1" : nullptr;
}

template <double Options::*F> const char *seconds(Options &O, const char *V) {
  if (!parseDoubleStrict(V, O.*F))
    return "expected a number of seconds";
  return O.*F < 0.0 ? "must not be negative" : nullptr;
}

/// Percent on the command line, a fraction in Options.
template <double Options::*F> const char *percent(Options &O, const char *V) {
  double Percent = 0.0;
  if (!parseDoubleStrict(V, Percent))
    return "expected a percentage";
  if (Percent < 0.0 || Percent > 100.0)
    return "must be within 0-100";
  O.*F = Percent / 100.0;
  return nullptr;
}

/// One command-line flag. Meta names its value in the usage text; a
/// flag without one is a switch and its setter gets a null value. A
/// value flag takes the next argument or, as `--name=value`, the rest
/// of its own.
struct Flag {
  const char *Name;
  const char *Meta;
  const char *Help;
  const char *(*Set)(Options &, const char *Value);
};

const Flag Flags[] = {
    {"--input", "\"1 2 3\"", "integers fed to read_int()",
     text<&Options::InputText>},
    {"--profile", "FILE", "use a saved training profile",
     text<&Options::ProfileFile>},
    {"-o", "FILE", "write the profile here (default: stdout)",
     text<&Options::OutFile>},
    {"--seed", "N", "variant seed, or the first of a range (default 1)",
     u64<&Options::Seed>},
    {"--pmin", "P", "minimum NOP probability, percent (default 0)",
     percent<&Options::PMin>},
    {"--pmax", "P", "maximum NOP probability, percent (default 30)",
     percent<&Options::PMax>},
    {"--model", "M", "log (default) | linear | uniform",
     [](Options &O, const char *V) -> const char * {
       std::string_view M = V;
       if (M != "log" && M != "linear" && M != "uniform")
         return "expected log, linear or uniform";
       O.Model = M;
       return nullptr;
     }},
    {"--xchg", nullptr, "include the bus-locking XCHG NOPs",
     toggle<&Options::Xchg, true>},
    {"--transforms", "LIST",
     "pipeline from {nop, shift, sched, regs} (default: nop)",
     [](Options &O, const char *V) -> const char * {
       static std::string Error;
       std::vector<diversity::TransformKind> Kinds;
       if (!diversity::parseTransformList(V, Kinds, &Error))
         return Error.c_str();
       O.Pipe = diversity::Pipeline(std::move(Kinds));
       return nullptr;
     }},
    {"--retries", "N", "verification attempts per variant (default 3)",
     positive<&Options::Retries>},
    {"--variants", "N", "variants per program (default 3)",
     positive<&Options::Variants>},
    {"--suite", nullptr, "sweep the built-in workload battery, not a file",
     toggle<&Options::Suite, true>},
    {"--seeds", "N", "build N variants, seeds BASE..BASE+N-1 (default 8)",
     [](Options &O, const char *V) {
       O.SeedsSet = true;
       return positive<&Options::Seeds>(O, V);
     }},
    {"--jobs", "J", "worker threads (default: all cores)",
     count<&Options::Jobs>},
    {"--out-dir", "DIR", "write each variant's .text here",
     text<&Options::OutDir>},
    {"--metrics", "FILE", "enable telemetry; write metrics JSON here",
     text<&Options::MetricsFile>},
    {"--no-opt", nullptr, "disable the -O2 pipeline",
     toggle<&Options::Optimize, false>},
    {"--replicas", "K", "replica count (default 3)",
     positive<&Options::Replicas>},
    {"--policy", "P", "vote policy: majority (default) | unanimous",
     [](Options &O, const char *V) -> const char * {
       return nvx::parseVotePolicy(V, O.Policy)
                  ? nullptr
                  : "expected majority or unanimous";
     }},
    {"--timeout", "S", "per-round wall budget, seconds (default 5; 0 off)",
     seconds<&Options::TimeoutSeconds>},
    {"--store", "DIR", "persistent variant store (required)",
     text<&Options::StoreDir>},
    {"--requests", "N", "request count (default 64)",
     u64<&Options::Requests>},
    {"--queue-depth", "Q", "admission slots beyond the workers (default 16)",
     count<&Options::QueueDepth>},
    {"--admit-wait", "S", "wait before shedding, seconds (default 30)",
     seconds<&Options::AdmitWaitSeconds>},
};

/// Flags every command accepts.
const char *const GlobalFlags = "--metrics --no-opt";

diversity::DiversityOptions diversityOptions(const Options &Opts) {
  diversity::DiversityOptions D;
  if (Opts.Model == "uniform") {
    D = diversity::DiversityOptions::uniform(Opts.PMax);
  } else {
    D = diversity::DiversityOptions::profiled(
        Opts.Model == "linear" ? diversity::ProbabilityModel::Linear
                               : diversity::ProbabilityModel::Log,
        Opts.PMin, Opts.PMax);
  }
  D.IncludeXchgNops = Opts.Xchg;
  return D;
}

/// True when \p C is one of the analyzer's diagnostic codes.
bool isAnalysisCode(verify::ErrorCode C) {
  return C >= verify::ErrorCode::AnalysisCfgMalformed &&
         C <= verify::ErrorCode::StaticAnalysisRejected;
}

/// Loads the program and, when requested, applies a saved profile.
/// Returns ExitOK or the exit code describing what went wrong.
int loadProgram(const Options &Opts, driver::Program &P) {
  std::string Source;
  if (!readFile(Opts.File, Source)) {
    std::fprintf(stderr, "pgsdc: cannot read '%s'\n", Opts.File.c_str());
    return ExitFileIO;
  }
  P = driver::compileProgram(Source, Opts.File, Opts.Optimize);
  if (!P.ok()) {
    // compileProgram already runs the analyzer over the baseline, so a
    // backend bug surfaces with an analysis code rather than a frontend
    // one.
    std::fprintf(stderr, "%s", P.errors().c_str());
    return isAnalysisCode(P.Diags.firstCode()) ? ExitAnalysisFailed
                                               : ExitParse;
  }
  if (!Opts.ProfileFile.empty()) {
    std::string Text;
    if (!readFile(Opts.ProfileFile, Text)) {
      std::fprintf(stderr, "pgsdc: cannot read profile '%s'\n",
                   Opts.ProfileFile.c_str());
      return ExitFileIO;
    }
    profile::ProfileData Data;
    if (!deserializeProfile(Text, P.MIR, Data) ||
        !profile::applyCounts(P.MIR, Data)) {
      std::fprintf(stderr,
                   "pgsdc: profile '%s' is malformed or does not match this "
                   "program (did the source change since training?)\n",
                   Opts.ProfileFile.c_str());
      return ExitBadProfile;
    }
    P.HasProfile = true;
  }
  return ExitOK;
}

/// Parses --input as whitespace-separated 32-bit integers. Rejects
/// non-numeric tokens and values outside int32 range -- the old lenient
/// scan silently *truncated* out-of-range values (static_cast wrap) and
/// dropped trailing garbage, so "4294967296" fed the program 0 and
/// "1 2 x" fed it "1 2". Returns ExitOK or prints the offending token
/// and returns ExitParse.
int parseInput(const Options &Opts, std::vector<int32_t> &Values) {
  Values.clear();
  std::istringstream SS(Opts.InputText);
  std::string Tok;
  while (SS >> Tok) {
    errno = 0;
    char *End = nullptr;
    long long V = std::strtoll(Tok.c_str(), &End, 10);
    if (End == Tok.c_str() || *End != '\0' || errno == ERANGE ||
        V < std::numeric_limits<int32_t>::min() ||
        V > std::numeric_limits<int32_t>::max()) {
      std::fprintf(stderr, "pgsdc: --input: '%s' is not a 32-bit integer\n",
                   Tok.c_str());
      return ExitParse;
    }
    Values.push_back(static_cast<int32_t>(V));
  }
  return ExitOK;
}

/// loadProgram for batch, nvx and serve, where --input doubles as the
/// training set: absent a saved --profile, profile once on it and share
/// the stamped counts with every variant.
int loadTrained(const Options &Opts, driver::Program &P) {
  if (int Err = loadProgram(Opts, P))
    return Err;
  std::vector<int32_t> Input;
  if (int Err = parseInput(Opts, Input))
    return Err;
  if (Opts.InputText.empty() || P.HasProfile ||
      driver::profileAndStamp(P, Input))
    return ExitOK;
  std::fprintf(stderr, "pgsdc: training run trapped\n");
  return ExitTrap;
}

int cmdRun(const Options &Opts) {
  driver::Program P;
  if (int Err = loadProgram(Opts, P))
    return Err;
  std::vector<int32_t> Input;
  if (int Err = parseInput(Opts, Input))
    return Err;
  mexec::RunResult R = driver::execute(P.MIR, Input, true);
  std::fputs(R.Output.c_str(), stdout);
  if (R.Trapped) {
    std::fprintf(stderr, "pgsdc: program trapped (%s): %s\n",
                 mexec::trapKindName(R.Trap), R.TrapReason.c_str());
    return ExitTrap;
  }
  std::fprintf(stderr,
               "exit=%d instructions=%llu cycles=%.0f checksum=%08x\n",
               R.ExitCode, static_cast<unsigned long long>(R.Instructions),
               R.cycles(), R.Checksum);
  return R.ExitCode == 0 ? 0 : R.ExitCode & 0x7f;
}

int cmdProfile(const Options &Opts) {
  driver::Program P;
  if (int Err = loadProgram(Opts, P))
    return Err;
  mexec::RunOptions Run;
  if (int Err = parseInput(Opts, Run.Input))
    return Err;
  profile::ProfileData Data = profile::profileModule(P.MIR, Run);
  if (Data.empty()) {
    std::fprintf(stderr, "pgsdc: training run trapped\n");
    return ExitTrap;
  }
  std::string Text = profile::serializeProfile(Data);
  if (Opts.OutFile.empty()) {
    std::fputs(Text.c_str(), stdout);
  } else if (!writeFile(Opts.OutFile, Text)) {
    std::fprintf(stderr, "pgsdc: cannot write '%s'\n",
                 Opts.OutFile.c_str());
    return ExitFileIO;
  }
  std::fprintf(stderr, "profiled: xmax=%llu\n",
               static_cast<unsigned long long>(Data.MaxCount));
  return ExitOK;
}

/// Prints the per-transform stat lines of one pipeline run, in the
/// pipeline's list order.
void printPipelineStats(const diversity::Pipeline &Pipe,
                        const diversity::PipelineStats &S) {
  auto U = [](uint64_t V) { return static_cast<unsigned long long>(V); };
  for (diversity::TransformKind K : Pipe.kinds()) {
    switch (K) {
    case diversity::TransformKind::Nop:
      std::printf("  nop: %llu inserted at %llu candidate sites\n",
                  U(S.Nop.NopsInserted), U(S.Nop.CandidateSites));
      break;
    case diversity::TransformKind::Shift:
      std::printf("  shift: %llu pad instructions over %llu functions\n",
                  U(S.Shift.PaddingInstrs), U(S.Shift.FunctionsShifted));
      break;
    case diversity::TransformKind::Sched:
      std::printf("  sched: %llu instructions permuted in %llu of %llu "
                  "blocks\n",
                  U(S.Sched.InstrsPermuted), U(S.Sched.BlocksRandomized),
                  U(S.Sched.BlocksConsidered));
      break;
    case diversity::TransformKind::Regs:
      std::printf("  regs: %llu registers remapped in %llu of %llu "
                  "functions\n",
                  U(S.Regs.RegsRemapped), U(S.Regs.FunctionsShuffled),
                  U(S.Regs.FunctionsConsidered));
      break;
    }
  }
}

/// Exit code for a variant verify::verifyVariant rejected: the two
/// static stages -- dataflow analysis and translation validation --
/// apart from every other verification failure.
int rejectionExit(const verify::Report &R) {
  if (R.has(verify::ErrorCode::StaticAnalysisRejected))
    return ExitAnalysisFailed;
  if (R.has(verify::ErrorCode::EquivRejected))
    return ExitEquivRefuted;
  return ExitVerifyFailed;
}

/// `diversify`: build the variant through the transform pipeline,
/// report per-transform stats, then verify it.
int cmdDiversify(const Options &Opts) {
  driver::Program P;
  if (int Err = loadProgram(Opts, P))
    return Err;
  std::vector<int32_t> Input;
  if (int Err = parseInput(Opts, Input))
    return Err;
  codegen::Image Base = driver::linkBaseline(P);
  auto BaseGadgets =
      gadget::scanGadgets(Base.Text.data(), Base.Text.size());

  diversity::DiversityOptions D = diversityOptions(Opts);
  diversity::PipelineStats Stats;
  mir::MModule V = Opts.Pipe.run(P.MIR, D, Opts.Seed, &Stats);
  codegen::Image Img = codegen::link(V);
  auto Survivors = gadget::survivingGadgets(Base.Text, Img.Text);

  std::printf("config: %s transforms=%s seed=%llu%s\n", D.label().c_str(),
              Opts.Pipe.label().c_str(),
              static_cast<unsigned long long>(Opts.Seed),
              P.HasProfile ? " (profile applied)" : " (no profile)");
  printPipelineStats(Opts.Pipe, Stats);
  std::printf(".text: %zu -> %zu bytes\n", Base.Text.size(),
              Img.Text.size());
  std::printf("gadgets: %zu baseline, %zu surviving at original offsets\n",
              BaseGadgets.size(), Survivors.size());

  // Every diversified build goes through the one admission function
  // before the tool reports success.
  verify::Report Report = verify::verifyVariant(
      P.MIR, V, Img, verify::VerifyOptions(), Stats.Regs.Renamings);
  if (!Report.ok()) {
    std::fprintf(stderr, "pgsdc: variant failed verification:\n%s",
                 Report.str().c_str());
    return rejectionExit(Report);
  }

  mexec::RunResult RBase = driver::execute(P.MIR, Input);
  mexec::RunResult RVar = driver::execute(V, Input);
  if (RBase.Trapped || RVar.Trapped) {
    // The variant must trap where its baseline does; a trap on one side
    // only, or of another kind, fails like a checksum mismatch.
    auto Outcome = [](const mexec::RunResult &R) {
      return R.Trapped ? std::string("trapped (") +
                             mexec::trapKindName(R.Trap) + ")"
                       : std::string("finished");
    };
    const bool Same = RBase.Trap == RVar.Trap;
    std::printf("run on given input: baseline %s, variant %s (traps %s)\n",
                Outcome(RBase).c_str(), Outcome(RVar).c_str(),
                Same ? "match" : "DIFFER");
    return Same ? ExitOK : ExitVerifyFailed;
  }
  std::printf("slowdown on given input: %+.2f%% (checksums %s)\n",
              100.0 * (RVar.cycles() / RBase.cycles() - 1.0),
              RBase.Checksum == RVar.Checksum ? "match" : "DIFFER");
  return RBase.Checksum == RVar.Checksum ? ExitOK : ExitVerifyFailed;
}

int cmdVerify(const Options &Opts) {
  driver::Program P;
  if (int Err = loadProgram(Opts, P))
    return Err;
  diversity::DiversityOptions D = diversityOptions(Opts);
  verify::VerifyOptions VOpts;
  VOpts.MaxAttempts = Opts.Retries;
  driver::VerifiedVariant VV =
      driver::makeVariantVerified(P, Opts.Pipe, D, Opts.Seed, VOpts);
  if (!VV.Report.ok())
    std::fprintf(stderr, "%s", VV.Report.str().c_str());
  if (!VV.ok()) {
    std::fprintf(stderr,
                 "pgsdc: verification failed after %u attempts; "
                 "baseline image emitted\n",
                 VV.Attempts);
    return rejectionExit(VV.Report);
  }
  std::printf("verified: %s transforms=%s seed=%llu attempts=%u (%s)\n",
              D.label().c_str(), Opts.Pipe.label().c_str(),
              static_cast<unsigned long long>(VV.SeedUsed), VV.Attempts,
              VV.ModuloNops
                  ? "equal to the analyzer-clean baseline modulo NOPs; "
                    "structure, profile and image checks passed"
                  : "static, equivalence, profile, image, differential "
                    "checks passed");
  printPipelineStats(Opts.Pipe, VV.V.Pipeline);
  std::printf("  .text %zu bytes\n", VV.V.Image.Text.size());
  return ExitOK;
}

/// Prints the per-phase timing breakdown accumulated by this process as
/// an aligned table. Worker-side phases (pipeline.*, verify.*) sum wall
/// time across threads, so their total can exceed elapsed wall clock;
/// the coordinator phases batch.setup + batch.fanout partition the
/// measured batch window.
void printPhaseTable(std::FILE *Out) {
  obs::LocalMetrics Snap = obs::Registry::global().snapshot();
  if (Snap.Phases.empty())
    return;
  double TotalWall = 0.0;
  for (const auto &[Name, S] : Snap.Phases)
    TotalWall += S.WallSeconds;
  TablePrinter T;
  T.addRow({"phase", "count", "wall (s)", "cpu (s)", "wall %"});
  for (const auto &[Name, S] : Snap.Phases)
    T.addRow({Name, formatCount(S.Count), formatDouble(S.WallSeconds, 4),
              formatDouble(S.CpuSeconds, 4),
              formatPercent(TotalWall > 0
                                ? 100.0 * S.WallSeconds / TotalWall
                                : 0.0)});
  std::fprintf(Out, "\nphase breakdown (wall summed per thread):\n");
  T.print(Out);
}

int cmdBatch(const Options &Opts) {
  driver::Program P;
  if (int Err = loadTrained(Opts, P))
    return Err;
  std::vector<uint64_t> Seeds;
  Seeds.reserve(Opts.Seeds);
  for (unsigned I = 0; I != Opts.Seeds; ++I)
    Seeds.push_back(Opts.Seed + I);

  driver::BatchOptions B;
  B.Jobs = Opts.Jobs;
  B.Verify.MaxAttempts = Opts.Retries;
  driver::BatchResult R =
      driver::makeVariantsBatch(P, Opts.Pipe, diversityOptions(Opts),
                                Seeds, B);

  if (!Opts.OutDir.empty()) {
    std::error_code EC;
    std::filesystem::create_directories(Opts.OutDir, EC);
    if (EC) {
      std::fprintf(stderr, "pgsdc: cannot create '%s': %s\n",
                   Opts.OutDir.c_str(), EC.message().c_str());
      return ExitFileIO;
    }
    std::string Stem =
        std::filesystem::path(Opts.File).stem().string();
    for (size_t I = 0; I != R.Variants.size(); ++I) {
      const driver::VerifiedVariant &VV = R.Variants[I];
      std::string Path = Opts.OutDir + "/" + Stem + ".s" +
                         std::to_string(Seeds[I]) +
                         (VV.ok() ? ".text" : ".baseline.text");
      std::string Bytes(VV.V.Image.Text.begin(), VV.V.Image.Text.end());
      if (!writeFile(Path, Bytes)) {
        std::fprintf(stderr, "pgsdc: cannot write '%s'\n", Path.c_str());
        return ExitFileIO;
      }
    }
  }

  for (const driver::VerifiedVariant &VV : R.Variants)
    if (!VV.Report.ok())
      std::fprintf(stderr, "%s", VV.Report.str().c_str());
  std::printf("transforms: %s\n", Opts.Pipe.label().c_str());
  std::printf("batch: %zu seeds x %u jobs: %llu accepted, %llu rejected, "
              "%llu retried (%llu attempts total)\n",
              Seeds.size(), R.Jobs,
              static_cast<unsigned long long>(R.Accepted),
              static_cast<unsigned long long>(R.Rejected),
              static_cast<unsigned long long>(R.Retried),
              static_cast<unsigned long long>(R.TotalAttempts));
  std::printf("throughput: %.1f variants/sec (wall %.3fs, cpu %.3fs, "
              "utilization %.1fx)\n",
              R.variantsPerSecond(), R.WallSeconds, R.CpuSeconds,
              R.WallSeconds > 0 ? R.CpuSeconds / R.WallSeconds : 0.0);
  std::printf("baseline cache: %llu fills, %llu hits; %llu attempts "
              "equal to the baseline modulo NOPs, not executed\n",
              static_cast<unsigned long long>(R.BaselineCacheFills),
              static_cast<unsigned long long>(R.BaselineCacheHits),
              static_cast<unsigned long long>(R.DiffIdentical));
  if (obs::enabled())
    printPhaseTable(stdout);
  if (!R.allAccepted()) {
    std::fprintf(stderr,
                 "pgsdc: %llu seed(s) fell back to the baseline image\n",
                 static_cast<unsigned long long>(R.Rejected));
    return ExitVerifyFailed;
  }
  return ExitOK;
}

/// Counts of one analyze/equiv sweep.
struct SweepResult {
  int Exit = ExitOK; ///< Load failure of the named file, else ExitOK.
  unsigned Programs = 0;
  unsigned Modules = 0; ///< Modules checked.
  unsigned Failed = 0;  ///< Rejected modules plus uncompilable programs.
};

/// The per-module check of a sweep: the verdict on module \p M of a
/// program whose baseline MIR is \p Base.
using ModuleCheck = verify::Report (*)(const mir::MModule &Base,
                                       const mir::MModule &M);

/// Builds the baseline plus one pipeline variant per seed of
/// Opts.Variants for the named file (loaded through loadProgram, so
/// --profile applies) or, with --suite, for each workload program, and
/// runs \p Check over the variants -- and over the baseline too when
/// \p CheckBaseline. Each rejection prints "<program> (<module>)
/// <Rejected>:" and the report to stderr.
SweepResult sweep(const Options &Opts, bool CheckBaseline, ModuleCheck Check,
                  const char *Rejected) {
  SweepResult R;
  diversity::DiversityOptions D = diversityOptions(Opts);
  auto Run = [&](const driver::Program &P, const std::string &Label) {
    ++R.Programs;
    auto One = [&](const mir::MModule &M, const std::string &What) {
      ++R.Modules;
      verify::Report Rep = Check(P.MIR, M);
      if (Rep.ok())
        return;
      ++R.Failed;
      std::fprintf(stderr, "pgsdc: %s (%s) %s:\n%s", Label.c_str(),
                   What.c_str(), Rejected, Rep.str().c_str());
    };
    if (CheckBaseline)
      One(P.MIR, "baseline");
    for (unsigned V = 0; V != Opts.Variants; ++V) {
      uint64_t Seed = Opts.Seed + V;
      One(Opts.Pipe.run(P.MIR, D, Seed),
          "variant seed=" + std::to_string(Seed));
    }
  };
  if (!Opts.Suite) {
    driver::Program P;
    R.Exit = loadProgram(Opts, P);
    if (R.Exit == ExitOK)
      Run(P, Opts.File);
    return R;
  }
  auto RunWorkload = [&](const workloads::Workload &W) {
    driver::Program P =
        driver::compileProgram(W.Source, W.Name, Opts.Optimize);
    if (P.ok())
      return Run(P, W.Name);
    // The workload battery is known-good MiniC; any failure here --
    // frontend or analyzer -- counts against the sweep.
    ++R.Programs;
    ++R.Failed;
    std::fprintf(stderr, "pgsdc: %s failed to compile:\n%s", W.Name.c_str(),
                 P.errors().c_str());
  };
  for (const workloads::Workload &W : workloads::specSuite())
    RunWorkload(W);
  RunWorkload(workloads::phpInterpreter());
  return R;
}

/// `analyze`: the six static checkers over baseline and variants.
int cmdAnalyze(const Options &Opts) {
  SweepResult R = sweep(
      Opts, /*CheckBaseline=*/true,
      [](const mir::MModule &, const mir::MModule &M) {
        return analysis::analyzeModule(M);
      },
      "rejected by static analysis");
  if (R.Exit != ExitOK)
    return R.Exit;
  if (R.Failed) {
    if (Opts.Suite)
      std::fprintf(stderr, "pgsdc: analyze --suite: %u rejection(s)\n",
                   R.Failed);
    return ExitAnalysisFailed;
  }
  if (Opts.Suite)
    std::printf("analyze --suite: %u programs x %u modules clean "
                "(%u checkers)\n",
                R.Programs, 1 + Opts.Variants, analysis::NumCheckers);
  else
    std::printf("analyze: %s: baseline + %u variants clean (%u checkers)\n",
                Opts.File.c_str(), Opts.Variants, analysis::NumCheckers);
  return ExitOK;
}

/// `equiv`: proves each variant observationally equivalent to the
/// baseline with the symbolic prover (no execution).
int cmdEquiv(const Options &Opts) {
  SweepResult R = sweep(
      Opts, /*CheckBaseline=*/false,
      [](const mir::MModule &Base, const mir::MModule &M) {
        return analysis::proveEquivalent(Base, M);
      },
      "refuted by translation validation");
  if (R.Exit != ExitOK)
    return R.Exit;
  if (R.Failed) {
    if (Opts.Suite)
      std::fprintf(stderr, "pgsdc: equiv --suite: %u refutation(s)\n",
                   R.Failed);
    return ExitEquivRefuted;
  }
  if (Opts.Suite)
    std::printf("equiv --suite: %u programs, %u variant modules proved "
                "equivalent\n",
                R.Programs, R.Modules);
  else
    std::printf("equiv: %s: %u variant modules proved equivalent to "
                "baseline\n",
                Opts.File.c_str(), R.Modules);
  return ExitOK;
}

int cmdNvx(const Options &Opts) {
  driver::Program P;
  if (int Err = loadTrained(Opts, P))
    return Err;
  nvx::NvxOptions N;
  N.Replicas = Opts.Replicas;
  N.Policy = Opts.Policy;
  N.Jobs = Opts.Jobs;
  N.BaseSeed = Opts.Seed;
  N.TimeoutSeconds = Opts.TimeoutSeconds;
  N.Diversity = diversityOptions(Opts);
  N.Pipeline = Opts.Pipe;
  N.Verify.MaxAttempts = Opts.Retries;
  nvx::NvxResult R = nvx::runLockstep(P, {}, N);

  std::printf("nvx: %u replicas, %s vote, %llu rounds: %llu consensus, "
              "%llu masked, %llu no-quorum\n",
              R.ReplicasRequested, nvx::votePolicyName(Opts.Policy),
              static_cast<unsigned long long>(R.Rounds),
              static_cast<unsigned long long>(R.ConsensusRounds),
              static_cast<unsigned long long>(R.MaskedFaultRounds),
              static_cast<unsigned long long>(R.NoQuorumRounds));
  std::printf("sensor: %llu divergences, %llu timeouts, %llu load "
              "rejections\n",
              static_cast<unsigned long long>(R.Divergences),
              static_cast<unsigned long long>(R.Timeouts),
              static_cast<unsigned long long>(R.LoadRejections));
  std::printf("degradation: %llu ejections, %llu respawns, %llu respawn "
              "failures; %u/%u replicas alive at end\n",
              static_cast<unsigned long long>(R.Ejections),
              static_cast<unsigned long long>(R.Respawns),
              static_cast<unsigned long long>(R.RespawnFailures),
              R.ActiveReplicas, R.ReplicasRequested);
  if (obs::enabled())
    printPhaseTable(stdout);
  if (!R.ok()) {
    std::fprintf(stderr,
                 "pgsdc: %llu round(s) reached no quorum under the %s "
                 "policy\n",
                 static_cast<unsigned long long>(R.NoQuorumRounds),
                 nvx::votePolicyName(Opts.Policy));
    return ExitNoQuorum;
  }
  return ExitOK;
}

int cmdServe(const Options &Opts) {
  if (Opts.StoreDir.empty()) {
    std::fprintf(stderr, "pgsdc: serve requires --store DIR\n");
    return ExitUsage;
  }
  driver::Program P;
  if (int Err = loadTrained(Opts, P))
    return Err;

  serve::ServeOptions S;
  S.StoreDir = Opts.StoreDir;
  S.Requests = Opts.Requests;
  S.BaseSeed = Opts.Seed;
  S.Jobs = Opts.Jobs;
  S.QueueDepth = Opts.QueueDepth;
  S.AdmitWaitSeconds = Opts.AdmitWaitSeconds;
  S.Pipe = Opts.Pipe;
  S.Diversity = diversityOptions(Opts);
  S.Verify.MaxAttempts = Opts.Retries;
  serve::ServeResult R = serve::serveVariants(P, S);

  auto U = [](uint64_t V) { return static_cast<unsigned long long>(V); };
  std::printf("serve: %llu requests x %u jobs (queue %u): "
              "%llu hits, %llu fills, %llu shed, %llu failed\n",
              U(Opts.Requests), R.Jobs, R.QueueCapacity, U(R.Hits),
              U(R.Fills), U(R.Shed), U(R.Failed));
  std::printf("store: %s: %llu corrupt entries healed, %llu baseline "
              "runs prewarmed\n",
              Opts.StoreDir.c_str(), U(R.StoreCorrupt),
              U(R.BaselinePrewarmed));
  std::printf("baseline cache: %llu fills, %llu hits; %llu attempts "
              "equal to the baseline modulo NOPs, not executed\n",
              U(R.BaselineCacheFills), U(R.BaselineCacheHits),
              U(R.DiffIdentical));
  std::printf("served: %llu variants, %llu pairwise distinct; "
              "peak queue depth %u\n",
              U(R.Served), U(R.DistinctVariants), R.QueuePeakDepth);
  std::printf("latency: p50 %.6fs, p99 %.6fs (wall %.3fs)\n",
              R.P50LatencySeconds, R.P99LatencySeconds, R.WallSeconds);
  if (obs::enabled())
    printPhaseTable(stdout);

  if (!R.ok()) {
    std::fprintf(stderr, "pgsdc: %s\n", R.Error.c_str());
    return ExitFileIO;
  }
  if (R.Failed) {
    std::fprintf(stderr,
                 "pgsdc: %llu request(s) could not be served a verified "
                 "variant\n",
                 U(R.Failed));
    return ExitVerifyFailed;
  }
  if (R.Shed) {
    std::fprintf(stderr,
                 "pgsdc: %llu request(s) shed under overload (queue %u, "
                 "admit wait %.1fs)\n",
                 U(R.Shed), R.QueueCapacity, Opts.AdmitWaitSeconds);
    return ExitServeShed;
  }
  return ExitOK;
}

int cmdGadgets(const Options &Opts) {
  driver::Program P;
  if (int Err = loadProgram(Opts, P))
    return Err;
  codegen::Image Img = driver::linkBaseline(P);
  auto Gadgets = gadget::scanGadgets(Img.Text.data(), Img.Text.size());
  auto Classified =
      gadget::classifyGadgets(Img.Text.data(), Img.Text.size());
  auto Rop =
      gadget::checkAttack(Classified, gadget::AttackModel::RopGadget);
  auto Micro =
      gadget::checkAttack(Classified, gadget::AttackModel::Microgadget);
  std::printf("%zu gadgets in %zu bytes of .text\n", Gadgets.size(),
              Img.Text.size());
  std::printf("usable: %llu pop, %llu store, %llu move, %llu arith, "
              "%llu syscall\n",
              static_cast<unsigned long long>(Rop.NumPop),
              static_cast<unsigned long long>(Rop.NumStore),
              static_cast<unsigned long long>(Rop.NumMove),
              static_cast<unsigned long long>(Rop.NumArith),
              static_cast<unsigned long long>(Rop.NumSyscall));
  std::printf("ROPgadget-model attack: %s%s%s\n",
              Rop.Feasible ? "FEASIBLE" : "infeasible (missing: ",
              Rop.Feasible ? "" : Rop.Missing.c_str(),
              Rop.Feasible ? "" : ")");
  std::printf("microgadgets-model attack: %s%s%s\n",
              Micro.Feasible ? "FEASIBLE" : "infeasible (missing: ",
              Micro.Feasible ? "" : Micro.Missing.c_str(),
              Micro.Feasible ? "" : ")");

  // Survivor sweep mode: with --seeds N, build N diversified versions
  // and run the multi-version Survivor comparison against the baseline,
  // sharing one baseline scan (--jobs shards versions). With --metrics
  // the scanner's gadget.* telemetry lands in the exported JSON.
  if (Opts.SeedsSet) {
    diversity::DiversityOptions D = diversityOptions(Opts);
    std::vector<std::vector<uint8_t>> Versions;
    Versions.reserve(Opts.Seeds);
    for (unsigned I = 0; I != Opts.Seeds; ++I)
      Versions.push_back(
          driver::makeVariant(P, Opts.Pipe, D, Opts.Seed + I).Image.Text);

    gadget::ScanOptions Scan;
    Scan.Jobs = Opts.Jobs;
    auto Survivors = gadget::survivingGadgetsMulti(Img.Text, Versions, Scan);

    size_t Min = Survivors[0].size(), Max = Min, Sum = 0;
    for (const auto &S : Survivors) {
      Min = std::min(Min, S.size());
      Max = std::max(Max, S.size());
      Sum += S.size();
    }
    std::printf("survivor sweep: %u versions (seeds %llu..%llu), "
                "transforms=%s, jobs=%u\n",
                Opts.Seeds,
                static_cast<unsigned long long>(Opts.Seed),
                static_cast<unsigned long long>(Opts.Seed + Opts.Seeds - 1),
                Opts.Pipe.label().c_str(), Opts.Jobs);
    std::printf("surviving gadgets per version: mean %.1f, min %zu, "
                "max %zu (of %zu baseline)\n",
                static_cast<double>(Sum) / static_cast<double>(Opts.Seeds),
                Min, Max, Gadgets.size());
  }
  return 0;
}

int cmdDisasm(const Options &Opts) {
  driver::Program P;
  if (int Err = loadProgram(Opts, P))
    return Err;
  codegen::Image Img = driver::linkBaseline(P);
  auto Lines = x86::disassembleRange(
      Img.Text.data(), Img.Text.size(), 0,
      static_cast<uint32_t>(Img.Text.size()));
  for (const auto &L : Lines) {
    // Mark function starts.
    for (size_t F = 0; F != Img.FuncOffsets.size(); ++F)
      if (Img.FuncOffsets[F] == L.Offset)
        std::printf("\n%s:\n", P.MIR.Functions[F].Name.c_str());
    if (L.Offset == 0)
      std::printf("_start:\n");
    std::printf("  %06x:  ", L.Offset);
    for (unsigned B = 0; B != 8; ++B)
      if (B < L.Length)
        std::printf("%02x ", Img.Text[L.Offset + B]);
      else
        std::printf("   ");
    std::printf(" %s\n", L.Text.c_str());
  }
  return 0;
}

/// One subcommand: its name, help line, handler, and the flags that
/// handler reads (space-separated, beside the GlobalFlags).
struct Command {
  const char *Name;
  const char *Help;
  int (*Run)(const Options &);
  const char *Flags;
};

#define PGSD_DIVERSITY_FLAGS "--seed --pmin --pmax --model --xchg --transforms"

const Command Commands[] = {
    {"run", "compile and execute in the cycle simulator", cmdRun,
     "--input --profile"},
    {"profile", "training run; write per-block counts", cmdProfile,
     "--input --profile -o"},
    {"diversify", "build one variant, report its stats, verify it",
     cmdDiversify, "--input --profile " PGSD_DIVERSITY_FLAGS},
    {"verify", "build a variant through the full verifier, with retries",
     cmdVerify, "--profile --retries " PGSD_DIVERSITY_FLAGS},
    {"batch", "build verified variants in parallel, one per seed", cmdBatch,
     "--input --profile --seeds --jobs --out-dir --retries "
     PGSD_DIVERSITY_FLAGS},
    {"analyze", "run the static dataflow checkers on baseline + variants",
     cmdAnalyze, "--suite --variants --profile " PGSD_DIVERSITY_FLAGS},
    {"equiv", "prove variants equivalent to the baseline, no execution",
     cmdEquiv, "--suite --variants --profile " PGSD_DIVERSITY_FLAGS},
    {"gadgets", "scan gadgets, check attacks; --seeds sweeps versions",
     cmdGadgets, "--profile --seeds --jobs " PGSD_DIVERSITY_FLAGS},
    {"disasm", "disassemble the linked image", cmdDisasm, "--profile"},
    {"nvx", "run K replicas in lockstep, voting on behaviour", cmdNvx,
     "--input --profile --replicas --policy --timeout --jobs --retries "
     PGSD_DIVERSITY_FLAGS},
    {"serve", "serve verified variants from a persistent store", cmdServe,
     "--store --requests --queue-depth --admit-wait --input --profile "
     "--jobs --retries " PGSD_DIVERSITY_FLAGS},
};

#undef PGSD_DIVERSITY_FLAGS

/// True when the space-separated \p List names flag \p Name.
bool inList(const char *List, std::string_view Name) {
  std::string Padded = std::string(" ") + List + " ";
  return Padded.find(" " + std::string(Name) + " ") != std::string::npos;
}

/// Prints the usage text generated from the two tables.
int usage() {
  std::fprintf(stderr, "usage: pgsdc <command> <file.minic> [flags]\n"
                       "       pgsdc analyze|equiv --suite [flags]\n"
                       "\ncommands:\n");
  for (const Command &C : Commands) {
    std::fprintf(stderr, "  %-10s %s\n", C.Name, C.Help);
    std::string Line = "            ";
    std::istringstream Names(C.Flags);
    for (std::string Name; Names >> Name;) {
      if (Line.size() + 1 + Name.size() > 78) {
        std::fprintf(stderr, "%s\n", Line.c_str());
        Line = "            ";
      }
      Line += " " + Name;
    }
    std::fprintf(stderr, "%s\n", Line.c_str());
  }
  std::fprintf(stderr, "\nflags (%s apply to every command):\n",
               GlobalFlags);
  for (const Flag &F : Flags) {
    std::string Head = F.Name;
    if (F.Meta)
      Head += std::string(" ") + F.Meta;
    std::fprintf(stderr, "  %-19s %s\n", Head.c_str(), F.Help);
  }
  std::fprintf(stderr,
               "\nexit codes: 0 ok, 2 usage, 3 parse error, 4 file I/O,\n"
               "  5 program trapped, 6 verification failed, 7 bad profile,\n"
               "  8 static analysis rejected, 9 nvx no-quorum,\n"
               "  10 equivalence refuted, 11 serve shed requests\n");
  return ExitUsage;
}

/// Parses Argv[2..] for \p Cmd: each flag must be in the table and
/// apply to \p Cmd, and its setter must accept its value; the one
/// non-flag argument is the file. Prints why and returns false on a bad
/// command line.
bool parseArgs(const Command &Cmd, int Argc, char **Argv, Options &Opts) {
  for (int I = 2; I < Argc; ++I) {
    std::string_view Arg = Argv[I];
    if (Arg.empty() || Arg[0] != '-') {
      if (!Opts.File.empty()) {
        std::fprintf(stderr, "pgsdc: unexpected argument '%s'\n", Argv[I]);
        return false;
      }
      Opts.File = Arg;
      continue;
    }
    size_t Eq = Arg.find('=');
    std::string_view Name = Arg.substr(0, Eq);
    const Flag *F = std::find_if(std::begin(Flags), std::end(Flags),
                                 [&](const Flag &G) { return Name == G.Name; });
    if (F == std::end(Flags)) {
      std::fprintf(stderr, "pgsdc: unknown option '%s'\n", Argv[I]);
      return false;
    }
    if (!inList(GlobalFlags, Name) && !inList(Cmd.Flags, Name)) {
      std::fprintf(stderr, "pgsdc: %s does not apply to '%s'\n", F->Name,
                   Cmd.Name);
      return false;
    }
    const char *Value = Eq == std::string_view::npos ? nullptr
                                                     : Argv[I] + Eq + 1;
    if (F->Meta && !Value && I + 1 < Argc)
      Value = Argv[++I];
    if ((F->Meta != nullptr) != (Value != nullptr)) {
      std::fprintf(stderr, "pgsdc: %s %s\n", F->Name,
                   F->Meta ? "needs a value" : "takes no value");
      return false;
    }
    if (const char *Why = F->Set(Opts, Value)) {
      std::fprintf(stderr, "pgsdc: invalid value '%s' for %s: %s\n", Value,
                   F->Name, Why);
      return false;
    }
  }
  if (Opts.File.empty() != Opts.Suite) {
    std::fprintf(stderr, "pgsdc: %s expects one file%s\n", Cmd.Name,
                 inList(Cmd.Flags, "--suite") ? " or --suite" : "");
    return false;
  }
  if (Opts.Suite && !Opts.ProfileFile.empty()) {
    std::fprintf(stderr, "pgsdc: --profile belongs to one program; it "
                         "does not apply to --suite\n");
    return false;
  }
  if (Opts.Model != "uniform" && Opts.PMin > Opts.PMax) {
    std::fprintf(stderr, "pgsdc: --pmin %g exceeds --pmax %g\n",
                 100.0 * Opts.PMin, 100.0 * Opts.PMax);
    return false;
  }
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 2)
    return usage();
  std::string_view Name = Argv[1];
  const Command *Cmd =
      std::find_if(std::begin(Commands), std::end(Commands),
                   [&](const Command &C) { return Name == C.Name; });
  if (Cmd == std::end(Commands)) {
    std::fprintf(stderr, "pgsdc: unknown command '%s'\n", Argv[1]);
    return usage();
  }
  Options Opts;
  if (!parseArgs(*Cmd, Argc, Argv, Opts))
    return ExitUsage;
  if (!Opts.MetricsFile.empty())
    obs::setEnabled(true);
  int Code = Cmd->Run(Opts);
  if (!Opts.MetricsFile.empty()) {
    // Export even when the command failed: a rejected batch's metrics
    // are exactly what the user wants to inspect.
    if (!obs::writeMetricsJson(Opts.MetricsFile)) {
      std::fprintf(stderr, "pgsdc: cannot write metrics '%s'\n",
                   Opts.MetricsFile.c_str());
      if (Code == ExitOK)
        Code = ExitFileIO;
    } else {
      std::fprintf(stderr, "metrics written to %s\n",
                   Opts.MetricsFile.c_str());
    }
  }
  return Code;
}
