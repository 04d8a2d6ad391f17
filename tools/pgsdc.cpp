//===-- tools/pgsdc.cpp - PGSD command-line driver --------------------------===//
//
// Part of the PGSD project, a reproduction of "Profile-guided Automated
// Software Diversity" (Homescu et al., CGO 2013).
//
// The user-facing compiler driver, modeled on the workflow of the
// paper's diversifying multicompiler:
//
//   pgsdc run file.minic [--input "1 2 3"]
//   pgsdc profile file.minic --input "train data" -o file.prof
//   pgsdc diversify file.minic [--profile file.prof] [--seed N]
//         [--pmin 0] [--pmax 30] [--model log|linear|uniform]
//         [--xchg] [--transforms nop,shift,sched,regs]
//   pgsdc verify file.minic [--seed N ...as above] [--retries N]
//   pgsdc batch file.minic --seeds N [--jobs J] [--out-dir DIR]
//         [--seed BASE ...as above]
//   pgsdc analyze file.minic [--variants N] [--seed N ...as above]
//   pgsdc analyze --suite [--variants N]
//   pgsdc equiv file.minic [--variants N] [--seed N ...as above]
//   pgsdc equiv --suite [--variants N]
//   pgsdc gadgets file.minic [--seed N ...as above]
//   pgsdc disasm file.minic
//   pgsdc nvx file.minic [--replicas K] [--policy majority|unanimous]
//         [--seed BASE] [--jobs J] [--timeout S] [...as above]
//   pgsdc serve file.minic --store DIR [--requests N] [--seed BASE]
//         [--jobs J] [--queue-depth Q] [--admit-wait S] [...as above]
//
// Exit codes form a small taxonomy so scripts can tell failure modes
// apart (see ExitCode below): 2 usage, 3 parse, 4 file I/O, 5 trap,
// 6 verification failure, 7 bad profile, 8 static analysis rejected,
// 9 nvx no-quorum, 10 equivalence refuted, 11 serve shed requests;
// `run` passes the simulated program's own exit code through.
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
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
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

int usage() {
  std::fprintf(stderr,
               "usage: pgsdc <command> <file.minic> [options]\n"
               "\n"
               "commands:\n"
               "  run        compile and execute in the cycle simulator\n"
               "  profile    training run; write per-block counts\n"
               "  diversify  build a diversified variant, report stats\n"
               "  verify     build a variant and run the full verifier\n"
               "             (differential + image + structural checks,\n"
               "             retrying with derived seeds on failure)\n"
               "  batch      build a population of verified variants in\n"
               "             parallel (one per seed), report throughput\n"
               "  analyze    run the static dataflow checkers over the\n"
               "             baseline MIR and diversified variants; with\n"
               "             --suite instead of a file, sweep the whole\n"
               "             built-in workload battery\n"
               "  equiv      statically prove diversified variants\n"
               "             observationally equivalent to the baseline\n"
               "             (translation validation; no execution); with\n"
               "             --suite, sweep the whole workload battery\n"
               "  gadgets    scan gadgets / check attack feasibility;\n"
               "             with --seeds N, also sweep N diversified\n"
               "             versions through the Survivor comparison\n"
               "             (--jobs shards versions, --incremental\n"
               "             seeds each scan from the baseline scan)\n"
               "  disasm     disassemble the linked image\n"
               "  nvx        run K diversified replicas in lockstep over\n"
               "             the input battery, voting on behaviour;\n"
               "             divergence is reported as a fault sensor\n"
               "  serve      daemon loop: compile + profile once, then\n"
               "             serve one verified variant per request from\n"
               "             a persistent content-addressed store\n"
               "             (--store DIR); restarts resume on cache\n"
               "             hits, overload sheds requests (exit 11)\n"
               "\n"
               "options:\n"
               "  --input \"1 2 3\"    integers fed to read_int()\n"
               "  --profile FILE      use a saved training profile\n"
               "  -o FILE             output file (profile command)\n"
               "  --seed N            variant seed (default 1)\n"
               "  --pmin P --pmax P   probability range, percent\n"
               "  --model M           log (default) | linear | uniform\n"
               "  --xchg              include the bus-locking XCHG NOPs\n"
               "  --transforms LIST   comma-separated transform pipeline\n"
               "                      from {nop, shift, sched, regs},\n"
               "                      applied in list order (diversify/\n"
               "                      verify/batch/analyze/equiv/nvx;\n"
               "                      default: nop)\n"
               "  --engine E          fast (default) | reference\n"
               "                      execution engine for run/verify/\n"
               "                      batch (bit-identical results)\n"
               "  --retries N         verification attempts (default 3)\n"
               "  --variants N        variants per program (analyze,\n"
               "                      equiv)\n"
               "  --seeds N           batch size: seeds BASE..BASE+N-1\n"
               "                      (batch; gadgets survivor sweep)\n"
               "  --jobs J            worker threads (default: all cores)\n"
               "  --incremental       gadgets sweep: rescan only diffed\n"
               "                      ranges of each variant image\n"
               "  --out-dir DIR       write each variant's .text (batch)\n"
               "  --metrics FILE      enable pipeline telemetry and write\n"
               "                      metrics JSON (run/verify/analyze/\n"
               "                      batch/nvx/gadgets/serve; batch and\n"
               "                      serve also print a stage breakdown\n"
               "                      table)\n"
               "  --no-opt            disable the -O2 pipeline\n"
               "  --replicas K        nvx replica count (default 3)\n"
               "  --policy P          nvx vote policy: majority (default)\n"
               "                      | unanimous\n"
               "  --timeout S         nvx per-round wall-clock budget in\n"
               "                      seconds (default 5; 0 disables)\n"
               "  --store DIR         serve: persistent variant store\n"
               "  --requests N        serve: request count (default 64)\n"
               "  --queue-depth Q     serve: admission slots beyond the\n"
               "                      workers (default 16)\n"
               "  --admit-wait S      serve: backpressure wait budget\n"
               "                      before shedding (default 30)\n"
               "\n"
               "exit codes: 0 ok, 2 usage, 3 parse error, 4 file I/O,\n"
               "  5 program trapped, 6 verification failed, 7 bad profile,\n"
               "  8 static analysis rejected, 9 nvx no-quorum,\n"
               "  10 equivalence refuted, 11 serve shed requests\n");
  return ExitUsage;
}

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

/// Parses --input as whitespace-separated 32-bit integers. Rejects
/// non-numeric tokens and values outside int32 range -- the old lenient
/// scan silently *truncated* out-of-range values (static_cast wrap) and
/// dropped trailing garbage, so "4294967296" fed the program 0 and
/// "1 2 x" fed it "1 2". On failure \p BadToken names the offender.
bool parseInput(const std::string &Text, std::vector<int32_t> &Values,
                std::string &BadToken) {
  Values.clear();
  std::istringstream SS(Text);
  std::string Tok;
  while (SS >> Tok) {
    errno = 0;
    char *End = nullptr;
    long long V = std::strtoll(Tok.c_str(), &End, 10);
    if (End == Tok.c_str() || *End != '\0' || errno == ERANGE ||
        V < std::numeric_limits<int32_t>::min() ||
        V > std::numeric_limits<int32_t>::max()) {
      BadToken = Tok;
      return false;
    }
    Values.push_back(static_cast<int32_t>(V));
  }
  return true;
}

struct Options {
  std::string Command;
  std::string File;
  std::string InputText;
  std::string ProfileFile;
  std::string OutFile;
  uint64_t Seed = 1;
  double PMin = 0.0;
  double PMax = 30.0;
  std::string Model = "log";
  unsigned Retries = 3;
  unsigned Variants = 3;
  mexec::Engine Engine = mexec::Engine::Fast;
  unsigned Seeds = 8;      ///< Batch size (batch/gadgets commands).
  bool SeedsSet = false;   ///< --seeds given (gadgets sweep trigger).
  unsigned Jobs = 0;       ///< Worker threads; 0 means all cores.
  bool Incremental = false; ///< gadgets: incremental variant rescans.
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

bool parseArgs(int Argc, char **Argv, Options &Opts) {
  if (Argc < 3)
    return false;
  Opts.Command = Argv[1];
  Opts.File = Argv[2];
  for (int I = 3; I < Argc; ++I) {
    std::string Arg = Argv[I];
    auto Value = [&]() -> const char * {
      return I + 1 < Argc ? Argv[++I] : nullptr;
    };
    // Numeric flags parse strictly: "8x", "1e99", "-3", and overflow
    // all fail the command line (exit 2) instead of silently feeding
    // the pipeline a wrapped or truncated value.
    auto BadValue = [&](const char *V) {
      std::fprintf(stderr, "pgsdc: invalid value '%s' for %s\n", V,
                   Arg.c_str());
      return false;
    };
    if (Arg == "--input") {
      const char *V = Value();
      if (!V)
        return false;
      Opts.InputText = V;
    } else if (Arg == "--profile") {
      const char *V = Value();
      if (!V)
        return false;
      Opts.ProfileFile = V;
    } else if (Arg == "-o") {
      const char *V = Value();
      if (!V)
        return false;
      Opts.OutFile = V;
    } else if (Arg == "--seed") {
      const char *V = Value();
      if (!V)
        return false;
      if (!parseUint64Strict(V, Opts.Seed))
        return BadValue(V);
    } else if (Arg == "--pmin") {
      const char *V = Value();
      if (!V)
        return false;
      if (!parseDoubleStrict(V, Opts.PMin) || Opts.PMin < 0.0)
        return BadValue(V);
      Opts.PMin /= 100.0;
    } else if (Arg == "--pmax") {
      const char *V = Value();
      if (!V)
        return false;
      if (!parseDoubleStrict(V, Opts.PMax) || Opts.PMax < 0.0)
        return BadValue(V);
      Opts.PMax /= 100.0;
    } else if (Arg == "--model") {
      const char *V = Value();
      if (!V)
        return false;
      Opts.Model = V;
      if (Opts.Model != "log" && Opts.Model != "linear" &&
          Opts.Model != "uniform") {
        std::fprintf(stderr, "pgsdc: unknown model '%s'\n", V);
        return false;
      }
    } else if (Arg == "--engine") {
      const char *V = Value();
      if (!V)
        return false;
      if (!mexec::parseEngine(V, Opts.Engine)) {
        std::fprintf(stderr, "pgsdc: unknown engine '%s'\n", V);
        return false;
      }
    } else if (Arg == "--retries") {
      const char *V = Value();
      if (!V)
        return false;
      if (!parseUnsignedStrict(V, Opts.Retries))
        return BadValue(V);
      if (Opts.Retries == 0) {
        std::fprintf(stderr, "pgsdc: --retries must be at least 1\n");
        return false;
      }
    } else if (Arg == "--variants") {
      const char *V = Value();
      if (!V)
        return false;
      if (!parseUnsignedStrict(V, Opts.Variants))
        return BadValue(V);
    } else if (Arg == "--seeds") {
      const char *V = Value();
      if (!V)
        return false;
      if (!parseUnsignedStrict(V, Opts.Seeds))
        return BadValue(V);
      Opts.SeedsSet = true;
      if (Opts.Seeds == 0) {
        std::fprintf(stderr, "pgsdc: --seeds must be at least 1\n");
        return false;
      }
    } else if (Arg == "--jobs") {
      const char *V = Value();
      if (!V)
        return false;
      if (!parseUnsignedStrict(V, Opts.Jobs))
        return BadValue(V);
    } else if (Arg == "--requests") {
      const char *V = Value();
      if (!V)
        return false;
      if (!parseUint64Strict(V, Opts.Requests))
        return BadValue(V);
    } else if (Arg == "--store") {
      const char *V = Value();
      if (!V)
        return false;
      Opts.StoreDir = V;
    } else if (Arg == "--queue-depth") {
      const char *V = Value();
      if (!V)
        return false;
      if (!parseUnsignedStrict(V, Opts.QueueDepth))
        return BadValue(V);
    } else if (Arg == "--admit-wait") {
      const char *V = Value();
      if (!V)
        return false;
      if (!parseDoubleStrict(V, Opts.AdmitWaitSeconds) ||
          Opts.AdmitWaitSeconds < 0.0)
        return BadValue(V);
    } else if (Arg == "--out-dir") {
      const char *V = Value();
      if (!V)
        return false;
      Opts.OutDir = V;
    } else if (Arg == "--metrics") {
      const char *V = Value();
      if (!V)
        return false;
      Opts.MetricsFile = V;
    } else if (Arg == "--replicas") {
      const char *V = Value();
      if (!V)
        return false;
      if (!parseUnsignedStrict(V, Opts.Replicas))
        return BadValue(V);
      if (Opts.Replicas == 0) {
        std::fprintf(stderr, "pgsdc: --replicas must be at least 1\n");
        return false;
      }
    } else if (Arg == "--policy") {
      const char *V = Value();
      if (!V)
        return false;
      if (!nvx::parseVotePolicy(V, Opts.Policy)) {
        std::fprintf(stderr, "pgsdc: unknown policy '%s'\n", V);
        return false;
      }
    } else if (Arg == "--timeout") {
      const char *V = Value();
      if (!V)
        return false;
      if (!parseDoubleStrict(V, Opts.TimeoutSeconds) ||
          Opts.TimeoutSeconds < 0.0)
        return BadValue(V);
    } else if (Arg == "--transforms" ||
               Arg.rfind("--transforms=", 0) == 0) {
      const char *V;
      if (Arg == "--transforms") {
        V = Value();
        if (!V)
          return false;
      } else {
        V = Arg.c_str() + std::strlen("--transforms=");
      }
      std::vector<diversity::TransformKind> Kinds;
      std::string Error;
      if (!diversity::parseTransformList(V, Kinds, &Error)) {
        std::fprintf(stderr, "pgsdc: --transforms: %s\n", Error.c_str());
        return false;
      }
      Opts.Pipe = diversity::Pipeline(std::move(Kinds));
    } else if (Arg == "--incremental") {
      Opts.Incremental = true;
    } else if (Arg == "--xchg") {
      Opts.Xchg = true;
    } else if (Arg == "--no-opt") {
      Opts.Optimize = false;
    } else {
      std::fprintf(stderr, "pgsdc: unknown option '%s'\n", Arg.c_str());
      return false;
    }
  }
  // Percentages arrive /100 already; fix defaults set in percent.
  if (Opts.PMax > 1.0)
    Opts.PMax /= 100.0;
  if (Opts.PMin > 1.0)
    Opts.PMin /= 100.0;
  return true;
}

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
    std::fprintf(stderr, "%s", P.errors().c_str());
    return ExitParse;
  }
  if (!Opts.ProfileFile.empty()) {
    std::string Text;
    if (!readFile(Opts.ProfileFile, Text)) {
      std::fprintf(stderr, "pgsdc: cannot read profile '%s'\n",
                   Opts.ProfileFile.c_str());
      return ExitFileIO;
    }
    profile::ProfileData Data;
    if (!deserializeProfile(Text, Data)) {
      std::fprintf(stderr, "pgsdc: malformed profile '%s'\n",
                   Opts.ProfileFile.c_str());
      return ExitBadProfile;
    }
    if (Data.BlockCounts.size() != P.MIR.Functions.size()) {
      std::fprintf(stderr,
                   "pgsdc: profile does not match this program (did the "
                   "source change since training?)\n");
      return ExitBadProfile;
    }
    profile::applyCounts(P.MIR, Data);
    P.HasProfile = true;
  }
  return ExitOK;
}

/// Parses Opts.InputText strictly into \p Out. Returns ExitOK or prints
/// the offending token and returns ExitParse.
int parseInputChecked(const Options &Opts, std::vector<int32_t> &Out) {
  std::string Bad;
  if (!parseInput(Opts.InputText, Out, Bad)) {
    std::fprintf(stderr,
                 "pgsdc: --input: '%s' is not a 32-bit integer\n",
                 Bad.c_str());
    return ExitParse;
  }
  return ExitOK;
}

int cmdRun(const Options &Opts) {
  driver::Program P;
  if (int Err = loadProgram(Opts, P))
    return Err;
  std::vector<int32_t> Input;
  if (int Err = parseInputChecked(Opts, Input))
    return Err;
  mexec::RunResult R = driver::execute(P.MIR, Input, true, Opts.Engine);
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
  if (int Err = parseInputChecked(Opts, Run.Input))
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

/// `diversify`: build the variant through the transform pipeline,
/// report per-transform stats, then verify it.
int cmdDiversify(const Options &Opts) {
  driver::Program P;
  if (int Err = loadProgram(Opts, P))
    return Err;
  std::vector<int32_t> Input;
  if (int Err = parseInputChecked(Opts, Input))
    return Err;
  codegen::Image Base = driver::linkBaseline(P);
  auto BaseGadgets =
      gadget::scanGadgets(Base.Text.data(), Base.Text.size());

  diversity::DiversityOptions D = diversityOptions(Opts);
  mir::MModule V = P.MIR;
  diversity::PipelineStats Stats = Opts.Pipe.run(V, D, Opts.Seed);
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

  // Every diversified build flows through the verifier before the tool
  // reports success.
  verify::VerifyOptions VOpts;
  VOpts.CheckStructure = Opts.Pipe.structurePreserving();
  verify::Report Report = verify::verifyVariant(P.MIR, V, Img, VOpts);
  if (!Report.ok()) {
    std::fprintf(stderr, "pgsdc: variant failed verification:\n%s",
                 Report.str().c_str());
    return ExitVerifyFailed;
  }

  mexec::RunResult RBase = driver::execute(P.MIR, Input);
  mexec::RunResult RVar = driver::execute(V, Input);
  if (!RBase.Trapped && !RVar.Trapped) {
    std::printf("slowdown on given input: %+.2f%% (checksums %s)\n",
                100.0 * (RVar.cycles() / RBase.cycles() - 1.0),
                RBase.Checksum == RVar.Checksum ? "match" : "DIFFER");
    if (RBase.Checksum != RVar.Checksum)
      return ExitVerifyFailed;
  }
  return ExitOK;
}

int cmdVerify(const Options &Opts) {
  driver::Program P;
  if (int Err = loadProgram(Opts, P))
    return Err;
  diversity::DiversityOptions D = diversityOptions(Opts);
  verify::VerifyOptions VOpts;
  VOpts.MaxAttempts = Opts.Retries;
  VOpts.Engine = Opts.Engine;
  driver::VerifiedVariant VV =
      driver::makeVariantVerified(P, Opts.Pipe, D, Opts.Seed, VOpts);
  if (!VV.Report.ok())
    std::fprintf(stderr, "%s", VV.Report.str().c_str());
  if (!VV.ok()) {
    std::fprintf(stderr,
                 "pgsdc: verification failed after %u attempts; "
                 "baseline image emitted\n",
                 VV.Attempts);
    // Distinguish the two static rejection stages -- dataflow analysis
    // and translation validation -- from dynamic verification failures.
    if (VV.Report.has(verify::ErrorCode::StaticAnalysisRejected))
      return ExitAnalysisFailed;
    if (VV.Report.has(verify::ErrorCode::EquivRejected))
      return ExitEquivRefuted;
    return ExitVerifyFailed;
  }
  // Non-structure-preserving pipelines (sched, regs) run without the
  // structural check, so the banner names only what actually ran.
  std::printf("verified: %s transforms=%s seed=%llu attempts=%u "
              "(differential, image%s checks passed)\n",
              D.label().c_str(), Opts.Pipe.label().c_str(),
              static_cast<unsigned long long>(VV.SeedUsed), VV.Attempts,
              Opts.Pipe.structurePreserving() ? ", structural" : "");
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
  if (int Err = loadProgram(Opts, P))
    return Err;
  std::vector<int32_t> Input;
  if (int Err = parseInputChecked(Opts, Input))
    return Err;
  if (!Opts.InputText.empty() && !P.HasProfile) {
    // --input doubles as the training set: profile once, share the
    // stamped counts with every worker.
    if (!driver::profileAndStamp(P, Input)) {
      std::fprintf(stderr, "pgsdc: training run trapped\n");
      return ExitTrap;
    }
  }
  std::vector<uint64_t> Seeds;
  Seeds.reserve(Opts.Seeds);
  for (unsigned I = 0; I != Opts.Seeds; ++I)
    Seeds.push_back(Opts.Seed + I);

  driver::BatchOptions B;
  B.Jobs = Opts.Jobs;
  B.Verify.MaxAttempts = Opts.Retries;
  B.Verify.Engine = Opts.Engine;
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
  std::printf("baseline cache: %llu fills, %llu hits\n",
              static_cast<unsigned long long>(R.BaselineCacheFills),
              static_cast<unsigned long long>(R.BaselineCacheHits));
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

/// Runs the six static checkers over \p P's baseline MIR plus one
/// pipeline variant per seed of Opts.Variants. Returns the number of
/// rejected modules.
unsigned analyzeProgram(const driver::Program &P, const Options &Opts,
                        const std::string &Label) {
  unsigned Failed = 0;
  auto Check = [&](const mir::MModule &M, const std::string &What) {
    verify::Report R = analysis::analyzeModule(M);
    if (R.ok())
      return;
    ++Failed;
    std::fprintf(stderr,
                 "pgsdc: %s (%s) rejected by static analysis:\n%s",
                 Label.c_str(), What.c_str(), R.str().c_str());
  };
  Check(P.MIR, "baseline");
  diversity::DiversityOptions D = diversityOptions(Opts);
  for (unsigned V = 0; V != Opts.Variants; ++V) {
    uint64_t Seed = Opts.Seed + V;
    mir::MModule Var = P.MIR;
    Opts.Pipe.run(Var, D, Seed);
    Check(Var, "variant seed=" + std::to_string(Seed));
  }
  return Failed;
}

/// True when \p C is one of the analyzer's diagnostic codes.
bool isAnalysisCode(verify::ErrorCode C) {
  return C >= verify::ErrorCode::AnalysisCfgMalformed &&
         C <= verify::ErrorCode::StaticAnalysisRejected;
}

int cmdAnalyzeSuite(const Options &Opts) {
  unsigned Failed = 0;
  unsigned Programs = 0;
  auto RunOne = [&](const workloads::Workload &W) {
    ++Programs;
    driver::Program P =
        driver::compileProgram(W.Source, W.Name, Opts.Optimize);
    if (!P.ok()) {
      // The workload battery is known-good MiniC; any failure here --
      // frontend or analyzer -- counts against the sweep.
      std::fprintf(stderr, "pgsdc: %s failed to compile:\n%s",
                   W.Name.c_str(), P.errors().c_str());
      ++Failed;
      return;
    }
    Failed += analyzeProgram(P, Opts, W.Name);
  };
  for (const workloads::Workload &W : workloads::specSuite())
    RunOne(W);
  RunOne(workloads::phpInterpreter());
  if (Failed) {
    std::fprintf(stderr, "pgsdc: analyze --suite: %u rejection(s)\n",
                 Failed);
    return ExitAnalysisFailed;
  }
  std::printf("analyze --suite: %u programs x %u modules clean "
              "(%u checkers)\n",
              Programs, 1 + Opts.Variants, analysis::NumCheckers);
  return ExitOK;
}

int cmdAnalyze(const Options &Opts) {
  if (Opts.File == "--suite")
    return cmdAnalyzeSuite(Opts);
  std::string Source;
  if (!readFile(Opts.File, Source)) {
    std::fprintf(stderr, "pgsdc: cannot read '%s'\n", Opts.File.c_str());
    return ExitFileIO;
  }
  driver::Program P =
      driver::compileProgram(Source, Opts.File, Opts.Optimize);
  if (!P.ok()) {
    // compileProgram already runs the analyzer over the baseline, so a
    // backend bug surfaces here with an analysis code rather than a
    // frontend one.
    std::fprintf(stderr, "%s", P.errors().c_str());
    return isAnalysisCode(P.Diags.firstCode()) ? ExitAnalysisFailed
                                               : ExitParse;
  }
  if (analyzeProgram(P, Opts, Opts.File))
    return ExitAnalysisFailed;
  std::printf("analyze: %s: baseline + %u variants clean (%u checkers)\n",
              Opts.File.c_str(), Opts.Variants, analysis::NumCheckers);
  return ExitOK;
}

/// Proves one pipeline variant of \p P per seed of Opts.Variants
/// observationally equivalent to the baseline via the symbolic prover
/// (no execution). Returns the number of
/// refuted or aborted modules and accumulates \p Modules.
unsigned equivProgram(const driver::Program &P, const Options &Opts,
                      const std::string &Label, unsigned &Modules) {
  unsigned Failed = 0;
  auto Prove = [&](const mir::MModule &V, const std::string &What) {
    ++Modules;
    verify::Report R = analysis::proveEquivalent(P.MIR, V);
    if (R.ok())
      return;
    ++Failed;
    std::fprintf(stderr,
                 "pgsdc: %s (%s) refuted by translation validation:\n%s",
                 Label.c_str(), What.c_str(), R.str().c_str());
  };
  diversity::DiversityOptions D = diversityOptions(Opts);
  for (unsigned V = 0; V != Opts.Variants; ++V) {
    uint64_t Seed = Opts.Seed + V;
    mir::MModule Var = P.MIR;
    Opts.Pipe.run(Var, D, Seed);
    Prove(Var, "variant seed=" + std::to_string(Seed));
  }
  return Failed;
}

int cmdEquivSuite(const Options &Opts) {
  unsigned Failed = 0;
  unsigned Programs = 0;
  unsigned Modules = 0;
  auto RunOne = [&](const workloads::Workload &W) {
    ++Programs;
    driver::Program P =
        driver::compileProgram(W.Source, W.Name, Opts.Optimize);
    if (!P.ok()) {
      std::fprintf(stderr, "pgsdc: %s failed to compile:\n%s",
                   W.Name.c_str(), P.errors().c_str());
      ++Failed;
      return;
    }
    Failed += equivProgram(P, Opts, W.Name, Modules);
  };
  for (const workloads::Workload &W : workloads::specSuite())
    RunOne(W);
  RunOne(workloads::phpInterpreter());
  if (Failed) {
    std::fprintf(stderr, "pgsdc: equiv --suite: %u refutation(s)\n",
                 Failed);
    return ExitEquivRefuted;
  }
  std::printf("equiv --suite: %u programs, %u variant modules proved "
              "equivalent\n",
              Programs, Modules);
  return ExitOK;
}

int cmdEquiv(const Options &Opts) {
  if (Opts.File == "--suite")
    return cmdEquivSuite(Opts);
  std::string Source;
  if (!readFile(Opts.File, Source)) {
    std::fprintf(stderr, "pgsdc: cannot read '%s'\n", Opts.File.c_str());
    return ExitFileIO;
  }
  driver::Program P =
      driver::compileProgram(Source, Opts.File, Opts.Optimize);
  if (!P.ok()) {
    std::fprintf(stderr, "%s", P.errors().c_str());
    return isAnalysisCode(P.Diags.firstCode()) ? ExitAnalysisFailed
                                               : ExitParse;
  }
  unsigned Modules = 0;
  if (equivProgram(P, Opts, Opts.File, Modules))
    return ExitEquivRefuted;
  std::printf("equiv: %s: %u variant modules proved equivalent to "
              "baseline\n",
              Opts.File.c_str(), Modules);
  return ExitOK;
}

int cmdNvx(const Options &Opts) {
  driver::Program P;
  if (int Err = loadProgram(Opts, P))
    return Err;
  std::vector<int32_t> Input;
  if (int Err = parseInputChecked(Opts, Input))
    return Err;
  if (!Opts.InputText.empty() && !P.HasProfile) {
    // Like batch, --input doubles as the training set.
    if (!driver::profileAndStamp(P, Input)) {
      std::fprintf(stderr, "pgsdc: training run trapped\n");
      return ExitTrap;
    }
  }
  nvx::NvxOptions N;
  N.Replicas = Opts.Replicas;
  N.Policy = Opts.Policy;
  N.Jobs = Opts.Jobs;
  N.BaseSeed = Opts.Seed;
  N.TimeoutSeconds = Opts.TimeoutSeconds;
  N.Diversity = diversityOptions(Opts);
  N.Pipeline = Opts.Pipe;
  N.Verify.MaxAttempts = Opts.Retries;
  N.Verify.Engine = Opts.Engine;
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
  if (int Err = loadProgram(Opts, P))
    return Err;
  std::vector<int32_t> Input;
  if (int Err = parseInputChecked(Opts, Input))
    return Err;
  if (!Opts.InputText.empty() && !P.HasProfile) {
    // Like batch, --input doubles as the training set: compile and
    // profile once, then serve the whole fleet from the stamped MIR.
    if (!driver::profileAndStamp(P, Input)) {
      std::fprintf(stderr, "pgsdc: training run trapped\n");
      return ExitTrap;
    }
  }

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
  S.Verify.Engine = Opts.Engine;
  serve::ServeResult R = serve::serveVariants(P, S);

  auto U = [](uint64_t V) { return static_cast<unsigned long long>(V); };
  std::printf("serve: %llu requests x %u jobs (queue %u): "
              "%llu hits, %llu fills, %llu shed, %llu failed\n",
              U(Opts.Requests), R.Jobs, R.QueueCapacity, U(R.Hits),
              U(R.Fills), U(R.Shed), U(R.Failed));
  std::printf("store: %s: %llu corrupt entries healed, %llu baseline "
              "runs prewarmed (cache: %llu fills, %llu hits)\n",
              Opts.StoreDir.c_str(), U(R.StoreCorrupt),
              U(R.BaselinePrewarmed), U(R.BaselineCacheFills),
              U(R.BaselineCacheHits));
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
  // sharing one baseline scan (--jobs shards versions, --incremental
  // seeds each version scan from the baseline scan). With --metrics the
  // scanner's gadget.* telemetry lands in the exported JSON.
  if (Opts.SeedsSet) {
    diversity::DiversityOptions D = diversityOptions(Opts);
    std::vector<std::vector<uint8_t>> Versions;
    Versions.reserve(Opts.Seeds);
    for (unsigned I = 0; I != Opts.Seeds; ++I)
      Versions.push_back(
          driver::makeVariant(P, Opts.Pipe, D, Opts.Seed + I).Image.Text);

    gadget::ScanOptions Scan;
    Scan.Incremental = Opts.Incremental;
    Scan.Jobs = Opts.Jobs;
    auto Survivors = gadget::survivingGadgetsMulti(Img.Text, Versions, Scan);

    size_t Min = Survivors[0].size(), Max = Min, Sum = 0;
    for (const auto &S : Survivors) {
      Min = std::min(Min, S.size());
      Max = std::max(Max, S.size());
      Sum += S.size();
    }
    std::printf("survivor sweep: %u versions (seeds %llu..%llu), "
                "transforms=%s, %s scan, jobs=%u\n",
                Opts.Seeds,
                static_cast<unsigned long long>(Opts.Seed),
                static_cast<unsigned long long>(Opts.Seed + Opts.Seeds - 1),
                Opts.Pipe.label().c_str(),
                Opts.Incremental ? "incremental" : "full",
                Opts.Jobs);
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

int dispatch(const Options &Opts) {
  if (Opts.Command == "run")
    return cmdRun(Opts);
  if (Opts.Command == "profile")
    return cmdProfile(Opts);
  if (Opts.Command == "diversify")
    return cmdDiversify(Opts);
  if (Opts.Command == "verify")
    return cmdVerify(Opts);
  if (Opts.Command == "batch")
    return cmdBatch(Opts);
  if (Opts.Command == "analyze")
    return cmdAnalyze(Opts);
  if (Opts.Command == "equiv")
    return cmdEquiv(Opts);
  if (Opts.Command == "nvx")
    return cmdNvx(Opts);
  if (Opts.Command == "serve")
    return cmdServe(Opts);
  if (Opts.Command == "gadgets")
    return cmdGadgets(Opts);
  if (Opts.Command == "disasm")
    return cmdDisasm(Opts);
  std::fprintf(stderr, "pgsdc: unknown command '%s'\n",
               Opts.Command.c_str());
  return usage();
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opts;
  if (!parseArgs(Argc, Argv, Opts))
    return usage();
  if (!Opts.MetricsFile.empty())
    obs::setEnabled(true);
  int Code = dispatch(Opts);
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
