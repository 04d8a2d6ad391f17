//===-- verify/Verifier.cpp - Variant verification pipeline ----------------===//
//
// Part of the PGSD project, a reproduction of "Profile-guided Automated
// Software Diversity" (Homescu et al., CGO 2013).
//
//===----------------------------------------------------------------------===//

#include "verify/Verifier.h"

#include "analysis/Analysis.h"
#include "analysis/Equiv.h"
#include "mexec/Interp.h"
#include "mexec/Precompiled.h"
#include "obs/Metrics.h"
#include "support/Rng.h"
#include "verify/BaselineCache.h"
#include "x86/Decoder.h"

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <optional>

using namespace pgsd;
using namespace pgsd::verify;
using namespace pgsd::mir;

std::vector<std::vector<int32_t>> verify::defaultInputBattery() {
  std::vector<std::vector<int32_t>> Battery;
  Battery.push_back({});
  Battery.push_back({0});
  Battery.push_back({1});
  Battery.push_back({-1, 0, 1});
  Battery.push_back({7, 3, 255, -128, 64});
  Battery.push_back({INT32_MAX, INT32_MIN, 0, 1, -1});
  std::vector<int32_t> Ramp;
  for (int32_t I = 0; I != 16; ++I)
    Ramp.push_back(I * 3 - 8);
  Battery.push_back(std::move(Ramp));
  // A fixed pseudo-random stream (deterministic: the battery is part of
  // the verification contract, not a fuzzer).
  Rng Gen(0xba77e47ull);
  std::vector<int32_t> Noise;
  for (unsigned I = 0; I != 32; ++I)
    Noise.push_back(static_cast<int32_t>(Gen.nextInRange(-1000, 1000)));
  Battery.push_back(std::move(Noise));
  return Battery;
}

uint64_t verify::deriveRetrySeed(uint64_t Seed, unsigned Attempt) {
  if (Attempt == 0)
    return Seed;
  // One SplitMix64 finalization keyed by the attempt index: the schedule
  // is a pure function of (Seed, Attempt) and decorrelated across
  // attempts.
  uint64_t Z = Seed + 0x9E3779B97F4A7C15ull * Attempt;
  Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
  Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
  return Z ^ (Z >> 31);
}

namespace {

std::string format(const char *Fmt, ...)
    __attribute__((format(printf, 1, 2)));

std::string format(const char *Fmt, ...) {
  char Buf[256];
  va_list Ap;
  va_start(Ap, Fmt);
  std::vsnprintf(Buf, sizeof(Buf), Fmt, Ap);
  va_end(Ap);
  return Buf;
}

//===----------------------------------------------------------------------===//
// Differential execution
//===----------------------------------------------------------------------===//

/// Runs baseline and variant on every battery input. Callers settle a
/// variant that mir::equalModuloNops its baseline without calling this:
/// it is its baseline plus at most one NOP before each instruction, so
/// it runs the baseline's instruction sequence with NOPs in between --
/// same trap, output, checksum and exit code on every input, in at most
/// 2 * Instructions + 1 steps, inside the budget below. No input could
/// report anything. verifyVariant does call this for such a variant of
/// an unclean baseline, which the variant's own analysis rejects first.
void diffExecute(const MModule &Baseline, const MModule &Variant,
                 const VerifyOptions &Opts, Report &R) {
  // The baseline side comes from the caller's shared cache when one is
  // provided; otherwise a local cache resolves the battery once per
  // diffExecute call (each input's baseline is asked for exactly once
  // here, and the process-wide run memo may already hold it).
  std::optional<BaselineCache> Local;
  const BaselineCache &Cache =
      Opts.Cache ? *Opts.Cache : Local.emplace(Baseline, Opts);
  const std::vector<std::vector<int32_t>> &Battery = Cache.battery();

  // The variant reruns on every input: compile it once up front.
  mexec::Precompiled Compiled(Variant);

  mexec::RunOptions Run;
  Run.CollectOutput = true;
  for (size_t In = 0; In != Battery.size(); ++In) {
    const mexec::RunResult &RB = Cache.baselineRun(In);
    if (RB.Trapped && RB.Trap == mexec::TrapKind::StepBudget)
      continue; // Non-terminating on this input: nothing to compare.

    // NOP insertion adds at most one NOP per original instruction, and
    // a shift prelude runs a jmp (plus its NOP when the shift runs
    // first) on every call. Each call costs the baseline at least a
    // call and a ret, so calls <= Instructions / 2 and the variant runs
    // at most 3 * Instructions (+1 for the entry call) in any pipeline
    // order. Budget accordingly so a correct variant never trips it.
    Run.Input = Battery[In];
    Run.MaxSteps = RB.Instructions * 3 + 4096;
    mexec::RunResult RV = Compiled.run(Run);

    if (RB.Trapped != RV.Trapped || RB.Trap != RV.Trap) {
      R.add(ErrorCode::TrapMismatch,
            format("input #%zu: baseline %s, variant %s", In,
                   RB.Trapped ? mexec::trapKindName(RB.Trap) : "finished",
                   RV.Trapped ? mexec::trapKindName(RV.Trap) : "finished"));
      continue;
    }
    if (RB.Checksum != RV.Checksum)
      R.add(ErrorCode::ChecksumMismatch,
            format("input #%zu: %08x != %08x", In, RB.Checksum,
                   RV.Checksum));
    if (RB.Output != RV.Output)
      R.add(ErrorCode::OutputMismatch,
            format("input #%zu: %zu vs %zu output bytes", In,
                   RB.Output.size(), RV.Output.size()));
    if (!RB.Trapped && RB.ExitCode != RV.ExitCode)
      R.add(ErrorCode::ExitCodeMismatch,
            format("input #%zu: %d != %d", In, RB.ExitCode, RV.ExitCode));
  }
}

//===----------------------------------------------------------------------===//
// Profile flow conservation
//===----------------------------------------------------------------------===//

void checkProfileFlow(const MModule &M, Report &R) {
  // u128 so summed u64 counts cannot wrap (GCC/Clang extension; the
  // __extension__ marker keeps -Wpedantic quiet about it).
  __extension__ typedef unsigned __int128 u128;
  for (const MFunction &F : M.Functions) {
    size_t N = F.Blocks.size();
    // Sum of predecessor counts per block (128-bit: counts are u64).
    std::vector<u128> PredSum(N, 0);
    for (uint32_t B = 0; B != N; ++B)
      for (uint32_t S : F.successors(B))
        PredSum[S] += F.Blocks[B].ProfileCount;

    for (uint32_t B = 0; B != N; ++B) {
      uint64_t C = F.Blocks[B].ProfileCount;
      if (C == 0)
        continue;
      // Every execution of a non-entry block arrives over some CFG edge,
      // and each predecessor contributes at most one arrival per
      // execution of its own.
      if (B != 0 && PredSum[B] < C) {
        R.add(ErrorCode::ProfileFlowInvalid,
              format("%s block %u: count %" PRIu64
                     " exceeds combined predecessor count",
                     F.Name.c_str(), B, C));
        continue;
      }
      // Every execution of a non-returning block hands control to some
      // successor.
      std::vector<uint32_t> Succs = F.successors(B);
      if (Succs.empty())
        continue; // Ret-terminated.
      u128 SuccSum = 0;
      for (uint32_t S : Succs)
        SuccSum += F.Blocks[S].ProfileCount;
      if (SuccSum < C)
        R.add(ErrorCode::ProfileFlowInvalid,
              format("%s block %u: count %" PRIu64
                     " exceeds combined successor count",
                     F.Name.c_str(), B, C));
    }
  }
}

//===----------------------------------------------------------------------===//
// Image integrity
//===----------------------------------------------------------------------===//

/// The decode round trip: the whole image (stub, functions, alignment
/// NOPs) must decode as valid IA-32 with every relative branch target
/// inside the image. Lengths and classes come from the table decoder;
/// only the direct branches, whose displacement the target needs, are
/// decoded in full.
void checkDecode(std::span<const uint8_t> Text, Report &R) {
  const uint8_t *Bytes = Text.data();
  const size_t Size = Text.size();
  size_t Off = 0;
  while (Off < Size) {
    uint8_t Len = 0;
    x86::InstrClass Class = x86::InstrClass::Invalid;
    if (!x86::decodeLenClass(Bytes + Off, Size - Off, Len, Class)) {
      R.add(ErrorCode::ImageDecodeInvalid,
            format("invalid or truncated instruction at offset %#zx",
                   Off));
      return; // Stream is out of sync; later offsets are meaningless.
    }
    switch (Class) {
    case x86::InstrClass::CallRel:
    case x86::InstrClass::JmpRel:
    case x86::InstrClass::Jcc:
    case x86::InstrClass::Loop: {
      x86::Decoded D;
      x86::decodeInstr(Bytes + Off, Size - Off, D);
      int64_t Target = static_cast<int64_t>(Off) + D.Length + D.Imm;
      if (Target < 0 || Target >= static_cast<int64_t>(Size))
        R.add(ErrorCode::BranchTargetOutOfRange,
              format("branch at offset %#zx targets %+" PRId64
                     " (image is %zu bytes)",
                     Off, Target, Size));
      break;
    }
    default:
      break;
    }
    Off += Len;
  }
}

void checkImage(const MModule &Variant, const codegen::Image &Image,
                const codegen::LinkOptions &Link, Report &R) {
  // 1. Byte-exact round trip: linking is deterministic, so the image
  // must equal a fresh emission of the MIR it claims to encode. This is
  // the integrity check with full coverage -- any .text corruption,
  // dropped relocation, or resequenced NOP shows up as a byte diff. A
  // {nop} attempt's image was spliced from its baseline's encoding
  // (codegen::linkSpliced), so for it the re-emission is a second
  // encoder checking the first; any other image came from the emitter,
  // which then checks itself.
  codegen::Image Fresh = codegen::link(Variant, Link);
  if (Fresh.Text != Image.Text) {
    size_t At = 0;
    size_t Limit = std::min(Fresh.Text.size(), Image.Text.size());
    while (At != Limit && Fresh.Text[At] == Image.Text[At])
      ++At;
    R.add(ErrorCode::ImageTextMismatch,
          format(".text diverges from re-emission at offset %#zx "
                 "(%zu vs %zu bytes)",
                 At, Image.Text.size(), Fresh.Text.size()));
  } else if (Fresh.FuncOffsets != Image.FuncOffsets ||
             Fresh.EntryOffset != Image.EntryOffset) {
    R.add(ErrorCode::ImageTextMismatch,
          "function offset table diverges from re-emission");
  }

  // 2. Decode round trip.
  checkDecode(Image.Text, R);
}

} // namespace

Report verify::verifyImage(const MModule &Variant,
                           const codegen::Image &Image,
                           const codegen::LinkOptions &Link) {
  Report R;
  checkImage(Variant, Image, Link, R);
  return R;
}

Report verify::verifyImageDecode(std::span<const uint8_t> Text) {
  Report R;
  checkDecode(Text, R);
  return R;
}

Report verify::verifyProfileFlow(const MModule &M) {
  Report R;
  checkProfileFlow(M, R);
  return R;
}

Report verify::verifyExecution(const MModule &Baseline,
                               const MModule &Variant,
                               const VerifyOptions &Opts) {
  Report R;
  if (mir::equalModuloNops(Baseline, Variant)) {
    if (Opts.Cache)
      Opts.Cache->noteIdentical();
    return R;
  }
  diffExecute(Baseline, Variant, Opts, R);
  return R;
}

namespace {

/// The six-checker verdict on \p Baseline: from Opts.Cache when that
/// cache was built on this very module (once per cache), else computed
/// here.
bool baselineAnalysisClean(const MModule &Baseline,
                           const VerifyOptions &Opts) {
  if (Opts.Cache && &Opts.Cache->baseline() == &Baseline)
    return Opts.Cache->analysisClean();
  return analysis::analyzeModule(Baseline).ok();
}

/// The checks every admitted variant passes, however it was settled:
/// mir::verify, then profile flow and image integrity. Returns false
/// when the module is invalid (nothing may execute or link it).
bool checkStructure(const MModule &Variant, const codegen::Image &Image,
                    const VerifyOptions &Opts, Report &R) {
  std::string Problem = mir::verify(Variant);
  if (!Problem.empty()) {
    R.add(ErrorCode::MIRInvalid, Problem);
    return false;
  }
  {
    obs::Span S("verify.profile");
    checkProfileFlow(Variant, R);
  }
  {
    obs::Span S("verify.image");
    checkImage(Variant, Image, Opts.Link, R);
  }
  return true;
}

} // namespace

Report verify::verifyVariant(const MModule &Baseline,
                             const MModule &Variant,
                             const codegen::Image &Image,
                             const VerifyOptions &Opts,
                             std::span<const uint8_t> Witness,
                             bool *ModuloNops) {
  if (ModuloNops)
    *ModuloNops = false;
  // The relation first: a variant equal to its baseline modulo NOPs
  // gets the baseline's verdict from every checker (see the contract in
  // Verifier.h), equals it on every input, and so needs neither its own
  // analysis, nor a proof, nor a run once the baseline's analysis is
  // clean. An unclean baseline takes the full path below, so its
  // diagnostics come from the variant's own analysis as ever.
  if (mir::equalModuloNops(Baseline, Variant) &&
      baselineAnalysisClean(Baseline, Opts)) {
    if (Opts.Cache)
      Opts.Cache->noteIdentical();
    if (ModuloNops)
      *ModuloNops = true;
    Report R;
    checkStructure(Variant, Image, Opts, R);
    return R;
  }

  // Static screening: when the analyzer can refute the variant from its
  // MIR alone, skip everything after it.
  Report R = analysis::analyzeModule(Variant);
  if (!R.ok()) {
    obs::counterAdd("verify.static_rejections");
    R.add(ErrorCode::StaticAnalysisRejected,
          "variant rejected by static analysis before execution");
    return R;
  }
  // Translation validation: a symbolic equivalence proof against the
  // baseline (analysis/Equiv.h). Still static -- a refutation carries a
  // counterexample and skips execution entirely. The prover re-derives
  // nothing already known: the variant's liveness verdict is the clean
  // analysis just above, on this very module; the baseline's comes from
  // a cache built on this very baseline (once per cache).
  if (Opts.CheckEquiv) {
    analysis::EquivFacts Facts;
    Facts.VariantLiveness = true;
    if (Opts.Cache && &Opts.Cache->baseline() == &Baseline)
      Facts.BaselineLiveness = Opts.Cache->livenessProved();
    R = analysis::proveEquivalent(Baseline, Variant,
                                  analysis::EquivOptions(), nullptr, Facts,
                                  Witness);
    if (!R.ok()) {
      obs::counterAdd("verify.equiv_rejections");
      R.add(ErrorCode::EquivRejected,
            "variant rejected by translation validation before execution");
      return R;
    }
  }
  if (!checkStructure(Variant, Image, Opts, R))
    return R; // Executing an invalid module would assert.
  {
    obs::Span S("verify.diff_execute");
    diffExecute(Baseline, Variant, Opts, R);
  }
  return R;
}
