//===-- tests/VerifyTest.cpp - Variant verification pipeline tests ----------===//
//
// Part of the PGSD project, a reproduction of "Profile-guided Automated
// Software Diversity" (Homescu et al., CGO 2013).
//
// Two properties are load-bearing for a generate-and-check pipeline:
//
//  * No false positives: legitimately diversified variants -- across
//    seeds, probability models, and workloads -- always verify clean
//    (the sweep below checks 60 of them).
//  * No false negatives on known faults: every corruption class the
//    FaultInjector can produce trips the verifier, every time.
//
//===----------------------------------------------------------------------===//

#include "driver/Driver.h"
#include "verify/FaultInjector.h"
#include "verify/Verifier.h"
#include "workloads/Workloads.h"
#include "x86/Decoder.h"

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <map>

using namespace pgsd;
using diversity::DiversityOptions;
using diversity::Pipeline;
using diversity::ProbabilityModel;

namespace {

driver::Program compileChecked(const char *Source, const char *Name,
                               const std::vector<int32_t> &Train) {
  driver::Program P = driver::compileProgram(Source, Name);
  EXPECT_TRUE(P.ok()) << P.errors();
  EXPECT_TRUE(driver::profileAndStamp(P, Train));
  return P;
}

// Three small programs with distinct shapes: a hot loop with a cold
// call, input-dependent branching, and straight-line arithmetic.
driver::Program loopProgram() {
  return compileChecked(R"(
    fn coldpath(x) { return x * 3 + 7; }
    fn main() {
      var s = 0;
      var i = 0;
      while (i < 500) {
        s = s + i * i;
        i = i + 1;
      }
      if (s < 0) { s = coldpath(s); }
      print_int(s);
      return 0;
    }
  )",
                        "loop", {});
}

driver::Program branchProgram() {
  return compileChecked(R"(
    fn classify(v) {
      if (v < 0) { return 0 - v; }
      if (v > 100) { return v % 101; }
      return v;
    }
    fn main() {
      var n = read_int();
      var i = 0;
      var acc = 0;
      while (i < n) {
        acc = acc + classify(read_int());
        i = i + 1;
      }
      print_int(acc);
      return acc % 7;
    }
  )",
                        "branch", {3, 5, -9, 200});
}

driver::Program mathProgram() {
  return compileChecked(R"(
    fn main() {
      var a = read_int();
      var b = read_int();
      var x = a * 17 + b;
      x = x ^ (a - b);
      x = x + a * b;
      print_int(x);
      return 0;
    }
  )",
                        "math", {12, 34});
}

std::vector<DiversityOptions> sweepConfigs() {
  return {
      DiversityOptions::uniform(0.5),
      DiversityOptions::uniform(1.0),
      DiversityOptions::profiled(ProbabilityModel::Log, 0.0, 0.5),
      DiversityOptions::profiled(ProbabilityModel::Linear, 0.1, 0.4),
  };
}

} // namespace

// --- retry seed schedule ----------------------------------------------

TEST(RetrySeed, AttemptZeroIsIdentity) {
  EXPECT_EQ(verify::deriveRetrySeed(42, 0), 42u);
  EXPECT_EQ(verify::deriveRetrySeed(0, 0), 0u);
}

TEST(RetrySeed, ScheduleIsDeterministicAndDecorrelated) {
  std::map<uint64_t, unsigned> Seen;
  for (unsigned Attempt = 0; Attempt != 8; ++Attempt) {
    uint64_t S = verify::deriveRetrySeed(7, Attempt);
    EXPECT_EQ(S, verify::deriveRetrySeed(7, Attempt));
    EXPECT_EQ(Seen.count(S), 0u) << "attempt " << Attempt
                                 << " collides with " << Seen[S];
    Seen[S] = Attempt;
  }
}

// --- no false positives: clean variants always verify ------------------

TEST(Verify, CleanVariantSweepHasNoFalsePositives) {
  std::vector<driver::Program> Programs;
  Programs.push_back(loopProgram());
  Programs.push_back(branchProgram());
  Programs.push_back(mathProgram());

  unsigned Checked = 0;
  verify::VerifyOptions VOpts;
  for (driver::Program &P : Programs)
    for (const DiversityOptions &Config : sweepConfigs())
      for (uint64_t Seed = 1; Seed <= 5; ++Seed) {
        driver::Variant V = driver::makeVariant(P, Config, Seed);
        verify::Report R =
            verify::verifyVariant(P.MIR, V.MIR, V.Image, VOpts);
        EXPECT_TRUE(R.ok())
            << P.Name << " " << Config.label() << " seed " << Seed
            << " false positive:\n"
            << R.str();
        ++Checked;
      }
  // The acceptance bar: at least 50 distinct clean variants.
  EXPECT_GE(Checked, 50u);
}

TEST(Verify, CleanWorkloadVariantVerifies) {
  // One real (SPEC-modeled) workload through the same pipeline.
  const workloads::Workload &W = workloads::specWorkload("429.mcf");
  driver::Program P = driver::compileProgram(W.Source, W.Name);
  ASSERT_TRUE(P.ok()) << P.errors();
  ASSERT_TRUE(driver::profileAndStamp(P, W.TrainInput));
  DiversityOptions Config =
      DiversityOptions::profiled(ProbabilityModel::Log, 0.0, 0.3);
  driver::Variant V = driver::makeVariant(P, Config, 11);
  verify::Report R =
      verify::verifyVariant(P.MIR, V.MIR, V.Image, verify::VerifyOptions());
  EXPECT_TRUE(R.ok()) << R.str();
}

// --- no false negatives: every injected fault is caught ----------------

TEST(Verify, DetectsEveryInjectedFaultClass) {
  driver::Program P = branchProgram();
  DiversityOptions Config = DiversityOptions::uniform(0.6);
  verify::VerifyOptions VOpts;

  unsigned InjectedPerClass[verify::NumFaultClasses] = {};
  for (unsigned C = 0; C != verify::NumFaultClasses; ++C) {
    auto Class = static_cast<verify::FaultClass>(C);
    for (uint64_t Seed = 1; Seed <= 5; ++Seed) {
      driver::Variant V = driver::makeVariant(P, Config, Seed);
      verify::FaultInjector Injector(/*Seed=*/Seed * 131 + C,
                                     codegen::LinkOptions());
      if (!Injector.inject(Class, V.MIR, V.Image))
        continue; // No eligible site in this variant.
      ++InjectedPerClass[C];
      verify::Report R =
          verify::verifyVariant(P.MIR, V.MIR, V.Image, VOpts);
      EXPECT_FALSE(R.ok())
          << verify::faultClassName(Class) << " seed " << Seed
          << ": injected fault escaped the verifier";
    }
  }
  // Every class must have been exercised at least once -- a class with
  // no eligible site everywhere would silently test nothing.
  for (unsigned C = 0; C != verify::NumFaultClasses; ++C)
    EXPECT_GT(InjectedPerClass[C], 0u)
        << verify::faultClassName(static_cast<verify::FaultClass>(C))
        << " never found an injection site";
}

TEST(Verify, FaultClassesMapToExpectedDiagnostics) {
  driver::Program P = branchProgram();
  DiversityOptions Config = DiversityOptions::uniform(0.6);
  verify::VerifyOptions VOpts;

  // The image-level classes must trip the image-integrity family, the
  // mangled branch the prover, and the profile class the flow check.
  struct Expect {
    verify::FaultClass Class;
    std::vector<verify::ErrorCode> AnyOf;
  };
  const std::vector<Expect> Cases = {
      {verify::FaultClass::TextBitFlip,
       {verify::ErrorCode::ImageTextMismatch}},
      {verify::FaultClass::DroppedRelocation,
       {verify::ErrorCode::ImageTextMismatch}},
      {verify::FaultClass::TruncatedText,
       {verify::ErrorCode::ImageTextMismatch,
        verify::ErrorCode::ImageDecodeInvalid,
        verify::ErrorCode::BranchTargetOutOfRange}},
      {verify::FaultClass::WrongLengthNop,
       {verify::ErrorCode::ImageTextMismatch}},
      {verify::FaultClass::MangledBranchTarget,
       {verify::ErrorCode::EquivRefuted}},
      {verify::FaultClass::CorruptProfileCount,
       {verify::ErrorCode::ProfileFlowInvalid}},
  };
  for (const Expect &E : Cases) {
    bool Injected = false;
    for (uint64_t Seed = 1; Seed <= 5 && !Injected; ++Seed) {
      driver::Variant V = driver::makeVariant(P, Config, Seed);
      verify::FaultInjector Injector(Seed, codegen::LinkOptions());
      if (!Injector.inject(E.Class, V.MIR, V.Image))
        continue;
      Injected = true;
      verify::Report R =
          verify::verifyVariant(P.MIR, V.MIR, V.Image, VOpts);
      bool Matched = false;
      for (verify::ErrorCode Code : E.AnyOf)
        Matched |= R.has(Code);
      EXPECT_TRUE(Matched)
          << verify::faultClassName(E.Class)
          << " produced unexpected diagnostics:\n"
          << R.str();
    }
    EXPECT_TRUE(Injected) << verify::faultClassName(E.Class);
  }
}

// --- retry and graceful degradation ------------------------------------

TEST(Verify, RetriesThenFallsBackToBaseline) {
  driver::Program P = mathProgram();
  DiversityOptions Config = DiversityOptions::uniform(0.5);

  verify::VerifyOptions VOpts;
  VOpts.MaxAttempts = 3;
  // Corrupt every candidate: no seed can succeed.
  VOpts.InjectFault = [](mir::MModule &, codegen::Image &Image, uint64_t) {
    if (!Image.Text.empty())
      Image.Text[Image.Text.size() / 2] ^= 0x40;
  };

  driver::VerifiedVariant VV =
      driver::makeVariantVerified(P, Pipeline(), Config, /*Seed=*/21,
                                  VOpts);
  EXPECT_FALSE(VV.ok());
  EXPECT_TRUE(VV.UsedFallback);
  EXPECT_EQ(VV.Attempts, 3u);
  EXPECT_TRUE(VV.Report.has(verify::ErrorCode::RetriesExhausted))
      << VV.Report.str();
  // Per-attempt diagnostics are preserved alongside the final verdict.
  EXPECT_TRUE(VV.Report.has(verify::ErrorCode::ImageTextMismatch))
      << VV.Report.str();
  // The fallback is the undiversified baseline image, byte for byte.
  codegen::Image Base = driver::linkBaseline(P);
  EXPECT_EQ(VV.V.Image.Text, Base.Text);
  EXPECT_EQ(VV.V.Pipeline.Nop.NopsInserted, 0u);
}

// --- the re-link checks the spliced bytes --------------------------------

namespace {

/// The instructions of the entry function's own code in \p Img (its
/// length is the emitter's for \p M, so the alignment NOPs after it are
/// left out), decoded from its start as (offset, instruction) pairs.
std::vector<std::pair<size_t, x86::Decoded>>
entryInstrs(const mir::MModule &M, const codegen::Image &Img) {
  const size_t F = static_cast<size_t>(M.EntryFunction);
  const size_t Begin = Img.FuncOffsets[F];
  const size_t End = Begin + codegen::emitFunction(M.Functions[F]).Bytes.size();
  std::vector<std::pair<size_t, x86::Decoded>> Out;
  for (size_t Off = Begin; Off < End;) {
    x86::Decoded D;
    if (!x86::decodeInstr(Img.Text.data() + Off, End - Off, D))
      break;
    Out.push_back({Off, D});
    Off += D.Length;
  }
  return Out;
}

} // namespace

// A {nop} variant's image is spliced from its baseline's encoding, not
// emitted, so the image check's re-emission is a second encoder checking
// it. Each encoder-fault class a splice could make -- a branch rel32 off
// by one, a NOP of another length, a wrong ModRM reg field in a copied
// instruction -- decodes cleanly, so only the re-link can catch it; it
// must, on every attempt, down to the baseline fallback.
TEST(Verify, ReLinkCatchesSpliceFaults) {
  driver::Program P = branchProgram();
  const DiversityOptions Config = DiversityOptions::uniform(0.5);
  using Fault = bool (*)(codegen::Image &,
                         const std::vector<std::pair<size_t, x86::Decoded>> &);
  const std::pair<const char *, Fault> Faults[] = {
      {"rel32 off by one",
       [](codegen::Image &Img, const auto &Instrs) {
         for (const auto &[Off, D] : Instrs)
           if (D.Class == x86::InstrClass::Jcc ||
               D.Class == x86::InstrClass::JmpRel) {
             uint8_t *Field = Img.Text.data() + Off + D.Length - 4;
             uint32_t Rel = static_cast<uint32_t>(Field[0]) |
                            static_cast<uint32_t>(Field[1]) << 8 |
                            static_cast<uint32_t>(Field[2]) << 16 |
                            static_cast<uint32_t>(Field[3]) << 24;
             ++Rel;
             for (unsigned I = 0; I != 4; ++I)
               Field[I] = static_cast<uint8_t>(Rel >> (8 * I));
             return true;
           }
         return false;
       }},
      {"NOP 90 widened to 89 E4",
       [](codegen::Image &Img, const auto &Instrs) {
         for (const auto &[Off, D] : Instrs)
           if (D.Length == 1 && Img.Text[Off] == 0x90) {
             Img.Text[Off] = 0x89;
             Img.Text.insert(Img.Text.begin() + static_cast<long>(Off) + 1,
                             0xE4);
             return true;
           }
         return false;
       }},
      {"ModRM reg field of a copied load",
       [](codegen::Image &Img, const auto &Instrs) {
         for (const auto &[Off, D] : Instrs)
           if (!D.TwoByte && D.Opcode == 0x8B && D.HasModRM) {
             Img.Text[Off + 1] ^= 0x08;
             return true;
           }
         return false;
       }},
  };
  for (const auto &[Name, Inject] : Faults) {
    SCOPED_TRACE(Name);
    verify::VerifyOptions VOpts;
    VOpts.MaxAttempts = 3;
    unsigned Injected = 0;
    bool DecodesCleanly = true;
    VOpts.InjectFault = [&, Inject = Inject](mir::MModule &M,
                                             codegen::Image &Img, uint64_t) {
      Injected += Inject(Img, entryInstrs(M, Img));
      DecodesCleanly &= verify::verifyImageDecode(Img.Text).ok();
    };
    driver::VerifiedVariant VV =
        driver::makeVariantVerified(P, Pipeline(), Config, /*Seed=*/5, VOpts);
    EXPECT_EQ(Injected, 3u);
    EXPECT_TRUE(DecodesCleanly);
    EXPECT_TRUE(VV.UsedFallback);
    EXPECT_EQ(VV.Attempts, 3u);
    EXPECT_TRUE(VV.Report.has(verify::ErrorCode::ImageTextMismatch))
        << VV.Report.str();
    EXPECT_TRUE(VV.Report.has(verify::ErrorCode::RetriesExhausted));
    EXPECT_EQ(VV.V.Image.Text, driver::linkBaseline(P).Text);
  }
}

TEST(Verify, RetrySucceedsWithDerivedSeed) {
  driver::Program P = mathProgram();
  DiversityOptions Config = DiversityOptions::uniform(0.5);
  const uint64_t Seed = 77;

  verify::VerifyOptions VOpts;
  VOpts.MaxAttempts = 3;
  // Only the first attempt's candidate is corrupted; the reseeded retry
  // must pass untouched.
  VOpts.InjectFault = [Seed](mir::MModule &, codegen::Image &Image,
                             uint64_t AttemptSeed) {
    if (AttemptSeed == Seed && !Image.Text.empty())
      Image.Text[0] ^= 0x01;
  };

  driver::VerifiedVariant VV =
      driver::makeVariantVerified(P, Pipeline(), Config, Seed, VOpts);
  EXPECT_TRUE(VV.ok());
  EXPECT_FALSE(VV.UsedFallback);
  EXPECT_EQ(VV.Attempts, 2u);
  EXPECT_EQ(VV.SeedUsed, verify::deriveRetrySeed(Seed, 1));
  // The failed first attempt left its diagnostics behind.
  EXPECT_FALSE(VV.Report.ok());
  EXPECT_FALSE(VV.Report.has(verify::ErrorCode::RetriesExhausted));
}

TEST(Verify, RetryScheduleStrideZeroMatchesHistoricalSchedule) {
  // Stride 0 must reproduce deriveRetrySeed(Base, k) byte for byte:
  // existing seeds, golden files, and reproduction scripts depend on
  // the historical walk.
  verify::RetrySchedule S(/*BaseSeed=*/0xabcd, /*MaxAttempts=*/4);
  for (unsigned K = 0; K != 4; ++K)
    EXPECT_EQ(S.seedFor(K), verify::deriveRetrySeed(0xabcd, K)) << K;
  EXPECT_EQ(S.seedFor(0), 0xabcdu); // attempt 0 is the seed itself
}

TEST(Verify, RetryScheduleStrideDecorrelatesLaterAttempts) {
  verify::RetrySchedule A(100, 4, /*SeedStride=*/0x9E3779B9ull);
  verify::RetrySchedule B(100, 4, /*SeedStride=*/0x1000ull);
  // Attempt 0 draws the base seed under every stride (T(0) = 0): the
  // first attempt is always the caller's seed.
  EXPECT_EQ(A.seedFor(0), B.seedFor(0));
  // Later attempts walk stride-distant seed neighbourhoods.
  for (unsigned K = 1; K != 4; ++K) {
    EXPECT_NE(A.seedFor(K), B.seedFor(K)) << K;
    EXPECT_NE(A.seedFor(K), verify::deriveRetrySeed(100, K)) << K;
  }
}

TEST(Verify, RetryScheduleExhaustsAfterBudget) {
  verify::RetrySchedule S(7, 3);
  std::vector<uint64_t> Drawn;
  while (!S.exhausted())
    Drawn.push_back(S.next());
  EXPECT_EQ(Drawn.size(), 3u);
  EXPECT_EQ(S.attemptsMade(), 3u);
  for (unsigned K = 0; K != 3; ++K)
    EXPECT_EQ(Drawn[K], S.seedFor(K));
  // A zero budget still grants one attempt.
  verify::RetrySchedule Z(7, 0);
  EXPECT_EQ(Z.budget(), 1u);
  EXPECT_FALSE(Z.exhausted());
  Z.next();
  EXPECT_TRUE(Z.exhausted());
}

TEST(Verify, SeedStrideExhaustionFallsBackToBaseline) {
  driver::Program P = mathProgram();
  DiversityOptions Config = DiversityOptions::uniform(0.5);

  verify::VerifyOptions VOpts;
  VOpts.MaxAttempts = 2;
  VOpts.SeedStride = 0x1234;
  std::vector<uint64_t> SeedsTried;
  VOpts.InjectFault = [&SeedsTried](mir::MModule &, codegen::Image &Image,
                                    uint64_t AttemptSeed) {
    SeedsTried.push_back(AttemptSeed);
    if (!Image.Text.empty())
      Image.Text[Image.Text.size() / 2] ^= 0x40;
  };

  driver::VerifiedVariant VV =
      driver::makeVariantVerified(P, Pipeline(), Config, /*Seed=*/21,
                                  VOpts);
  // Exhaustion under a nonzero stride degrades exactly like the
  // historical schedule: baseline fallback, full attempt count.
  EXPECT_FALSE(VV.ok());
  EXPECT_TRUE(VV.UsedFallback);
  EXPECT_EQ(VV.Attempts, 2u);
  EXPECT_TRUE(VV.Report.has(verify::ErrorCode::RetriesExhausted))
      << VV.Report.str();
  EXPECT_EQ(VV.V.Image.Text, driver::linkBaseline(P).Text);
  // And the factory walked the strided schedule, not the historical one.
  verify::RetrySchedule Expect(21, 2, 0x1234);
  ASSERT_EQ(SeedsTried.size(), 2u);
  EXPECT_EQ(SeedsTried[0], Expect.seedFor(0));
  EXPECT_EQ(SeedsTried[1], Expect.seedFor(1));
  EXPECT_NE(SeedsTried[1], verify::deriveRetrySeed(21, 1));
}

TEST(Verify, FirstAttemptCleanPath) {
  driver::Program P = loopProgram();
  DiversityOptions Config =
      DiversityOptions::profiled(ProbabilityModel::Log, 0.0, 0.4);
  driver::VerifiedVariant VV =
      driver::makeVariantVerified(P, Pipeline(), Config, /*Seed=*/5);
  EXPECT_TRUE(VV.ok());
  EXPECT_EQ(VV.Attempts, 1u);
  EXPECT_EQ(VV.SeedUsed, 5u);
  EXPECT_TRUE(VV.Report.ok()) << VV.Report.str();
}

TEST(Verify, CallHeavyShiftedVariantFitsTheStepBudget) {
  // A shift prelude runs a jmp on every call -- and its own NOP when
  // the shift precedes NOP insertion -- so a call-dense program grows
  // past twice its baseline count. Calls are at most half the baseline's
  // instructions (each costs a call and a ret), so the variant budget
  // must still hold every correct variant, in either pipeline order.
  driver::Program P = compileChecked(R"(
    fn f(n) { if (n < 2) { return n; } return f(n - 1) + f(n - 2); }
    fn main() { print_int(f(18)); return 0; }
  )",
                                     "fib", {});
  using diversity::TransformKind;
  for (const Pipeline &Pipe :
       {Pipeline({TransformKind::Nop, TransformKind::Shift}),
        Pipeline({TransformKind::Shift, TransformKind::Nop})}) {
    SCOPED_TRACE(Pipe.label());
    driver::VerifiedVariant VV = driver::makeVariantVerified(
        P, Pipe, DiversityOptions::uniform(1.0), /*Seed=*/3);
    EXPECT_TRUE(VV.ok()) << VV.Report.str();
    EXPECT_EQ(VV.Attempts, 1u);
    EXPECT_TRUE(VV.Report.ok()) << VV.Report.str();
  }
}

// --- individual check families -----------------------------------------

TEST(Verify, ProfileFlowAcceptsStampedCounts) {
  driver::Program P = branchProgram();
  verify::Report R = verify::verifyProfileFlow(P.MIR);
  EXPECT_TRUE(R.ok()) << R.str();
}

TEST(Verify, ProfileFlowRejectsImpossibleCounts) {
  driver::Program P = branchProgram();
  mir::MModule M = P.MIR;
  verify::FaultInjector Injector(3, codegen::LinkOptions());
  codegen::Image Unused;
  ASSERT_TRUE(Injector.inject(verify::FaultClass::CorruptProfileCount, M,
                              Unused));
  verify::Report R = verify::verifyProfileFlow(M);
  EXPECT_TRUE(R.has(verify::ErrorCode::ProfileFlowInvalid)) << R.str();
}

TEST(Verify, ImageCheckAcceptsHonestLink) {
  driver::Program P = mathProgram();
  driver::Variant V =
      driver::makeVariant(P, DiversityOptions::uniform(0.7), 9);
  verify::Report R =
      verify::verifyImage(V.MIR, V.Image, codegen::LinkOptions());
  EXPECT_TRUE(R.ok()) << R.str();
}

namespace {

/// The image check's decode walk as it ran before the table decoder: a
/// full decodeInstr at every instruction, with the same diagnostics.
verify::Report fullDecodeWalk(const std::vector<uint8_t> &Text) {
  verify::Report R;
  char Buf[128];
  size_t Off = 0;
  while (Off < Text.size()) {
    x86::Decoded D;
    if (!x86::decodeInstr(Text.data() + Off, Text.size() - Off, D)) {
      std::snprintf(Buf, sizeof(Buf),
                    "invalid or truncated instruction at offset %#zx", Off);
      R.add(verify::ErrorCode::ImageDecodeInvalid, Buf);
      return R;
    }
    if (D.Class == x86::InstrClass::CallRel ||
        D.Class == x86::InstrClass::JmpRel ||
        D.Class == x86::InstrClass::Jcc ||
        D.Class == x86::InstrClass::Loop) {
      const int64_t Target = static_cast<int64_t>(Off) + D.Length + D.Imm;
      if (Target < 0 || Target >= static_cast<int64_t>(Text.size())) {
        std::snprintf(Buf, sizeof(Buf),
                      "branch at offset %#zx targets %+" PRId64
                      " (image is %zu bytes)",
                      Off, Target, Text.size());
        R.add(verify::ErrorCode::BranchTargetOutOfRange, Buf);
      }
    }
    Off += D.Length;
  }
  return R;
}

} // namespace

TEST(Verify, ImageDecodeWalkMatchesFullDecode) {
  // Every suite image, baseline and diversified, decodes clean.
  unsigned Images = 0;
  for (const workloads::Workload &W : workloads::specSuite()) {
    driver::Program P = driver::compileProgram(W.Source, W.Name);
    ASSERT_TRUE(P.ok()) << W.Name;
    std::vector<std::vector<uint8_t>> Texts = {driver::linkBaseline(P).Text};
    for (const std::vector<diversity::TransformKind> &Kinds :
         {std::vector<diversity::TransformKind>{diversity::TransformKind::Nop},
          std::vector<diversity::TransformKind>{
              diversity::TransformKind::Nop, diversity::TransformKind::Shift,
              diversity::TransformKind::Sched,
              diversity::TransformKind::Regs}})
      Texts.push_back(driver::makeVariant(P, Pipeline(Kinds),
                                          DiversityOptions::uniform(0.3), 5)
                          .Image.Text);
    for (const std::vector<uint8_t> &Text : Texts) {
      const verify::Report R = verify::verifyImageDecode(Text);
      EXPECT_TRUE(R.ok()) << W.Name << ": " << R.str();
      EXPECT_EQ(R.str(), fullDecodeWalk(Text).str()) << W.Name;
      ++Images;
    }
  }
  EXPECT_EQ(Images, 3 * workloads::specSuite().size());

  // Crafted images, each wrong in one way. The NOPs and SS/LOCK-
  // prefixed instructions around the fault take the table path.
  std::vector<uint8_t> Run(20, 0x90);
  Run.insert(Run.end(), {0x36, 0x8B, 0x45, 0x08,  // mov eax, ss:[ebp+8]
                         0xF0, 0x01, 0x03});      // lock add [ebx], eax
  auto Image = [&Run](std::initializer_list<uint8_t> Fault) {
    std::vector<uint8_t> Text = Run;
    Text.insert(Text.end(), Fault);
    Text.insert(Text.end(), Run.begin(), Run.end());
    Text.push_back(0xC3);
    return Text;
  };
  std::vector<uint8_t> Truncated = Run;
  Truncated.insert(Truncated.end(), {0xE8, 0x00, 0x00}); // call rel32, cut
  struct Crafted {
    const char *What;
    std::vector<uint8_t> Text;
    verify::ErrorCode Code;
  };
  const Crafted Cases[] = {
      {"truncated last instruction", Truncated,
       verify::ErrorCode::ImageDecodeInvalid},
      {"rel32 past the end", Image({0xE9, 0x00, 0x01, 0x00, 0x00}),
       verify::ErrorCode::BranchTargetOutOfRange},
      {"rel8 before the start", Image({0xEB, 0x80}),
       verify::ErrorCode::BranchTargetOutOfRange},
      {"invalid opcode mid-image", Image({0xD6}),
       verify::ErrorCode::ImageDecodeInvalid},
  };
  for (const Crafted &C : Cases) {
    const verify::Report R = verify::verifyImageDecode(C.Text);
    EXPECT_TRUE(R.has(C.Code)) << C.What << ": " << R.str();
    EXPECT_EQ(R.str(), fullDecodeWalk(C.Text).str()) << C.What;
  }
}

TEST(Verify, AdmissionRefutesNonNopDivergence) {
  driver::Program P = mathProgram();
  driver::Variant V =
      driver::makeVariant(P, DiversityOptions::uniform(0.5), 4);
  // Mutate a real (non-NOP) instruction's immediate: still a valid,
  // linkable program, but no longer equivalent to the baseline. The
  // prover refutes it before anything executes.
  bool Mutated = false;
  for (mir::MFunction &F : V.MIR.Functions) {
    for (mir::MBasicBlock &BB : F.Blocks)
      for (mir::MInstr &I : BB.Instrs)
        if (!Mutated && I.Op == mir::MOp::MovRI) {
          I.Imm += 1;
          Mutated = true;
        }
  }
  ASSERT_TRUE(Mutated);
  codegen::Image Img = codegen::link(V.MIR, codegen::LinkOptions());
  verify::VerifyOptions VOpts;
  verify::Report R = verify::verifyVariant(P.MIR, V.MIR, Img, VOpts);
  EXPECT_TRUE(R.has(verify::ErrorCode::EquivRefuted)) << R.str();
  EXPECT_TRUE(R.has(verify::ErrorCode::EquivRejected)) << R.str();
}

// --- diagnostics plumbing ----------------------------------------------

TEST(Diagnostic, RendersCodeAndContext) {
  verify::Diagnostic D{verify::ErrorCode::ChecksumMismatch, "input #2"};
  EXPECT_EQ(D.str(), "[checksum-mismatch] input #2");
}

TEST(Diagnostic, ReportAccumulatesAndQueries) {
  verify::Report R;
  EXPECT_TRUE(R.ok());
  EXPECT_EQ(R.firstCode(), verify::ErrorCode::None);
  R.add(verify::ErrorCode::ParseError, "line 3");
  R.add(verify::ErrorCode::ImageTextMismatch, "offset 12");
  EXPECT_FALSE(R.ok());
  EXPECT_EQ(R.firstCode(), verify::ErrorCode::ParseError);
  EXPECT_TRUE(R.has(verify::ErrorCode::ImageTextMismatch));
  EXPECT_FALSE(R.has(verify::ErrorCode::ChecksumMismatch));
  verify::Report Other;
  Other.add(verify::ErrorCode::RetriesExhausted, "gave up");
  R.merge(Other);
  EXPECT_TRUE(R.has(verify::ErrorCode::RetriesExhausted));
  EXPECT_NE(R.str().find("[retries-exhausted] gave up"),
            std::string::npos);
}

TEST(Diagnostic, CompileErrorsCarryStructuredCodes) {
  driver::Program P = driver::compileProgram("fn main() { return x; }",
                                             "bad");
  EXPECT_FALSE(P.ok());
  EXPECT_EQ(P.Diags.firstCode(), verify::ErrorCode::ParseError);
  EXPECT_NE(P.errors().find("parse-error"), std::string::npos);
}
