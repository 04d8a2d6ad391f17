//===-- tests/AdmissionCoverageTest.cpp - Fault-coverage matrix -------------===//
//
// Part of the PGSD project, a reproduction of "Profile-guided Automated
// Software Diversity" (Homescu et al., CGO 2013).
//
// What each admission check catches. Every fault class -- the six
// verify::FaultInjector classes and the eight analysis::MirFault
// classes -- is injected into diversified variants of the workload
// suite under three pipelines. Each check then runs on its own against
// the same faulted variant:
//
//   analyzer      analysis::analyzeModule (six checkers)
//   mir-verify    mir::verify
//   prover        analysis::proveEquivalent, with the renaming witness
//   profile       verify::verifyProfileFlow
//   image         verify::verifyImage
//   differential  verify::verifyExecution on the default battery
//
// The last four run only when mir::verify passes (an invalid module
// cannot be linked or executed). The test pins:
//
//   * zero escapes: verify::verifyVariant, the one admission function,
//     rejects every injection;
//   * for each class, exactly which checks catch every injection of it.
//
// It prints the matrix and a unique-catch count per check (injections
// only that check catches): the data that decides which checks earn
// their place in admission.
//
//===----------------------------------------------------------------------===//

#include "analysis/Analysis.h"
#include "analysis/Equiv.h"
#include "analysis/MirFault.h"
#include "driver/Driver.h"
#include "verify/BaselineCache.h"
#include "verify/FaultInjector.h"
#include "verify/Verifier.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

using namespace pgsd;
using diversity::Pipeline;
using diversity::TransformKind;

namespace {

enum Check : unsigned {
  Analyzer,
  MirVerify,
  Prover,
  Profile,
  Image,
  Differential,
  NumChecks,
};

const char *const CheckNames[NumChecks] = {
    "analyzer", "mir-verify", "prover", "profile", "image", "differential"};

/// Bit K set: check K rejected the variant.
using CheckSet = unsigned;

/// The FaultInjector classes first, then every MirFault class.
constexpr unsigned NumClasses =
    verify::NumFaultClasses + analysis::NumAllMirFaultClasses;

std::string className(unsigned C) {
  if (C < verify::NumFaultClasses)
    return verify::faultClassName(static_cast<verify::FaultClass>(C));
  return analysis::mirFaultClassName(
      static_cast<analysis::MirFaultClass>(C - verify::NumFaultClasses));
}

/// Applies one fault of class \p C. MIR faults re-link the image from
/// the faulted MIR when it still verifies, as FaultInjector does for its
/// own MIR-level classes, so no check sees a trivial MIR/image mismatch.
bool inject(unsigned C, uint64_t Seed, driver::Variant &V) {
  if (C < verify::NumFaultClasses)
    return verify::FaultInjector(Seed).inject(
        static_cast<verify::FaultClass>(C), V.MIR, V.Image);
  if (!analysis::injectMirFault(
          V.MIR,
          static_cast<analysis::MirFaultClass>(C - verify::NumFaultClasses),
          Seed))
    return false;
  if (mir::verify(V.MIR).empty())
    V.Image = codegen::link(V.MIR);
  return true;
}

/// Runs every check on its own against \p V.
CheckSet runChecks(const mir::MModule &Baseline, const driver::Variant &V,
                   const verify::VerifyOptions &VOpts) {
  CheckSet Caught = 0;
  auto Mark = [&](Check K, bool Rejected) {
    if (Rejected)
      Caught |= 1u << K;
  };
  Mark(Analyzer, !analysis::analyzeModule(V.MIR).ok());
  bool Valid = mir::verify(V.MIR).empty();
  Mark(MirVerify, !Valid);
  if (!Valid)
    return Caught;
  Mark(Prover, !analysis::proveEquivalent(Baseline, V.MIR,
                                          analysis::EquivOptions(), nullptr,
                                          analysis::EquivFacts(),
                                          V.Pipeline.Regs.Renamings)
                    .ok());
  Mark(Profile, !verify::verifyProfileFlow(V.MIR).ok());
  Mark(Image, !verify::verifyImage(V.MIR, V.Image, VOpts.Link).ok());
  Mark(Differential, !verify::verifyExecution(Baseline, V.MIR, VOpts).ok());
  return Caught;
}

std::string checkList(CheckSet S) {
  std::string Out;
  for (unsigned K = 0; K != NumChecks; ++K)
    if (S & (1u << K))
      Out += (Out.empty() ? "" : ",") + std::string(CheckNames[K]);
  return Out.empty() ? "-" : Out;
}

/// One row of the matrix: a fault class under one pipeline.
struct Row {
  unsigned Injected = 0;
  unsigned Caught[NumChecks] = {};
};

} // namespace

TEST(AdmissionCoverage, EveryFaultIsRejectedAndEachClassHasItsCatchers) {
  const std::vector<Pipeline> Pipes = {
      Pipeline(),
      Pipeline({TransformKind::Shift, TransformKind::Nop}),
      Pipeline({TransformKind::Nop, TransformKind::Shift,
                TransformKind::Sched, TransformKind::Regs})};
  const auto Opts = diversity::DiversityOptions::profiled(
      diversity::ProbabilityModel::Log, 0.0, 0.5);
  const uint64_t Seeds[] = {1};

  std::vector<Row> Rows(NumClasses * Pipes.size());
  unsigned Unique[NumChecks] = {};
  for (const workloads::Workload &W : workloads::specSuite()) {
    driver::Program P = driver::compileProgram(W.Source, W.Name);
    ASSERT_TRUE(P.ok()) << W.Name << ": " << P.errors();
    ASSERT_TRUE(driver::profileAndStamp(P, W.TrainInput)) << W.Name;
    // One baseline cache per program: every variant of it diffs against
    // the same baseline runs, and the prover takes its liveness verdict.
    verify::VerifyOptions VOpts;
    verify::BaselineCache Cache(P.MIR, VOpts);
    VOpts.Cache = &Cache;
    for (size_t PI = 0; PI != Pipes.size(); ++PI)
      for (uint64_t Seed : Seeds) {
        const driver::Variant Clean =
            driver::makeVariant(P, Pipes[PI], Opts, Seed);
        for (unsigned C = 0; C != NumClasses; ++C) {
          driver::Variant V = Clean;
          if (!inject(C, Seed * 131 + C, V))
            continue;
          std::string What = W.Name + " " + Pipes[PI].label() + " " +
                             className(C) + " seed " +
                             std::to_string(Seed);
          Row &R = Rows[C * Pipes.size() + PI];
          ++R.Injected;
          CheckSet Caught = runChecks(P.MIR, V, VOpts);
          for (unsigned K = 0; K != NumChecks; ++K) {
            R.Caught[K] += (Caught >> K) & 1u;
            Unique[K] += Caught == 1u << K;
          }
          EXPECT_NE(Caught, 0u) << What << ": no check caught the fault";
          EXPECT_FALSE(verify::verifyVariant(P.MIR, V.MIR, V.Image, VOpts,
                                             V.Pipeline.Regs.Renamings)
                           .ok())
              << What << ": the fault escaped admission";
        }
      }
  }

  // The matrix: injections per row, then how many each check caught.
  std::printf("%-22s %-20s %4s", "class", "pipeline", "inj");
  for (const char *N : CheckNames)
    std::printf(" %12s", N);
  std::printf("\n");
  CheckSet AlwaysCaught[NumClasses];
  for (unsigned C = 0; C != NumClasses; ++C) {
    AlwaysCaught[C] = (1u << NumChecks) - 1;
    for (size_t PI = 0; PI != Pipes.size(); ++PI) {
      const Row &R = Rows[C * Pipes.size() + PI];
      std::printf("%-22s %-20s %4u", className(C).c_str(),
                  Pipes[PI].label().c_str(), R.Injected);
      for (unsigned K = 0; K != NumChecks; ++K) {
        std::printf(" %12u", R.Caught[K]);
        if (R.Caught[K] != R.Injected)
          AlwaysCaught[C] &= ~(1u << K);
      }
      std::printf("\n");
      EXPECT_GT(R.Injected, 0u)
          << className(C) << " " << Pipes[PI].label() << " never injected";
    }
  }
  std::printf("unique catches:");
  for (unsigned K = 0; K != NumChecks; ++K)
    std::printf(" %s=%u", CheckNames[K], Unique[K]);
  std::printf("\n");

  // Which checks catch every injection of each class, over all rows.
  const char *const Expected[NumClasses] = {
      /*text-bit-flip*/ "image",
      /*dropped-relocation*/ "image",
      /*mangled-branch-target*/ "prover",
      /*wrong-length-nop*/ "image",
      /*corrupt-profile-count*/ "profile",
      /*truncated-text*/ "image",
      /*cfg-break*/ "analyzer,mir-verify",
      /*dropped-def*/ "analyzer,prover",
      /*flag-clobber*/ "analyzer,prover",
      /*unbalanced-push*/ "analyzer,prover",
      /*frame-escape*/ "analyzer,prover",
      /*call-contract-break*/ "analyzer,prover",
      /*illegal-reorder*/ "prover",
      /*live-range-swap*/ "prover",
  };
  for (unsigned C = 0; C != NumClasses; ++C)
    EXPECT_EQ(checkList(AlwaysCaught[C]), Expected[C]) << className(C);
}
