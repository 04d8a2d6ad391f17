//===-- tests/DiversityTest.cpp - NOP insertion pass tests ------------------===//
//
// Part of the PGSD project, a reproduction of "Profile-guided Automated
// Software Diversity" (Homescu et al., CGO 2013).
//
//===----------------------------------------------------------------------===//

#include "diversity/NopInsertion.h"
#include "diversity/Transform.h"
#include "driver/Driver.h"
#include "profile/Profile.h"

#include <gtest/gtest.h>

#include <set>

using namespace pgsd;
using diversity::DiversityOptions;
using diversity::ProbabilityModel;

namespace {

driver::Program hotColdProgram() {
  // One hot loop, one cold function.
  driver::Program P = driver::compileProgram(R"(
    fn coldpath(x) {
      var acc = x;
      acc = acc * 3 + 1;
      acc = acc ^ 255;
      acc = acc - 77;
      acc = acc + 1000;
      acc = acc * 5;
      return acc;
    }
    fn main() {
      var s = 0;
      var i = 0;
      while (i < 20000) {
        s = s + i;
        i = i + 1;
      }
      if (s == 12345) { s = coldpath(s); }
      print_int(s);
      return 0;
    }
  )",
                                             "hotcold");
  EXPECT_TRUE(P.ok()) << P.errors();
  EXPECT_TRUE(driver::profileAndStamp(P, {}));
  return P;
}

/// Diversifies a copy of \p M under the default {nop} pipeline.
mir::MModule nopVariant(const mir::MModule &M, const DiversityOptions &Opts,
                        uint64_t Seed) {
  return diversity::Pipeline().run(M, Opts, Seed);
}

/// The NOP-insertion counters of nopVariant(M, Opts, Seed).
diversity::InsertionStats nopStats(const mir::MModule &M,
                                   const DiversityOptions &Opts,
                                   uint64_t Seed) {
  diversity::PipelineStats S;
  diversity::Pipeline().run(M, Opts, Seed, &S);
  return S.Nop;
}

uint64_t countNops(const mir::MModule &M) {
  uint64_t N = 0;
  for (const mir::MFunction &F : M.Functions)
    for (const mir::MBasicBlock &BB : F.Blocks)
      for (const mir::MInstr &I : BB.Instrs)
        if (I.Op == mir::MOp::Nop)
          ++N;
  return N;
}

} // namespace

// --- probability heuristics (paper Section 3.1) -----------------------

TEST(Probability, UniformIgnoresCounts) {
  DiversityOptions Opts = DiversityOptions::uniform(0.5);
  EXPECT_DOUBLE_EQ(diversity::nopProbability(0, 1000, Opts), 0.5);
  EXPECT_DOUBLE_EQ(diversity::nopProbability(1000, 1000, Opts), 0.5);
}

TEST(Probability, EndpointsHitPMinPMax) {
  for (ProbabilityModel Model :
       {ProbabilityModel::Linear, ProbabilityModel::Log}) {
    DiversityOptions Opts = DiversityOptions::profiled(Model, 0.1, 0.5);
    // Coldest block (count 0) gets pmax; hottest gets pmin.
    EXPECT_NEAR(diversity::nopProbability(0, 1u << 20, Opts), 0.5, 1e-9);
    EXPECT_NEAR(diversity::nopProbability(1u << 20, 1u << 20, Opts), 0.1,
                1e-9);
  }
}

TEST(Probability, MonotonicallyDecreasingInCount) {
  for (ProbabilityModel Model :
       {ProbabilityModel::Linear, ProbabilityModel::Log}) {
    DiversityOptions Opts = DiversityOptions::profiled(Model, 0.0, 0.3);
    double Prev = 1.0;
    for (uint64_t Count : {0ull, 1ull, 10ull, 1000ull, 100000ull,
                           10000000ull, 1000000000ull}) {
      double P = diversity::nopProbability(Count, 1000000000ull, Opts);
      EXPECT_LE(P, Prev);
      Prev = P;
    }
  }
}

TEST(Probability, PaperWorkedExample) {
  // Section 3.1: median 117,635 with max 2e9 and range [10%, 50%] gives
  // ~30% under the log heuristic but ~50% under the linear one.
  DiversityOptions Log =
      DiversityOptions::profiled(ProbabilityModel::Log, 0.10, 0.50);
  double PLog = diversity::nopProbability(117635, 2000000000ull, Log);
  EXPECT_NEAR(PLog, 0.30, 0.02);

  DiversityOptions Linear =
      DiversityOptions::profiled(ProbabilityModel::Linear, 0.10, 0.50);
  double PLinear = diversity::nopProbability(117635, 2000000000ull, Linear);
  EXPECT_NEAR(PLinear, 0.50, 0.01);
}

TEST(Probability, LogSpreadsBetterThanLinear) {
  // With exponentially distributed counts, the log heuristic keeps
  // mid-counts well inside the interval (the paper's argument for it).
  DiversityOptions Log =
      DiversityOptions::profiled(ProbabilityModel::Log, 0.0, 0.5);
  DiversityOptions Linear =
      DiversityOptions::profiled(ProbabilityModel::Linear, 0.0, 0.5);
  uint64_t Max = 1u << 30;
  for (uint64_t Count : {1000ull, 100000ull, 10000000ull}) {
    double PLog = diversity::nopProbability(Count, Max, Log);
    double PLin = diversity::nopProbability(Count, Max, Linear);
    EXPECT_LT(PLog, PLin + 1e-12);
    EXPECT_GT(PLin, 0.49); // linear polarizes to pmax
    EXPECT_LT(PLog, 0.40); // log actually differentiates
  }
}

TEST(Probability, ZeroMaxCountFallsBackToPMax) {
  DiversityOptions Opts =
      DiversityOptions::profiled(ProbabilityModel::Log, 0.1, 0.4);
  EXPECT_DOUBLE_EQ(diversity::nopProbability(0, 0, Opts), 0.4);
}

TEST(Probability, Labels) {
  EXPECT_EQ(DiversityOptions::uniform(0.5).label(), "pNOP=50%");
  EXPECT_EQ(
      DiversityOptions::profiled(ProbabilityModel::Log, 0.0, 0.3).label(),
      "pNOP=0-30%");
  EXPECT_EQ(DiversityOptions::profiled(ProbabilityModel::Linear, 0.1, 0.5)
                .label(),
            "pNOP=10-50% (linear)");
}

// --- Algorithm 1 -------------------------------------------------------

TEST(NopInsertion, InsertionRateMatchesProbability) {
  driver::Program P = hotColdProgram();
  for (double Prob : {0.1, 0.3, 0.5}) {
    diversity::InsertionStats Stats =
        nopStats(P.MIR, DiversityOptions::uniform(Prob), 99);
    EXPECT_GE(Stats.CandidateSites, 40u);
    EXPECT_NEAR(Stats.insertionRate(), Prob, 0.12);
  }
}

TEST(NopInsertion, DeterministicPerSeed) {
  driver::Program P = hotColdProgram();
  DiversityOptions Opts = DiversityOptions::uniform(0.4);
  mir::MModule A = nopVariant(P.MIR, Opts, 7);
  mir::MModule B = nopVariant(P.MIR, Opts, 7);
  EXPECT_EQ(mir::print(A), mir::print(B));
  mir::MModule C = nopVariant(P.MIR, Opts, 8);
  EXPECT_NE(mir::print(A), mir::print(C));
}

TEST(NopInsertion, DefaultExcludesXchg) {
  driver::Program P = hotColdProgram();
  diversity::InsertionStats Stats =
      nopStats(P.MIR, DiversityOptions::uniform(0.5), 1);
  EXPECT_EQ(Stats.PerKind[static_cast<size_t>(x86::NopKind::XchgEspEsp)],
            0u);
  EXPECT_EQ(Stats.PerKind[static_cast<size_t>(x86::NopKind::XchgEbpEbp)],
            0u);

  DiversityOptions WithXchg = DiversityOptions::uniform(0.5);
  WithXchg.IncludeXchgNops = true;
  Stats = nopStats(P.MIR, WithXchg, 1);
  EXPECT_GT(Stats.PerKind[static_cast<size_t>(x86::NopKind::XchgEspEsp)] +
                Stats.PerKind[static_cast<size_t>(x86::NopKind::XchgEbpEbp)],
            0u);
}

TEST(NopInsertion, AllDefaultCandidatesUsed) {
  driver::Program P = hotColdProgram();
  diversity::InsertionStats Stats =
      nopStats(P.MIR, DiversityOptions::uniform(0.5), 3);
  for (unsigned K = 0; K != x86::NumDefaultNopKinds; ++K)
    EXPECT_GT(Stats.PerKind[K], 0u) << "candidate " << K << " never chosen";
}

TEST(NopInsertion, ProfiledSkipsHotCode) {
  driver::Program P = hotColdProgram();
  DiversityOptions Opts =
      DiversityOptions::profiled(ProbabilityModel::Log, 0.0, 0.5);
  mir::MModule V = nopVariant(P.MIR, Opts, 5);

  // Count NOPs inside the hottest block versus a cold block.
  const mir::MFunction *Hot = nullptr;
  uint64_t HotNops = 0, HotInstrs = 0, ColdNops = 0, ColdInstrs = 0;
  uint64_t MaxCount = 0;
  for (const mir::MFunction &F : V.Functions)
    for (const mir::MBasicBlock &BB : F.Blocks)
      MaxCount = std::max(MaxCount, BB.ProfileCount);
  for (const mir::MFunction &F : V.Functions) {
    for (const mir::MBasicBlock &BB : F.Blocks) {
      uint64_t Nops = 0;
      for (const mir::MInstr &I : BB.Instrs)
        if (I.Op == mir::MOp::Nop)
          ++Nops;
      if (BB.ProfileCount == MaxCount && MaxCount > 0) {
        HotNops += Nops;
        HotInstrs += BB.Instrs.size();
        Hot = &F;
      } else if (BB.ProfileCount == 0) {
        ColdNops += Nops;
        ColdInstrs += BB.Instrs.size();
      }
    }
  }
  ASSERT_NE(Hot, nullptr);
  // pmin = 0: the hottest block receives no NOPs at all.
  EXPECT_EQ(HotNops, 0u);
  // Cold code is diversified at roughly pmax.
  ASSERT_GT(ColdInstrs, 0u);
  double ColdRate = static_cast<double>(ColdNops) /
                    static_cast<double>(ColdInstrs - ColdNops);
  EXPECT_GT(ColdRate, 0.3);
}

TEST(NopInsertion, UnprofiledModuleGetsPMaxEverywhere) {
  driver::Program P = driver::compileProgram(
      "fn main() { sink(1); sink(2); sink(3); return 0; }", "unprofiled");
  ASSERT_TRUE(P.ok());
  DiversityOptions Opts =
      DiversityOptions::profiled(ProbabilityModel::Log, 0.0, 0.5);
  diversity::InsertionStats Stats = nopStats(P.MIR, Opts, 11);
  // With no profile (all counts zero), everything is "cold": rate ~pmax.
  EXPECT_GT(Stats.insertionRate(), 0.25);
}

TEST(NopInsertion, VariantsDifferButAgreeSemantically) {
  driver::Program P = hotColdProgram();
  mexec::RunResult Base = driver::execute(P.MIR, {});
  DiversityOptions Opts =
      DiversityOptions::profiled(ProbabilityModel::Log, 0.1, 0.5);
  std::string FirstPrint;
  for (uint64_t Seed = 1; Seed <= 6; ++Seed) {
    mir::MModule V = nopVariant(P.MIR, Opts, Seed);
    EXPECT_EQ(mir::verify(V), "");
    mexec::RunResult R = driver::execute(V, {});
    ASSERT_FALSE(R.Trapped) << R.TrapReason;
    EXPECT_EQ(R.Checksum, Base.Checksum);
    EXPECT_EQ(R.ExitCode, Base.ExitCode);
    std::string Printed = mir::print(V);
    if (Seed == 1)
      FirstPrint = Printed;
    else
      EXPECT_NE(Printed, FirstPrint) << "variants must differ";
  }
}

TEST(NopInsertion, NopsPreserveFlagsAcrossCompareAndBranch) {
  // Table 1 candidates preserve EFLAGS; inserting one between CMP/TEST
  // and the consuming Jcc/SETcc must not change behaviour. Force the
  // situation by diversifying at 100%.
  driver::Program P = driver::compileProgram(
      "fn main() { var i = 0; var s = 0; while (i < 10) { "
      "if (i > 4) { s = s + 1; } i = i + 1; } print_int(s); return 0; }",
      "flags");
  ASSERT_TRUE(P.ok());
  mexec::RunResult Base = driver::execute(P.MIR, {}, true);
  DiversityOptions Opts = DiversityOptions::uniform(1.0);
  Opts.IncludeXchgNops = true;
  mir::MModule V = nopVariant(P.MIR, Opts, 2);
  EXPECT_GT(countNops(V), 0u);
  mexec::RunResult R = driver::execute(V, {}, true);
  ASSERT_FALSE(R.Trapped);
  EXPECT_EQ(R.Output, Base.Output);
}

TEST(NopInsertion, CostReflectsXchgPenalty) {
  driver::Program P = hotColdProgram();
  DiversityOptions Plain = DiversityOptions::uniform(0.5);
  DiversityOptions Xchg = DiversityOptions::uniform(0.5);
  Xchg.IncludeXchgNops = true;
  mexec::RunResult RPlain =
      driver::execute(nopVariant(P.MIR, Plain, 3), {});
  mexec::RunResult RXchg =
      driver::execute(nopVariant(P.MIR, Xchg, 3), {});
  // The bus-locking XCHG NOPs make the same insertion rate costlier
  // (the reason the paper excludes them by default).
  EXPECT_GT(RXchg.Cycles10, RPlain.Cycles10);
}

TEST(NopInsertion, OverheadOrderingAcrossConfigs) {
  // The qualitative Figure 4 result on a single program: naive 50% is
  // slower than profiled 10-50%, which is slower than profiled 0-30%.
  driver::Program P = hotColdProgram();
  double Base = driver::execute(P.MIR, {}).cycles();
  auto MeasureMean = [&](DiversityOptions Opts) {
    double Sum = 0;
    for (uint64_t Seed = 1; Seed <= 3; ++Seed)
      Sum += driver::execute(nopVariant(P.MIR, Opts, Seed), {})
                 .cycles();
    return Sum / 3.0;
  };
  double Naive = MeasureMean(DiversityOptions::uniform(0.5));
  double Mid = MeasureMean(
      DiversityOptions::profiled(ProbabilityModel::Log, 0.1, 0.5));
  double Best = MeasureMean(
      DiversityOptions::profiled(ProbabilityModel::Log, 0.0, 0.3));
  EXPECT_GT(Naive, Mid);
  EXPECT_GT(Mid, Best);
  EXPECT_GT(Naive, Base);
  // Profile-guided 0-30% is within a few percent of the baseline.
  EXPECT_LT((Best - Base) / Base, 0.05);
}

namespace {

/// Serializes every NOP's position and kind: "f:b:i:kind;..." -- the
/// placement fingerprint two seeds must never share.
std::string nopPlacement(const mir::MModule &M) {
  std::string Sig;
  for (size_t F = 0; F != M.Functions.size(); ++F)
    for (size_t B = 0; B != M.Functions[F].Blocks.size(); ++B) {
      const auto &Instrs = M.Functions[F].Blocks[B].Instrs;
      for (size_t I = 0; I != Instrs.size(); ++I)
        if (Instrs[I].Op == mir::MOp::Nop)
          Sig += std::to_string(F) + ':' + std::to_string(B) + ':' +
                 std::to_string(I) + ':' +
                 std::to_string(static_cast<unsigned>(Instrs[I].NopK)) + ';';
    }
  return Sig;
}

} // namespace

TEST(NopInsertion, DistinctSeedsNeverCollideOnNontrivialWorkload) {
  // Collision smoke test for the batch factory's per-seed streams: on a
  // workload with hundreds of candidate sites, two different seeds
  // yielding the same NOP placement would mean the seeding scheme lost
  // entropy (the paper's population-level security argument assumes
  // variants are distinct).
  driver::Program P = hotColdProgram();
  DiversityOptions Opts = DiversityOptions::uniform(0.4);
  std::set<std::string> Placements;
  constexpr unsigned NumSeeds = 64;
  for (uint64_t Seed = 0; Seed != NumSeeds; ++Seed) {
    mir::MModule V = nopVariant(P.MIR, Opts, Seed);
    std::string Sig = nopPlacement(V);
    EXPECT_FALSE(Sig.empty());
    EXPECT_TRUE(Placements.insert(Sig).second)
        << "seed " << Seed << " collided with an earlier seed";
  }
  EXPECT_EQ(Placements.size(), NumSeeds);

  // The same must hold for streams split off one batch generator.
  Placements.clear();
  Rng Batch(0xba7c);
  for (uint64_t Seed = 0; Seed != NumSeeds; ++Seed) {
    driver::Program Q = hotColdProgram();
    Rng Stream = Batch.split(Seed);
    mir::MModule V;
    diversity::insertNops(Q.MIR, V, Opts, Stream);
    EXPECT_TRUE(Placements.insert(nopPlacement(V)).second)
        << "split stream " << Seed << " collided";
  }
  EXPECT_EQ(Placements.size(), NumSeeds);
}
