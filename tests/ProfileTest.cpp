//===-- tests/ProfileTest.cpp - Edge-profiling infrastructure tests --------===//
//
// Part of the PGSD project, a reproduction of "Profile-guided Automated
// Software Diversity" (Homescu et al., CGO 2013).
//
// The key invariant (paper Section 3.1): counters are placed only on a
// minimal subset of CFG edges, yet the recovered per-block execution
// counts must equal ground truth exactly.
//
//===----------------------------------------------------------------------===//

#include "driver/Driver.h"
#include "profile/Profile.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

using namespace pgsd;

namespace {

driver::Program compileOK(const char *Source, const char *Name) {
  driver::Program P = driver::compileProgram(Source, Name);
  EXPECT_TRUE(P.ok()) << P.errors();
  return P;
}

/// Ground-truth block counts via the interpreter's direct counting.
std::vector<std::vector<uint64_t>>
groundTruth(const mir::MModule &M, const std::vector<int32_t> &Input) {
  mexec::RunOptions Opts;
  Opts.Input = Input;
  Opts.CollectBlockCounts = true;
  mexec::RunResult R = mexec::run(M, Opts);
  EXPECT_FALSE(R.Trapped) << R.TrapReason;
  return R.BlockCounts;
}

} // namespace

TEST(Profile, RecoveredCountsMatchGroundTruthSimple) {
  driver::Program P = compileOK(
      "fn main() { var s = 0; var i = 0; while (i < 37) { "
      "if (i % 3 == 0) { s = s + i; } i = i + 1; } print_int(s); "
      "return 0; }",
      "simple");
  auto Truth = groundTruth(P.MIR, {});
  profile::ProfileData Data = profile::profileModule(P.MIR, {});
  ASSERT_FALSE(Data.empty());
  ASSERT_EQ(Data.BlockCounts.size(), Truth.size());
  for (size_t F = 0; F != Truth.size(); ++F) {
    ASSERT_EQ(Data.BlockCounts[F].size(), Truth[F].size());
    for (size_t B = 0; B != Truth[F].size(); ++B)
      EXPECT_EQ(Data.BlockCounts[F][B], Truth[F][B])
          << "func " << F << " block " << B;
  }
}

TEST(Profile, RecoveredCountsMatchOnRecursion) {
  driver::Program P = compileOK(
      "fn fib(n) { if (n < 2) { return n; } "
      "return fib(n - 1) + fib(n - 2); } "
      "fn main() { print_int(fib(15)); return 0; }",
      "fib");
  auto Truth = groundTruth(P.MIR, {});
  profile::ProfileData Data = profile::profileModule(P.MIR, {});
  ASSERT_FALSE(Data.empty());
  for (size_t F = 0; F != Truth.size(); ++F)
    for (size_t B = 0; B != Truth[F].size(); ++B)
      EXPECT_EQ(Data.BlockCounts[F][B], Truth[F][B]);
}

TEST(Profile, UncalledFunctionHasZeroCounts) {
  driver::Program P = compileOK(
      "fn never(x) { while (x > 0) { x = x - 1; } return x; } "
      "fn main() { return 0; }",
      "cold");
  profile::ProfileData Data = profile::profileModule(P.MIR, {});
  ASSERT_FALSE(Data.empty());
  int NeverIdx = P.IR.findFunction("never");
  ASSERT_GE(NeverIdx, 0);
  for (uint64_t C : Data.BlockCounts[static_cast<size_t>(NeverIdx)])
    EXPECT_EQ(C, 0u);
}

TEST(Profile, CounterPlacementIsMinimal) {
  driver::Program P = compileOK(
      "fn main() { var i = 0; while (i < 5) { if (i & 1) { sink(i); } "
      "i = i + 1; } return 0; }",
      "minimal");
  mir::MModule Clone = P.MIR;
  profile::InstrumentationPlan Plan = profile::instrumentModule(Clone);
  for (const profile::FuncInstrumentation &F : Plan.Funcs) {
    // A spanning tree over N+1 nodes has N edges; only the remaining
    // edges carry counters.
    size_t NumNodes = F.NumBlocks + 1;
    size_t Counted = 0;
    for (const profile::EdgeInfo &E : F.Edges)
      if (E.CounterId >= 0)
        ++Counted;
    ASSERT_GE(F.Edges.size() + 1, NumNodes); // connected CFG
    EXPECT_EQ(Counted, F.Edges.size() - (NumNodes - 1))
        << "counters must equal |E| - |spanning tree|";
  }
}

TEST(Profile, InstrumentationPreservesSemantics) {
  driver::Program P = compileOK(
      "fn main() { var s = 0; var i = 0; while (i < 50) { "
      "s = s ^ (i * 7); i = i + 1; } print_int(s); return 0; }",
      "sem");
  mexec::RunResult Plain = driver::execute(P.MIR, {});
  mir::MModule Clone = P.MIR;
  profile::InstrumentationPlan Plan = profile::instrumentModule(Clone);
  Clone.NumProfCounters = Plan.NumCounters;
  EXPECT_EQ(mir::verify(Clone), "");
  mexec::RunResult Inst = driver::execute(Clone, {});
  EXPECT_FALSE(Inst.Trapped) << Inst.TrapReason;
  EXPECT_EQ(Inst.Checksum, Plain.Checksum);
  EXPECT_EQ(Inst.ExitCode, Plain.ExitCode);
  // Instrumentation costs cycles (the reason profiling is a separate
  // training build).
  EXPECT_GT(Inst.Cycles10, Plain.Cycles10);
}

TEST(Profile, OriginalBlockIdsStable) {
  driver::Program P = compileOK(
      "fn main() { var i = read_int(); if (i) { i = i * 2; } "
      "return i; }",
      "stable");
  size_t Before = P.MIR.Functions[0].Blocks.size();
  mir::MModule Clone = P.MIR;
  profile::InstrumentationPlan Plan = profile::instrumentModule(Clone);
  (void)Plan;
  // Instrumentation only appends blocks.
  ASSERT_GE(Clone.Functions[0].Blocks.size(), Before);
  for (size_t B = 0; B != Before; ++B)
    EXPECT_EQ(Clone.Functions[0].Blocks[B].Name,
              P.MIR.Functions[0].Blocks[B].Name);
}

TEST(Profile, ApplyCountsStampsBlocks) {
  driver::Program P = compileOK(
      "fn main() { var i = 0; while (i < 9) { i = i + 1; } return i; }",
      "stamp");
  profile::ProfileData Data = profile::profileModule(P.MIR, {});
  ASSERT_TRUE(profile::applyCounts(P.MIR, Data));
  uint64_t Max = 0;
  for (const mir::MBasicBlock &BB : P.MIR.Functions[0].Blocks)
    Max = std::max(Max, BB.ProfileCount);
  EXPECT_EQ(Max, Data.MaxCount);
  EXPECT_GE(Max, 9u);
}

TEST(Profile, SerializationRoundTrips) {
  driver::Program P = compileOK(
      "fn f(n) { var s = 0; while (n > 0) { s = s + n; n = n - 1; } "
      "return s; } fn main() { return f(25); }",
      "serialize");
  profile::ProfileData Data = profile::profileModule(P.MIR, {});
  ASSERT_FALSE(Data.empty());
  std::string Text = profile::serializeProfile(Data);
  EXPECT_NE(Text.find("pgsd-profile v1"), std::string::npos);
  profile::ProfileData Back;
  ASSERT_TRUE(profile::deserializeProfile(Text, P.MIR, Back));
  ASSERT_EQ(Back.BlockCounts.size(), Data.BlockCounts.size());
  for (size_t F = 0; F != Data.BlockCounts.size(); ++F)
    EXPECT_EQ(Back.BlockCounts[F], Data.BlockCounts[F]);
  EXPECT_EQ(Back.MaxCount, Data.MaxCount);
}

TEST(Profile, DeserializeRejectsTruncatedFile) {
  // A file cut mid-way (an interrupted write, a partial download) must
  // be rejected, never silently loaded with missing functions.
  driver::Program P = compileOK(
      "fn g(n) { if (n > 3) { return n * 2; } return n; } "
      "fn main() { var i = 1; while (i < 12) { i = i + g(i); } "
      "return i; }",
      "truncate");
  profile::ProfileData Data = profile::profileModule(P.MIR, {});
  ASSERT_FALSE(Data.empty());
  std::string Text = profile::serializeProfile(Data);
  size_t SecondFunc = Text.find("func", Text.find("func") + 1);
  ASSERT_NE(SecondFunc, std::string::npos);
  profile::ProfileData Out;
  // Cutting inside the second function header leaves a malformed line:
  // the parser must reject it.
  EXPECT_FALSE(profile::deserializeProfile(Text.substr(0, SecondFunc + 6),
                                           P.MIR, Out));
  // Cutting exactly at a function boundary leaves well-formed lines, but
  // the program has more functions than the file covers.
  EXPECT_FALSE(
      profile::deserializeProfile(Text.substr(0, SecondFunc), P.MIR, Out));
  EXPECT_TRUE(Out.empty());
}

TEST(Profile, DeserializeRejectsCorruptCounts) {
  driver::Program P = compileOK(
      "fn main() { var i = 0; while (i < 8) { i = i + 1; } return i; }",
      "corrupt");
  profile::ProfileData Data = profile::profileModule(P.MIR, {});
  std::string Text = profile::serializeProfile(Data);
  profile::ProfileData Out;
  // Out-of-range block id inside an otherwise valid file.
  EXPECT_FALSE(
      profile::deserializeProfile(Text + "0 99999 7\n", P.MIR, Out));
  // Non-numeric junk where a count line should be.
  EXPECT_FALSE(
      profile::deserializeProfile(Text + "0 zero one\n", P.MIR, Out));
}

TEST(Profile, DeserializeReadsOnlyWholeUnsignedNumbers) {
  // Each number is one whole unsigned decimal token that fits in 64
  // bits, and a line has no extra token. A parser that stopped at the
  // first non-digit, read a minus sign as a wrap to 2^64 - N and ignored
  // what followed its last number once loaded all of these.
  driver::Program P = compileOK(
      "fn main() { var i = 0; while (i < 8) { i = i + 1; } return i; }",
      "tokens");
  profile::ProfileData Data = profile::profileModule(P.MIR, {});
  const std::string Blocks = std::to_string(Data.BlockCounts[0].size());
  // Minus 2^64 - N, which wraps to N.
  std::string Wrapped = "-";
  Wrapped += std::to_string(uint64_t{0} - Data.BlockCounts[0].size());
  const std::string Head = "pgsd-profile v1\nfunc 0 blocks ";
  profile::ProfileData Out;
  for (const std::string &Bad :
       {Head + Blocks + "junk\n", Head + Wrapped + "\n",
        Head + "+" + Blocks + "\n", Head + Blocks + " 0\n",
        Head + Blocks + "\n0 0 -1\n", Head + Blocks + "\n0 0 1x\n",
        Head + Blocks + "\n0 0 18446744073709551616\n",
        Head + Blocks + "\n0 0 1 1\n"}) {
    EXPECT_FALSE(profile::deserializeProfile(Bad, P.MIR, Out)) << Bad;
    EXPECT_TRUE(Out.empty()) << Bad;
  }
  // Blank runs between tokens, and the largest count, still load.
  ASSERT_TRUE(profile::deserializeProfile(
      Head + Blocks + "\n0  0\t18446744073709551615\n", P.MIR, Out));
  EXPECT_EQ(Out.BlockCounts[0][0], UINT64_MAX);
  EXPECT_EQ(Out.MaxCount, UINT64_MAX);
}

TEST(Profile, DeserializeRejectsGarbage) {
  driver::Program P = compileOK("fn main() { return 0; }", "garbage");
  const std::string Blocks =
      std::to_string(P.MIR.Functions[0].Blocks.size());
  profile::ProfileData Out;
  EXPECT_FALSE(profile::deserializeProfile("", P.MIR, Out));
  EXPECT_FALSE(profile::deserializeProfile("not a profile", P.MIR, Out));
  EXPECT_FALSE(profile::deserializeProfile(
      "pgsd-profile v1\nfunc 1 blocks " + Blocks + "\n", P.MIR,
      Out)); // func 0 missing
  EXPECT_FALSE(profile::deserializeProfile(
      "pgsd-profile v1\nfunc 0 blocks " + Blocks + "\n0 9 5\n", P.MIR,
      Out)); // block range
  EXPECT_TRUE(Out.empty());
}

TEST(Profile, DeserializeRejectsShapeMismatch) {
  // A profile whose headers disagree with the program is rejected as it
  // is parsed, before any count is sized by it: a block count too large
  // used to write past the function's blocks in applyCounts, and one
  // that does not fit in size_t to throw std::length_error.
  driver::Program P = compileOK(
      "fn sq(x) { return x * x; } "
      "fn main() { var s = 0; var i = 0; "
      "while (i < 5) { s = s + sq(i); i = i + 1; } return s; }",
      "shape");
  profile::ProfileData Data = profile::profileModule(P.MIR, {});
  ASSERT_EQ(Data.BlockCounts.size(), 2u);
  const std::string Text = profile::serializeProfile(Data);
  const std::string Header =
      "func 0 blocks " + std::to_string(Data.BlockCounts[0].size()) + "\n";
  const size_t At = Text.find(Header);
  ASSERT_NE(At, std::string::npos);
  profile::ProfileData Out;
  ASSERT_TRUE(profile::deserializeProfile(Text, P.MIR, Out));
  for (const char *Edited :
       {"func 0 blocks 40\n", "func 0 blocks 99999999999999999999\n",
        "func 0 blocks 0\n"}) {
    std::string Bad = Text;
    Bad.replace(At, Header.size(), Edited);
    EXPECT_FALSE(profile::deserializeProfile(Bad, P.MIR, Out)) << Edited;
    EXPECT_TRUE(Out.empty()) << Edited;
  }
  // A third function the program does not have.
  EXPECT_FALSE(profile::deserializeProfile(Text + "func 2 blocks 1\n",
                                           P.MIR, Out));

  // applyCounts refuses a mismatched shape and stamps nothing.
  auto Stamped = [&P] {
    std::vector<uint64_t> Counts;
    for (const mir::MFunction &F : P.MIR.Functions)
      for (const mir::MBasicBlock &BB : F.Blocks)
        Counts.push_back(BB.ProfileCount);
    return Counts;
  };
  const std::vector<uint64_t> Unstamped = Stamped();
  profile::ProfileData Wrong = Data;
  Wrong.BlockCounts[1].push_back(7);
  EXPECT_FALSE(profile::applyCounts(P.MIR, Wrong));
  Wrong.BlockCounts.pop_back();
  EXPECT_FALSE(profile::applyCounts(P.MIR, Wrong));
  EXPECT_EQ(Stamped(), Unstamped);
  EXPECT_TRUE(profile::applyCounts(P.MIR, Data));
  EXPECT_NE(Stamped(), Unstamped);
}

TEST(Profile, TrainAndRefAgreeOnHotBlocks) {
  // The same block must be the hottest under both inputs (the paper's
  // premise that train profiles transfer to ref runs).
  const workloads::Workload &W = workloads::specWorkload("456.hmmer");
  driver::Program P = driver::compileProgram(W.Source, W.Name);
  ASSERT_TRUE(P.ok()) << P.errors();
  profile::ProfileData Train =
      profile::profileModule(P.MIR, mexec::RunOptions{.Input = W.TrainInput, .MaxSteps = 4ull << 30, .MaxCallDepth = 8192, .CollectBlockCounts = false, .CollectOutput = false, .Costs = {}});
  profile::ProfileData Ref =
      profile::profileModule(P.MIR, mexec::RunOptions{.Input = W.RefInput, .MaxSteps = 4ull << 30, .MaxCallDepth = 8192, .CollectBlockCounts = false, .CollectOutput = false, .Costs = {}});
  ASSERT_FALSE(Train.empty());
  ASSERT_FALSE(Ref.empty());

  auto HottestBlock = [](const profile::ProfileData &D) {
    std::pair<size_t, size_t> Best{0, 0};
    uint64_t Max = 0;
    for (size_t F = 0; F != D.BlockCounts.size(); ++F)
      for (size_t B = 0; B != D.BlockCounts[F].size(); ++B)
        if (D.BlockCounts[F][B] > Max) {
          Max = D.BlockCounts[F][B];
          Best = {F, B};
        }
    return Best;
  };
  EXPECT_EQ(HottestBlock(Train), HottestBlock(Ref));
}

/// Property sweep: on every SPEC-like workload, minimal-counter recovery
/// must equal ground truth for the training input.
class ProfileWorkloadTest : public ::testing::TestWithParam<const char *> {};

TEST_P(ProfileWorkloadTest, RecoveryMatchesGroundTruth) {
  const workloads::Workload &W = workloads::specWorkload(GetParam());
  driver::Program P = driver::compileProgram(W.Source, W.Name);
  ASSERT_TRUE(P.ok()) << P.errors();
  auto Truth = groundTruth(P.MIR, W.TrainInput);
  profile::ProfileData Data =
      profile::profileModule(P.MIR, mexec::RunOptions{.Input = W.TrainInput, .MaxSteps = 4ull << 30, .MaxCallDepth = 8192, .CollectBlockCounts = false, .CollectOutput = false, .Costs = {}});
  ASSERT_FALSE(Data.empty());
  for (size_t F = 0; F != Truth.size(); ++F) {
    ASSERT_EQ(Data.BlockCounts[F].size(), Truth[F].size());
    for (size_t B = 0; B != Truth[F].size(); ++B)
      ASSERT_EQ(Data.BlockCounts[F][B], Truth[F][B])
          << W.Name << " func " << F << " block " << B;
  }
}

INSTANTIATE_TEST_SUITE_P(Spec, ProfileWorkloadTest,
                         ::testing::Values("470.lbm", "429.mcf", "401.bzip2",
                                           "473.astar", "458.sjeng",
                                           "482.sphinx3", "400.perlbench"),
                         [](const auto &Info) {
                           std::string Name = Info.param;
                           for (char &C : Name)
                             if (C == '.')
                               C = '_';
                           return Name;
                         });
