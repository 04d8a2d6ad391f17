//===-- tests/ProfileMutationTest.cpp - Mutated profile files ------------===//
//
// Part of the PGSD project, a reproduction of "Profile-guided Automated
// Software Diversity" (Homescu et al., CGO 2013).
//
// A profile file comes from outside the program, so any edit of one must
// be refused or load with the module's shape: never throw, abort or
// write out of bounds. 900 deterministic mutants of a 429.mcf profile,
// each with one to three edits (a digit changed, a sign or junk
// inserted, a token or a line deleted or duplicated), go through
// profile::deserializeProfile and profile::applyCounts in-process. The
// ASan+UBSan build runs the same binary.
//
//===----------------------------------------------------------------------===//

#include "driver/Driver.h"
#include "profile/Profile.h"
#include "support/Rng.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace pgsd;

namespace {

constexpr uint64_t NumMutants = 900;

std::vector<std::string> splitAt(const std::string &Text, char Sep) {
  std::vector<std::string> Parts;
  size_t Pos = 0;
  for (size_t End; (End = Text.find(Sep, Pos)) != std::string::npos;
       Pos = End + 1)
    Parts.push_back(Text.substr(Pos, End - Pos));
  Parts.push_back(Text.substr(Pos));
  return Parts;
}

std::string joinWith(const std::vector<std::string> &Parts, char Sep) {
  std::string Out;
  for (size_t I = 0; I != Parts.size(); ++I)
    Out += (I ? std::string(1, Sep) : std::string()) + Parts[I];
  return Out;
}

/// Applies one random edit to \p Text.
void mutate(std::string &Text, Rng &R) {
  static const char *const Junk[] = {"-", "+", "x", "junk", " ", "\t",
                                     "99999999999999999999", "\n"};
  std::vector<std::string> Lines = splitAt(Text, '\n');
  const size_t L = R.nextBelow(Lines.size());
  std::vector<std::string> Tokens = splitAt(Lines[L], ' ');
  const size_t Tok = R.nextBelow(Tokens.size());
  switch (R.nextBelow(6)) {
  case 0: { // A digit changed.
    std::vector<size_t> Digits;
    for (size_t I = 0; I != Text.size(); ++I)
      if (Text[I] >= '0' && Text[I] <= '9')
        Digits.push_back(I);
    if (!Digits.empty())
      Text[Digits[R.nextBelow(Digits.size())]] =
          static_cast<char>('0' + R.nextBelow(10));
    return;
  }
  case 1: // A sign or junk inserted.
    Text.insert(R.nextBelow(Text.size() + 1),
                Junk[R.nextBelow(sizeof(Junk) / sizeof(Junk[0]))]);
    return;
  case 2: // A token deleted.
    Tokens.erase(Tokens.begin() + Tok);
    Lines[L] = joinWith(Tokens, ' ');
    break;
  case 3: // A token duplicated.
    Tokens.insert(Tokens.begin() + Tok, std::string(Tokens[Tok]));
    Lines[L] = joinWith(Tokens, ' ');
    break;
  case 4: // A line deleted.
    Lines.erase(Lines.begin() + L);
    break;
  default: // A line duplicated.
    Lines.insert(Lines.begin() + L, std::string(Lines[L]));
    break;
  }
  Text = joinWith(Lines, '\n');
}

} // namespace

TEST(ProfileMutation, EveryMutantLoadsWithTheModulesShapeOrIsRefused) {
  const workloads::Workload &W = workloads::specWorkload("429.mcf");
  driver::Program P = driver::compileProgram(W.Source, W.Name);
  ASSERT_TRUE(P.ok()) << P.errors();
  mexec::RunOptions Train;
  Train.Input = W.TrainInput;
  const std::string Original =
      profile::serializeProfile(profile::profileModule(P.MIR, Train));
  profile::ProfileData Out;
  ASSERT_TRUE(profile::deserializeProfile(Original, P.MIR, Out));

  uint64_t Loaded = 0, Refused = 0;
  for (uint64_t Seed = 0; Seed != NumMutants; ++Seed) {
    Rng R(Seed);
    std::string Text = Original;
    const uint64_t Edits = 1 + R.nextBelow(3);
    for (uint64_t E = 0; E != Edits; ++E)
      mutate(Text, R);
    SCOPED_TRACE("mutant " + std::to_string(Seed));
    bool Ok = false;
    ASSERT_NO_THROW(Ok = profile::deserializeProfile(Text, P.MIR, Out));
    if (!Ok) {
      EXPECT_TRUE(Out.empty());
      ++Refused;
      continue;
    }
    ASSERT_EQ(Out.BlockCounts.size(), P.MIR.Functions.size());
    for (size_t F = 0; F != Out.BlockCounts.size(); ++F)
      ASSERT_EQ(Out.BlockCounts[F].size(), P.MIR.Functions[F].Blocks.size());
    mir::MModule Stamped = P.MIR;
    bool Applied = false;
    ASSERT_NO_THROW(Applied = profile::applyCounts(Stamped, Out));
    EXPECT_TRUE(Applied);
    ++Loaded;
  }
  // Both outcomes occur: a changed digit in a count still loads, most
  // other edits are refused.
  EXPECT_GT(Loaded, 0u);
  EXPECT_GT(Refused, 0u);
  std::printf("%llu mutants loaded, %llu refused\n",
              static_cast<unsigned long long>(Loaded),
              static_cast<unsigned long long>(Refused));
}
