//===-- tests/MiniCFuzzer.h - Seeded random MiniC generator -----*- C++ -*-===//
//
// Part of the PGSD project, a reproduction of "Profile-guided Automated
// Software Diversity" (Homescu et al., CGO 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A seeded random-program generator (arithmetic, if/while, helper calls
/// with arguments, local and global arrays within frame bounds) shared
/// by the MiniC fuzz/property suite (tests/FuzzMiniCTest.cpp) and the
/// engine-parity suite (tests/EngineParityTest.cpp). The RNG is
/// pgsd::Rng (bit-exact across toolchains), so a seed reproduces the
/// same program everywhere.
///
/// Generated programs are trap-free by construction: divisors are forced
/// nonzero, array indices are masked to the declared bounds, and loops
/// count to literal limits. Helpers only call helpers defined before
/// them, so the call graph is acyclic and every program terminates.
///
//===----------------------------------------------------------------------===//

#ifndef PGSD_TESTS_MINICFUZZER_H
#define PGSD_TESTS_MINICFUZZER_H

#include "support/Rng.h"

#include <cstdarg>
#include <cstdio>
#include <string>
#include <vector>

namespace pgsd {

/// Generates one random MiniC program per seed.
class MiniCFuzzer {
public:
  explicit MiniCFuzzer(uint64_t Seed) : Gen(Seed) {}

  std::string generate() {
    Out.clear();
    Out += "global gdata[32];\n";
    Out += "global gacc;\n";
    unsigned NumHelpers = 1 + static_cast<unsigned>(Gen.nextBelow(3));
    for (unsigned H = 0; H != NumHelpers; ++H)
      helper(H);
    mainFunction();
    return Out;
  }

private:
  struct Helper {
    std::string Name;
    unsigned Arity;
  };

  void appendf(const char *Fmt, ...) __attribute__((format(printf, 2, 3)));

  /// One of the scalar variables in scope ('a'..'a'+NumVars-1).
  std::string var() {
    return std::string(1, static_cast<char>(
                              'a' + Gen.nextBelow(NumVars)));
  }

  /// A side-effect-free expression over the in-scope scalars, local
  /// array t[8], global array gdata[32], and previously defined helpers.
  std::string expr(unsigned Depth) {
    if (Depth == 0 || Gen.nextBernoulli(0.3)) {
      switch (Gen.nextBelow(4)) {
      case 0:
        return var();
      case 1:
        return std::to_string(Gen.nextInRange(-99, 99));
      case 2:
        return "t[(" + var() + ") & 7]";
      default:
        return "gdata[(" + var() + ") & 31]";
      }
    }
    std::string A = expr(Depth - 1);
    std::string B = expr(Depth - 1);
    switch (Gen.nextBelow(14)) {
    case 0:
      return "(" + A + " + " + B + ")";
    case 1:
      return "(" + A + " - " + B + ")";
    case 2:
      return "(" + A + " * " + B + ")";
    case 3: // guaranteed nonzero, non-minus-one divisor
      return "(" + A + " / ((" + B + " & 15) + 2))";
    case 4:
      return "(" + A + " % ((" + B + " & 15) + 2))";
    case 5:
      return "(" + A + " & " + B + ")";
    case 6:
      return "(" + A + " | " + B + ")";
    case 7:
      return "(" + A + " ^ " + B + ")";
    case 8:
      return "(" + A + " << (" + B + " & 7))";
    case 9:
      return "(" + A + " >> (" + B + " & 7))";
    case 10:
      return "(0 - " + A + ")";
    case 11: {
      const char *Cmp[] = {" < ", " <= ", " == ", " != ", " > ", " >= "};
      return "(" + A + Cmp[Gen.nextBelow(6)] + B + ")";
    }
    case 12:
      return call(Depth - 1);
    default:
      return "(" + A + " && " + B + ")";
    }
  }

  /// A call to a previously defined helper, or a literal when none
  /// exists yet.
  std::string call(unsigned Depth) {
    if (Helpers.empty())
      return std::to_string(Gen.nextInRange(-9, 9));
    const Helper &H = Helpers[Gen.nextBelow(Helpers.size())];
    std::string C = H.Name + "(";
    for (unsigned A = 0; A != H.Arity; ++A)
      C += (A ? ", " : "") + expr(Depth);
    return C + ")";
  }

  void statement(unsigned Indent, unsigned Depth, unsigned LoopBudget) {
    std::string Pad(Indent * 2, ' ');
    switch (Gen.nextBelow(Depth > 0 && LoopBudget > 0 ? 7u : 5u)) {
    case 0: // scalar assignment
      appendf("%s%s = %s;\n", Pad.c_str(), var().c_str(),
              expr(2).c_str());
      break;
    case 1: // local array store, masked to the declared 8 words
      appendf("%st[(%s) & 7] = %s;\n", Pad.c_str(), expr(1).c_str(),
              expr(2).c_str());
      break;
    case 2: // global array store
      appendf("%sgdata[(%s) & 31] = %s;\n", Pad.c_str(), expr(1).c_str(),
              expr(2).c_str());
      break;
    case 3: // accumulate through the global scalar
      appendf("%sgacc = gacc ^ %s;\n", Pad.c_str(), expr(2).c_str());
      break;
    case 4: // call for effect via a scalar
      appendf("%s%s = %s;\n", Pad.c_str(), var().c_str(),
              call(1).c_str());
      break;
    case 5: { // if/else
      appendf("%sif (%s) {\n", Pad.c_str(), expr(2).c_str());
      statement(Indent + 1, Depth - 1, LoopBudget);
      if (Gen.nextBernoulli(0.5)) {
        appendf("%s} else {\n", Pad.c_str());
        statement(Indent + 1, Depth - 1, LoopBudget);
      }
      appendf("%s}\n", Pad.c_str());
      break;
    }
    default: { // bounded while loop with a unique counter
      std::string Counter = "i" + std::to_string(NextLoopId++);
      appendf("%svar %s = 0;\n", Pad.c_str(), Counter.c_str());
      appendf("%swhile (%s < %d) {\n", Pad.c_str(), Counter.c_str(),
              static_cast<int>(Gen.nextBelow(12) + 1));
      statement(Indent + 1, Depth - 1, LoopBudget - 1);
      appendf("%s  %s = %s + 1;\n", Pad.c_str(), Counter.c_str(),
              Counter.c_str());
      appendf("%s}\n", Pad.c_str());
      break;
    }
    }
  }

  void helper(unsigned Index) {
    Helper H;
    H.Name = "h";
    H.Name += std::to_string(Index);
    H.Arity = 1 + static_cast<unsigned>(Gen.nextBelow(3));
    std::string Params;
    for (unsigned A = 0; A != H.Arity; ++A)
      Params += (A ? ", " : "") + std::string(1, static_cast<char>('a' + A));
    appendf("fn %s(%s) {\n", H.Name.c_str(), Params.c_str());
    Out += "  array t[8];\n";
    // Parameters double as the scalar pool inside the helper.
    NumVars = H.Arity;
    unsigned NumStmts = 2 + static_cast<unsigned>(Gen.nextBelow(4));
    for (unsigned S = 0; S != NumStmts; ++S)
      statement(1, 2, 1);
    appendf("  return %s;\n}\n", expr(2).c_str());
    Helpers.push_back(H); // visible to later helpers and main only
  }

  void mainFunction() {
    Out += "fn main() {\n";
    Out += "  array t[8];\n";
    NumVars = 6;
    for (unsigned V = 0; V != NumVars; ++V)
      appendf("  var %c = %s;\n", static_cast<char>('a' + V),
              Gen.nextBernoulli(0.3)
                  ? "read_int()"
                  : std::to_string(Gen.nextInRange(-50, 50)).c_str());
    unsigned NumStmts = 4 + static_cast<unsigned>(Gen.nextBelow(8));
    for (unsigned S = 0; S != NumStmts; ++S)
      statement(1, 2, 2);
    // Observe everything the program could have touched.
    for (unsigned V = 0; V != NumVars; ++V)
      appendf("  print_int(%c);\n", static_cast<char>('a' + V));
    Out += "  var k = 0;\n";
    Out += "  while (k < 32) { gacc = gacc ^ gdata[k] ^ t[k & 7]; "
           "k = k + 1; }\n";
    Out += "  print_int(gacc);\n";
    Out += "  return a & 127;\n";
    Out += "}\n";
  }

  Rng Gen;
  std::string Out;
  std::vector<Helper> Helpers;
  unsigned NumVars = 6;
  unsigned NextLoopId = 0;
};

inline void MiniCFuzzer::appendf(const char *Fmt, ...) {
  char Buf[512];
  va_list Ap;
  va_start(Ap, Fmt);
  int N = std::vsnprintf(Buf, sizeof(Buf), Fmt, Ap);
  va_end(Ap);
  if (N > 0)
    Out.append(Buf, static_cast<size_t>(N) < sizeof(Buf)
                        ? static_cast<size_t>(N)
                        : sizeof(Buf) - 1);
}

} // namespace pgsd

#endif // PGSD_TESTS_MINICFUZZER_H
