//===-- tests/FrontendTest.cpp - Lexer/parser/sema tests -------------------===//
//
// Part of the PGSD project, a reproduction of "Profile-guided Automated
// Software Diversity" (Homescu et al., CGO 2013).
//
//===----------------------------------------------------------------------===//

#include "frontend/Lexer.h"
#include "frontend/Lower.h"
#include "frontend/Parser.h"

#include <gtest/gtest.h>

using namespace pgsd;
using namespace pgsd::frontend;

namespace {

std::vector<TokKind> kindsOf(std::string_view Src) {
  std::vector<TokKind> Kinds;
  for (const Token &T : lex(Src))
    Kinds.push_back(T.Kind);
  return Kinds;
}

/// Compiles and returns the diagnostics string ("" = success).
std::string diagsOf(std::string_view Src) {
  std::vector<Diag> Diags;
  ir::Module M = compileToIR(Src, "test", Diags);
  return formatDiags(Diags);
}

} // namespace

TEST(Lexer, BasicTokens) {
  auto Kinds = kindsOf("fn main() { return 42; }");
  std::vector<TokKind> Expected = {
      TokKind::KwFn,   TokKind::Ident,    TokKind::LParen, TokKind::RParen,
      TokKind::LBrace, TokKind::KwReturn, TokKind::IntLit, TokKind::Semi,
      TokKind::RBrace, TokKind::Eof};
  EXPECT_EQ(Kinds, Expected);
}

TEST(Lexer, Operators) {
  auto Kinds = kindsOf("== != <= >= << >> && || = < > ! ~ ^ % &");
  std::vector<TokKind> Expected = {
      TokKind::EqEq,  TokKind::NotEq,    TokKind::Le,     TokKind::Ge,
      TokKind::Shl,   TokKind::Shr,      TokKind::AmpAmp, TokKind::PipePipe,
      TokKind::Assign, TokKind::Lt,      TokKind::Gt,     TokKind::Bang,
      TokKind::Tilde, TokKind::Caret,    TokKind::Percent, TokKind::Amp,
      TokKind::Eof};
  EXPECT_EQ(Kinds, Expected);
}

TEST(Lexer, IntegerLiterals) {
  auto Tokens = lex("0 123 0x1F 0xffffffff");
  ASSERT_GE(Tokens.size(), 4u);
  EXPECT_EQ(Tokens[0].IntValue, 0);
  EXPECT_EQ(Tokens[1].IntValue, 123);
  EXPECT_EQ(Tokens[2].IntValue, 0x1F);
  EXPECT_EQ(Tokens[3].IntValue, -1); // wraps as a 32-bit constant
}

TEST(Lexer, CharLiterals) {
  auto Tokens = lex("'a' '\\n' '\\0' '\\\\'");
  EXPECT_EQ(Tokens[0].IntValue, 'a');
  EXPECT_EQ(Tokens[1].IntValue, '\n');
  EXPECT_EQ(Tokens[2].IntValue, 0);
  EXPECT_EQ(Tokens[3].IntValue, '\\');
}

TEST(Lexer, Comments) {
  auto Kinds = kindsOf("1 // line comment\n 2 /* block\ncomment */ 3");
  std::vector<TokKind> Expected = {TokKind::IntLit, TokKind::IntLit,
                                   TokKind::IntLit, TokKind::Eof};
  EXPECT_EQ(Kinds, Expected);
}

TEST(Lexer, LineAndColumnTracking) {
  auto Tokens = lex("a\n  b");
  EXPECT_EQ(Tokens[0].Line, 1u);
  EXPECT_EQ(Tokens[0].Col, 1u);
  EXPECT_EQ(Tokens[1].Line, 2u);
  EXPECT_EQ(Tokens[1].Col, 3u);
}

TEST(Lexer, MalformedTokens) {
  auto Tokens = lex("12ab $ 'x");
  EXPECT_EQ(Tokens[0].Kind, TokKind::Error); // 12ab
  EXPECT_EQ(Tokens[1].Kind, TokKind::Error); // $
  EXPECT_EQ(Tokens[2].Kind, TokKind::Error); // unterminated char
}

TEST(Lexer, KeywordsVersusIdentifiers) {
  auto Tokens = lex("fn fnx var variable if ifx");
  EXPECT_EQ(Tokens[0].Kind, TokKind::KwFn);
  EXPECT_EQ(Tokens[1].Kind, TokKind::Ident);
  EXPECT_EQ(Tokens[2].Kind, TokKind::KwVar);
  EXPECT_EQ(Tokens[3].Kind, TokKind::Ident);
  EXPECT_EQ(Tokens[4].Kind, TokKind::KwIf);
  EXPECT_EQ(Tokens[5].Kind, TokKind::Ident);
}

TEST(Parser, AcceptsCoreConstructs) {
  EXPECT_EQ(diagsOf(R"(
    global g;
    global arr[10] = { 1, 2, -3 };
    fn helper(a, b) {
      var x = a + b;
      array tmp[4];
      tmp[0] = x;
      for (var i = 0; i < 4; i = i + 1) { tmp[i] = i; }
      while (x > 0) { x = x - 1; if (x == 2) { break; } else { continue; } }
      return tmp[0];
    }
    fn main() { g = helper(1, 2); print_int(g); return 0; }
  )"),
            "");
}

TEST(Parser, ReportsSyntaxErrors) {
  EXPECT_NE(diagsOf("fn main() { return 1 }"), "");        // missing ';'
  EXPECT_NE(diagsOf("fn main( { return 1; }"), "");        // bad params
  EXPECT_NE(diagsOf("fn main() { var 5 = 3; }"), "");      // bad name
  EXPECT_NE(diagsOf("global 5;"), "");                     // bad global
  EXPECT_NE(diagsOf("fn main() { x +; }"), "");            // bad expr
  EXPECT_NE(diagsOf("notakeyword main() {}"), "");         // top level
}

TEST(Parser, RecoversAndReportsMultipleErrors) {
  std::vector<Diag> Diags;
  parse(R"(
    fn main() {
      var a = ;
      var b = 2;
      return @;
    }
  )",
        Diags);
  EXPECT_GE(Diags.size(), 2u);
}

namespace {

/// \p N copies of \p S.
std::string repeat(const std::string &S, unsigned N) {
  std::string Out;
  for (unsigned I = 0; I != N; ++I)
    Out += S;
  return Out;
}

/// A main that returns \p E, with `a` in scope.
std::string returning(const std::string &E) {
  return "fn main() { var a = 1; return " + E + "; }";
}

/// Parses \p Src and returns its diagnostics.
std::vector<Diag> parseDiags(const std::string &Src) {
  std::vector<Diag> Diags;
  parse(Src, Diags);
  return Diags;
}

} // namespace

TEST(Parser, NestingLimitIsExact) {
  const unsigned L = MaxNestingDepth;
  const std::string TooDeep =
      "nesting deeper than " + std::to_string(L) + " levels";
  // Each case compiles, lowering included, at the limit and is one
  // diagnostic at the limit + 1. A return statement and its expression
  // take two levels, so L - 2 parentheses, unary operators or if
  // statements around it fill the limit.
  auto Parens = [](unsigned N) {
    return returning(repeat("(", N) + "a" + repeat(")", N));
  };
  auto Unary = [](unsigned N) { return returning(repeat("- ", N) + "a"); };
  auto Ifs = [](unsigned N) {
    return "fn main() { var a = 1; " + repeat("if (a) { ", N) +
           "return a; " + repeat("} ", N) + "return 0; }";
  };
  // A left-associative chain of N terms is N nodes high.
  auto Chain = [](unsigned N) {
    return returning(std::string("a") + repeat(" + a", N - 1));
  };
  const std::pair<std::string, std::string> Cases[] = {
      {Parens(L - 2), Parens(L - 1)},
      {Unary(L - 2), Unary(L - 1)},
      {Ifs(L - 2), Ifs(L - 1)},
      {Chain(L), Chain(L + 1)},
  };
  for (const auto &[AtLimit, PastLimit] : Cases) {
    EXPECT_EQ(diagsOf(AtLimit), "") << AtLimit.substr(0, 60);
    const std::vector<Diag> Diags = parseDiags(PastLimit);
    ASSERT_EQ(Diags.size(), 1u) << PastLimit.substr(0, 60);
    EXPECT_NE(Diags[0].Message.find(TooDeep), std::string::npos)
        << Diags[0].Message;
  }
}

TEST(Parser, DeepInputIsOneDiagnosticNotAStackOverflow) {
  // Inputs that once overflowed the stack: 50,000 nested parentheses or
  // unary operators in the parser, and a 100,000-term sum in lowering.
  for (const std::string &Src :
       {returning(repeat("(", 50000) + "a" + repeat(")", 50000)),
        returning(repeat("- ", 50000) + "a"),
        returning(std::string("a") + repeat(" + a", 99999))}) {
    std::vector<Diag> Diags;
    compileToIR(Src, "deep", Diags);
    ASSERT_EQ(Diags.size(), 1u) << formatDiags(Diags);
    EXPECT_NE(Diags[0].Message.find("nesting deeper than"),
              std::string::npos);
  }
}

TEST(Parser, ArraySizeValidation) {
  EXPECT_NE(diagsOf("fn main() { array a[0]; return 0; }"), "");
  EXPECT_NE(diagsOf("global g[0];"), "");
}

TEST(Sema, UndeclaredIdentifier) {
  EXPECT_NE(diagsOf("fn main() { return nope; }"), "");
  EXPECT_NE(diagsOf("fn main() { nope = 1; return 0; }"), "");
  EXPECT_NE(diagsOf("fn main() { nope[0] = 1; return 0; }"), "");
}

TEST(Sema, UnknownFunctionAndArity) {
  EXPECT_NE(diagsOf("fn main() { return missing(); }"), "");
  EXPECT_NE(diagsOf("fn f(a) { return a; } fn main() { return f(); }"), "");
  EXPECT_NE(diagsOf("fn f(a) { return a; } fn main() { return f(1, 2); }"),
            "");
  EXPECT_NE(diagsOf("fn main() { return print_int(); }"), "");
}

TEST(Sema, VoidBuiltinsHaveNoValue) {
  EXPECT_NE(diagsOf("fn main() { return print_int(1); }"), "");
  EXPECT_NE(diagsOf("fn main() { return sink(1); }"), "");
  EXPECT_EQ(diagsOf("fn main() { print_int(1); return read_int(); }"), "");
}

TEST(Sema, Redefinitions) {
  EXPECT_NE(diagsOf("fn f() { return 0; } fn f() { return 1; } "
                    "fn main() { return 0; }"),
            "");
  EXPECT_NE(diagsOf("global g; global g; fn main() { return 0; }"), "");
  EXPECT_NE(diagsOf("fn main() { var a = 1; var a = 2; return a; }"), "");
  // Shadowing in a nested scope is allowed.
  EXPECT_EQ(diagsOf("fn main() { var a = 1; if (a) { var a = 2; sink(a); } "
                    "return a; }"),
            "");
}

TEST(Sema, BuiltinNameCollision) {
  EXPECT_NE(diagsOf("fn print_int(x) { return x; } fn main() { return 0; }"),
            "");
}

TEST(Sema, BreakContinueOutsideLoop) {
  EXPECT_NE(diagsOf("fn main() { break; return 0; }"), "");
  EXPECT_NE(diagsOf("fn main() { continue; return 0; }"), "");
}

TEST(Sema, ArrayMisuse) {
  // Assigning to an array name is an error.
  EXPECT_NE(diagsOf("fn main() { array a[4]; a = 1; return 0; }"), "");
  // Using an array as its address (pointer decay) is allowed.
  EXPECT_EQ(diagsOf("fn f(p) { return p[0]; } "
                    "fn main() { array a[4]; a[0] = 9; return f(a); }"),
            "");
}

TEST(Sema, MainRequired) {
  EXPECT_NE(diagsOf("fn notmain() { return 0; }"), "");
  EXPECT_NE(diagsOf("fn main(a) { return a; }"), "");
}

TEST(Sema, ProducesVerifiableIR) {
  std::vector<Diag> Diags;
  ir::Module M = compileToIR(R"(
    global data[8];
    fn fib(n) {
      if (n < 2) { return n; }
      return fib(n - 1) + fib(n - 2);
    }
    fn main() {
      var i = 0;
      while (i < 8) { data[i] = fib(i); i = i + 1; }
      return data[7];
    }
  )",
                             "fib", Diags);
  ASSERT_TRUE(Diags.empty()) << formatDiags(Diags);
  EXPECT_EQ(ir::verify(M), "");
  EXPECT_EQ(M.Functions.size(), 2u);
  EXPECT_EQ(M.Globals.size(), 1u);
  // The printer produces something sensible.
  std::string Text = ir::print(M);
  EXPECT_NE(Text.find("func @fib"), std::string::npos);
  EXPECT_NE(Text.find("condbr"), std::string::npos);
}
