//===-- frontend/Parser.cpp - MiniC parser ---------------------------------===//
//
// Part of the PGSD project, a reproduction of "Profile-guided Automated
// Software Diversity" (Homescu et al., CGO 2013).
//
//===----------------------------------------------------------------------===//

#include "frontend/Parser.h"

#include <algorithm>
#include <cstdio>
#include <string>

using namespace pgsd;
using namespace pgsd::frontend;

std::string frontend::formatDiags(const std::vector<Diag> &Diags) {
  std::string Out;
  for (const Diag &D : Diags) {
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%u:%u: ", D.Line, D.Col);
    Out += Buf;
    Out += D.Message;
    Out += '\n';
  }
  return Out;
}

namespace {

/// Binary operator precedence; higher binds tighter. Returns -1 for
/// tokens that are not binary operators.
int binaryPrec(TokKind K) {
  switch (K) {
  case TokKind::PipePipe:
    return 1;
  case TokKind::AmpAmp:
    return 2;
  case TokKind::Pipe:
    return 3;
  case TokKind::Caret:
    return 4;
  case TokKind::Amp:
    return 5;
  case TokKind::EqEq:
  case TokKind::NotEq:
    return 6;
  case TokKind::Lt:
  case TokKind::Le:
  case TokKind::Gt:
  case TokKind::Ge:
    return 7;
  case TokKind::Shl:
  case TokKind::Shr:
    return 8;
  case TokKind::Plus:
  case TokKind::Minus:
    return 9;
  case TokKind::Star:
  case TokKind::Slash:
  case TokKind::Percent:
    return 10;
  default:
    return -1;
  }
}

class Parser {
public:
  Parser(std::vector<Token> Tokens, std::vector<Diag> &DiagSink)
      : Toks(std::move(Tokens)), Diags(DiagSink) {}

  Program parseProgram();

private:
  const Token &cur() const { return Toks[Pos]; }
  const Token &peek(size_t Ahead = 1) const {
    size_t P = Pos + Ahead;
    return P < Toks.size() ? Toks[P] : Toks.back();
  }
  bool at(TokKind K) const { return cur().Kind == K; }
  Token take() { return Toks[Pos < Toks.size() - 1 ? Pos++ : Pos]; }

  void error(const Token &T, std::string Msg) {
    // Cap the flood from cascades; recovery keeps the count low anyway.
    // Past MaxNestingDepth the one diagnostic already says it all.
    if (Diags.size() < 50 && !TooDeep)
      Diags.push_back({T.Line, T.Col, std::move(Msg)});
  }

  /// Reports nesting past MaxNestingDepth at the current token, once,
  /// and skips to the end of input, so every open construct unwinds
  /// without recursing further.
  void tooDeep() {
    if (TooDeep)
      return;
    error(cur(), "nesting deeper than " + std::to_string(MaxNestingDepth) +
                     " levels of statements and expressions");
    TooDeep = true;
    Pos = Toks.size() - 1; // the Eof token
  }

  /// One level of parser recursion, held open for the guard's scope.
  class Nest {
  public:
    explicit Nest(Parser &Owner) : P(Owner) {
      if (++P.Depth > MaxNestingDepth)
        P.tooDeep();
    }
    ~Nest() { --P.Depth; }
    Nest(const Nest &) = delete;
    Nest &operator=(const Nest &) = delete;

  private:
    Parser &P;
  };

  /// Sets \p E's height from its operands'. A left-associative chain
  /// deepens the AST without recursing in the parser, so the height is
  /// checked here rather than by a Nest.
  void measure(Expr &E) {
    for (const std::unique_ptr<Expr> &Kid : E.Kids)
      E.Height = std::max(E.Height, Kid->Height + 1);
    if (E.Height > MaxNestingDepth)
      tooDeep();
  }

  bool expect(TokKind K, const char *What) {
    if (at(K)) {
      take();
      return true;
    }
    error(cur(), std::string("expected ") + What);
    return false;
  }

  /// Skips ahead to a likely statement boundary after an error.
  void sync() {
    while (!at(TokKind::Eof) && !at(TokKind::Semi) && !at(TokKind::RBrace))
      take();
    if (at(TokKind::Semi))
      take();
  }

  std::unique_ptr<Expr> parseExpr() {
    Nest N(*this);
    return parseBinary(0);
  }
  std::unique_ptr<Expr> parseBinary(int MinPrec);
  std::unique_ptr<Expr> parseUnary();
  std::unique_ptr<Expr> parsePrimary();

  std::unique_ptr<Stmt> parseStmt();
  std::unique_ptr<Stmt> parseSimpleStmt(); ///< For-loop init/step clause.
  std::vector<std::unique_ptr<Stmt>> parseBlock();

  void parseGlobal(Program &P);
  void parseFunc(Program &P);

  std::vector<Token> Toks;
  std::vector<Diag> &Diags;
  size_t Pos = 0;
  unsigned Depth = 0;   ///< Open Nest levels (see MaxNestingDepth).
  bool TooDeep = false; ///< MaxNestingDepth was exceeded and reported.
};

std::unique_ptr<Expr> Parser::parsePrimary() {
  Token T = cur();
  auto E = std::make_unique<Expr>();
  E->Line = T.Line;
  E->Col = T.Col;

  if (at(TokKind::IntLit)) {
    take();
    E->K = Expr::Kind::IntLit;
    E->IntValue = T.IntValue;
    return E;
  }
  if (at(TokKind::LParen)) {
    take();
    auto Inner = parseExpr();
    expect(TokKind::RParen, "')'");
    return Inner;
  }
  if (at(TokKind::Ident)) {
    take();
    E->Name = std::string(T.Text);
    if (at(TokKind::LParen)) {
      take();
      E->K = Expr::Kind::Call;
      if (!at(TokKind::RParen)) {
        E->Kids.push_back(parseExpr());
        while (at(TokKind::Comma)) {
          take();
          E->Kids.push_back(parseExpr());
        }
      }
      expect(TokKind::RParen, "')'");
      measure(*E);
      return E;
    }
    if (at(TokKind::LBracket)) {
      take();
      E->K = Expr::Kind::Index;
      E->Kids.push_back(parseExpr());
      expect(TokKind::RBracket, "']'");
      measure(*E);
      return E;
    }
    E->K = Expr::Kind::VarRef;
    return E;
  }

  error(T, "expected expression");
  take();
  E->K = Expr::Kind::IntLit;
  E->IntValue = 0;
  return E;
}

std::unique_ptr<Expr> Parser::parseUnary() {
  if (at(TokKind::Minus) || at(TokKind::Bang) || at(TokKind::Tilde)) {
    Token T = take();
    Nest N(*this);
    auto E = std::make_unique<Expr>();
    E->K = Expr::Kind::Unary;
    E->Line = T.Line;
    E->Col = T.Col;
    E->Op = T.Kind;
    E->Kids.push_back(parseUnary());
    measure(*E);
    return E;
  }
  return parsePrimary();
}

std::unique_ptr<Expr> Parser::parseBinary(int MinPrec) {
  auto LHS = parseUnary();
  while (true) {
    int Prec = binaryPrec(cur().Kind);
    if (Prec < 0 || Prec < MinPrec)
      return LHS;
    Token T = take();
    auto RHS = parseBinary(Prec + 1); // all binary operators left-associate
    auto E = std::make_unique<Expr>();
    E->Line = T.Line;
    E->Col = T.Col;
    E->Op = T.Kind;
    if (T.Kind == TokKind::AmpAmp)
      E->K = Expr::Kind::And;
    else if (T.Kind == TokKind::PipePipe)
      E->K = Expr::Kind::Or;
    else
      E->K = Expr::Kind::Binary;
    E->Kids.push_back(std::move(LHS));
    E->Kids.push_back(std::move(RHS));
    measure(*E);
    LHS = std::move(E);
  }
}

std::unique_ptr<Stmt> Parser::parseSimpleStmt() {
  Token T = cur();
  auto S = std::make_unique<Stmt>();
  S->Line = T.Line;
  S->Col = T.Col;

  if (at(TokKind::KwVar)) {
    take();
    S->K = Stmt::Kind::VarDecl;
    Token Name = cur();
    if (!expect(TokKind::Ident, "variable name"))
      return S;
    S->Name = std::string(Name.Text);
    if (at(TokKind::Assign)) {
      take();
      S->E0 = parseExpr();
    }
    return S;
  }

  if (at(TokKind::Ident)) {
    Token Name = take();
    S->Name = std::string(Name.Text);
    if (at(TokKind::LBracket)) {
      take();
      S->K = Stmt::Kind::IndexAssign;
      S->E0 = parseExpr();
      expect(TokKind::RBracket, "']'");
      expect(TokKind::Assign, "'='");
      S->E1 = parseExpr();
      return S;
    }
    if (at(TokKind::Assign)) {
      take();
      S->K = Stmt::Kind::Assign;
      S->E0 = parseExpr();
      return S;
    }
    if (at(TokKind::LParen)) {
      // Call statement: rewind is awkward, so build the call directly.
      take();
      auto E = std::make_unique<Expr>();
      E->K = Expr::Kind::Call;
      E->Line = Name.Line;
      E->Col = Name.Col;
      E->Name = S->Name;
      if (!at(TokKind::RParen)) {
        E->Kids.push_back(parseExpr());
        while (at(TokKind::Comma)) {
          take();
          E->Kids.push_back(parseExpr());
        }
      }
      expect(TokKind::RParen, "')'");
      measure(*E);
      S->K = Stmt::Kind::ExprStmt;
      S->Name.clear();
      S->E0 = std::move(E);
      return S;
    }
    error(cur(), "expected '=', '[' or '(' after identifier");
    return S;
  }

  error(T, "expected statement");
  take();
  return S;
}

std::unique_ptr<Stmt> Parser::parseStmt() {
  Nest N(*this);
  Token T = cur();
  auto S = std::make_unique<Stmt>();
  S->Line = T.Line;
  S->Col = T.Col;

  switch (T.Kind) {
  case TokKind::KwArray: {
    take();
    S->K = Stmt::Kind::ArrayDecl;
    Token Name = cur();
    if (expect(TokKind::Ident, "array name"))
      S->Name = std::string(Name.Text);
    expect(TokKind::LBracket, "'['");
    Token Size = cur();
    if (expect(TokKind::IntLit, "array size")) {
      if (Size.IntValue <= 0)
        error(Size, "array size must be positive");
      S->ArraySize = Size.IntValue;
    }
    expect(TokKind::RBracket, "']'");
    expect(TokKind::Semi, "';'");
    return S;
  }
  case TokKind::KwIf: {
    take();
    S->K = Stmt::Kind::If;
    expect(TokKind::LParen, "'('");
    S->E0 = parseExpr();
    expect(TokKind::RParen, "')'");
    S->Body = parseBlock();
    if (at(TokKind::KwElse)) {
      take();
      if (at(TokKind::KwIf)) {
        S->ElseBody.push_back(parseStmt());
      } else {
        S->ElseBody = parseBlock();
      }
    }
    return S;
  }
  case TokKind::KwWhile: {
    take();
    S->K = Stmt::Kind::While;
    expect(TokKind::LParen, "'('");
    S->E0 = parseExpr();
    expect(TokKind::RParen, "')'");
    S->Body = parseBlock();
    return S;
  }
  case TokKind::KwFor: {
    take();
    S->K = Stmt::Kind::For;
    expect(TokKind::LParen, "'('");
    if (!at(TokKind::Semi))
      S->Init = parseSimpleStmt();
    expect(TokKind::Semi, "';'");
    if (!at(TokKind::Semi))
      S->E0 = parseExpr();
    expect(TokKind::Semi, "';'");
    if (!at(TokKind::RParen))
      S->Step = parseSimpleStmt();
    expect(TokKind::RParen, "')'");
    S->Body = parseBlock();
    return S;
  }
  case TokKind::KwReturn: {
    take();
    S->K = Stmt::Kind::Return;
    if (!at(TokKind::Semi))
      S->E0 = parseExpr();
    expect(TokKind::Semi, "';'");
    return S;
  }
  case TokKind::KwBreak:
    take();
    S->K = Stmt::Kind::Break;
    expect(TokKind::Semi, "';'");
    return S;
  case TokKind::KwContinue:
    take();
    S->K = Stmt::Kind::Continue;
    expect(TokKind::Semi, "';'");
    return S;
  default: {
    auto Simple = parseSimpleStmt();
    if (!expect(TokKind::Semi, "';'"))
      sync();
    return Simple;
  }
  }
}

std::vector<std::unique_ptr<Stmt>> Parser::parseBlock() {
  std::vector<std::unique_ptr<Stmt>> Body;
  if (!expect(TokKind::LBrace, "'{'")) {
    sync();
    return Body;
  }
  while (!at(TokKind::RBrace) && !at(TokKind::Eof))
    Body.push_back(parseStmt());
  expect(TokKind::RBrace, "'}'");
  return Body;
}

void Parser::parseGlobal(Program &P) {
  take(); // 'global'
  GlobalDecl G;
  Token Name = cur();
  G.Line = Name.Line;
  if (expect(TokKind::Ident, "global name"))
    G.Name = std::string(Name.Text);
  if (at(TokKind::LBracket)) {
    take();
    Token Size = cur();
    if (expect(TokKind::IntLit, "array size")) {
      if (Size.IntValue <= 0 || Size.IntValue > (1 << 24)) {
        error(Size, "global array size out of range");
        G.NumWords = 1;
      } else {
        G.NumWords = static_cast<uint32_t>(Size.IntValue);
      }
    }
    expect(TokKind::RBracket, "']'");
  }
  if (at(TokKind::Assign)) {
    take();
    expect(TokKind::LBrace, "'{'");
    if (!at(TokKind::RBrace)) {
      while (true) {
        bool Negate = false;
        if (at(TokKind::Minus)) {
          take();
          Negate = true;
        }
        Token V = cur();
        if (!expect(TokKind::IntLit, "initializer value"))
          break;
        int32_t Word = static_cast<int32_t>(V.IntValue);
        G.Init.push_back(Negate ? -Word : Word);
        if (!at(TokKind::Comma))
          break;
        take();
      }
    }
    expect(TokKind::RBrace, "'}'");
    if (G.Init.size() > G.NumWords)
      error(Name, "more initializers than elements in global '" + G.Name +
                      "'");
  }
  expect(TokKind::Semi, "';'");
  P.Globals.push_back(std::move(G));
}

void Parser::parseFunc(Program &P) {
  take(); // 'fn'
  FuncDecl F;
  Token Name = cur();
  F.Line = Name.Line;
  if (expect(TokKind::Ident, "function name"))
    F.Name = std::string(Name.Text);
  expect(TokKind::LParen, "'('");
  if (!at(TokKind::RParen)) {
    while (true) {
      Token PTok = cur();
      if (!expect(TokKind::Ident, "parameter name"))
        break;
      F.Params.push_back(std::string(PTok.Text));
      if (!at(TokKind::Comma))
        break;
      take();
    }
  }
  expect(TokKind::RParen, "')'");
  F.Body = parseBlock();
  P.Funcs.push_back(std::move(F));
}

Program Parser::parseProgram() {
  Program P;
  while (!at(TokKind::Eof)) {
    if (at(TokKind::KwGlobal)) {
      parseGlobal(P);
    } else if (at(TokKind::KwFn)) {
      parseFunc(P);
    } else {
      error(cur(), "expected 'global' or 'fn' at top level");
      sync();
      if (at(TokKind::RBrace))
        take();
    }
  }
  return P;
}

} // namespace

Program frontend::parse(std::string_view Source, std::vector<Diag> &Diags) {
  Parser P(lex(Source), Diags);
  return P.parseProgram();
}
