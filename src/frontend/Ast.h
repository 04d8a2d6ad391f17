//===-- frontend/Ast.h - MiniC abstract syntax tree --------------*- C++ -*-===//
//
// Part of the PGSD project, a reproduction of "Profile-guided Automated
// Software Diversity" (Homescu et al., CGO 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// AST for MiniC (the "AST" box of the paper's Figure 3). Nodes carry a
/// kind tag instead of using RTTI, following the LLVM conventions.
///
/// MiniC in one paragraph: a program is a list of `global` array/scalar
/// declarations and `fn` functions over signed 32-bit integers. Functions
/// have scalar parameters, `var` scalars, and `array` locals; statements
/// are assignment, array-element assignment, `if`/`else`, `while`, `for`,
/// `break`/`continue`, `return`, and call statements. Expressions provide
/// the usual C operators including short-circuit `&&`/`||`. Builtins:
/// `print_int`, `print_char`, `read_int`, `input_len`, `sink`.
///
//===----------------------------------------------------------------------===//

#ifndef PGSD_FRONTEND_AST_H
#define PGSD_FRONTEND_AST_H

#include "frontend/Lexer.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace pgsd {
namespace frontend {

/// An expression node.
struct Expr {
  enum class Kind : uint8_t {
    IntLit, ///< IntValue.
    VarRef, ///< Name.
    Index,  ///< Name[Kids[0]].
    Call,   ///< Name(Kids...).
    Unary,  ///< Op Kids[0]; Op is Minus/Bang/Tilde.
    Binary, ///< Kids[0] Op Kids[1]; Op is an arithmetic/comparison token.
    And,    ///< Kids[0] && Kids[1] (short-circuit).
    Or,     ///< Kids[0] || Kids[1] (short-circuit).
  };

  Kind K = Kind::IntLit;
  uint32_t Line = 0;
  uint32_t Col = 0;
  int64_t IntValue = 0;
  std::string Name;
  TokKind Op = TokKind::Eof;
  std::vector<std::unique_ptr<Expr>> Kids;
  /// Nodes on the longest path from here to a leaf; the parser keeps it
  /// within MaxNestingDepth.
  uint32_t Height = 1;
};

/// A statement node.
struct Stmt {
  enum class Kind : uint8_t {
    VarDecl,     ///< var Name (= E0)?;
    ArrayDecl,   ///< array Name[ArraySize];
    Assign,      ///< Name = E0;
    IndexAssign, ///< Name[E0] = E1;
    If,          ///< if (E0) Body else ElseBody.
    While,       ///< while (E0) Body.
    For,         ///< for (Init; E0; Step) Body.
    Return,      ///< return E0?; (E0 may be null)
    Break,
    Continue,
    ExprStmt,    ///< E0; (typically a call)
  };

  Kind K = Kind::ExprStmt;
  uint32_t Line = 0;
  uint32_t Col = 0;
  std::string Name;
  int64_t ArraySize = 0;
  std::unique_ptr<Expr> E0;
  std::unique_ptr<Expr> E1;
  std::vector<std::unique_ptr<Stmt>> Body;
  std::vector<std::unique_ptr<Stmt>> ElseBody;
  std::unique_ptr<Stmt> Init; ///< For-loop initializer (Assign/VarDecl).
  std::unique_ptr<Stmt> Step; ///< For-loop step (Assign/IndexAssign).
};

/// A function definition.
struct FuncDecl {
  std::string Name;
  uint32_t Line = 0;
  std::vector<std::string> Params;
  std::vector<std::unique_ptr<Stmt>> Body;
};

/// A global scalar (NumWords == 1) or array declaration.
struct GlobalDecl {
  std::string Name;
  uint32_t Line = 0;
  uint32_t NumWords = 1;
  std::vector<int32_t> Init; ///< Leading initial words; rest zero-filled.
};

/// A parsed compilation unit.
struct Program {
  std::vector<GlobalDecl> Globals;
  std::vector<FuncDecl> Funcs;
};

/// A diagnostic with 1-based location.
struct Diag {
  uint32_t Line = 0;
  uint32_t Col = 0;
  std::string Message;
};

/// Renders diagnostics as "line:col: message" lines (tests, tools).
std::string formatDiags(const std::vector<Diag> &Diags);

} // namespace frontend
} // namespace pgsd

#endif // PGSD_FRONTEND_AST_H
