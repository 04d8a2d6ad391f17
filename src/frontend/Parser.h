//===-- frontend/Parser.h - MiniC parser -------------------------*- C++ -*-===//
//
// Part of the PGSD project, a reproduction of "Profile-guided Automated
// Software Diversity" (Homescu et al., CGO 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Recursive-descent parser turning MiniC source into the AST of Ast.h
/// (the Parser arrow of the paper's Figure 3).
///
//===----------------------------------------------------------------------===//

#ifndef PGSD_FRONTEND_PARSER_H
#define PGSD_FRONTEND_PARSER_H

#include "frontend/Ast.h"

#include <memory>
#include <string_view>
#include <vector>

namespace pgsd {
namespace frontend {

/// Deepest nesting parse() accepts; one level past it is a syntax
/// error. Two depths are bounded by it: the parser's own recursion, one
/// level for every enclosing statement, expression (top level,
/// parenthesized, call argument, index) and unary operator; and every
/// expression's height (Expr::Height), which a left-associative chain
/// such as `a + a + ...` grows by one per operator. Lowering and the
/// AST's destructors recurse along those same paths, so the limit bounds
/// their stack too. The workload suite, the examples and the MiniC
/// fuzzer stay at a few dozen levels.
constexpr unsigned MaxNestingDepth = 1000;

/// Parses \p Source.
///
/// Syntax errors are appended to \p Diags; the parser recovers at
/// statement boundaries, so a non-empty Program may be returned alongside
/// diagnostics. Callers must treat any diagnostics as failure.
Program parse(std::string_view Source, std::vector<Diag> &Diags);

} // namespace frontend
} // namespace pgsd

#endif // PGSD_FRONTEND_PARSER_H
