//===- tools/TidyLint.h - omegatidy lint engine ----------------*- C++ -*-===//
//
// Part of OmegaCount (reproduction of Pugh, PLDI 1994).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The token-level lint engine behind tools/omegatidy.cpp: a comment- and
/// string-aware C++ tokenizer plus the repo's machine-enforced invariants
/// (README "Static analysis", DESIGN.md §13).  Rules, each addressable in
/// suppression comments by its kebab-case name:
///
///   assert           no assert()/<cassert> in src/ — runtime invariants
///                    use check()/fatalError() (always on, NDEBUG-proof)
///                    and caller-provokable failures use Result<T>.
///   naked-new        no naked new/malloc family; ownership goes through
///                    containers and smart pointers.  support/BigInt.cpp
///                    (the limb spill paths) is exempt wholesale.
///   mutex-wrapper    no raw std::mutex/lock_guard/unique_lock/... outside
///                    support/ThreadAnnotations.h; lock-protected state
///                    must use the capability-annotated wrappers so Clang
///                    -Wthread-safety can see it.
///   guarded-by       a class holding a Mutex member must annotate every
///                    sibling mutable data member with OMEGA_GUARDED_BY
///                    (atomics, ConditionVariable, const and static
///                    members are exempt by construction).
///   string-keyed-vars  no std::map/std::unordered_map from std::string to
///                    BigInt/VarId in src/ outside the parser and the Var
///                    boundary (presburger/Parser.*, presburger/Var*) —
///                    variable valuations intern names into VarId
///                    (presburger/VarTable.h) and key on ids.
///   trace-span-temp  no unnamed-temporary TraceSpan: `TraceSpan("x");`
///                    dies immediately and times nothing.
///   header-guard     .h guards must spell the path: src/support/Cache.h
///                    guards with OMEGA_SUPPORT_CACHE_H.
///   include-hygiene  no ".." in quoted includes (include paths are rooted
///                    at src/), and no `using namespace` in headers.
///   thread-local     no thread_local in src/ without a suppression giving
///                    the reason: per-query state hangs off the one
///                    context pointer (support/QueryContext.h), so only
///                    per-thread recorder and memo storage may opt out.
///
/// A finding on line N is silenced by `// omegatidy: allow(rule)` on line
/// N or N-1 (so the comment can sit on its own line above the construct).
///
//===----------------------------------------------------------------------===//

#ifndef OMEGA_TOOLS_TIDYLINT_H
#define OMEGA_TOOLS_TIDYLINT_H

#include <string>
#include <vector>

namespace omega {
namespace tidy {

/// One rule violation at a source position (1-based line and column).
struct Finding {
  std::string Path;
  size_t Line = 0;
  size_t Col = 0;
  std::string Rule;
  std::string Message;

  /// Renders "path:line:col: rule: message".
  std::string toString() const;
};

/// Lints one file's text.  \p RelPath is the path relative to the repo
/// root ("src/support/Cache.h") — rules are scoped by it; \p Path is the
/// spelling to use in findings (usually what the user passed).
std::vector<Finding> lintSource(const std::string &Path,
                                const std::string &RelPath,
                                const std::string &Text);

/// The expected header-guard macro for a repo-relative header path:
/// "src/support/Cache.h" -> "OMEGA_SUPPORT_CACHE_H" (a leading src/ is
/// dropped; tools/, bench/, tests/ are kept).
std::string expectedHeaderGuard(const std::string &RelPath);

} // namespace tidy
} // namespace omega

#endif // OMEGA_TOOLS_TIDYLINT_H
