//===- tests/OmegatidyTest.cpp - omegatidy lint engine tests -------------===//
//
// Rule-by-rule coverage of tools/TidyLint.h on inline snippets, plus the
// on-disk fixture pair under tests/lint/: the dirty tree must produce
// exactly the expected findings and the clean tree none.
//
//===----------------------------------------------------------------------===//

#include "TidyLint.h"

#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

using omega::tidy::Finding;
using omega::tidy::lintSource;

namespace {

std::vector<Finding> lint(const std::string &RelPath,
                          const std::string &Text) {
  return lintSource(RelPath, RelPath, Text);
}

/// The rules reported, in position order.
std::vector<std::string> rulesOf(const std::vector<Finding> &Fs) {
  std::vector<std::string> Out;
  for (const Finding &F : Fs)
    Out.push_back(F.Rule);
  return Out;
}

bool hasRule(const std::vector<Finding> &Fs, const std::string &Rule) {
  for (const Finding &F : Fs)
    if (F.Rule == Rule)
      return true;
  return false;
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  EXPECT_TRUE(In.good()) << "missing fixture: " << Path;
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

TEST(Omegatidy, AssertFlaggedInSrcOnly) {
  const std::string Code = "void f() { assert(x > 0); }\n";
  EXPECT_EQ(rulesOf(lint("src/poly/F.cpp", Code)),
            std::vector<std::string>{"assert"});
  // Outside src/ the rule does not apply (tests assert freely).
  EXPECT_TRUE(lint("tests/F.cpp", Code).empty());
  // static_assert is a different token and always fine.
  EXPECT_TRUE(lint("src/poly/F.cpp", "static_assert(sizeof(int) == 4);\n")
                  .empty());
}

TEST(Omegatidy, CassertIncludeFlagged) {
  EXPECT_EQ(rulesOf(lint("src/a/B.cpp", "#include <cassert>\n")),
            std::vector<std::string>{"assert"});
  EXPECT_TRUE(lint("bench/B.cpp", "#include <cassert>\n").empty());
}

TEST(Omegatidy, CommentsAndStringsDoNotTrigger) {
  EXPECT_TRUE(lint("src/a/B.cpp",
                   "// assert(x) in prose\n"
                   "/* new int */\n"
                   "const char *S = \"assert(new std::mutex)\";\n")
                  .empty());
}

TEST(Omegatidy, NakedNewAndMallocFamily) {
  EXPECT_EQ(rulesOf(lint("src/a/B.cpp", "int *P = new int;\n")),
            std::vector<std::string>{"naked-new"});
  EXPECT_EQ(rulesOf(lint("tools/t.cpp", "void *P = malloc(8);\n")),
            std::vector<std::string>{"naked-new"});
  EXPECT_EQ(rulesOf(lint("tools/t.cpp", "std::free(P);\n")),
            std::vector<std::string>{"naked-new"});
  // BigInt.cpp spill paths are exempt wholesale.
  EXPECT_TRUE(
      lint("src/support/BigInt.cpp", "Limb *P = new Limb[N];\n").empty());
  // Declaring the allocator operators is not using naked new.
  EXPECT_TRUE(
      lint("src/a/B.cpp", "void *operator new(std::size_t N);\n").empty());
}

TEST(Omegatidy, SuppressionCoversLineAndNextLine) {
  EXPECT_TRUE(lint("src/a/B.cpp",
                   "// justified. omegatidy: allow(naked-new)\n"
                   "int *P = new int;\n")
                  .empty());
  EXPECT_TRUE(
      lint("src/a/B.cpp", "int *P = new int; // omegatidy: allow(naked-new)\n")
          .empty());
  // The wrong rule name does not silence the finding.
  EXPECT_EQ(rulesOf(lint("src/a/B.cpp",
                         "// omegatidy: allow(assert)\n"
                         "int *P = new int;\n")),
            std::vector<std::string>{"naked-new"});
}

TEST(Omegatidy, PlacementNewIsNotNakedNew) {
  // Placement new constructs into storage the caller already owns; it
  // performs no allocation, so the naked-new rule stays silent.
  EXPECT_TRUE(lint("src/a/B.cpp", "new (Slot) Term{V, C};\n").empty());
  EXPECT_TRUE(lint("src/a/B.cpp", "::new (P + I) BigInt(X);\n").empty());
  EXPECT_EQ(rulesOf(lint("src/a/B.cpp", "int *P = new int;\n")),
            std::vector<std::string>{"naked-new"});
}

TEST(Omegatidy, StringKeyedVariableContainers) {
  const std::string Code = "std::map<std::string, BigInt> Coeffs;\n";
  EXPECT_EQ(rulesOf(lint("src/counting/S.cpp", Code)),
            std::vector<std::string>{"string-keyed-vars"});
  EXPECT_TRUE(hasRule(lint("src/omega/P.cpp",
                           "std::unordered_map<std::string, VarId> Ids;\n"),
                      "string-keyed-vars"));
  EXPECT_TRUE(hasRule(lint("src/omega/P.cpp",
                           "std::map<std::string, omega::BigInt> M;\n"),
                      "string-keyed-vars"));
  // The parser and the Var boundary are the blessed homes of name maps.
  EXPECT_TRUE(lint("src/presburger/Parser.cpp", Code).empty());
  EXPECT_TRUE(lint("src/presburger/VarTable.cpp", Code).empty());
  EXPECT_TRUE(lint("src/presburger/Var.h",
                   "#ifndef OMEGA_PRESBURGER_VAR_H\n"
                   "#define OMEGA_PRESBURGER_VAR_H\n" +
                       Code + "#endif\n")
                  .empty());
  // Outside src/ (tools, tests, bench) name maps face the user and are fine.
  EXPECT_TRUE(lint("tools/t.cpp", Code).empty());
  // Id-keyed and string-to-string maps are not variable valuations.
  EXPECT_TRUE(
      lint("src/counting/S.cpp", "std::map<VarId, BigInt> M;\n").empty());
  EXPECT_TRUE(lint("src/counting/S.cpp",
                   "std::map<std::string, std::string> Renames;\n")
                  .empty());
  // Suppressible like every rule.
  EXPECT_TRUE(lint("src/counting/S.cpp",
                   "// omegatidy: allow(string-keyed-vars)\n" + Code)
                  .empty());
}

TEST(Omegatidy, RawSynchronizationTypesFlagged) {
  for (const char *Bad :
       {"std::mutex M;\n", "std::lock_guard<std::mutex> L(M);\n",
        "std::condition_variable Cv;\n"})
    EXPECT_TRUE(hasRule(lint("src/a/B.cpp", Bad), "mutex-wrapper")) << Bad;
  EXPECT_EQ(rulesOf(lint("src/a/B.cpp", "#include <mutex>\n")),
            std::vector<std::string>{"mutex-wrapper"});
  // The annotation layer itself is the one blessed home of the raw types.
  EXPECT_TRUE(lint("src/support/ThreadAnnotations.h",
                   "#ifndef OMEGA_SUPPORT_THREADANNOTATIONS_H\n"
                   "#define OMEGA_SUPPORT_THREADANNOTATIONS_H\n"
                   "#include <mutex>\nstd::mutex M;\n#endif\n")
                  .empty());
  // The wrappers are fine anywhere.
  EXPECT_TRUE(
      lint("src/a/B.cpp", "Mutex M;\nMutexLock Lock(M);\n").empty());
}

TEST(Omegatidy, GuardedByRequiredNextToMutex) {
  const std::string Unguarded = "class C {\n"
                                "  Mutex M;\n"
                                "  int Hits = 0;\n"
                                "};\n";
  std::vector<Finding> Fs = lint("src/a/B.cpp", Unguarded);
  ASSERT_EQ(rulesOf(Fs), std::vector<std::string>{"guarded-by"});
  EXPECT_EQ(Fs[0].Line, 3u);
  EXPECT_NE(Fs[0].Message.find("'Hits'"), std::string::npos);

  // Annotated, atomic, const, static, ConditionVariable, and function
  // members are all acceptable siblings.
  EXPECT_TRUE(lint("src/a/B.cpp",
                   "class C {\n"
                   "  mutable Mutex M;\n"
                   "  int Hits OMEGA_GUARDED_BY(M) = 0;\n"
                   "  std::vector<int> Log OMEGA_GUARDED_BY(M);\n"
                   "  std::atomic<int> Peeks{0};\n"
                   "  ConditionVariable Cv;\n"
                   "  const int Cap = 4;\n"
                   "  static int Global;\n"
                   "  int size() const;\n"
                   "};\n")
                  .empty());

  // A class without a Mutex member owes nothing.
  EXPECT_TRUE(lint("src/a/B.cpp", "class C { int X = 0; };\n").empty());
}

TEST(Omegatidy, GuardedBySeesThroughTemplatesAndBraceInit) {
  // The function-pointer-ish template argument must not read as a
  // function declaration, and brace-init must not end the statement.
  std::vector<Finding> Fs =
      lint("src/a/B.cpp", "struct S {\n"
                          "  Mutex M;\n"
                          "  std::function<void(int)> Fn;\n"
                          "  std::atomic<bool> Stop{false};\n"
                          "};\n");
  ASSERT_EQ(rulesOf(Fs), std::vector<std::string>{"guarded-by"});
  EXPECT_NE(Fs[0].Message.find("'Fn'"), std::string::npos);
}

TEST(Omegatidy, TraceSpanTemporaries) {
  EXPECT_EQ(rulesOf(lint("src/a/B.cpp", "TraceSpan(\"phase\");\n")),
            std::vector<std::string>{"trace-span-temp"});
  EXPECT_EQ(rulesOf(lint("src/a/B.cpp", "omega::TraceSpan{\"phase\"};\n")),
            std::vector<std::string>{"trace-span-temp"});
  EXPECT_TRUE(
      lint("src/a/B.cpp", "TraceSpan Span(\"phase\");\n").empty());
  // Trace.{h,cpp} declare the constructors; exempt.
  EXPECT_TRUE(
      lint("src/support/Trace.h",
           "#ifndef OMEGA_SUPPORT_TRACE_H\n#define OMEGA_SUPPORT_TRACE_H\n"
           "TraceSpan(const char *Name);\n#endif\n")
          .empty());
}

TEST(Omegatidy, HeaderGuardSpellsThePath) {
  EXPECT_EQ(omega::tidy::expectedHeaderGuard("src/support/Cache.h"),
            "OMEGA_SUPPORT_CACHE_H");
  EXPECT_EQ(omega::tidy::expectedHeaderGuard("tools/Options.h"),
            "OMEGA_TOOLS_OPTIONS_H");
  EXPECT_EQ(omega::tidy::expectedHeaderGuard("src/support/BigInt.h"),
            "OMEGA_SUPPORT_BIGINT_H");

  EXPECT_TRUE(lint("src/a/Good.h",
                   "#ifndef OMEGA_A_GOOD_H\n#define OMEGA_A_GOOD_H\n"
                   "#endif\n")
                  .empty());
  EXPECT_EQ(rulesOf(lint("src/a/Bad.h",
                         "#ifndef WRONG_H\n#define WRONG_H\n#endif\n")),
            std::vector<std::string>{"header-guard"});
  EXPECT_EQ(rulesOf(lint("src/a/None.h", "int x;\n")),
            std::vector<std::string>{"header-guard"});
  // Mismatched #define counts as an incomplete guard.
  EXPECT_EQ(rulesOf(lint("src/a/Mismatch.h",
                         "#ifndef OMEGA_A_MISMATCH_H\n#define OTHER_H\n"
                         "#endif\n")),
            std::vector<std::string>{"header-guard"});
}

TEST(Omegatidy, IncludeHygiene) {
  EXPECT_EQ(rulesOf(lint("src/a/B.cpp", "#include \"../support/X.h\"\n")),
            std::vector<std::string>{"include-hygiene"});
  EXPECT_EQ(rulesOf(lint("src/a/B.h",
                         "#ifndef OMEGA_A_B_H\n#define OMEGA_A_B_H\n"
                         "using namespace omega;\n#endif\n")),
            std::vector<std::string>{"include-hygiene"});
  // `using namespace` in a .cpp is idiomatic here.
  EXPECT_TRUE(lint("src/a/B.cpp", "using namespace omega;\n").empty());
}

TEST(Omegatidy, FindingRendersPositioned) {
  std::vector<Finding> Fs =
      lint("src/a/B.cpp", "\n  int *P = new int;\n");
  ASSERT_EQ(Fs.size(), 1u);
  EXPECT_EQ(Fs[0].Line, 2u);
  EXPECT_EQ(Fs[0].Col, 12u);
  EXPECT_EQ(Fs[0].toString().rfind("src/a/B.cpp:2:12: naked-new:", 0), 0u);
}

TEST(Omegatidy, LegacyKnobSettersBanned) {
  // The retired global setters are flagged in every tree, qualified or not:
  // the replacement is per-query CountOptions / ServerOptions.
  EXPECT_EQ(rulesOf(lint("src/a/B.cpp", "void f() { setWorkerCount(2); }\n")),
            std::vector<std::string>{"legacy-knob"});
  EXPECT_EQ(rulesOf(lint("tools/t.cpp",
                         "omega::setConjunctCacheCapacity(1 << 10);\n")),
            std::vector<std::string>{"legacy-knob"});
  EXPECT_EQ(rulesOf(lint("bench/b.cpp", "setArithOpCounting(true);\n")),
            std::vector<std::string>{"legacy-knob"});
  // Mentions in comments or strings stay silent, like every other rule.
  EXPECT_TRUE(lint("src/a/B.cpp",
                   "// setWorkerCount was removed; see DESIGN.md\n"
                   "const char *S = \"setArithOpCounting\";\n")
                  .empty());
  // Suppression machinery applies.
  EXPECT_TRUE(lint("src/a/B.cpp",
                   "setWorkerCount(2); // omegatidy: allow(legacy-knob)\n")
                  .empty());
}

TEST(Omegatidy, ThreadLocalNeedsAReason) {
  const std::string Code = "thread_local unsigned Depth = 0;\n";
  EXPECT_EQ(rulesOf(lint("src/omega/C.cpp", Code)),
            std::vector<std::string>{"thread-local"});
  EXPECT_EQ(rulesOf(lint("src/a/B.cpp", "inline thread_local int *P;\n")),
            std::vector<std::string>{"thread-local"});
  // Per-thread storage that says why it is not per-query state passes.
  EXPECT_TRUE(lint("src/omega/C.cpp",
                   "// omegatidy: allow(thread-local) per-thread memo\n" +
                       Code)
                  .empty());
  // Tests, tools and benches may keep per-thread state freely.
  EXPECT_TRUE(lint("tests/T.cpp", Code).empty());
  EXPECT_TRUE(lint("bench/b.cpp", Code).empty());
}

// --- On-disk fixtures ----------------------------------------------------

TEST(OmegatidyFixtures, DirtyTreeFindsEverything) {
  const std::string Dir = OMEGA_LINT_FIXTURES "/dirty/src/support/";
  std::vector<Finding> Header =
      lintSource("Dirty.h", "src/support/Dirty.h", readFile(Dir + "Dirty.h"));
  std::vector<std::string> HeaderRuleList = rulesOf(Header);
  std::multiset<std::string> HeaderRules(HeaderRuleList.begin(),
                                         HeaderRuleList.end());
  EXPECT_EQ(HeaderRules,
            (std::multiset<std::string>{
                "assert",          // #include <cassert>
                "guarded-by",      // Count
                "guarded-by",      // Capacity
                "header-guard",    // WRONG_GUARD_H
                "include-hygiene", // "../escape/Path.h"
                "include-hygiene", // using namespace in header
                "mutex-wrapper",   // #include <mutex>
                "mutex-wrapper",   // std::mutex member
                "string-keyed-vars", // std::map<std::string, BigInt>
                "string-keyed-vars", // std::unordered_map<std::string, VarId>
            }));

  std::vector<Finding> Impl = lintSource("Dirty.cpp", "src/support/Dirty.cpp",
                                         readFile(Dir + "Dirty.cpp"));
  std::vector<std::string> ImplRuleList = rulesOf(Impl);
  std::multiset<std::string> ImplRules(ImplRuleList.begin(),
                                       ImplRuleList.end());
  EXPECT_EQ(ImplRules, (std::multiset<std::string>{
                           "assert",          // #include <assert.h>
                           "assert",          // assert(2 + 2 == 4)
                           "legacy-knob",     // setWorkerCount(4)
                           "legacy-knob",     // omega::setConjunctCacheCapacity
                           "legacy-knob",     // setArithOpCounting(true)
                           "naked-new",       // new int(3)
                           "naked-new",       // malloc(16)
                           "naked-new",       // free(Buf)
                           "thread-local",    // PerQueryDepth
                           "trace-span-temp", // TraceSpan("phase")
                           "trace-span-temp", // omega::TraceSpan("sub")
                       }));
}

TEST(OmegatidyFixtures, CleanTreeIsClean) {
  const std::string Path =
      OMEGA_LINT_FIXTURES "/clean/src/support/Clean.h";
  std::vector<Finding> Fs =
      lintSource("Clean.h", "src/support/Clean.h", readFile(Path));
  EXPECT_TRUE(Fs.empty()) << Fs[0].toString();
}

} // namespace
