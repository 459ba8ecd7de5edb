//===- tests/DeterminismTest.cpp - Bit-identical results -----------------===//
//
// The determinism contract (DESIGN.md §8): cache state is a performance
// knob only — the piecewise answer must be *textually* identical for every
// configuration.  This runs a fuzz corpus plus every
// examples/formulas/*.presburger file twice with the cache on, each from a
// fully reset state (wildcard counters + cache), and once more with the
// cache disabled, comparing the printed results character for character.
//
//===----------------------------------------------------------------------===//

#include "FuzzGen.h"
#include "tools/FormulaFile.h"

#include "counting/Summation.h"
#include "omega/Omega.h"
#include "presburger/Parser.h"
#include "presburger/Var.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

using namespace omega;

namespace {

/// Counts \p Text over \p Vars under the given knobs from a reset state and
/// returns the printed piecewise answer.
std::string countToString(const std::string &Text,
                          const std::vector<std::string> &Vars,
                          bool CacheEnabled) {
  clearConjunctCache();
  resetWildcardState();
  ParseResult R = parseFormula(Text);
  EXPECT_TRUE(R) << R.Error << " in: " << Text;
  if (!R)
    return "<parse error>";
  CountOptions Opts;
  Opts.CacheEnabled = CacheEnabled;
  CountResult CR =
      countSolutions(*R.Value, VarSet(Vars.begin(), Vars.end()), Opts);
  EXPECT_NE(CR.Status, CountStatus::Error) << CR.Err.toString();
  return CR.Value.toString();
}

/// Asserts the answer for (Text, Vars) is identical on a repeated run from
/// a reset state and with the cache off.
void expectDeterministic(const std::string &Label, const std::string &Text,
                         const std::vector<std::string> &Vars) {
  SCOPED_TRACE(Label + ": " + Text);
  std::string Reference = countToString(Text, Vars, /*CacheEnabled=*/true);
  std::string Again = countToString(Text, Vars, /*CacheEnabled=*/true);
  EXPECT_EQ(Again, Reference) << "repeated run diverged";
  std::string NoCache = countToString(Text, Vars, /*CacheEnabled=*/false);
  EXPECT_EQ(NoCache, Reference) << "cache-off diverged";
}

TEST(Determinism, FuzzCorpus) {
  fuzz::Generator Gen(/*Seed=*/7);
  for (int Case = 0; Case < 40; ++Case) {
    fuzz::FuzzCase FC = Gen.next();
    expectDeterministic("fuzz case " + std::to_string(Case), FC.Text,
                        FC.Vars);
  }
}

TEST(Determinism, ExampleFormulas) {
  namespace fs = std::filesystem;
  std::vector<std::string> Paths;
  for (const fs::directory_entry &E : fs::directory_iterator(EXAMPLES_DIR))
    if (E.path().extension() == ".presburger")
      Paths.push_back(E.path().string());
  std::sort(Paths.begin(), Paths.end());
  ASSERT_FALSE(Paths.empty()) << "no .presburger files under " << EXAMPLES_DIR;

  for (const std::string &Path : Paths) {
    FormulaFile FF;
    std::string Err;
    ASSERT_TRUE(readFormulaFile(Path, FF, Err)) << Path << ": " << Err;
    expectDeterministic(Path, FF.FormulaText, FF.Vars);
  }
}

} // namespace
