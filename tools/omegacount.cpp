//===- tools/omegacount.cpp - Command-line counter -----------------------===//
//
// Command-line front end for the library:
//
//   omegacount --vars i,j [options] "1 <= i,j <= n && 2*i <= 3*j"
//
// Prints the simplified disjoint DNF, the symbolic count (or polynomial
// sum), and optional evaluations.
//
// Options:
//   --vars a,b,c       counted variables (required for counting)
//   --file F           read a .presburger file instead of a formula
//                      argument (provides vars: unless --vars is given)
//   --sum "i"          sum this polynomial (product of vars and integers)
//                      instead of counting
//   --strategy S       splinter | mod | upper | lower | approx
//   --at n=5,m=3       evaluate the result at symbol values (repeatable)
//   --simplify-only    print the disjoint DNF and stop
//   --sample           print one concrete solution per --at
//   plus the shared pipeline flags of tools/Options.h:
//   --cache/--no-cache/--budget/--backend/--stats/--trace/--trace-summary
//
// Exit codes derive from the shared QueryOutcome vocabulary
// (support/Status.h, queryOutcomeExitCode): 0 = answered (exact,
// unbounded, or certified bounds); 1 = diagnostic (bad flags, malformed
// input, I/O failure, or budget exhausted with no bounds to give).  Never
// aborts on any text input.
//
//===----------------------------------------------------------------------===//

#include "counting/Set.h"
#include "counting/Summation.h"
#include "presburger/Parser.h"
#include "support/Budget.h"
#include "support/Stats.h"

#include "FormulaFile.h"
#include "Options.h"

#include <algorithm>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

using namespace omega;

namespace {

void fail(const std::string &Msg) {
  std::cerr << "omegacount: error: " << Msg << "\n";
  std::exit(1);
}

std::vector<std::string> splitList(const std::string &S) {
  std::vector<std::string> Out;
  std::istringstream IS(S);
  std::string Item;
  while (std::getline(IS, Item, ','))
    if (!Item.empty())
      Out.push_back(Item);
  return Out;
}

/// Prints an assignment's bindings as " name=value" in name order (the
/// Assignment itself iterates in id order).
void printBindings(const Assignment &At) {
  std::vector<std::pair<std::string, const BigInt *>> Rows;
  Rows.reserve(At.size());
  for (const auto &[V, Value] : At)
    Rows.emplace_back(varName(V), &Value);
  std::sort(Rows.begin(), Rows.end(),
            [](const auto &L, const auto &R) { return L.first < R.first; });
  for (const auto &[Name, Value] : Rows)
    std::cout << " " << Name << "=" << *Value;
}

Assignment parseBindings(const std::string &S) {
  Assignment Out;
  for (const std::string &Pair : splitList(S)) {
    size_t Eq = Pair.find('=');
    if (Eq == std::string::npos)
      fail("expected name=value in --at: " + Pair);
    BigInt V;
    if (!BigInt::fromString(Pair.substr(Eq + 1), V))
      fail("bad integer in --at: " + Pair);
    Out[Pair.substr(0, Eq)] = V;
  }
  return Out;
}

/// Parses a summand: '*'-separated factors, each a variable or integer,
/// '+'-separated terms.  E.g. "i*j + 2*i".
QuasiPolynomial parseSummand(const std::string &S) {
  QuasiPolynomial Sum;
  std::istringstream Terms(S);
  std::string Term;
  while (std::getline(Terms, Term, '+')) {
    QuasiPolynomial P(Rational(1));
    std::istringstream Factors(Term);
    std::string Factor;
    bool Any = false;
    while (std::getline(Factors, Factor, '*')) {
      // Trim whitespace.
      size_t B = Factor.find_first_not_of(" \t");
      size_t E = Factor.find_last_not_of(" \t");
      if (B == std::string::npos)
        continue;
      Factor = Factor.substr(B, E - B + 1);
      Any = true;
      BigInt C;
      if (BigInt::fromString(Factor, C))
        P *= Rational(C);
      else
        P *= QuasiPolynomial::variable(Factor);
    }
    if (Any)
      Sum += P;
  }
  if (Sum.isZero())
    fail("empty --sum polynomial");
  return Sum;
}

} // namespace

int runTool(int Argc, char **Argv) {
  std::vector<std::string> Vars;
  std::string SumText;
  std::vector<Assignment> Ats;
  SumOptions Opts;
  ToolOptions TO;
  bool SimplifyOnly = false, Sample = false;
  std::string FormulaText, FilePath;

  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (parseSharedOption(Argc, Argv, I, TO,
                          [](const std::string &M) { fail(M); }))
      continue;
    auto Next = [&]() -> std::string {
      if (++I >= Argc)
        fail("missing value after " + Arg);
      return Argv[I];
    };
    if (Arg == "--vars")
      Vars = splitList(Next());
    else if (Arg == "--file")
      FilePath = Next();
    else if (Arg == "--sum")
      SumText = Next();
    else if (Arg == "--at")
      Ats.push_back(parseBindings(Next()));
    else if (Arg == "--strategy") {
      std::string S = Next();
      if (S == "splinter")
        Opts.Strategy = BoundStrategy::Splinter;
      else if (S == "mod")
        Opts.Strategy = BoundStrategy::SymbolicMod;
      else if (S == "upper")
        Opts.Strategy = BoundStrategy::UpperBound;
      else if (S == "lower")
        Opts.Strategy = BoundStrategy::LowerBound;
      else if (S == "approx")
        Opts.Strategy = BoundStrategy::Approximate;
      else
        fail("unknown strategy: " + S);
    } else if (Arg == "--simplify-only")
      SimplifyOnly = true;
    else if (Arg == "--sample")
      Sample = true;
    else if (Arg == "--help" || Arg == "-h") {
      std::cout
          << "usage: omegacount --vars i,j [options] \"<formula>\"\n"
             "  --file F         read a .presburger file (vars: from the "
             "file unless --vars)\n"
             "  --sum POLY       sum POLY (e.g. \"i*j + 2*i\") over the "
             "solutions\n"
             "  --strategy S     splinter|mod|upper|lower|approx\n"
             "  --at n=5,m=3     evaluate the symbolic answer (repeatable)\n"
             "  --simplify-only  print disjoint DNF only\n"
             "  --sample         print one solution per --at binding\n"
          << sharedOptionsHelp();
      return 0;
    } else if (!Arg.empty() && Arg[0] == '-')
      fail("unknown option: " + Arg);
    else if (FormulaText.empty())
      FormulaText = Arg;
    else
      fail("multiple formulas given");
  }

  if (!FilePath.empty()) {
    if (!FormulaText.empty())
      fail("both --file and a formula argument given");
    FormulaFile In;
    std::string Err;
    if (!readFormulaFile(FilePath, In, Err))
      fail(FilePath + ": " + Err);
    FormulaText = In.FormulaText;
    if (Vars.empty())
      Vars = In.Vars;
  }
  if (FormulaText.empty())
    fail("no formula given (try --help)");
  configureToolProcess(TO);
  const EffortBudget &Budget = TO.Count.Budget;
  Formula F = Formula::trueFormula();
  {
    // Parse under the budget so oversized literals are rejected before any
    // arithmetic touches them (a parse diagnostic, not a throw).
    QueryScope Parse(Budget);
    ParseResult R = parseFormula(FormulaText);
    if (!R)
      fail("parse: " + R.Error);
    F = *R.Value;
  }
  startToolTrace(TO);

  // Every successful exit path funnels through here so the trace file and
  // stats land no matter which mode ran.
  auto Finish = [&]() -> int {
    int RC = finishToolTrace(TO, "omegacount") ? 0 : 1;
    if (TO.Stats)
      std::cerr << snapshotPipelineStats().toPretty();
    return RC;
  };

  if (TO.HaveBackend && !SimplifyOnly) {
    // Explicit --backend: route through the unified CountResult API and
    // report which backend answered (and why, under --backend=auto).
    if (Vars.empty())
      fail("--vars required for counting");
    VarSet VS(Vars.begin(), Vars.end());
    const char *What = SumText.empty() ? "count" : "sum";
    CountResult R = SumText.empty()
                        ? countSolutions(F, VS, TO.Count)
                        : sumPolynomial(F, VS, parseSummand(SumText),
                                        TO.Count);
    if (R.Status == CountStatus::Error) {
      std::cerr << "omegacount: error: " << R.Err.toString() << "\n";
      return queryOutcomeExitCode(R.outcome());
    }
    std::cout << "backend: " << R.Backend;
    if (!R.BackendReason.empty())
      std::cout << " (" << R.BackendReason << ")";
    std::cout << "\n";
    if (R.Status == CountStatus::Bounded) {
      std::cout << What << ": UNKNOWN (budget exhausted: " << R.TrippedLimit
                << ")\n";
      std::cout << "lower bound:\n  " << R.Lower << "\n";
      std::cout << "upper bound:\n  " << R.Upper << "\n";
    } else {
      std::cout << What << ":\n  " << R.Value << "\n";
      if (!R.Value.isUnbounded())
        for (const Assignment &At : Ats) {
          std::cout << "at";
          printBindings(At);
          std::cout << ": " << R.Value.evaluate(At).toString() << "\n";
        }
    }
    return Finish();
  }

  if (!Budget.unlimited()) {
    // Budgeted path: no separate DNF print (the exact simplification is
    // itself subject to the budget inside the budgeted summation).
    if (SimplifyOnly) {
      QueryScope Scope(Budget);
      SimplifyOptions SOpts;
      SOpts.Disjoint = true;
      std::vector<Conjunct> D = simplify(F, SOpts);
      std::cout << "disjoint DNF (" << D.size() << " clause"
                << (D.size() == 1 ? "" : "s") << "):\n";
      for (const Conjunct &C : D)
        std::cout << "  " << C << "\n";
      return Finish();
    }
    if (Vars.empty())
      fail("--vars required for counting");
    const char *What = SumText.empty() ? "count" : "sum";
    BudgetedCount BC =
        SumText.empty()
            ? countSolutionsBudgeted(F, VarSet(Vars.begin(), Vars.end()),
                                     Budget, Opts)
            : sumOverFormulaBudgeted(F, VarSet(Vars.begin(), Vars.end()),
                                     parseSummand(SumText), Budget, Opts);
    if (BC.Status == CountStatus::Error)
      fail(BC.Err.toString());
    if (BC.Status != CountStatus::Bounded) {
      std::cout << What << ":\n  " << BC.Value << "\n";
      if (!BC.Value.isUnbounded())
        for (const Assignment &At : Ats) {
          std::cout << "at";
          printBindings(At);
          std::cout << ": " << BC.Value.evaluate(At).toString() << "\n";
        }
      return Finish();
    }
    std::cout << What << ": UNKNOWN (budget exhausted: " << BC.TrippedLimit
              << ")\n";
    std::cout << "lower bound:\n  " << BC.Lower << "\n";
    std::cout << "upper bound:\n  " << BC.Upper << "\n";
    for (const Assignment &At : Ats) {
      std::cout << "at";
      printBindings(At);
      std::cout << ": in [" << BC.Lower.evaluate(At).toString() << ", "
                << (BC.Upper.isUnbounded()
                        ? std::string("unbounded")
                        : BC.Upper.evaluate(At).toString())
                << "]\n";
    }
    return Finish();
  }

  SimplifyOptions SOpts;
  SOpts.Disjoint = true;
  std::vector<Conjunct> D = simplify(F, SOpts);
  std::cout << "disjoint DNF (" << D.size() << " clause"
            << (D.size() == 1 ? "" : "s") << "):\n";
  for (const Conjunct &C : D)
    std::cout << "  " << C << "\n";
  if (SimplifyOnly) {
    return Finish();
  }

  if (Vars.empty())
    fail("--vars required for counting");
  PresburgerSet Set(Vars, F);

  PiecewiseValue V = SumText.empty()
                         ? Set.count(Opts)
                         : Set.sum(parseSummand(SumText), Opts);
  std::cout << (SumText.empty() ? "count" : "sum") << ":\n  " << V << "\n";
  if (V.isUnbounded()) {
    return Finish();
  }

  for (const Assignment &At : Ats) {
    std::cout << "at";
    printBindings(At);
    std::cout << ": " << V.evaluate(At).toString() << "\n";
    if (Sample) {
      if (std::optional<Assignment> P = Set.sample(At)) {
        std::cout << "  sample:";
        for (const std::string &Name : Vars)
          std::cout << " " << Name << "=" << P->at(Name);
        std::cout << "\n";
      } else {
        std::cout << "  sample: <empty>\n";
      }
    }
  }
  return Finish();
}

int main(int Argc, char **Argv) {
  // Nothing the user can type may abort the process: any escape —
  // including a budget trip during --simplify-only, where there is no
  // bounds fallback — becomes a one-line diagnostic and exit 1.
  try {
    return runTool(Argc, Argv);
  } catch (const BudgetExceeded &E) {
    std::cerr << "omegacount: error: " << E.toError().toString() << "\n";
  } catch (const std::exception &E) {
    std::cerr << "omegacount: error: " << E.what() << "\n";
  }
  return 1;
}
