//===- counting/Summation.h - Symbolic sums over Presburger sets -*- C++ -*-===//
//
// Part of OmegaCount (reproduction of Pugh, PLDI 1994).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's primary contribution (§4): computing
///
///   (Σ V : P : x)   — the sum of polynomial x over all integer
///                     assignments to the variables V satisfying the
///                     Presburger formula P,
///
/// symbolically in the remaining free variables of P (the symbolic
/// constants).  (Σ V : P : 1) counts the solutions.  The answer is a
/// guarded piecewise quasi-polynomial (PiecewiseValue).
///
/// Pipeline: simplify P to *disjoint* DNF (§5) — so per-clause sums add —
/// then per clause: Smith-Normal-Form re-parameterization of equalities and
/// strides (§4.5.2, "projected sums"), then the convex-sum recursion of
/// §4.4 with the basic-sum rules of §4.1–4.3 and the rational-bound
/// strategies of §4.2.1.
///
//===----------------------------------------------------------------------===//

#ifndef OMEGA_COUNTING_SUMMATION_H
#define OMEGA_COUNTING_SUMMATION_H

#include "omega/Omega.h"
#include "poly/PiecewiseValue.h"
#include "support/Budget.h"
#include "support/Status.h"

namespace omega {

/// §4.2.1: how to handle a bound ceil(L/b) or floor(U/a) with a, b > 1.
enum class BoundStrategy {
  /// Splinter into residue cases (exact; default).
  Splinter,
  /// Keep a single piece whose value uses (e mod c) atoms; exact value,
  /// used when the bound depends only on symbolic constants (otherwise
  /// falls back to Splinter).  Guards may splinter on one residue when
  /// both bounds are rational (§4.2.2).
  SymbolicMod,
  /// Over-approximate the sum (upper bound; real-shadow guards).
  UpperBound,
  /// Under-approximate the sum (lower bound; dark-shadow guards).
  LowerBound,
  /// Midpoint of the two bound substitutions (the paper's "best guess").
  Approximate,
};

/// Options controlling a summation.
struct SumOptions {
  BoundStrategy Strategy = BoundStrategy::Splinter;
  /// §4.4 step 1 / conclusions: "Eliminating redundant constraints is
  /// useful".  Disable only for ablation studies — without it the
  /// convex-sum recursion splits on bounds that a feasibility test would
  /// have discharged, producing more terms.
  bool EliminateRedundant = true;
  /// Conclusions: "Summations over several variables should not presume an
  /// order in which to perform the summation".  When false, variables are
  /// summed in reverse-alphabetical order regardless of their bound
  /// structure (ablation of the §4.4 heuristic).
  bool FreeVariableOrder = true;
};

/// (Σ Vars : F : X).  Free variables of F and X outside Vars are the
/// symbolic constants of the answer.  Returns an unbounded marker if some
/// counted variable is not bounded both ways by F.
PiecewiseValue sumOverFormula(const Formula &F, const VarSet &Vars,
                              const QuasiPolynomial &X, SumOptions Opts = {});

/// (Σ Vars : F : 1): the number of solutions.
PiecewiseValue countSolutions(const Formula &F, const VarSet &Vars,
                              SumOptions Opts = {});

/// Sums X over one clause (already wildcard-free or with functional
/// wildcards, e.g. straight from simplify()).  Exposed for tests and for
/// callers that pre-simplify; clause unions must be disjoint for addition
/// of the results to be meaningful.
PiecewiseValue sumOverConjunct(const Conjunct &C, const VarSet &Vars,
                               const QuasiPolynomial &X, SumOptions Opts = {});

/// Outcome of a budgeted query (the degradation contract of DESIGN.md §9).
struct BudgetedCount {
  CountStatus Status = CountStatus::Error;
  /// The exact answer; valid when Status == Exact.
  PiecewiseValue Value;
  /// Certified bounds, valid when Status == Bounded:
  ///   Lower(s) <= true answer(s) <= Upper(s)  for every symbol binding s.
  /// Lower comes from the dark shadow (an under-approximating set summed
  /// with under-approximating bounds), Upper from the real shadow; Upper
  /// may be the unbounded marker when even the over-approximation
  /// diverges.
  PiecewiseValue Lower;
  PiecewiseValue Upper;
  /// Which budget knob tripped (e.g. "splinters=8"); set when Status is
  /// Bounded or Unbounded-after-trip, empty for a clean Exact run.
  std::string TrippedLimit;
  /// Valid when Status == Error.
  Error Err;
};

/// (Σ Vars : F : X) under \p Budget.  Runs the exact pipeline first; if a
/// budget limit trips, retries with §4.6-style approximations — real
/// shadow / BoundStrategy::UpperBound for the upper bound, dark shadow /
/// BoundStrategy::LowerBound for the lower — under a relaxed budget and a
/// naming frame of its own, so the degraded output is a function of the
/// query alone (the wall-clock deadline knob excepted).  For summands
/// other than 1 the bounds assume X is non-negative over the counted
/// region (the paper's setting).
BudgetedCount sumOverFormulaBudgeted(const Formula &F, const VarSet &Vars,
                                     const QuasiPolynomial &X,
                                     const EffortBudget &Budget,
                                     SumOptions Opts = {});

/// (Σ Vars : F : 1) under \p Budget: exact count, or certified bounds.
BudgetedCount countSolutionsBudgeted(const Formula &F, const VarSet &Vars,
                                     const EffortBudget &Budget,
                                     SumOptions Opts = {});

} // namespace omega

#endif // OMEGA_COUNTING_SUMMATION_H
