//===- perfbench/src/Bench.h - Shared benchmark types -----------*- C++ -*-===//
//
// Part of OmegaCount (reproduction of Pugh, PLDI 1994).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Types shared by the benchmark's workload generators, reference checker,
/// wire client and runs.  See perfbench/README.md for what the
/// benchmark measures and why.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include "omega/Omega.h"
#include "support/Rational.h"

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using omega::BackendKind;
using omega::BigInt;
using omega::PiecewiseValue;

/// Symbol values of one check point, in Query::Syms order.
using Point = std::vector<int64_t>;
/// Inclusive per-variable enumeration bounds, in Query::Vars order.
using Box = std::vector<std::pair<int64_t, int64_t>>;

/// What a query is for in the omegad_mixed traffic mix.
enum class Role { Fresh, Repeat, Dense, Budgeted };

/// One generated counting query plus everything the independent reference
/// needs to check its answer.  The program under test only ever sees Text,
/// Vars and the request options.
struct Query {
  Query() = default;
  Query(std::string Shape, std::string Text, std::vector<std::string> Vars,
        std::vector<std::string> Syms)
      : Shape(std::move(Shape)), Text(std::move(Text)), Vars(std::move(Vars)),
        Syms(std::move(Syms)) {}

  std::string Shape; ///< Which paper row / family the query instantiates.
  std::string Text;  ///< Formula text handed to parseFormula / the wire.
  std::vector<std::string> Vars; ///< Counted variables.
  std::vector<std::string> Syms; ///< Symbolic constants (check-point order).

  /// Enumeration box of the counted variables at a check point; it must
  /// hold every solution.  Quantifier witnesses are searched in
  /// [WitnessLo, WitnessHi].
  std::function<Box(const Point &)> BoxAt;
  int64_t WitnessLo = 0, WitnessHi = 0;

  /// Seeded check points (enumerated), and the symbol range searched for
  /// extra points when an answer piece's guard holds at none of them.
  std::vector<Point> Points;
  int64_t SymLo = 0, SymHi = 0;
  /// The paper's hand-written closed-form values: compared directly,
  /// without enumeration (the points are too large to sweep).
  std::vector<std::pair<Point, BigInt>> Hand;

  // Request options (CountOptions fields the workload varies).
  BackendKind Backend = BackendKind::Pugh;
  std::string Budget; ///< EffortBudget spec; "" = unbudgeted.
  uint64_t BudgetMs = 0;
  Role Kind = Role::Fresh;
};

// Workload generators (Workloads.cpp).  Query \p I of a stream is a pure
// function of (Seed, I).
Query paperMixQuery(uint64_t Seed, uint64_t I);
Query dnfBlowupQuery(uint64_t Seed, uint64_t I);
/// Appends to client \p Client's omegad_mixed stream until it holds
/// \p Count queries.  Repeats copy an earlier query of the same stream.
void extendOmegadStream(uint64_t Seed, unsigned Client, size_t Count,
                        std::vector<Query> &Stream);
/// The number of distinct paper_mix shapes (one round-robin block).
size_t paperMixShapeCount();
/// The 9-point 0-1 stencil of X14, which does not finish (README.md).
Query nineStencilProbe();
/// The fixed query every workload's set-up warms the pipeline with.
Query warmupQuery();

// Independent reference (Reference.cpp).  Never calls the pugh pipeline:
// counts come from sweeping the query's box with baselines' evaluateInBox.

/// An answer as the checker sees it: its value at a symbol point, the
/// guards of its pieces, and whether it is the unbounded marker.  Built
/// from an in-process PiecewiseValue or from the printed text a wire
/// response carries.  Views refer to their Query, which must outlive them.
struct AnswerView {
  bool Unbounded = false;
  size_t Pieces = 0; ///< Guarded pieces, as answer_pieces counts them.
  /// False when the value cannot be evaluated at the point.
  std::function<bool(const Point &, omega::Rational &)> At;
  std::vector<std::function<bool(const Point &)>> Guards;
};
AnswerView viewOf(const Query &Q, const PiecewiseValue &V);
/// False when \p Text is not a printed PiecewiseValue over Q's symbols.
bool viewOfPrinted(const Query &Q, const std::string &Text, AnswerView &Out);

/// The check points an answer is evaluated at: Q.Points, plus one point
/// per answer piece whose guard holds at none of them.
std::vector<Point> checkPoints(const Query &Q, const AnswerView &V);

/// Verdict of comparing one answer against the reference.
struct Verdict {
  bool Ok = true;
  std::string Why; ///< First mismatch, for the diagnostic line.
};
/// Exact answer \p V against enumeration at every check point and against
/// the hand-written paper values.
Verdict checkExact(const Query &Q, const omega::Formula &F,
                   const AnswerView &V);
/// Certified bounds: Lower <= truth <= Upper at every check point.
Verdict checkBounds(const Query &Q, const omega::Formula &F,
                    const AnswerView &Lower, const AnswerView &Upper);
/// Assignment of \p P to \p Q's symbols.
omega::Assignment bindSymbols(const Query &Q, const Point &P);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
