//===- support/Budget.h - Effort budgets and cancellation ------*- C++ -*-===//
//
// Part of OmegaCount (reproduction of Pugh, PLDI 1994).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Resource budgets for counting queries, in the spirit of isl's
/// --max-operations.  An EffortBudget caps the structural quantities that
/// drive worst-case blowup in the Omega test — coefficient bit-width,
/// splinters per elimination (§2.3.3), DNF clauses (§5.3), recursion
/// depth (§4) — plus a wall-clock deadline.  Checks happen at the same
/// pipeline boundaries OMEGA_VALIDATE hooks; tripping any limit throws
/// BudgetExceeded and marks the query's BudgetState tripped, so any
/// checkpoint that still runs under it (an enclosing frame that catches
/// and carries on) throws the same limit again.
///
/// A budget is installed as part of the query context: a QueryScope built
/// from an EffortBudget (support/QueryContext.h) owns the BudgetState and
/// makes it active for its lifetime, and every charge below reads it
/// through the active context.
///
/// Determinism contract (DESIGN.md §9): the counter limits are charged
/// against per-instance or container-size quantities, and a query runs on
/// one thread, so whether a query trips, which limit it reports and the
/// partial progress visible afterwards are a pure function of the query.
/// DeadlineMs is the one inherently nondeterministic knob and is excluded
/// from determinism guarantees.
///
//===----------------------------------------------------------------------===//

#ifndef OMEGA_SUPPORT_BUDGET_H
#define OMEGA_SUPPORT_BUDGET_H

#include "support/Status.h"

#include <cstdint>
#include <stdexcept>
#include <string>

namespace omega {

/// Limits on a single counting query.  0 means unlimited for every knob.
struct EffortBudget {
  /// Largest bit-width of any constraint coefficient or constant the
  /// projector may produce while normalizing / eliminating.
  uint64_t MaxCoefficientBits = 0;
  /// Largest number of splinters one variable elimination may generate
  /// (§2.3.3 dark-shadow splintering; per Projector instance).
  uint64_t MaxSplintersPerElimination = 0;
  /// Largest number of clauses any DNF may hold during simplification or
  /// disjoint decomposition (§5.3).
  uint64_t MaxDnfClauses = 0;
  /// Deepest nesting of eliminations / summations (per instance).
  uint64_t MaxRecursionDepth = 0;
  /// Wall-clock deadline for the whole query, in milliseconds.
  /// Nondeterministic by nature; see the determinism contract above.
  uint64_t DeadlineMs = 0;

  [[nodiscard]] bool unlimited() const {
    return MaxCoefficientBits == 0 && MaxSplintersPerElimination == 0 &&
           MaxDnfClauses == 0 && MaxRecursionDepth == 0 && DeadlineMs == 0;
  }

  /// A copy with every non-zero counter knob multiplied by \p Factor and
  /// the deadline extended likewise, for the degraded bounds passes.
  [[nodiscard]] EffortBudget relaxed(uint64_t Factor) const;

  /// Parses "splinters=8,clauses=64,depth=12,bits=128,ms=500" (any subset,
  /// any order).  Keys: bits, splinters, clauses, depth, ms.
  [[nodiscard]] static Result<EffortBudget> parse(const std::string &Spec);

  /// Inverse of parse(); "unlimited" when every knob is 0.
  [[nodiscard]] std::string toString() const;
};

/// Thrown when an EffortBudget limit trips.
class BudgetExceeded : public std::runtime_error {
public:
  BudgetExceeded(std::string Limit, std::string Where)
      : std::runtime_error("budget exhausted at " + Where + ": " + Limit),
        Limit(std::move(Limit)), Where(std::move(Where)) {}

  /// Which knob tripped, e.g. "splinters=8".
  const std::string Limit;
  /// Pipeline boundary that noticed, e.g. "projection".
  const std::string Where;

  Error toError() const {
    return Error{ErrorKind::BudgetExhausted, Where, Limit, ""};
  }
};

/// State of one active budget: the limits plus the limit that tripped.
/// A BudgetState is owned by the QueryScope that installed it and is only
/// ever used by the thread that runs that scope, so it needs no atomics, no
/// mutex and no OMEGA_GUARDED_BY annotations (DESIGN.md §13).
struct BudgetState {
  explicit BudgetState(EffortBudget Limits);

  const EffortBudget Limits;
  /// The first limit that tripped, e.g. "splinters=8"; empty until then.
  /// Once set it never changes: every later checkpoint throws it.
  std::string TrippedLimit;
  /// Steady-clock expiry in nanoseconds since epoch; 0 when no deadline.
  const uint64_t DeadlineNanos;

  [[nodiscard]] bool tripped() const { return !TrippedLimit.empty(); }

  /// Records the trip and raises BudgetExceeded.
  [[noreturn]] void trip(const std::string &Limit, const std::string &Where);
};

/// The active context's budget, or null when none is installed.
BudgetState *activeBudget();

/// Cheap trip + deadline check; call at pipeline boundaries.  Throws
/// BudgetExceeded when the budget has already tripped or the deadline has
/// passed.  No-op without an active budget.
void budgetCheckpoint(const char *Where);

/// Charge helpers: each checks one knob against a current magnitude and
/// trips (throws) when the limit is exceeded.  All are no-ops without an
/// active budget, and all begin with a budgetCheckpoint so a tripped
/// budget stays tripped even when the local quantity is within limits.
void chargeSplinters(uint64_t Count, const char *Where);
void chargeClauses(uint64_t Count, const char *Where);
void chargeDepth(uint64_t Depth, const char *Where);
void chargeCoefficientBits(uint64_t Bits, const char *Where);

} // namespace omega

#endif // OMEGA_SUPPORT_BUDGET_H
