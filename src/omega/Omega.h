//===- omega/Omega.h - The Omega test ---------------------------*- C++ -*-===//
//
// Part of OmegaCount (reproduction of Pugh, PLDI 1994).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Omega test (§2 of the paper; algorithms from Pugh, CACM 1992):
/// exact integer projection (variable elimination) with dark shadows and
/// splinters, integer feasibility, redundant-constraint removal, the gist
/// operator, and simplification of arbitrary Presburger formulas into
/// (optionally disjoint) disjunctive normal form.
///
/// Invariant maintained by every function here: input Conjuncts may carry
/// wildcards, but *returned* Conjuncts never do — existential structure is
/// projected into stride constraints.  This is the paper's "stride format";
/// Conjunct::stridesToWildcards recovers the "projected format" (§2.1).
///
//===----------------------------------------------------------------------===//

#ifndef OMEGA_OMEGA_OMEGA_H
#define OMEGA_OMEGA_OMEGA_H

#include "poly/PiecewiseValue.h"
#include "presburger/Conjunct.h"
#include "presburger/Formula.h"
#include "support/Budget.h"
#include "support/Stats.h"
#include "support/Status.h"
#include "support/Trace.h"

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

namespace omega {

/// How to treat an elimination step that cannot be done exactly with a
/// single clause (§2.1, §4.6, Figure 1).
enum class ShadowMode {
  /// Dark shadow plus overlapping splinters: exact, clauses may overlap.
  Exact,
  /// Dark shadow plus disjoint splinters (Figure 1): exact, clauses are
  /// pairwise disjoint.
  Disjoint,
  /// Real shadow only: an over-approximation (superset of solutions).
  Real,
  /// Dark shadow only: an under-approximation (subset of solutions).
  Dark,
};

/// Existentially eliminates \p Vars (plus any wildcards of \p C) from \p C.
/// The result is a union of wildcard-free clauses over the remaining
/// variables; with ShadowMode::Exact or Disjoint the union is exactly
/// ∃ Vars . C, with Real/Dark it is an over-/under-approximation.
std::vector<Conjunct> projectVars(const Conjunct &C, const VarSet &Vars,
                                  ShadowMode Mode = ShadowMode::Exact);

/// True iff \p C has an integer solution (all variables treated as
/// existentially quantified).
bool feasible(const Conjunct &C);

/// Normalizes every constraint of \p C (GCD reduction, inequality
/// tightening, stride canonicalization), dropping trivially true
/// constraints and duplicates.  Returns false iff the clause is proven
/// infeasible in the process.
bool normalizeConjunct(Conjunct &C);

/// True iff \p Values (binding all free variables of \p C) satisfies C;
/// wildcards are resolved by the Omega test.
bool containsPoint(const Conjunct &C, const Assignment &Values);

/// Finds an integer solution of \p C (binding its free variables), or
/// nullopt if none exists.  Unbounded directions are resolved near the
/// clause's bounds (or zero); wildcards are not reported.
std::optional<Assignment> samplePoint(const Conjunct &C);

/// Removes redundant constraints from \p C in place.  The cheap pass drops
/// constraints made redundant by a single other constraint; with
/// \p Aggressive the complete (feasibility-based) test is used (§2.3).
void removeRedundant(Conjunct &C, bool Aggressive = false);

/// True iff every integer point of \p P satisfies \p Q (§2.4).  Both
/// clauses may share variables by name; wildcard-free inputs required.
bool implies(const Conjunct &P, const Conjunct &Q);

/// Single-constraint implication: true iff every integer point of \p P
/// satisfies \p K — exactly implies(P, {K}) without building the
/// one-constraint clause.  The inner loop of clause coalescing.
bool impliesConstraint(const Conjunct &P, const Constraint &K);

/// The gist operator (§2.3): a minimal subset G of P's constraints with
/// G ∧ Q ≡ P ∧ Q.
Conjunct gist(const Conjunct &P, const Conjunct &Q);

/// Negates a wildcard-free clause into a union of *pairwise disjoint*
/// wildcard-free clauses (used by simplification and §5.3).
std::vector<Conjunct> negateConjunct(const Conjunct &C);

/// Options for simplify().
struct SimplifyOptions {
  /// Produce disjoint disjunctive normal form (§5).
  bool Disjoint = false;
  /// Exact, over-approximate (Real) or under-approximate (Dark)
  /// simplification (§4.6).  Disjoint requires Exact.
  ShadowMode Mode = ShadowMode::Exact;
};

/// Simplifies an arbitrary Presburger formula into DNF over wildcard-free
/// clauses (§2.6).  Infeasible clauses are dropped, redundant constraints
/// removed, and subsumed clauses deleted.
std::vector<Conjunct> simplify(const Formula &F, SimplifyOptions Opts = {});

/// Alpha-renames free occurrences of the map's keys (quantifier-aware).
Formula renameFreeVars(const Formula &F,
                       const std::map<std::string, std::string> &Map);

/// Converts a (possibly overlapping) union of clauses into an equivalent
/// union of pairwise disjoint clauses (§5.3).
std::vector<Conjunct> makeDisjoint(std::vector<Conjunct> Clauses);

/// True iff no two clauses overlap (share an integer point); all free
/// variables are implicitly universally ranged.  Exposed for tests.
bool pairwiseDisjoint(const std::vector<Conjunct> &Clauses);

/// If a single clause equal to A ∨ B exists among the constraints the two
/// clauses share (each implied by the other side), returns it.  Used to
/// tidy unions, e.g. [1,4] ∨ [5,9] -> [1,9].
std::optional<Conjunct> coalescePair(const Conjunct &A, const Conjunct &B);

/// Repeatedly applies coalescePair across the union; preserves the union
/// exactly (and disjointness, since a merged clause equals the union of
/// the clauses it replaces).
void coalesceClauses(std::vector<Conjunct> &Clauses);

//===----------------------------------------------------------------------===//
// Conjunct memoization (omega/Cache.cpp)
//
// feasible() and projectVars() memoize results keyed by the clause's
// canonical form (canonicalConjunct) — plus the target-variable set and
// shadow mode for projection, since those change the answer.  Projections
// live in one process-wide LRU cache; feasibility answers live in a small
// direct-mapped table owned by the calling thread, with no lock on lookup
// or insert.  Cached values are computed from the canonical form under a
// pinned naming frame, so they are pure functions of the key and safe to
// share across threads and shadow modes (DESIGN.md §8).
//===----------------------------------------------------------------------===//

/// Process-wide statistics over the projection cache and the feasibility
/// tables of every thread.
struct ConjunctCacheStats {
  uint64_t Hits = 0;
  uint64_t Misses = 0;
  uint64_t Evictions = 0;
  size_t Entries = 0; ///< Current number of cached results.
};

/// Configures the cache *storage*: the projection cache holds at most
/// \p Capacity entries (shrinking evicts LRU entries immediately), and each
/// thread's feasibility table gets the largest power of two <=
/// max(Capacity / 4, 1) slots.  0 disables memoization entirely (every query
/// recomputes).  Bumps the memo epoch: every thread's feasibility table is
/// emptied and resized on its next access.  Whether an individual query
/// participates is per-query (CountOptions::CacheEnabled).  Long-running
/// hosts (omegad) call this once at startup; queries then share the warm
/// projection cache across requests.
void configureConjunctCache(size_t Capacity);
size_t conjunctCacheCapacity();

/// Drops all cached results and resets hit/miss/eviction counters.  Callers
/// comparing runs (determinism tests, benchmarks) should clear between runs
/// so each run does the same work.  Other threads' feasibility tables are
/// emptied lazily, by their owners, but count as empty from here on.
void clearConjunctCache();

/// Hits, misses and evictions since the last clear, summed over the
/// projection cache and every thread's feasibility table, including the
/// tables of threads that have exited (parked for reuse, or freed); Entries
/// counts the projection cache and the tables still held.  Takes the memo
/// registry lock, never a per-thread one.
ConjunctCacheStats conjunctCacheStats();

namespace detail {
/// Uncached implementations (omega/Project.cpp).  The public feasible() /
/// projectVars() wrap these with the conjunct cache; everything else should
/// go through the public entry points.
bool feasibleImpl(const Conjunct &C);
std::vector<Conjunct> projectVarsImpl(const Conjunct &C, const VarSet &Vars,
                                      ShadowMode Mode);
} // namespace detail

//===----------------------------------------------------------------------===//
// Unified query API (counting/Query.cpp)
//
// One options-taking entry point for every counting/summation query.  The
// legacy global-knob setters (setWorkerCount, setConjunctCacheCapacity,
// setArithOpCounting) are gone: a query's CountOptions translate into a
// QueryContext (support/QueryContext.h) installed for the query's
// duration, so the entry points are re-entrant — concurrent queries on
// different threads (omegad sessions, countBatch hosts) run with
// independent knobs and independent stats, mutating no process state.
// A query runs start to finish on the thread that issued it.  The only
// process-wide pieces left are deliberate: the conjunct cache storage
// (configureConjunctCache above), and the global counters that per-query
// stats fold into.
//===----------------------------------------------------------------------===//

/// Which counting algorithm answers a query (counting/Backend.h).  The
/// three concrete backends share no counting code: Pugh is the paper's
/// splinter-summation pipeline (symbolic, total), Automaton counts
/// accepting paths of a product of per-constraint binary DFAs (concrete
/// bounded sets), Enumerate sweeps a derived bounding box (concrete small
/// sets).  Auto picks per query with a cheap heuristic and falls back to
/// Pugh whenever the preferred backend refuses.
enum class BackendKind {
  Pugh,      ///< §4 splinter summation: symbolic, budgeted, total.
  Automaton, ///< Constraint-DFA path counting: exact or refuses.
  Enumerate, ///< Bounded brute-force sweep: exact or refuses.
  Auto,      ///< Heuristic dispatch with Pugh fallback.
};

const char *backendKindName(BackendKind K);

/// Per-query configuration.  Field defaults reproduce the process defaults,
/// so CountOptions{} behaves exactly like the legacy zero-configuration
/// call.
struct CountOptions {
  /// Counting backend (counting/Backend.h).  Pugh reproduces the pre-PR-7
  /// behavior bit for bit; Automaton/Enumerate answer exactly or refuse
  /// with a typed Error; Auto dispatches heuristically and never refuses.
  BackendKind Backend = BackendKind::Pugh;
  /// Conjunct memoization (DESIGN.md §8).  Disabling forces every
  /// feasibility/projection query to recompute.
  bool CacheEnabled = true;
  /// Cache storage capacity when the cache is enabled: projection-cache
  /// entries, and a quarter of it each thread's feasibility slots.  Grow
  /// only: a query may raise the process-wide size, never lower it.
  size_t CacheCapacity = size_t(1) << 14;
  /// Effort budget (DESIGN.md §9).  Unlimited runs the exact pipeline
  /// only; any limit arms the degradation path to certified bounds.
  EffortBudget Budget;
  /// Snapshot the pipeline counters across the query into
  /// CountResult::Stats (a delta, so concurrent history does not leak in).
  bool CollectStats = false;
  /// Count BigInt fast/slow operations (small per-op cost; implies the
  /// BigIntFastOps/BigIntSlowOps fields of the stats delta are meaningful).
  bool CountArithOps = false;
  /// Collect a hierarchical trace of the query into CountResult::Trace.
  /// Tracing is process-wide and not reentrant: at most one traced query
  /// at a time.
  bool CollectTrace = false;
};

/// Outcome of a unified query.
struct [[nodiscard]] CountResult {
  /// Exact, Bounded (degraded), Unbounded, or Error.
  CountStatus Status = CountStatus::Error;
  /// The answer; valid when Status == Exact (or Unbounded marker).
  PiecewiseValue Value;
  /// Degradation certificate, valid when Status == Bounded:
  /// Lower(s) <= true answer(s) <= Upper(s) for every symbol binding.
  PiecewiseValue Lower;
  PiecewiseValue Upper;
  /// The budget knob that tripped (empty on a clean exact run).
  std::string TrippedLimit;
  /// Valid when Status == Error.
  Error Err;
  /// Name of the backend that produced the answer ("pugh", "automaton",
  /// "enumerate"); set on every return from the unified entry points.
  std::string Backend;
  /// Why the dispatcher picked Backend — the Auto heuristic's one-line
  /// rationale, or the refusal that forced a fallback.  Empty when the
  /// caller requested the backend explicitly.
  std::string BackendReason;
  /// Pipeline counter delta over this query (CollectStats).
  PipelineStatsSnapshot Stats{};
  /// The query's trace (CollectTrace); export with toChromeJson() /
  /// toSummary().
  std::shared_ptr<const TraceData> Trace;

  [[nodiscard]] bool exact() const { return Status == CountStatus::Exact; }

  /// The machine-readable outcome code (support/Status.h): the single
  /// vocabulary the wire protocol and the tools' exit codes both map from.
  [[nodiscard]] QueryOutcome outcome() const {
    return Status == CountStatus::Error ? queryOutcomeForError(Err.Kind)
                                        : queryOutcomeForStatus(Status);
  }
};

/// (Σ Vars : F : X) under \p Opts — THE entry point; every other overload
/// delegates here.  Free variables of F and X outside Vars are the
/// symbolic constants of the answer.
[[nodiscard]] CountResult sumPolynomial(const Formula &F, const VarSet &Vars,
                          const QuasiPolynomial &X,
                          const CountOptions &Opts = {});

/// (Σ Vars : F : 1) under \p Opts: the number of solutions.
[[nodiscard]] CountResult countSolutions(const Formula &F,
                                         const VarSet &Vars,
                                         const CountOptions &Opts);

/// One query of a batch: (Σ Vars : F : X) under Opts.
struct CountQuery {
  Formula F;
  VarSet Vars;
  QuasiPolynomial X = QuasiPolynomial(Rational(1));
  CountOptions Opts;
};

/// Runs each query in order and returns one CountResult per query,
/// index-aligned.  Semantically identical to calling sumPolynomial per
/// element — each query gets its own context and its own stats delta
/// (nothing leaks between batch elements) — but shares the warm conjunct
/// cache across the batch.  The shared entry point behind omegad's request
/// loop and `omegaclient --batch`.
[[nodiscard]] std::vector<CountResult>
countBatch(std::span<const CountQuery> Queries);

} // namespace omega

#endif // OMEGA_OMEGA_OMEGA_H
