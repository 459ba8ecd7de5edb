//===- support/QueryContext.cpp - Per-query execution context ------------===//
//
// The active-context pointer is thread-local (QueryContext.h); a scope
// never leaves the thread that installed it, so nothing here locks.
//
//===----------------------------------------------------------------------===//

#include "support/QueryContext.h"

#include "support/Error.h"

using namespace omega;

QueryScope::QueryScope() : Parent(detail::ActiveContext), Ctx(*Parent) {
  detail::ActiveContext = &Ctx;
}

QueryScope::QueryScope(const EffortBudget &Budget) : QueryScope() {
  Ctx.Budget = &OwnBudget.emplace(Budget);
}

QueryScope::QueryScope(NamingFrame Naming) : QueryScope() {
  Ctx.Naming = &OwnNaming.emplace(std::move(Naming));
}

QueryScope::QueryScope(const EffortBudget &Budget, NamingFrame Naming)
    : QueryScope(Budget) {
  Ctx.Naming = &OwnNaming.emplace(std::move(Naming));
}

QueryScope::~QueryScope() {
  check(detail::ActiveContext == &Ctx, "query scopes must nest strictly");
  detail::ActiveContext = Parent;
}
