//===- presburger/VarTable.cpp - Interned variable identities ------------===//

#include "presburger/VarTable.h"

#include "presburger/Var.h"
#include "support/Error.h"
#include "support/QueryContext.h"
#include "support/ThreadAnnotations.h"

#include <atomic>
#include <unordered_map>

using namespace omega;

namespace {

/// Chunked stable string storage: names never move once published, so
/// varName() can read without a lock and the intern map can key on
/// string_views into the chunks.
constexpr uint32_t ChunkShift = 10; // 1024 names per chunk.
constexpr uint32_t ChunkSize = 1u << ChunkShift;
constexpr uint32_t MaxChunks = 1u << (31 - ChunkShift);

struct Chunk {
  std::string Names[ChunkSize];
};

struct Table {
  std::atomic<Chunk *> Chunks[MaxChunks] = {};
  std::atomic<uint32_t> Count{0};
  Mutex InternMu;
  /// Keys are views into chunk storage (stable for the process lifetime).
  std::unordered_map<std::string_view, uint32_t> Index
      OMEGA_GUARDED_BY(InternMu);

  ~Table() {
    for (auto &C : Chunks)
      delete C.load(std::memory_order_relaxed);
  }
};

Table &table() {
  static Table T;
  return T;
}

uint32_t rawFor(uint32_t Idx, std::string_view Name) {
  bool Wildcard = !Name.empty() && Name[0] == '$';
  return Idx | (Wildcard ? VarId::WildcardBit : 0);
}

/// The names minted outside any naming frame (support/QueryContext.h).
std::atomic<unsigned> GlobalCounter{0};
std::atomic<unsigned> GlobalBatches{0};

} // namespace

VarId omega::internVar(std::string_view Name) {
  Table &T = table();
  MutexLock Lock(T.InternMu);
  auto It = T.Index.find(Name);
  if (It != T.Index.end())
    return VarId(It->second);
  uint32_t Idx = T.Count.load(std::memory_order_relaxed);
  check(Idx < MaxChunks * ChunkSize, "variable table full");
  Chunk *C = T.Chunks[Idx >> ChunkShift].load(std::memory_order_relaxed);
  if (!C) {
    // Chunks are freed only by the table destructor. omegatidy: allow(naked-new)
    C = new Chunk;
    T.Chunks[Idx >> ChunkShift].store(C, std::memory_order_release);
  }
  std::string &Slot = C->Names[Idx & (ChunkSize - 1)];
  Slot.assign(Name.data(), Name.size());
  uint32_t Raw = rawFor(Idx, Slot);
  T.Index.emplace(std::string_view(Slot), Raw);
  // Publish: ids handed out below are only dereferenced after this store.
  T.Count.store(Idx + 1, std::memory_order_release);
  return VarId(Raw);
}

VarId omega::lookupVar(std::string_view Name) {
  Table &T = table();
  MutexLock Lock(T.InternMu);
  auto It = T.Index.find(Name);
  return It == T.Index.end() ? VarId() : VarId(It->second);
}

const std::string &omega::varName(VarId Id) {
  check(Id.valid(), "varName of invalid VarId");
  Table &T = table();
  uint32_t Idx = Id.index();
  check(Idx < T.Count.load(std::memory_order_acquire),
        "varName of unpublished VarId");
  Chunk *C = T.Chunks[Idx >> ChunkShift].load(std::memory_order_acquire);
  return C->Names[Idx & (ChunkSize - 1)];
}

int omega::compareVarNames(VarId L, VarId R) {
  if (L == R)
    return 0;
  return varName(L).compare(varName(R));
}

VarId omega::freshWildcardId() {
  if (NamingFrame *F = activeQueryContext().Naming) {
    std::string Name;
    Name.reserve(F->Prefix.size() + 8);
    Name += '$';
    Name += F->Prefix;
    Name += 'x';
    Name += std::to_string(F->Counter++);
    return internVar(Name);
  }
  return internVar("$" + std::to_string(GlobalCounter.fetch_add(1)));
}

uint32_t omega::varTableSize() {
  return table().Count.load(std::memory_order_acquire);
}

std::string omega::freshWildcard() { return varName(freshWildcardId()); }

void omega::forEachDisjunct(size_t N, const std::function<void(size_t)> &Fn) {
  if (N == 0)
    return;
  const QueryContext &Ctx = activeQueryContext();
  std::string Base;
  if (NamingFrame *F = Ctx.Naming)
    Base = F->Prefix + "b" + std::to_string(F->Batches++);
  else
    Base = "g" + std::to_string(GlobalBatches.fetch_add(1));
  for (size_t I = 0; I < N; ++I) {
    QueryScope Item(NamingFrame(Base + "t" + std::to_string(I),
                                Ctx.pinDepth()));
    Fn(I);
  }
}

void omega::resetWildcardState() {
  check(!activeQueryContext().Naming,
        "cannot reset wildcard state inside a naming frame");
  GlobalCounter.store(0);
  GlobalBatches.store(0);
}
