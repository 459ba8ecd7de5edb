//===- presburger/AffineExpr.cpp - Integer affine expressions ------------===//

#include "presburger/AffineExpr.h"

#include "support/Error.h"

#include <algorithm>
#include <new>
#include <ostream>
#include <sstream>
#include <vector>

using namespace omega;

namespace {
/// Merge scratch that fits the stack: covers any merge of two inline
/// expressions, which is the allocation-free fast path bench_ir gates.
constexpr uint32_t ScratchCap = 2 * AffineExpr::InlineCapacity;
} // namespace

const BigInt &AffineExpr::zero() {
  static const BigInt Z(0);
  return Z;
}

void AffineExpr::destroyTerms() {
  for (uint32_t I = Size; I > 0; --I)
    Terms[I - 1].~Term();
  if (Terms != inlineData())
    ::operator delete(Terms);
  Terms = inlineData();
  Cap = InlineCapacity;
  Size = 0;
}

void AffineExpr::growTo(uint32_t NeedCap) {
  if (NeedCap <= Cap)
    return;
  uint32_t NewCap = std::max(Cap * 2, NeedCap);
  Term *NewTerms = static_cast<Term *>(::operator new(sizeof(Term) * NewCap));
  for (uint32_t I = 0; I < Size; ++I) {
    new (NewTerms + I) Term{Terms[I].Var, std::move(Terms[I].Coef)};
    Terms[I].~Term();
  }
  if (Terms != inlineData())
    ::operator delete(Terms);
  Terms = NewTerms;
  Cap = NewCap;
  exprCounters().Spills.fetch_add(1, std::memory_order_relaxed);
}

AffineExpr::AffineExpr(const AffineExpr &RHS)
    : Terms(inlineData()), Const(RHS.Const) {
  growTo(RHS.Size);
  for (uint32_t I = 0; I < RHS.Size; ++I)
    new (Terms + I) Term{RHS.Terms[I].Var, RHS.Terms[I].Coef};
  Size = RHS.Size;
}

AffineExpr::AffineExpr(AffineExpr &&RHS) noexcept
    : Terms(inlineData()), Const(std::move(RHS.Const)) {
  if (RHS.Terms != RHS.inlineData()) {
    Terms = RHS.Terms;
    Cap = RHS.Cap;
    Size = RHS.Size;
    RHS.Terms = RHS.inlineData();
    RHS.Cap = InlineCapacity;
    RHS.Size = 0;
    return;
  }
  for (uint32_t I = 0; I < RHS.Size; ++I) {
    new (Terms + I) Term{RHS.Terms[I].Var, std::move(RHS.Terms[I].Coef)};
    RHS.Terms[I].~Term();
  }
  Size = RHS.Size;
  RHS.Size = 0;
}

AffineExpr &AffineExpr::operator=(const AffineExpr &RHS) {
  if (this == &RHS)
    return *this;
  Const = RHS.Const;
  if (RHS.Size > Cap) {
    destroyTerms();
    growTo(RHS.Size);
  }
  uint32_t Common = std::min(Size, RHS.Size);
  for (uint32_t I = 0; I < Common; ++I) {
    Terms[I].Var = RHS.Terms[I].Var;
    Terms[I].Coef = RHS.Terms[I].Coef;
  }
  for (uint32_t I = Common; I < RHS.Size; ++I)
    new (Terms + I) Term{RHS.Terms[I].Var, RHS.Terms[I].Coef};
  for (uint32_t I = Size; I > RHS.Size; --I)
    Terms[I - 1].~Term();
  Size = RHS.Size;
  return *this;
}

AffineExpr &AffineExpr::operator=(AffineExpr &&RHS) noexcept {
  if (this == &RHS)
    return *this;
  Const = std::move(RHS.Const);
  if (RHS.Terms != RHS.inlineData()) {
    destroyTerms();
    Terms = RHS.Terms;
    Cap = RHS.Cap;
    Size = RHS.Size;
    RHS.Terms = RHS.inlineData();
    RHS.Cap = InlineCapacity;
    RHS.Size = 0;
    return *this;
  }
  uint32_t Common = std::min(Size, RHS.Size);
  for (uint32_t I = 0; I < Common; ++I) {
    Terms[I].Var = RHS.Terms[I].Var;
    Terms[I].Coef = std::move(RHS.Terms[I].Coef);
  }
  for (uint32_t I = Common; I < RHS.Size; ++I)
    new (Terms + I) Term{RHS.Terms[I].Var, std::move(RHS.Terms[I].Coef)};
  for (uint32_t I = Size; I > RHS.Size; --I)
    Terms[I - 1].~Term();
  Size = RHS.Size;
  for (uint32_t I = RHS.Size; I > 0; --I)
    RHS.Terms[I - 1].~Term();
  RHS.Size = 0;
  return *this;
}

AffineExpr::~AffineExpr() { destroyTerms(); }

void AffineExpr::insertAt(uint32_t Pos, VarId V, BigInt C) {
  growTo(Size + 1);
  if (Pos == Size) {
    new (Terms + Size) Term{V, std::move(C)};
  } else {
    new (Terms + Size)
        Term{Terms[Size - 1].Var, std::move(Terms[Size - 1].Coef)};
    for (uint32_t I = Size - 1; I > Pos; --I) {
      Terms[I].Var = Terms[I - 1].Var;
      Terms[I].Coef = std::move(Terms[I - 1].Coef);
    }
    Terms[Pos].Var = V;
    Terms[Pos].Coef = std::move(C);
  }
  ++Size;
}

void AffineExpr::eraseAt(uint32_t Pos) {
  for (uint32_t I = Pos; I + 1 < Size; ++I) {
    Terms[I].Var = Terms[I + 1].Var;
    Terms[I].Coef = std::move(Terms[I + 1].Coef);
  }
  Terms[Size - 1].~Term();
  --Size;
}

void AffineExpr::adoptTerms(Term *Src, uint32_t N) {
  if (N > Cap) {
    destroyTerms();
    growTo(N);
  }
  uint32_t Common = std::min(Size, N);
  for (uint32_t I = 0; I < Common; ++I) {
    Terms[I].Var = Src[I].Var;
    Terms[I].Coef = std::move(Src[I].Coef);
  }
  for (uint32_t I = Common; I < N; ++I)
    new (Terms + I) Term{Src[I].Var, std::move(Src[I].Coef)};
  for (uint32_t I = Size; I > N; --I)
    Terms[I - 1].~Term();
  Size = N;
}

void AffineExpr::setCoeff(VarId V, BigInt C) {
  uint32_t Pos = lowerPos(V);
  bool Present = Pos < Size && Terms[Pos].Var == V;
  if (C.isZero()) {
    if (Present)
      eraseAt(Pos);
    return;
  }
  if (Present) {
    Terms[Pos].Coef = std::move(C);
    return;
  }
  insertAt(Pos, V, std::move(C));
}

void AffineExpr::mergeAddScaled(const Term *RTerms, uint32_t RN,
                                const BigInt *Scale, bool Negate) {
  if (RN == 0 || (Scale && Scale->isZero()))
    return;
  if (RTerms == Terms) {
    // Self-merge would read terms the adopt step moves out of; detach.
    AffineExpr Copy(*this);
    mergeAddScaled(Copy.Terms, Copy.Size, Scale, Negate);
    return;
  }
  auto scaled = [&](const BigInt &C) {
    BigInt R = Scale ? C * *Scale : C;
    return Negate ? -R : std::move(R);
  };
  // One counting pass decides which merge strategy applies: whether every
  // RHS variable already appears on the left, and how many terms the
  // merged union holds.
  uint32_t Union = 0;
  bool RhsSubset = true;
  {
    uint32_t I = 0, J = 0;
    while (I < Size && J < RN) {
      if (Terms[I].Var == RTerms[J].Var) {
        ++I;
        ++J;
      } else if (Terms[I].Var < RTerms[J].Var) {
        ++I;
      } else {
        ++J;
        RhsSubset = false;
      }
      ++Union;
    }
    if (J < RN)
      RhsSubset = false;
    Union += (Size - I) + (RN - J);
  }
  // Slots past the compaction watermark may hold zero coefficients the
  // in-place paths park there before squeezing them out.
  auto compactZeros = [&](uint32_t N) {
    uint32_t W = 0;
    for (uint32_t I = 0; I < N; ++I) {
      if (Terms[I].Coef.isZero())
        continue;
      if (W != I) {
        Terms[W].Var = Terms[I].Var;
        Terms[W].Coef = std::move(Terms[I].Coef);
      }
      ++W;
    }
    for (uint32_t I = N; I > W; --I)
      Terms[I - 1].~Term();
    Size = W;
  };
  // Fast path: every RHS variable already appears on the left (the common
  // Fourier-combine and substitution shape) — add into the stored
  // coefficients directly and compact any zeros, no moves at all.
  if (RhsSubset) {
    uint32_t I = 0;
    for (uint32_t J = 0; J < RN; ++J) {
      while (Terms[I].Var < RTerms[J].Var)
        ++I;
      Terms[I].Coef += scaled(RTerms[J].Coef);
    }
    compactZeros(Size);
    if (isInlineRep())
      noteInlineOp();
    return;
  }
  // The union fits the storage already owned: merge backward from the top
  // slot so every term is touched once, then squeeze out any zeros.  Slots
  // at or above the old Size are raw storage and need placement-new.
  if (Union <= Cap) {
    uint32_t I = Size, J = RN, W = Union;
    auto place = [&](VarId V, BigInt C) {
      --W;
      if (W < Size) {
        Terms[W].Var = V;
        Terms[W].Coef = std::move(C);
      } else {
        new (Terms + W) Term{V, std::move(C)};
      }
    };
    while (J > 0) {
      if (W == I) {
        // Remaining union size equals remaining left size: every pending
        // RHS variable coincides with a left term that is already in its
        // final slot.  Add the coefficients forward and stop moving.
        uint32_t K = 0;
        for (uint32_t L = 0; L < J; ++L) {
          while (Terms[K].Var < RTerms[L].Var)
            ++K;
          Terms[K].Coef += scaled(RTerms[L].Coef);
        }
        break;
      }
      if (I > 0 && RTerms[J - 1].Var < Terms[I - 1].Var) {
        place(Terms[I - 1].Var, std::move(Terms[I - 1].Coef));
        --I;
      } else if (I > 0 && Terms[I - 1].Var == RTerms[J - 1].Var) {
        --J;
        BigInt C = std::move(Terms[I - 1].Coef);
        C += scaled(RTerms[J].Coef);
        place(Terms[I - 1].Var, std::move(C));
        --I;
      } else {
        --J;
        place(RTerms[J].Var, scaled(RTerms[J].Coef));
      }
    }
    // Any left terms not yet visited sit below W in their final slots.
    Size = Union;
    compactZeros(Size);
    if (isInlineRep())
      noteInlineOp();
    return;
  }
  Term Scratch[ScratchCap];
  std::vector<Term> HeapScratch;
  Term *Out = Scratch;
  if (Size + RN > ScratchCap) {
    HeapScratch.resize(Size + RN);
    Out = HeapScratch.data();
  }
  uint32_t W = 0, I = 0, J = 0;
  while (I < Size && J < RN) {
    if (Terms[I].Var == RTerms[J].Var) {
      BigInt C = std::move(Terms[I].Coef);
      C += scaled(RTerms[J].Coef);
      if (!C.isZero()) {
        Out[W].Var = Terms[I].Var;
        Out[W].Coef = std::move(C);
        ++W;
      }
      ++I;
      ++J;
    } else if (Terms[I].Var < RTerms[J].Var) {
      Out[W].Var = Terms[I].Var;
      Out[W].Coef = std::move(Terms[I].Coef);
      ++W;
      ++I;
    } else {
      Out[W].Var = RTerms[J].Var;
      Out[W].Coef = scaled(RTerms[J].Coef);
      ++W;
      ++J;
    }
  }
  for (; I < Size; ++I, ++W) {
    Out[W].Var = Terms[I].Var;
    Out[W].Coef = std::move(Terms[I].Coef);
  }
  for (; J < RN; ++J, ++W) {
    Out[W].Var = RTerms[J].Var;
    Out[W].Coef = scaled(RTerms[J].Coef);
  }
  adoptTerms(Out, W);
  if (isInlineRep())
    noteInlineOp();
}

AffineExpr AffineExpr::operator-() const {
  AffineExpr R;
  R.Const = -Const;
  R.growTo(Size);
  for (uint32_t I = 0; I < Size; ++I)
    new (R.Terms + I) Term{Terms[I].Var, -Terms[I].Coef};
  R.Size = Size;
  return R;
}

AffineExpr &AffineExpr::operator+=(const AffineExpr &RHS) {
  Const += RHS.Const;
  mergeAddScaled(RHS.Terms, RHS.Size, nullptr, false);
  return *this;
}

AffineExpr &AffineExpr::operator-=(const AffineExpr &RHS) {
  Const -= RHS.Const;
  mergeAddScaled(RHS.Terms, RHS.Size, nullptr, true);
  return *this;
}

AffineExpr &AffineExpr::operator*=(const BigInt &Factor) {
  if (Factor.isZero()) {
    destroyTerms();
    Const = BigInt(0);
    return *this;
  }
  Const *= Factor;
  for (uint32_t I = 0; I < Size; ++I)
    Terms[I].Coef *= Factor;
  return *this;
}

void AffineExpr::divCoeffsExact(const BigInt &G) {
  check(!G.isZero(), "division by zero");
  if (G.isOne())
    return;
  for (uint32_t I = 0; I < Size; ++I)
    Terms[I].Coef = BigInt::divExact(Terms[I].Coef, G);
}

void AffineExpr::substitute(VarId V, const AffineExpr &Replacement) {
  uint32_t Pos = findPos(V);
  if (Pos == Size)
    return;
  check(!Replacement.mentions(V),
        "substitution replacement mentions the substituted variable");
  BigInt C = std::move(Terms[Pos].Coef);
  eraseAt(Pos);
  Const += C * Replacement.Const;
  mergeAddScaled(Replacement.Terms, Replacement.Size, &C, false);
}

void AffineExpr::renameVar(VarId From, VarId To) {
  uint32_t Pos = findPos(From);
  if (Pos == Size)
    return;
  check(findPos(To) == Size, "rename target already present");
  BigInt C = std::move(Terms[Pos].Coef);
  eraseAt(Pos);
  insertAt(lowerPos(To), To, std::move(C));
}

BigInt AffineExpr::evaluate(const Assignment &Values) const {
  BigInt R = Const;
  auto It = Values.begin(), End = Values.end();
  for (uint32_t I = 0; I < Size; ++I) {
    while (It != End && It->first < Terms[I].Var)
      ++It;
    check(It != End && It->first == Terms[I].Var,
          "unbound variable in evaluate");
    R += Terms[I].Coef * It->second;
  }
  return R;
}

LinearMatch AffineExpr::matchLinear(const AffineExpr &RHS) const {
  if (Size != RHS.Size)
    return LinearMatch::None;
  // Coefficients are never zero, so with any term present at most one of
  // Same and Opposite can survive the sweep.
  bool Same = true, Opposite = Size != 0;
  for (uint32_t I = 0; I < Size; ++I) {
    const Term &L = Terms[I], &R = RHS.Terms[I];
    if (L.Var != R.Var)
      return LinearMatch::None;
    Same = Same && L.Coef == R.Coef;
    Opposite = Opposite && L.Coef.isNegationOf(R.Coef);
    if (!Same && !Opposite)
      return LinearMatch::None;
  }
  return Same ? LinearMatch::Same : LinearMatch::Opposite;
}

BigInt AffineExpr::coeffGcd() const {
  BigInt G(0);
  for (uint32_t I = 0; I < Size; ++I) {
    G = BigInt::gcd(G, Terms[I].Coef);
    if (G.isOne())
      break;
  }
  return G;
}

void AffineExpr::sortedNameOrder(uint32_t *Idx) const {
  for (uint32_t I = 0; I < Size; ++I)
    Idx[I] = I;
  for (uint32_t I = 1; I < Size; ++I) {
    uint32_t K = Idx[I];
    const std::string &Name = varName(Terms[K].Var);
    uint32_t J = I;
    while (J > 0 && Name.compare(varName(Terms[Idx[J - 1]].Var)) < 0) {
      Idx[J] = Idx[J - 1];
      --J;
    }
    Idx[J] = K;
  }
}

int AffineExpr::compareTermsByName(const AffineExpr &RHS) const {
  // Replicates std::map<std::string, BigInt>'s operator<: lexicographic
  // over (name, coefficient) pairs in name order, shorter-is-less on a
  // common prefix.  Distinct ids always mean distinct names, so the
  // string compare runs only on genuine mismatches.
  uint32_t LStack[16], RStack[16];
  std::vector<uint32_t> LHeap, RHeap;
  uint32_t *LIdx = LStack, *RIdx = RStack;
  if (Size > 16) {
    LHeap.resize(Size);
    LIdx = LHeap.data();
  }
  if (RHS.Size > 16) {
    RHeap.resize(RHS.Size);
    RIdx = RHeap.data();
  }
  sortedNameOrder(LIdx);
  RHS.sortedNameOrder(RIdx);
  uint32_t N = std::min(Size, RHS.Size);
  for (uint32_t K = 0; K < N; ++K) {
    const Term &L = Terms[LIdx[K]];
    const Term &R = RHS.Terms[RIdx[K]];
    if (L.Var != R.Var)
      return varName(L.Var).compare(varName(R.Var));
    if (L.Coef != R.Coef)
      return L.Coef < R.Coef ? -1 : 1;
  }
  return Size < RHS.Size ? -1 : Size > RHS.Size ? 1 : 0;
}

const AffineExpr::Term &AffineExpr::leadTermByName() const {
  check(Size > 0, "leadTermByName of constant expression");
  uint32_t Best = 0;
  for (uint32_t I = 1; I < Size; ++I)
    if (compareVarNames(Terms[I].Var, Terms[Best].Var) < 0)
      Best = I;
  return Terms[Best];
}

std::string AffineExpr::toString() const {
  if (Size == 0)
    return Const.toString();
  std::ostringstream OS;
  bool First = true;
  forEachTermByName([&](VarId V, const BigInt &C) {
    if (First) {
      if (C.isMinusOne())
        OS << "-";
      else if (!C.isOne())
        OS << C << "*";
    } else if (C.isPositive()) {
      OS << " + ";
      if (!C.isOne())
        OS << C << "*";
    } else {
      OS << " - ";
      if (!C.isMinusOne())
        OS << -C << "*";
    }
    OS << varName(V);
    First = false;
  });
  if (Const.isPositive())
    OS << " + " << Const;
  else if (Const.isNegative())
    OS << " - " << -Const;
  return OS.str();
}

size_t AffineExpr::hash() const {
  size_t H = Const.hash();
  for (uint32_t I = 0; I < Size; ++I) {
    H = H * 131 + std::hash<VarId>()(Terms[I].Var);
    H = H * 131 + Terms[I].Coef.hash();
  }
  return H;
}

std::ostream &omega::operator<<(std::ostream &OS, const AffineExpr &E) {
  return OS << E.toString();
}
