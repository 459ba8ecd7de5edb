//===- support/BigInt.cpp - Arbitrary-precision signed integers ----------===//
//
// Slow (limb) paths for the small-value-optimized BigInt.  The inline
// int64 fast paths live in the header; everything here runs only when an
// operand or result magnitude exceeds 2^62 - 1.
//
//===----------------------------------------------------------------------===//

#include "support/BigInt.h"

#include "support/Error.h"
#include "support/Trace.h"

#include <algorithm>
#include <ostream>

using namespace omega;

static constexpr uint64_t LimbBase = uint64_t(1) << 32;

//===----------------------------------------------------------------------===//
// Representation management
//===----------------------------------------------------------------------===//

void BigInt::initLarge(long long V) {
  // Only reached for |V| > SmallMax, i.e. V in (±2^62, ±2^63]; the
  // magnitude always needs exactly two limbs.
  bool Neg = V < 0;
  // Avoid UB negating LLONG_MIN by widening through unsigned.
  uint64_t Mag = Neg ? ~static_cast<uint64_t>(V) + 1
                     : static_cast<uint64_t>(V);
  Small = 0;
  IsSmall = false;
  Negative = Neg;
  Limbs.assign({static_cast<uint32_t>(Mag),
                static_cast<uint32_t>(Mag >> 32)});
  arithCounters().Spills.fetch_add(1, std::memory_order_relaxed);
  traceCount(TraceCounter::BigIntSpills);
}

void BigInt::initLarge(unsigned long long V) {
  Small = 0;
  IsSmall = false;
  Negative = false;
  Limbs.assign({static_cast<uint32_t>(V), static_cast<uint32_t>(V >> 32)});
  arithCounters().Spills.fetch_add(1, std::memory_order_relaxed);
  traceCount(TraceCounter::BigIntSpills);
}

void BigInt::setLarge(bool Neg, std::vector<uint32_t> &&Mag) {
  while (!Mag.empty() && Mag.back() == 0)
    Mag.pop_back();
  if (Mag.size() <= 2) {
    uint64_t V = 0;
    if (Mag.size() > 1)
      V = uint64_t(Mag[1]) << 32;
    if (!Mag.empty())
      V |= Mag[0];
    if (V <= static_cast<uint64_t>(SmallMax)) {
      // Unspill: re-establish the canonical inline form and release the
      // limb storage (clear() would keep the heap buffer alive).
      Small = Neg ? -static_cast<int64_t>(V) : static_cast<int64_t>(V);
      IsSmall = true;
      Negative = false;
      std::vector<uint32_t>().swap(Limbs);
      return;
    }
  }
  Small = 0;
  IsSmall = false;
  Negative = Neg;
  Limbs = std::move(Mag);
  arithCounters().Spills.fetch_add(1, std::memory_order_relaxed);
  traceCount(TraceCounter::BigIntSpills);
}

const std::vector<uint32_t> &
BigInt::magnitudeLimbs(std::vector<uint32_t> &Storage) const {
  if (!IsSmall)
    return Limbs;
  Storage.clear();
  uint64_t Mag = smallMagnitude();
  while (Mag != 0) {
    Storage.push_back(static_cast<uint32_t>(Mag));
    Mag >>= 32;
  }
  return Storage;
}

void BigInt::forceSpillForTesting() {
  if (!IsSmall || Small == 0)
    return;
  bool Neg = Small < 0;
  uint64_t Mag = smallMagnitude();
  Small = 0;
  IsSmall = false;
  Negative = Neg;
  Limbs.clear();
  // Trimmed limbs (top limb nonzero), like every large value: the
  // magnitude kernels rely on that shape.  The result still deliberately
  // violates the |v| > SmallMax canonicality rule — that is the point of
  // the hook — so it may hold only one limb, which fitsInt64/toInt64
  // tolerate explicitly.
  while (Mag != 0) {
    Limbs.push_back(static_cast<uint32_t>(Mag));
    Mag >>= 32;
  }
}

//===----------------------------------------------------------------------===//
// Parsing and conversions
//===----------------------------------------------------------------------===//

BigInt::BigInt(std::string_view Decimal) {
  if (!fromString(Decimal, *this))
    fatalError("BigInt: malformed decimal literal: " + std::string(Decimal));
}

bool BigInt::fromString(std::string_view Decimal, BigInt &Out) {
  Out = BigInt();
  bool Neg = false;
  size_t I = 0;
  if (I < Decimal.size() && (Decimal[I] == '-' || Decimal[I] == '+')) {
    Neg = Decimal[I] == '-';
    ++I;
  }
  if (I == Decimal.size())
    return false;
  // Accumulate in a machine word while the value stays in the small range
  // (the common case: every literal a formula can reasonably contain).
  uint64_t Acc = 0;
  for (; I < Decimal.size(); ++I) {
    char C = Decimal[I];
    if (C < '0' || C > '9')
      return false;
    uint64_t D = static_cast<uint64_t>(C - '0');
    if (Acc > (static_cast<uint64_t>(SmallMax) - D) / 10)
      break;
    Acc = Acc * 10 + D;
  }
  Out.Small = static_cast<int64_t>(Acc);
  // Spill continuation for oversized literals.
  for (; I < Decimal.size(); ++I) {
    char C = Decimal[I];
    if (C < '0' || C > '9')
      return false;
    Out *= BigInt(10);
    Out += BigInt(C - '0');
  }
  if (Neg)
    Out = -Out;
  return true;
}

bool BigInt::fitsInt64() const {
  if (IsSmall)
    return true;
  if (Limbs.size() > 2)
    return false;
  // A canonical large value always has two limbs, but a force-spilled
  // small value (testing hook) may hold just one.
  uint64_t Mag = Limbs.size() > 1 ? (uint64_t(Limbs[1]) << 32) | Limbs[0]
                                  : Limbs[0];
  return Negative ? Mag <= (uint64_t(1) << 63)
                  : Mag < (uint64_t(1) << 63);
}

int64_t BigInt::toInt64() const {
  if (IsSmall)
    return Small;
  check(fitsInt64(), "BigInt does not fit in int64_t");
  uint64_t Mag = Limbs.size() > 1 ? (uint64_t(Limbs[1]) << 32) | Limbs[0]
                                  : Limbs[0];
  // Negate in unsigned arithmetic: for Mag == 2^63 (INT64_MIN's magnitude)
  // `-static_cast<int64_t>(Mag)` would negate INT64_MIN, which overflows.
  return static_cast<int64_t>(Negative ? ~Mag + 1 : Mag);
}

double BigInt::toDouble() const {
  if (IsSmall)
    return static_cast<double>(Small);
  double R = 0;
  for (size_t I = Limbs.size(); I-- > 0;)
    R = R * 4294967296.0 + Limbs[I];
  return Negative ? -R : R;
}

std::string BigInt::toString() const {
  if (IsSmall)
    return std::to_string(Small);
  std::string Digits;
  std::vector<uint32_t> Mag = Limbs;
  const std::vector<uint32_t> Ten = {10};
  while (!Mag.empty()) {
    std::vector<uint32_t> Rem = Mag;
    Mag = divModMagnitude(Rem, Ten);
    Digits.push_back(static_cast<char>('0' + (Rem.empty() ? 0 : Rem[0])));
  }
  if (Negative)
    Digits.push_back('-');
  std::reverse(Digits.begin(), Digits.end());
  return Digits;
}

size_t BigInt::hashSlow() const {
  size_t H = Negative ? 0x9e3779b97f4a7c15ull : 0;
  for (uint32_t L : Limbs)
    H = H * 1000003ull + L;
  return H;
}

std::ostream &omega::operator<<(std::ostream &OS, const BigInt &V) {
  return OS << V.toString();
}

//===----------------------------------------------------------------------===//
// Magnitude arithmetic (little-endian base-2^32 limb vectors)
//===----------------------------------------------------------------------===//

int BigInt::compareMagnitude(const std::vector<uint32_t> &A,
                             const std::vector<uint32_t> &B) {
  if (A.size() != B.size())
    return A.size() < B.size() ? -1 : 1;
  for (size_t I = A.size(); I-- > 0;)
    if (A[I] != B[I])
      return A[I] < B[I] ? -1 : 1;
  return 0;
}

void BigInt::addMagnitude(std::vector<uint32_t> &A,
                          const std::vector<uint32_t> &B) {
  if (A.size() < B.size())
    A.resize(B.size(), 0);
  uint64_t Carry = 0;
  for (size_t I = 0; I < A.size(); ++I) {
    uint64_t S = Carry + A[I] + (I < B.size() ? B[I] : 0);
    A[I] = static_cast<uint32_t>(S);
    Carry = S >> 32;
  }
  if (Carry)
    A.push_back(static_cast<uint32_t>(Carry));
}

void BigInt::subMagnitude(std::vector<uint32_t> &A,
                          const std::vector<uint32_t> &B) {
  check(compareMagnitude(A, B) >= 0, "subMagnitude requires |A| >= |B|");
  int64_t Borrow = 0;
  for (size_t I = 0; I < A.size(); ++I) {
    int64_t S = int64_t(A[I]) - Borrow - (I < B.size() ? int64_t(B[I]) : 0);
    Borrow = 0;
    if (S < 0) {
      S += LimbBase;
      Borrow = 1;
    }
    A[I] = static_cast<uint32_t>(S);
  }
  check(Borrow == 0, "magnitude subtraction underflow");
}

std::vector<uint32_t> BigInt::mulMagnitude(const std::vector<uint32_t> &A,
                                           const std::vector<uint32_t> &B) {
  if (A.empty() || B.empty())
    return {};
  std::vector<uint32_t> R(A.size() + B.size(), 0);
  for (size_t I = 0; I < A.size(); ++I) {
    uint64_t Carry = 0;
    for (size_t J = 0; J < B.size(); ++J) {
      uint64_t S = uint64_t(A[I]) * B[J] + R[I + J] + Carry;
      R[I + J] = static_cast<uint32_t>(S);
      Carry = S >> 32;
    }
    size_t K = I + B.size();
    while (Carry) {
      uint64_t S = R[K] + Carry;
      R[K] = static_cast<uint32_t>(S);
      Carry = S >> 32;
      ++K;
    }
  }
  while (!R.empty() && R.back() == 0)
    R.pop_back();
  return R;
}

/// Knuth algorithm D (schoolbook long division) on 32-bit limbs, with the
/// single-limb divisor fast path.
std::vector<uint32_t>
BigInt::divModMagnitude(std::vector<uint32_t> &A,
                        const std::vector<uint32_t> &B) {
  check(!B.empty(), "division by zero");
  if (compareMagnitude(A, B) < 0)
    return {};
  if (B.size() == 1) {
    uint64_t D = B[0];
    std::vector<uint32_t> Q(A.size(), 0);
    uint64_t Rem = 0;
    for (size_t I = A.size(); I-- > 0;) {
      uint64_t Cur = (Rem << 32) | A[I];
      Q[I] = static_cast<uint32_t>(Cur / D);
      Rem = Cur % D;
    }
    while (!Q.empty() && Q.back() == 0)
      Q.pop_back();
    A.clear();
    if (Rem) {
      A.push_back(static_cast<uint32_t>(Rem));
      if (Rem >> 32)
        A.push_back(static_cast<uint32_t>(Rem >> 32));
    }
    return Q;
  }

  // Normalize so the divisor's top limb has its high bit set.
  int Shift = 0;
  for (uint32_t Top = B.back(); !(Top & 0x80000000u); Top <<= 1)
    ++Shift;
  size_t N = B.size(), M = A.size() - N;
  std::vector<uint32_t> U(A.size() + 1, 0), V(N, 0);
  for (size_t I = A.size(); I-- > 0;) {
    U[I] |= Shift ? (A[I] << Shift) : A[I];
    if (Shift && I + 1 <= A.size())
      U[I + 1] |= static_cast<uint32_t>(uint64_t(A[I]) >> (32 - Shift));
  }
  for (size_t I = N; I-- > 0;) {
    V[I] = Shift ? (B[I] << Shift) : B[I];
    if (Shift && I > 0)
      V[I] |= static_cast<uint32_t>(uint64_t(B[I - 1]) >> (32 - Shift));
  }

  std::vector<uint32_t> Q(M + 1, 0);
  for (size_t J = M + 1; J-- > 0;) {
    uint64_t Num = (uint64_t(U[J + N]) << 32) | U[J + N - 1];
    uint64_t QHat = Num / V[N - 1];
    uint64_t RHat = Num % V[N - 1];
    while (QHat >= LimbBase ||
           QHat * V[N - 2] > ((RHat << 32) | U[J + N - 2])) {
      --QHat;
      RHat += V[N - 1];
      if (RHat >= LimbBase)
        break;
    }
    // Multiply-subtract QHat * V from U[J .. J+N].
    int64_t Borrow = 0;
    uint64_t Carry = 0;
    for (size_t I = 0; I < N; ++I) {
      uint64_t P = QHat * V[I] + Carry;
      Carry = P >> 32;
      int64_t Sub = int64_t(U[I + J]) - int64_t(uint32_t(P)) - Borrow;
      Borrow = 0;
      if (Sub < 0) {
        Sub += LimbBase;
        Borrow = 1;
      }
      U[I + J] = static_cast<uint32_t>(Sub);
    }
    int64_t Sub = int64_t(U[J + N]) - int64_t(Carry) - Borrow;
    bool NegResult = Sub < 0;
    U[J + N] = static_cast<uint32_t>(Sub);
    if (NegResult) {
      // QHat was one too large; add V back.
      --QHat;
      uint64_t C = 0;
      for (size_t I = 0; I < N; ++I) {
        uint64_t S = uint64_t(U[I + J]) + V[I] + C;
        U[I + J] = static_cast<uint32_t>(S);
        C = S >> 32;
      }
      U[J + N] = static_cast<uint32_t>(U[J + N] + C);
    }
    Q[J] = static_cast<uint32_t>(QHat);
  }

  // Denormalize the remainder.
  A.assign(N, 0);
  for (size_t I = 0; I < N; ++I) {
    A[I] = U[I] >> Shift;
    if (Shift && I + 1 < U.size())
      A[I] |= static_cast<uint32_t>(uint64_t(U[I + 1]) << (32 - Shift));
  }
  while (!A.empty() && A.back() == 0)
    A.pop_back();
  while (!Q.empty() && Q.back() == 0)
    Q.pop_back();
  return Q;
}

//===----------------------------------------------------------------------===//
// Signed slow paths
//===----------------------------------------------------------------------===//

BigInt &BigInt::addSlow(const BigInt &RHS) {
  noteSlowOp();
  bool LN = isNegative(), RN = RHS.isNegative();
  std::vector<uint32_t> LS, RS;
  std::vector<uint32_t> A = magnitudeLimbs(LS); // Mutable copy of |LHS|.
  const std::vector<uint32_t> &B = RHS.magnitudeLimbs(RS);
  if (LN == RN) {
    addMagnitude(A, B);
    setLarge(LN, std::move(A));
  } else if (compareMagnitude(A, B) >= 0) {
    subMagnitude(A, B);
    setLarge(LN, std::move(A));
  } else {
    std::vector<uint32_t> C = B;
    subMagnitude(C, A);
    setLarge(RN, std::move(C));
  }
  return *this;
}

BigInt &BigInt::subSlow(const BigInt &RHS) { return addSlow(-RHS); }

BigInt &BigInt::mulSlow(const BigInt &RHS) {
  noteSlowOp();
  bool Neg = isNegative() != RHS.isNegative();
  std::vector<uint32_t> LS, RS;
  std::vector<uint32_t> R =
      mulMagnitude(magnitudeLimbs(LS), RHS.magnitudeLimbs(RS));
  setLarge(Neg, std::move(R));
  return *this;
}

void BigInt::divMod(const BigInt &Num, const BigInt &Den, BigInt &Quot,
                    BigInt &Rem) {
  check(!Den.isZero(), "division by zero");
  if (Num.IsSmall && Den.IsSmall) {
    int64_t Q = Num.Small / Den.Small, R = Num.Small % Den.Small;
    noteFastOp();
    Quot = BigInt(static_cast<long long>(Q));
    Rem = BigInt(static_cast<long long>(R));
    return;
  }
  noteSlowOp();
  bool NN = Num.isNegative(), DN = Den.isNegative();
  std::vector<uint32_t> NS, DS;
  std::vector<uint32_t> A = Num.magnitudeLimbs(NS); // Becomes the remainder.
  std::vector<uint32_t> Q = divModMagnitude(A, Den.magnitudeLimbs(DS));
  // Build into locals first: Quot/Rem may alias Num/Den.
  BigInt QV, RV;
  QV.setLarge(NN != DN, std::move(Q));
  // Truncated semantics: remainder keeps the dividend's sign.
  RV.setLarge(NN, std::move(A));
  Quot = std::move(QV);
  Rem = std::move(RV);
}

BigInt &BigInt::divSlow(const BigInt &RHS) {
  BigInt Q, R;
  divMod(*this, RHS, Q, R);
  return *this = std::move(Q);
}

BigInt &BigInt::remSlow(const BigInt &RHS) {
  BigInt Q, R;
  divMod(*this, RHS, Q, R);
  return *this = std::move(R);
}

int BigInt::compareSlow(const BigInt &RHS) const {
  // Both operands hold the limb form here.
  if (Negative != RHS.Negative)
    return Negative ? -1 : 1;
  int C = compareMagnitude(Limbs, RHS.Limbs);
  return Negative ? -C : C;
}

BigInt BigInt::floorDivSlow(const BigInt &Num, const BigInt &Den) {
  BigInt Q, R;
  divMod(Num, Den, Q, R);
  if (!R.isZero() && (R.isNegative() != Den.isNegative()))
    --Q;
  return Q;
}

BigInt BigInt::ceilDivSlow(const BigInt &Num, const BigInt &Den) {
  BigInt Q, R;
  divMod(Num, Den, Q, R);
  if (!R.isZero() && (R.isNegative() == Den.isNegative()))
    ++Q;
  return Q;
}

BigInt BigInt::floorModSlow(const BigInt &Num, const BigInt &Den) {
  // Mathematical modulus: always in [0, |Den|).
  BigInt D = Den.abs();
  BigInt R = Num - floorDiv(Num, D) * D;
  check(R.sign() >= 0, "floorMod result must be non-negative");
  return R;
}

BigInt BigInt::divExactSlow(const BigInt &Num, const BigInt &Den) {
  BigInt Q, R;
  divMod(Num, Den, Q, R);
  check(R.isZero(), "divExact: inexact division");
  return Q;
}

BigInt BigInt::gcdSlow(const BigInt &A, const BigInt &B) {
  noteSlowOp();
  BigInt X = A.abs(), Y = B.abs();
  // Euclid on the full values; each remainder shrinks, so the loop drops
  // onto the inline fast path as soon as both fit 62 bits.
  while (!Y.isZero()) {
    BigInt R = X % Y;
    X = std::move(Y);
    Y = std::move(R);
  }
  return X;
}

BigInt BigInt::lcm(const BigInt &A, const BigInt &B) {
  if (A.isZero() || B.isZero())
    return BigInt(0);
  BigInt G = gcd(A, B);
  // Divide before multiplying: the only product ever formed is the lcm
  // itself, never the doubly-wide |A*B|.
  return divExact(A.abs(), G) * B.abs();
}

BigInt BigInt::extendedGcd(const BigInt &A, const BigInt &B, BigInt &X,
                           BigInt &Y) {
  // Iterative extended Euclid on the raw (signed) inputs.
  BigInt OldR = A, R = B;
  BigInt OldX = 1, CurX = 0;
  BigInt OldY = 0, CurY = 1;
  while (!R.isZero()) {
    BigInt Q = OldR / R;
    BigInt T = OldR - Q * R;
    OldR = std::move(R);
    R = std::move(T);
    T = OldX - Q * CurX;
    OldX = std::move(CurX);
    CurX = std::move(T);
    T = OldY - Q * CurY;
    OldY = std::move(CurY);
    CurY = std::move(T);
  }
  if (OldR.isNegative()) {
    OldR = -OldR;
    OldX = -OldX;
    OldY = -OldY;
  }
  X = std::move(OldX);
  Y = std::move(OldY);
  return OldR;
}

BigInt BigInt::pow(const BigInt &A, unsigned E) {
  BigInt R = 1, Base = A;
  while (E) {
    if (E & 1)
      R *= Base;
    E >>= 1;
    if (E)
      Base *= Base;
  }
  return R;
}

bool BigInt::dividesSlow(const BigInt &E) const {
  if (isZero())
    return E.isZero();
  return (E % *this).isZero();
}
