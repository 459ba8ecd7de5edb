//===- support/BigInt.h - Arbitrary-precision signed integers --*- C++ -*-===//
//
// Part of OmegaCount, a reproduction of W. Pugh, "Counting Solutions to
// Presburger Formulas: How and Why" (PLDI 1994).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Small-value-optimized arbitrary-precision signed integer arithmetic.
///
/// The Omega test grows constraint coefficients multiplicatively (Fourier
/// pair combination multiplies coefficients; the paper's implementation used
/// overflow-checked machine ints and simply gave up on overflow).  We
/// substitute exact bignums so no query ever aborts — but, as the paper
/// observes, coefficients are almost always small, so the representation is
/// an inline int64_t whenever |v| < 2^62, spilling to sign-magnitude limbs
/// only on overflow.  See DESIGN.md §2 and §10.
///
//===----------------------------------------------------------------------===//

#ifndef OMEGA_SUPPORT_BIGINT_H
#define OMEGA_SUPPORT_BIGINT_H

#include "support/Error.h"
#include "support/QueryContext.h"

#include <atomic>
#include <bit>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace omega {

/// Arbitrary-precision signed integer with a small-value optimization.
///
/// Representation invariant (unique per value, so bitwise member equality
/// is value equality):
///
///   * |v| <= SmallMax (= 2^62 - 1): IsSmall is true, the value lives in
///     the inline int64_t Small, and Limbs is empty — no heap allocation
///     anywhere on this path;
///   * |v| >  SmallMax: IsSmall is false and the value is a sign flag plus
///     little-endian base-2^32 magnitude limbs with no trailing zero limbs
///     (so at least two limbs are always present).
///
/// Every operation re-establishes the invariant: limb results that fit the
/// small range "unspill" back to the inline form.  The 62-bit bound (not
/// 63) guarantees the sum or difference of any two small values fits in
/// int64_t, so the add/sub fast paths need no overflow probe at all;
/// multiplication detects overflow with __builtin_mul_overflow and falls
/// back to the limb path.
class BigInt {
public:
  /// Constructs zero.
  BigInt() = default;

  /// Implicitly converts from a machine integer.
  BigInt(long long V) {
    if (fitsSmall(V))
      Small = V;
    else
      initLarge(V);
  }
  BigInt(int V) : BigInt(static_cast<long long>(V)) {}
  BigInt(long V) : BigInt(static_cast<long long>(V)) {}
  BigInt(unsigned long long V) {
    if (V <= static_cast<unsigned long long>(SmallMax))
      Small = static_cast<int64_t>(V);
    else
      initLarge(V);
  }
  BigInt(unsigned long V) : BigInt(static_cast<unsigned long long>(V)) {}
  BigInt(unsigned V) : BigInt(static_cast<unsigned long long>(V)) {}

  /// Parses a decimal string with optional leading '-'.  Malformed input is
  /// a fatal error in every build type; use fromString for fallible
  /// parsing (all tool-facing parses go through fromString).
  explicit BigInt(std::string_view Decimal);

  /// Parses a decimal string, returning false on malformed input.
  static bool fromString(std::string_view Decimal, BigInt &Out);

  bool isZero() const { return IsSmall && Small == 0; }
  bool isNegative() const { return IsSmall ? Small < 0 : Negative; }
  bool isPositive() const { return IsSmall ? Small > 0 : !Negative; }
  bool isOne() const { return IsSmall && Small == 1; }
  bool isMinusOne() const { return IsSmall && Small == -1; }

  /// Returns -1, 0, or +1 according to the sign.
  int sign() const {
    if (IsSmall)
      return (Small > 0) - (Small < 0);
    return Negative ? -1 : 1;
  }

  /// Returns true iff the value fits in int64_t.
  bool fitsInt64() const;

  /// Converts to int64_t; asserts the value fits.
  int64_t toInt64() const;

  /// Converts to double (approximately, for diagnostics/heuristics only).
  double toDouble() const;

  /// Number of bits in the magnitude (0 for zero): |x| < 2^bitWidth().
  /// Drives the EffortBudget coefficient-width check.
  unsigned bitWidth() const {
    if (IsSmall)
      return static_cast<unsigned>(std::bit_width(smallMagnitude()));
    return static_cast<unsigned>(32 * (Limbs.size() - 1)) +
           static_cast<unsigned>(std::bit_width(Limbs.back()));
  }

  BigInt operator-() const {
    BigInt R = *this;
    if (R.IsSmall)
      R.Small = -R.Small; // Symmetric small range: always representable.
    else
      R.Negative = !R.Negative;
    return R;
  }
  BigInt abs() const { return isNegative() ? -*this : *this; }

  BigInt &operator+=(const BigInt &RHS) {
    if (IsSmall && RHS.IsSmall) {
      // |a| + |b| <= 2^63 - 2, so int64 addition cannot overflow.
      int64_t R = Small + RHS.Small;
      if (fitsSmall(R)) {
        Small = R;
        noteFastOp();
        return *this;
      }
      initLarge(static_cast<long long>(R));
      return *this;
    }
    return addSlow(RHS);
  }
  BigInt &operator-=(const BigInt &RHS) {
    if (IsSmall && RHS.IsSmall) {
      int64_t R = Small - RHS.Small;
      if (fitsSmall(R)) {
        Small = R;
        noteFastOp();
        return *this;
      }
      initLarge(static_cast<long long>(R));
      return *this;
    }
    return subSlow(RHS);
  }
  BigInt &operator*=(const BigInt &RHS) {
    if (IsSmall && RHS.IsSmall) {
      int64_t R;
      if (!__builtin_mul_overflow(Small, RHS.Small, &R)) {
        if (fitsSmall(R)) {
          Small = R;
          noteFastOp();
          return *this;
        }
        initLarge(static_cast<long long>(R));
        return *this;
      }
    }
    return mulSlow(RHS);
  }
  /// Truncated division (C semantics: rounds toward zero).
  BigInt &operator/=(const BigInt &RHS) {
    if (IsSmall && RHS.IsSmall) {
      // |Small| < 2^62 rules out INT64_MIN / -1, the only UB case.
      check(RHS.Small != 0, "division by zero");
      Small /= RHS.Small;
      noteFastOp();
      return *this;
    }
    return divSlow(RHS);
  }
  /// Truncated remainder (sign follows the dividend).
  BigInt &operator%=(const BigInt &RHS) {
    if (IsSmall && RHS.IsSmall) {
      check(RHS.Small != 0, "division by zero");
      Small %= RHS.Small;
      noteFastOp();
      return *this;
    }
    return remSlow(RHS);
  }

  friend BigInt operator+(BigInt L, const BigInt &R) { return L += R; }
  friend BigInt operator-(BigInt L, const BigInt &R) { return L -= R; }
  friend BigInt operator*(BigInt L, const BigInt &R) { return L *= R; }
  friend BigInt operator/(BigInt L, const BigInt &R) { return L /= R; }
  friend BigInt operator%(BigInt L, const BigInt &R) { return L %= R; }

  BigInt &operator++() { return *this += BigInt(1); }
  BigInt &operator--() { return *this -= BigInt(1); }

  friend bool operator==(const BigInt &L, const BigInt &R) {
    if (L.IsSmall != R.IsSmall)
      return false; // Unique representation: forms never overlap.
    if (L.IsSmall)
      return L.Small == R.Small;
    return L.Negative == R.Negative && L.Limbs == R.Limbs;
  }
  friend bool operator!=(const BigInt &L, const BigInt &R) {
    return !(L == R);
  }
  /// True iff this value equals -RHS, without materializing -RHS.
  bool isNegationOf(const BigInt &RHS) const {
    if (IsSmall != RHS.IsSmall)
      return false; // Unique representation: negation keeps the form.
    if (IsSmall)
      return Small == -RHS.Small;
    return Negative != RHS.Negative && Limbs == RHS.Limbs;
  }
  friend bool operator<(const BigInt &L, const BigInt &R) {
    return L.compare(R) < 0;
  }
  friend bool operator>(const BigInt &L, const BigInt &R) {
    return L.compare(R) > 0;
  }
  friend bool operator<=(const BigInt &L, const BigInt &R) {
    return L.compare(R) <= 0;
  }
  friend bool operator>=(const BigInt &L, const BigInt &R) {
    return L.compare(R) >= 0;
  }

  /// Three-way comparison: negative, zero, or positive.
  int compare(const BigInt &RHS) const {
    if (IsSmall && RHS.IsSmall)
      return (Small > RHS.Small) - (Small < RHS.Small);
    // A limb value's magnitude always exceeds any small value's.
    if (IsSmall)
      return RHS.Negative ? 1 : -1;
    if (RHS.IsSmall)
      return Negative ? -1 : 1;
    return compareSlow(RHS);
  }

  /// Simultaneous truncated quotient and remainder.
  static void divMod(const BigInt &Num, const BigInt &Den, BigInt &Quot,
                     BigInt &Rem);

  /// Floor division: rounds toward negative infinity.
  static BigInt floorDiv(const BigInt &Num, const BigInt &Den) {
    if (Num.IsSmall && Den.IsSmall) {
      check(Den.Small != 0, "division by zero");
      int64_t Q = Num.Small / Den.Small, R = Num.Small % Den.Small;
      if (R != 0 && ((R < 0) != (Den.Small < 0)))
        --Q;
      return BigInt(static_cast<long long>(Q));
    }
    return floorDivSlow(Num, Den);
  }
  /// Ceiling division: rounds toward positive infinity.
  static BigInt ceilDiv(const BigInt &Num, const BigInt &Den) {
    if (Num.IsSmall && Den.IsSmall) {
      check(Den.Small != 0, "division by zero");
      int64_t Q = Num.Small / Den.Small, R = Num.Small % Den.Small;
      if (R != 0 && ((R < 0) == (Den.Small < 0)))
        ++Q;
      return BigInt(static_cast<long long>(Q));
    }
    return ceilDivSlow(Num, Den);
  }
  /// Mathematical modulus: result in [0, |Den|).
  static BigInt floorMod(const BigInt &Num, const BigInt &Den) {
    if (Num.IsSmall && Den.IsSmall) {
      check(Den.Small != 0, "division by zero");
      int64_t D = Den.Small < 0 ? -Den.Small : Den.Small;
      int64_t R = Num.Small % D;
      if (R < 0)
        R += D;
      return BigInt(static_cast<long long>(R));
    }
    return floorModSlow(Num, Den);
  }

  /// Exact division: requires Den to evenly divide Num (checked in debug
  /// builds).  Use where divisibility is already proven — after a gcd, a
  /// Bareiss pivot, or a divides() test — to skip the remainder work.
  static BigInt divExact(const BigInt &Num, const BigInt &Den) {
    if (Num.IsSmall && Den.IsSmall) {
      check(Den.Small != 0, "division by zero");
      check(Num.Small % Den.Small == 0, "divExact: inexact division");
      return BigInt(static_cast<long long>(Num.Small / Den.Small));
    }
    return divExactSlow(Num, Den);
  }

  /// Greatest common divisor (always non-negative; gcd(0,0) == 0).
  static BigInt gcd(const BigInt &A, const BigInt &B) {
    if (A.IsSmall && B.IsSmall)
      return BigInt(static_cast<long long>(gcdInt64(A.Small, B.Small)));
    return gcdSlow(A, B);
  }
  /// Least common multiple (always non-negative).
  static BigInt lcm(const BigInt &A, const BigInt &B);
  /// Extended gcd: returns g = gcd(A,B) and sets X, Y with A*X + B*Y == g.
  static BigInt extendedGcd(const BigInt &A, const BigInt &B, BigInt &X,
                            BigInt &Y);
  /// Returns A^E for E >= 0.
  static BigInt pow(const BigInt &A, unsigned E);

  /// Binary gcd on machine words; always non-negative, gcd(0,0) == 0.
  /// The workhorse behind Rational::normalize on the small path.
  static int64_t gcdInt64(int64_t A, int64_t B) {
    uint64_t U = A < 0 ? 0 - static_cast<uint64_t>(A)
                       : static_cast<uint64_t>(A);
    uint64_t V = B < 0 ? 0 - static_cast<uint64_t>(B)
                       : static_cast<uint64_t>(B);
    if (U == 0)
      return static_cast<int64_t>(V);
    if (V == 0)
      return static_cast<int64_t>(U);
    int Shift = std::countr_zero(U | V);
    U >>= std::countr_zero(U);
    do {
      V >>= std::countr_zero(V);
      if (U > V)
        std::swap(U, V);
      V -= U;
    } while (V != 0);
    return static_cast<int64_t>(U << Shift);
  }

  /// Returns true iff this value evenly divides \p E (0 divides only 0).
  bool divides(const BigInt &E) const {
    if (IsSmall && E.IsSmall) {
      if (Small == 0)
        return E.Small == 0;
      noteFastOp();
      return E.Small % Small == 0;
    }
    return dividesSlow(E);
  }

  std::string toString() const;

  /// Hash suitable for unordered containers.
  size_t hash() const {
    if (IsSmall) {
      // splitmix64 finalizer: decorrelates nearby small values.
      uint64_t X = static_cast<uint64_t>(Small) + 0x9e3779b97f4a7c15ull;
      X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ull;
      X = (X ^ (X >> 27)) * 0x94d049bb133111ebull;
      return static_cast<size_t>(X ^ (X >> 31));
    }
    return hashSlow();
  }

  /// Testing hook: converts the representation to limbs *without*
  /// re-establishing the small-form invariant, so subsequent arithmetic
  /// exercises the slow paths.  Results of arithmetic on spilled values
  /// are canonical again.  Mixed-representation comparisons against a
  /// force-spilled value are out of contract (compare() exploits the
  /// invariant); arithmetic is fine.  No-op on zero.
  void forceSpillForTesting();

  /// True when the value is held inline (no heap allocation).
  bool isSmallRep() const { return IsSmall; }

  friend std::ostream &operator<<(std::ostream &OS, const BigInt &V);

private:
  /// Small-form bound: |v| <= SmallMax keeps add/sub of two small values
  /// inside int64_t.
  static constexpr int64_t SmallMax = (int64_t(1) << 62) - 1;
  static bool fitsSmall(int64_t V) { return V >= -SmallMax && V <= SmallMax; }

  uint64_t smallMagnitude() const {
    return Small < 0 ? 0 - static_cast<uint64_t>(Small)
                     : static_cast<uint64_t>(Small);
  }

  static void noteFastOp() {
    ArithCounters &A = arithCounters();
    if (A.CountOps.load(std::memory_order_relaxed))
      A.FastOps.fetch_add(1, std::memory_order_relaxed);
  }
  static void noteSlowOp() {
    ArithCounters &A = arithCounters();
    if (A.CountOps.load(std::memory_order_relaxed))
      A.SlowOps.fetch_add(1, std::memory_order_relaxed);
  }

  /// Spills an int64 magnitude into the limb form (counts a spill).
  void initLarge(long long V);
  void initLarge(unsigned long long V);
  /// Installs a trimmed limb magnitude, unspilling if it fits the small
  /// range; counts a spill when the limb form is kept.
  void setLarge(bool Neg, std::vector<uint32_t> &&Mag);

  BigInt &addSlow(const BigInt &RHS);
  BigInt &subSlow(const BigInt &RHS);
  BigInt &mulSlow(const BigInt &RHS);
  BigInt &divSlow(const BigInt &RHS);
  BigInt &remSlow(const BigInt &RHS);
  int compareSlow(const BigInt &RHS) const;
  bool dividesSlow(const BigInt &E) const;
  size_t hashSlow() const;
  static BigInt floorDivSlow(const BigInt &Num, const BigInt &Den);
  static BigInt ceilDivSlow(const BigInt &Num, const BigInt &Den);
  static BigInt floorModSlow(const BigInt &Num, const BigInt &Den);
  static BigInt divExactSlow(const BigInt &Num, const BigInt &Den);
  static BigInt gcdSlow(const BigInt &A, const BigInt &B);

  /// Returns this value's magnitude limbs: the live vector for limb form,
  /// or \p Storage filled from the inline value.
  const std::vector<uint32_t> &magnitudeLimbs(
      std::vector<uint32_t> &Storage) const;

  /// Magnitude comparison ignoring sign: -1, 0, +1.
  static int compareMagnitude(const std::vector<uint32_t> &A,
                              const std::vector<uint32_t> &B);
  static void addMagnitude(std::vector<uint32_t> &A,
                           const std::vector<uint32_t> &B);
  /// Requires |A| >= |B|; computes A -= B on magnitudes.
  static void subMagnitude(std::vector<uint32_t> &A,
                           const std::vector<uint32_t> &B);
  static std::vector<uint32_t> mulMagnitude(const std::vector<uint32_t> &A,
                                            const std::vector<uint32_t> &B);
  /// Magnitude division; returns quotient, leaves remainder in A.
  static std::vector<uint32_t> divModMagnitude(std::vector<uint32_t> &A,
                                               const std::vector<uint32_t> &B);

  int64_t Small = 0;   ///< The value when IsSmall.
  bool IsSmall = true; ///< Representation tag.
  bool Negative = false;        ///< Sign of the limb form (false when small).
  std::vector<uint32_t> Limbs;  ///< Magnitude limbs (empty when small).
};

std::ostream &operator<<(std::ostream &OS, const BigInt &V);

} // namespace omega

template <> struct std::hash<omega::BigInt> {
  size_t operator()(const omega::BigInt &V) const { return V.hash(); }
};

#endif // OMEGA_SUPPORT_BIGINT_H
