//===- poly/Faulhaber.cpp - Power-sum polynomials -------------------------===//

#include "poly/Faulhaber.h"

#include <vector>

using namespace omega;

BigInt omega::binomial(unsigned N, unsigned K) {
  if (K > N)
    return BigInt(0);
  K = std::min(K, N - K);
  BigInt R(1);
  for (unsigned I = 1; I <= K; ++I) {
    R *= BigInt(N - K + I);
    R = BigInt::divExact(R, BigInt(I)); // Product of I consecutive integers.
  }
  return R;
}

Rational omega::bernoulli(unsigned P) {
  // Memoized B- numbers (B1 = -1/2) via the defining recurrence
  // Σ_{j=0}^{m} C(m+1, j) B_j = 0; converted to B+ on return.  Per-thread:
  // omegad sessions sum concurrently, and a shared
  // table's push_back would reallocate under a racing reader.  The table
  // is degree-bounded and tiny, so per-thread recompute is cheaper than
  // taking a lock on every coefficient.
  // omegatidy: allow(thread-local) per-thread memo of query-independent data
  thread_local std::vector<Rational> Cache{Rational(1)};
  while (Cache.size() <= P) {
    unsigned M = static_cast<unsigned>(Cache.size());
    Rational Sum(0);
    for (unsigned J = 0; J < M; ++J)
      Sum += Rational(binomial(M + 1, J)) * Cache[J];
    Cache.push_back(-Sum / Rational(BigInt(M + 1)));
  }
  if (P == 1)
    return Rational(BigInt(1), BigInt(2));
  return Cache[P];
}

QuasiPolynomial omega::faulhaber(unsigned P, const QuasiPolynomial &X) {
  // S_p(X) = 1/(p+1) Σ_{j=0}^{p} C(p+1, j) B+_j X^{p+1-j}.
  QuasiPolynomial Out;
  QuasiPolynomial Pow(Rational(1)); // X^0, built up to X^{p+1}.
  std::vector<QuasiPolynomial> Powers{Pow};
  for (unsigned E = 1; E <= P + 1; ++E) {
    Pow *= X;
    Powers.push_back(Pow);
  }
  for (unsigned J = 0; J <= P; ++J) {
    Rational C = Rational(binomial(P + 1, J)) * bernoulli(J);
    Out += Powers[P + 1 - J] * C;
  }
  Out *= Rational(BigInt(1), BigInt(P + 1));
  return Out;
}

QuasiPolynomial omega::powerSumRange(unsigned P, const QuasiPolynomial &L,
                                     const QuasiPolynomial &U) {
  return faulhaber(P, U) - faulhaber(P, L - QuasiPolynomial(Rational(1)));
}
