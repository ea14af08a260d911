"""Vertex-cosine polynomials of regular n-gons and fold constructibility.

For odd n, summing the symmetric power terms z**k + z**(-k) over the vertex
equation of the regular n-gon collapses it to a degree-(n-1)/2 polynomial in
t = z + 1/z = 2*cos(angle).  For n = 11 that polynomial is the quintic
t^5 + t^4 - 4t^3 - 3t^2 + 3t + 1, which is what the two-fold solver solves.

Constructibility by a sequence of single folds is governed by the prime
shape n = 2^r * 3^s * p1 * ... * pk with distinct primes pi = 2^m * 3^n + 1
greater than 3; `classify_constructible` produces the full witness.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import InputError
from .polynomials import RatPoly, _add


class InvalidN(InputError):
    """Polygon side count outside the supported domain."""


#: Largest n that `classify_constructible` takes.  It factors n by trial
#: division, up to sqrt(n); for the largest prime below this cap that takes
#: about 0.3 s on a 2-vCPU Xeon, and each factor of 4 doubles it.
MAX_CLASSIFY_N = 1 << 44

#: Largest n that `halved_cyclotomic` takes.  Its coefficients grow to about
#: 0.35*n bits, so the sum costs about n^3 bit operations: on a 2-vCPU Xeon
#: n = 1,001 takes 0.03 s, 2,001 0.13 s, 4,001 0.4 s and 8,001 2.4 s, and
#: `poly` prints 0.6 MB at the cap.
MAX_POLY_N = 4001


@dataclass(frozen=True)
class NgonPolynomial:
    n: int
    poly: RatPoly


@dataclass(frozen=True)
class PierpontWitness:
    """A prime factor p together with exponents showing p = 2^m * 3^k + 1."""

    prime: int
    two_exp: int
    three_exp: int


@dataclass(frozen=True)
class ConstructibilityReport:
    n: int
    r: int
    s: int
    pierpont_primes: tuple
    single_fold_constructible: bool
    obstructions: tuple


def halved_cyclotomic(n: int) -> NgonPolynomial:
    """Degree-(n-1)/2 polynomial in t = 2*cos satisfied by the n-gon vertices.

    Sums 1 + sum_{k=1}^{(n-1)/2} (z^k + z^-k) expressed in t, i.e. the
    symmetrized (z^n - 1)/(z - 1); monic.  The domain is odd n with
    3 <= n <= `MAX_POLY_N` = 4001.
    The term z^k + z^-k is p_k(t), with p0 = 2, p1 = t and
    p_{k+1} = t*p_k - p_{k-1}; the terms come from one pass of that
    recurrence on integer coefficient lists, so the sum costs O(n^2) integer
    operations rather than O(n^3), and one RatPoly is built at the end.
    Every term from k = 1 on is monic, so the sum is monic as it stands.
    """
    if n < 3 or n % 2 == 0:
        raise InvalidN(f"need odd n >= 3, got {n}")
    if n > MAX_POLY_N:
        raise InvalidN(f"need n <= {MAX_POLY_N}, got {n}")
    prev, cur = [2], [0, 1]
    acc = [1, 1]
    for _ in range((n - 1) // 2 - 1):
        prev, cur = cur, _add([0, *cur], [-c for c in prev])
        acc = _add(acc, cur)
    return NgonPolynomial(n, RatPoly(acc))


def _factorize(n: int) -> dict:
    factors = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


def _pierpont_split(p: int):
    """Exponents (m, k) with p - 1 = 2^m * 3^k, or None if p is not Pierpont."""
    rest, m, k = p - 1, 0, 0
    while rest % 2 == 0:
        rest //= 2
        m += 1
    while rest % 3 == 0:
        rest //= 3
        k += 1
    return (m, k) if rest == 1 else None


def classify_constructible(n: int) -> ConstructibilityReport:
    """Decide single-fold constructibility of the regular n-gon, with witness.

    Constructible iff n = 2^r * 3^s * p1...pk for distinct Pierpont primes
    pi > 3 (powers of 2 and 3 are absorbed into r and s; a repeated Pierpont
    prime is an obstruction, as is any prime factor q with q - 1 not of the
    form 2^m * 3^k).  The domain is 3 <= n <= `MAX_CLASSIFY_N` = 2^44.
    """
    if n < 3:
        raise InvalidN(f"need n >= 3, got {n}")
    if n > MAX_CLASSIFY_N:
        raise InvalidN(f"need n <= 2^44 = {MAX_CLASSIFY_N}, got {n}")
    factors = _factorize(n)
    r = factors.pop(2, 0)
    s = factors.pop(3, 0)
    witnesses = []
    obstructions = []
    for p in sorted(factors):
        exp = factors[p]
        split = _pierpont_split(p)
        if split is None:
            obstructions.append(f"prime factor {p} is not a Pierpont prime")
            continue
        if exp > 1:
            obstructions.append(f"Pierpont prime {p} appears with exponent {exp}")
            continue
        witnesses.append(PierpontWitness(p, split[0], split[1]))
    return ConstructibilityReport(
        n=n,
        r=r,
        s=s,
        pierpont_primes=tuple(witnesses),
        single_fold_constructible=not obstructions,
        obstructions=tuple(obstructions),
    )
