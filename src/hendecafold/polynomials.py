"""Univariate polynomials and rational functions over exact rationals.

Coefficients are `fractions.Fraction`, stored in ascending degree order, so
every ring operation is exact.  The root pipeline runs on integers: a
polynomial's coefficients times the lcm of their denominators (a positive
scale, so every sign is kept) start one primitive pseudo-remainder sequence
(`_neg_prem`), cached on the polynomial.  It is the Sturm chain of a
square-free polynomial and always ends in the gcd with the derivative, which
gives the square-free part.  Isolation, counting and refinement all work on
the monic square-free part, cached too.  Real roots are isolated into
rational intervals certified by Sturm sign-variation counts.  The chain is
evaluated in integers at x = N/D (`_chain_values`): its first two elements
by homogeneous Horner, every later one from the two before it through the
pseudo-division step that made it, one exact division per element instead
of a Horner pass.  Isolation bisects from the Cauchy bound, but evaluates
the chain only inside Fujiwara's bound, rounded up to a power of two from
coefficient bit lengths; beyond it the count is the one at infinity.
Refinement finds the dyadic cell of width <= tol that exact bisection of
the interval would end in, on one integer grid over a common denominator:
a float Newton guess and one step from it, then Illinois regula falsi on the
exact grid values with a bisection safeguard, then a short float Newton
tail.  The result is bit-identical to bisection's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence, Union

Coeff = Union[int, Fraction]


class IdenticallyZeroDenominator(ZeroDivisionError):
    """A substitution produced a rational function with zero denominator."""


@dataclass(frozen=True)
class RatPoly:
    """Polynomial over Q; coeffs[k] multiplies x**k, trailing zeros stripped."""

    coeffs: tuple

    def __init__(self, coeffs: Iterable[Coeff] = ()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __reduce__(self):
        # pickle the coefficients alone: the cached forms below are rebuilt
        # on demand, and a pickle taken while they are filled stays whole
        return RatPoly, (self.coeffs,)

    @classmethod
    def of(cls, *coeffs: Coeff) -> "RatPoly":
        return cls(coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lc(self) -> Fraction:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @cached_property
    def _float_coeffs_desc(self) -> tuple:
        """float(c) for each coefficient, leading one first; built once."""
        return tuple(float(c) for c in reversed(self.coeffs))

    @cached_property
    def _int_coeffs(self) -> tuple:
        """The coefficients times the lcm of their denominators, a positive
        scale, so the integer polynomial has self's sign everywhere."""
        scale = math.lcm(*(c.denominator for c in self.coeffs))
        return tuple(c.numerator * (scale // c.denominator) for c in self.coeffs)

    @cached_property
    def _derivative(self) -> "RatPoly":
        return RatPoly(k * c for k, c in enumerate(self.coeffs) if k > 0)

    @cached_property
    def _int_chain(self) -> list:
        """`_integer_sturm_chain(self)`: the Sturm chain when self is
        square-free, and in every case ending in gcd(self, self') up to a
        constant factor."""
        return _integer_sturm_chain(self)

    @cached_property
    def _other_basis(self):
        """The monic square-free part, or None when that is self: a cache
        holding self would be a reference cycle.  Read it through `_basis`."""
        part = self.square_free_part()
        g = part.monic()
        if g is self:
            return None
        if part is self:
            # a constant multiple of self has the same chain: it starts from
            # the primitive integer form with a positive leading coefficient
            g.__dict__["_int_chain"] = self._int_chain
        return g

    def __call__(self, x):
        """Horner evaluation; float input switches to float arithmetic."""
        if isinstance(x, float):
            acc = 0.0
            for c in self._float_coeffs_desc:
                acc = acc * x + c
            return acc
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __add__(self, other):
        other = _as_poly(other)
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [Fraction(0)] * (n - len(self.coeffs))
        b = list(other.coeffs) + [Fraction(0)] * (n - len(other.coeffs))
        return RatPoly(x + y for x, y in zip(a, b))

    __radd__ = __add__

    def __neg__(self):
        return RatPoly(-c for c in self.coeffs)

    def __sub__(self, other):
        return self + (-_as_poly(other))

    def __rsub__(self, other):
        return _as_poly(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return RatPoly(c * other for c in self.coeffs)
        if not isinstance(other, RatPoly):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return RatPoly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, ci in enumerate(self.coeffs):
            for j, cj in enumerate(other.coeffs):
                out[i + j] += ci * cj
        return RatPoly(out)

    __rmul__ = __mul__

    def __divmod__(self, other: "RatPoly"):
        other = _as_poly(other)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        quot = [Fraction(0)] * max(len(rem) - len(other.coeffs) + 1, 0)
        d, lc = other.degree, other.lc
        while len(rem) - 1 >= d and any(rem):
            while rem and rem[-1] == 0:
                rem.pop()
            if len(rem) - 1 < d:
                break
            k = len(rem) - 1 - d
            q = rem[-1] / lc
            quot[k] = q
            for i, c in enumerate(other.coeffs):
                rem[k + i] -= q * c
        return RatPoly(quot), RatPoly(rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def derivative(self) -> "RatPoly":
        return self._derivative

    def compose(self, inner: "RatPoly") -> "RatPoly":
        """self(inner(x)), by Horner over the polynomial ring."""
        acc = RatPoly()
        for c in reversed(self.coeffs):
            acc = acc * inner + RatPoly.of(c)
        return acc

    def monic(self) -> "RatPoly":
        if self.is_zero or self.coeffs[-1] == 1:
            return self
        return self * (1 / self.lc)

    def square_free_part(self) -> "RatPoly":
        """self divided by the monic gcd of self and self'.

        The gcd is the last element of the cached remainder sequence
        `_int_chain`.  When it is constant, self is square-free and is
        returned as is.
        """
        if self.degree <= 0:
            return self
        gcd = self._int_chain[-1]
        return self if len(gcd) == 1 else self // RatPoly(gcd).monic()

    def __repr__(self) -> str:
        if self.is_zero:
            return "RatPoly(0)"
        terms = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            terms.append(f"{c}*x^{k}" if k else f"{c}")
        return "RatPoly(" + " + ".join(terms) + ")"


def _as_poly(v) -> RatPoly:
    if isinstance(v, RatPoly):
        return v
    if isinstance(v, (int, Fraction)):
        return RatPoly.of(v)
    raise TypeError(f"cannot treat {v!r} as a polynomial")


X = RatPoly.of(0, 1)


def poly_gcd(a: RatPoly, b: RatPoly) -> RatPoly:
    """Monic gcd by the Euclidean algorithm over Q[x]."""
    while not b.is_zero:
        a, b = b, a % b
    return a.monic() if not a.is_zero else a


@dataclass(frozen=True)
class RatFunc:
    """Reduced rational function num/den: den monic, gcd(num, den) = 1."""

    num: RatPoly
    den: RatPoly

    def __init__(self, num, den=RatPoly.of(1)):
        num, den = _as_poly(num), _as_poly(den)
        if den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        g = poly_gcd(num, den)
        if g.degree > 0:
            num, den = num // g, den // g
        lc = den.lc
        object.__setattr__(self, "num", num * (1 / lc))
        object.__setattr__(self, "den", den * (1 / lc))

    @classmethod
    def constant(cls, c: Coeff) -> "RatFunc":
        return cls(RatPoly.of(c))

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __add__(self, other):
        other = _as_func(other)
        return RatFunc(self.num * other.den + other.num * self.den,
                       self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(-self.num, self.den)

    def __sub__(self, other):
        return self + (-_as_func(other))

    def __rsub__(self, other):
        return _as_func(other) + (-self)

    def __mul__(self, other):
        other = _as_func(other)
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_func(other)
        if other.is_zero:
            raise ZeroDivisionError("division by the zero rational function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def __call__(self, x):
        return self.num(x) / self.den(x)

    def __repr__(self) -> str:
        return f"RatFunc({self.num!r} / {self.den!r})"


def _as_func(v) -> RatFunc:
    if isinstance(v, RatFunc):
        return v
    if isinstance(v, RatPoly):
        return RatFunc(v)
    if isinstance(v, (int, Fraction)):
        return RatFunc.constant(v)
    raise TypeError(f"cannot treat {v!r} as a rational function")


def poly_on_ratfunc(p: RatPoly, value: RatFunc) -> RatFunc:
    """p(value) for a polynomial p and rational-function argument."""
    acc = RatFunc.constant(0)
    for c in reversed(p.coeffs):
        acc = acc * value + c
    return acc


def ratfunc_substitute(target: RatFunc, var_value: RatFunc) -> RatFunc:
    """Substitute the variable of `target` by `var_value` and reduce."""
    den = poly_on_ratfunc(target.den, var_value)
    if den.is_zero:
        raise IdenticallyZeroDenominator(
            "denominator vanishes identically after substitution")
    return poly_on_ratfunc(target.num, var_value) / den


# ----------------------------------------------------------------------
# Real-root isolation (Sturm) and refinement
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class RootInterval:
    """Open interval (lo, hi) certified to contain exactly one real root.

    Endpoints are never roots of the square-free part, the polynomial that
    `refine_root` works on whatever the multiplicity of the root.
    """

    lo: Fraction
    hi: Fraction


def sturm_chain(p: RatPoly) -> list:
    """Sturm sequence p, p', -rem(...), ... for a square-free polynomial.

    Each element is the `_integer_sturm_chain` element rescaled by the
    positive constant 1/|lc|, which leaves all sign variations unchanged.
    """
    return [RatPoly(Fraction(c, abs(q[-1])) for c in q) for q in p._int_chain]


def _primitive(q: Sequence[int]) -> list:
    """A nonzero integer polynomial divided by its positive content."""
    g = math.gcd(*q)
    return [c // g for c in q]


class _Remainder(list):
    """A chain element made by `_neg_prem(a, b)`, with the step that made it:
    `step` = (scale, quot, content, drop), where
    content * self = quot * b - scale * a and drop = deg a - deg self."""

    __slots__ = ("step",)


def _neg_prem(a: Sequence[int], b: Sequence[int]) -> list:
    """-|lc(b)|**k * (a mod b) over its positive content, k = deg a - deg b + 1.

    The primitive pseudo-remainder of integer polynomials (Knuth, TAOCP
    vol. 2, 4.6.1): scaling a by |lc(b)|**k makes every quotient
    coefficient an integer, so the division needs no fractions.  The factor
    in front of -(a mod b) is a positive constant, so the result has the
    signs of the remainder a Sturm chain takes over Q.  It is returned as a
    `_Remainder` that keeps the scale, the pseudo-quotient and the content.
    Empty when b divides a.
    """
    db, lc = len(b) - 1, b[-1]
    scale = abs(lc) ** (len(a) - db)
    r = [c * scale for c in a]
    quot = [0] * (len(a) - db)
    for top in range(len(r) - 1, db - 1, -1):
        q = r[top] // lc
        if q:
            base = top - db
            quot[base] = q
            for i, c in enumerate(b):
                r[base + i] -= q * c
    del r[db:]
    while r and r[-1] == 0:
        r.pop()
    if not r:
        return r
    content = math.gcd(*r)
    rem = _Remainder(-c // content for c in r)
    rem.step = (scale, quot, content, len(a) - len(rem))
    return rem


def _homogeneous(q: Sequence[int], num: int, den: int) -> int:
    """den**d * q(num/den) for an integer polynomial q of degree d.

    Horner on the homogeneous form sum q_i * num**i * den**(d-i) needs no
    gcd at any step, and with den > 0 it has the sign of q(num/den).
    """
    acc, den_power = 0, 1
    for c in reversed(q):
        acc = acc * num + c * den_power
        den_power *= den
    return acc


def _chain_values(chain, num: int, den: int) -> list:
    """den**deg q * q(num/den) for each element q of a chain, den > 0.

    An element c that `_neg_prem(a, b)` made follows from the values A and B
    of the two before it: content * c = quot * b - scale * a, multiplied by
    den**deg a at num/den, reads content * den**drop * C = Q * B - scale * A
    with Q = den**deg quot * quot(num/den), so C is one exact division away.
    Every other element is evaluated by `_homogeneous`.  Either way C is
    Horner's value exactly, so every sign variation is the same.
    """
    values = []
    for q in chain:
        step = getattr(q, "step", None)
        if step is None:
            values.append(_homogeneous(q, num, den))
        else:
            scale, quot, content, drop = step
            values.append((_homogeneous(quot, num, den) * values[-1]
                           - scale * values[-2]) // (content * den ** drop))
    return values


def _integer_sturm_chain(g: RatPoly) -> list:
    """Sturm chain of g in primitive integer polynomials.

    It starts from g's integer form with a positive leading coefficient and
    that form's derivative, then appends `_neg_prem` of the last two until a
    constant or a zero remainder.  Each element is a positive multiple of
    the `sturm_chain` element, so the sign variations are the same.  The
    remainders keep the step that made them, so `_chain_values` evaluates
    all but the first two through the recurrence.
    """
    if g.is_zero:
        return []
    f = _primitive(g._int_coeffs)
    chain = [f if f[-1] > 0 else [-c for c in f]]
    if len(f) > 1:
        chain.append(_primitive([k * c for k, c in enumerate(chain[0])][1:]))
    while len(chain[-1]) > 1:
        rem = _neg_prem(chain[-2], chain[-1])
        if not rem:
            break
        chain.append(rem)
    return chain


def _basis(p: RatPoly) -> RatPoly:
    """p's monic square-free part: p's distinct real roots, each simple."""
    g = p._other_basis
    return p if g is None else g


def _variations(values: Sequence[int]) -> int:
    signs = [1 if v > 0 else -1 for v in values if v != 0]
    return sum(1 for s1, s2 in zip(signs, signs[1:]) if s1 != s2)


def _variations_at(int_chain, x: Fraction) -> int:
    return _variations(_chain_values(int_chain, x.numerator, x.denominator))


def _variations_at_inf(int_chain, sign: int) -> int:
    return _variations([q[-1] * sign ** (len(q) - 1) for q in int_chain])


def count_real_roots(p: RatPoly, lo=None, hi=None) -> int:
    """Number of distinct real roots in (lo, hi]; None means +-infinity."""
    g = _basis(p)
    if g.degree <= 0:
        return 0
    chain = g._int_chain
    va = _variations_at_inf(chain, -1) if lo is None else _variations_at(chain, Fraction(lo))
    vb = _variations_at_inf(chain, 1) if hi is None else _variations_at(chain, Fraction(hi))
    return va - vb


def root_bound(p: RatPoly) -> Fraction:
    """Cauchy bound: every real root lies strictly inside (-B, B)."""
    if p.degree < 1:
        raise ValueError("constant polynomial has no root bound")
    return 1 + max(abs(c / p.lc) for c in p.coeffs[:-1]) + 1


def _root_bound_bits(f: Sequence[int]) -> int:
    """An e >= 1 with every root of the integer polynomial f inside (-2^e, 2^e).

    Fujiwara's bound 2 * max_k |f[d-k] / f[d]|^(1/k), with each ratio
    rounded up to a power of two from bit lengths: |f[d]| >= 2^(top-1) and
    |f[d-k]| < 2^len for bit lengths top and len, so the ratio is below
    2^(len - top + 1).
    """
    top = f[-1].bit_length()
    return 1 + max([0] + [-((top - 1 - c.bit_length()) // k)
                          for k, c in enumerate(reversed(f[:-1]), 1) if c])


def _nonroot_between(chain, lo: Fraction, hi: Fraction) -> tuple:
    """A point of (lo, hi) that is not a root of chain[0], the midpoint if
    it can be, and the sign variations of the chain there."""
    mid = (lo + hi) / 2
    width, k, cands = hi - lo, 4, (mid,)
    while True:
        for cand in cands:
            values = _chain_values(chain, cand.numerator, cand.denominator)
            if values[0] != 0:
                return cand, _variations(values)
        cands = [c for c in (mid + width / k, mid - width / k) if lo < c < hi]
        k *= 2


def _separation_bits(f: Sequence[int]) -> int:
    """An e with 2^-e below Mahler's root-separation bound of the square-free
    integer polynomial f: no two of its roots lie closer than 2^-e."""
    d = len(f) - 1
    # sep > sqrt(3) d^(-(d+2)/2) M(f)^(1-d), and the Mahler measure M(f) is
    # at most the 2-norm; the extra halving absorbs rounding in the logs
    log2_sep = (math.log2(3) / 2 - (d + 2) / 2 * math.log2(d)
                - (d - 1) / 2 * math.log2(sum(c * c for c in f)))
    return math.ceil(-log2_sep) + 1


def isolate_real_roots(p: RatPoly) -> list:
    """Disjoint isolating intervals, one per distinct real root, ascending.

    The polynomial is reduced to its square-free part first, so multiple
    roots are reported once.  Interval endpoints are never roots.  Bisection
    starts from the Cauchy bound, but no root lies at or beyond the tighter
    power-of-two bound 2^e (`_root_bound_bits`), so a midpoint there takes
    the chain's variations at infinity without an evaluation, as do the two
    starting endpoints.  The midpoints, and so the intervals, are those that
    evaluating every one would give.
    """
    if p.is_zero:
        raise ValueError("cannot isolate roots of the zero polynomial")
    g = _basis(p)
    if g.degree <= 0:
        return []
    chain = g._int_chain
    bound = root_bound(g)
    # Two roots never lie closer than 2^-sep_bits, so an interval narrower
    # than that holding two is a kernel fault.  The first interval is wider
    # than 2^(nb - db) and a split keeps at least 1/4 of an interval
    # (`_nonroot_between`), so none split `shallow` times or fewer is that
    # narrow, and the width is only tested deeper.
    sep_bits = _separation_bits(chain[0])
    nb, db = bound.numerator.bit_length(), bound.denominator.bit_length()
    shallow = (nb - db + sep_bits) // 2
    # a midpoint (a/b + c/d) / 2 is at or beyond +-2^e when a*d + c*b is at
    # or beyond +-(b*d << (e + 1)): one integer test, no Fraction
    beyond = _root_bound_bits(chain[0]) + 1
    v_left, v_right = _variations_at_inf(chain, -1), _variations_at_inf(chain, 1)
    out = []
    stack = [(-bound, bound, v_left, v_right, 0)]
    while stack:
        lo, hi, vlo, vhi, depth = stack.pop()
        k = vlo - vhi
        if k == 0:
            continue
        if k == 1:
            out.append(RootInterval(lo, hi))
            continue
        if depth > shallow and hi - lo < Fraction(1, 1 << sep_bits):
            raise RuntimeError(f"kernel fault: count {k} near {float(lo)!r} on an interval "
                               f"narrower than the root separation 2^-{sep_bits}")
        lo_den, hi_den = lo.denominator, hi.denominator
        twice_mid = lo.numerator * hi_den + hi.numerator * lo_den
        edge = (lo_den * hi_den) << beyond
        if abs(twice_mid) >= edge:
            mid, vmid = (lo + hi) / 2, v_right if twice_mid > 0 else v_left
        else:
            mid, vmid = _nonroot_between(chain, lo, hi)
        if not vhi <= vmid <= vlo:
            raise RuntimeError(f"kernel fault: count {vmid} at {mid} outside [{vhi}, {vlo}]")
        stack.append((lo, mid, vlo, vmid, depth + 1))
        stack.append((mid, hi, vmid, vhi, depth + 1))
    out.sort(key=lambda iv: iv.lo)
    return out


def _float_root_guess(g: RatPoly, lo: float, hi: float, left_sign: int,
                      resolution: float) -> float:
    """Float estimate of g's root in [lo, hi]; no precision is promised.

    Newton steps that would leave the bracket are replaced by bisection, and
    the bracket follows the float signs of g, which may be wrong near the
    root.  The step count is capped because the caller certifies and, if
    need be, corrects the estimate with exact evaluations.
    """
    dg = g.derivative()
    x = (lo + hi) / 2
    for _ in range(64):
        fx = g(x)
        if fx == 0:
            break
        if (fx > 0) == (left_sign > 0):
            lo = x
        else:
            hi = x
        dfx = dg(x)
        nx = x - fx / dfx if dfx else math.nan
        if not lo < nx < hi:
            nx = (lo + hi) / 2
        done = abs(nx - x) <= resolution
        x = nx
        if done:
            break
    return x


def _horner(q: Sequence[int], x: int) -> int:
    """q(x) for an integer polynomial q at an integer x."""
    acc = 0
    for c in reversed(q):
        acc = acc * x + c
    return acc


def _float_at(num: int, den: int) -> float:
    """num/den rounded to a float; a point beyond the float range is an error."""
    try:
        return num / den
    except OverflowError:
        side = "-" if num < 0 else ""
        raise ValueError(f"root near {side}2**{abs(num).bit_length() - den.bit_length()} "
                         "is beyond the float range") from None


def refine_root(p: RatPoly, interval: RootInterval, tol: float = 1e-12) -> float:
    """Refine an isolated root to a float within tol of the true root.

    Exact bisection of (lo, hi) would stop at the first level k at which the
    dyadic cells lo + [i, i+1] * (hi - lo) / 2**k are no wider than tol, in
    the cell holding the root, or earlier at a grid point that is the root,
    returned as is.  This finds that cell directly, each probe an exact
    evaluation on the grid: a float Newton guess of its index and one step
    away from it, so a good guess costs two probes; then regula falsi on the
    exact values at the bracket ends, Illinois style (an end kept twice has
    its value halved, so a far guess gallops toward the root).  A secant
    probe that fails to halve the bracket is followed by a bisection, so no
    root takes more than 2 * log2(cells) + 2 probes.  Any search that
    brackets on this grid ends in the same cell, and it probes a grid point
    that is the root, so the result is bit-identical to exact bisection's,
    and the bracket it polishes in is certified.  The grid lives on one
    integer scale: with lo = LO/W and hi = HI/W over a common denominator W,
    grid point j is (LO*cells + j*(HI - LO)) / (W*cells), so a probe is one
    integer multiply-add and a Horner pass in the numerator on coefficients
    scaled once by powers of W*cells; and every float is an int/int
    division, correctly rounded like float(Fraction).  At most three float
    Newton steps then polish the cell midpoint; any Newton step that leaves
    the cell or fails to shrink |p| is rejected.  A guess or polish that
    would overflow the float range is skipped, and a root beyond that range
    raises ValueError.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError("tol must be positive")
    g = _basis(p)
    ints = g._int_coeffs
    lo, hi = interval.lo, interval.hi
    flo = _homogeneous(ints, lo.numerator, lo.denominator)
    fhi = _homogeneous(ints, hi.numerator, hi.denominator)
    if not lo < hi or flo == 0 or fhi == 0 or (flo > 0) == (fhi > 0):
        raise ValueError(f"{interval} does not bracket a simple root of {p!r}")
    W = math.lcm(lo.denominator, hi.denominator)
    LO, HI = lo.numerator * (W // lo.denominator), hi.numerator * (W // hi.denominator)
    span = HI - LO
    tol_num, tol_den = tol.as_integer_ratio()
    # the fewest power-of-two cells no wider than tol: ceil(span/W / tol)
    cells = 1 << (-(-span * tol_den // (W * tol_num)) - 1).bit_length()
    origin, den = LO * cells, W * cells
    # at every grid point num/den, den**d * g(num/den) is Horner in num on
    # the coefficients c_i * den**(d - i), so they are scaled once
    d = len(ints) - 1
    grid_ints = [c * den ** (d - i) for i, c in enumerate(ints)]
    left_sign = 1 if flo > 0 else -1
    try:
        guess = _float_root_guess(g, LO / W, HI / W, left_sign, span / den)
        guess_num, guess_den = guess.as_integer_ratio()
        j = (guess_num * W - LO * guess_den) * cells // (guess_den * span)
    except OverflowError:
        j = cells // 2  # an end or a coefficient beyond the float range
    # grid point a lies left of the root and grid point b right of it, with
    # den**d * g there in fa and fb once the secant needs them
    a, b, fa, fb = 0, cells, None, None
    j, probes, moved, secant = min(max(j, 1), cells - 1), 0, 0, False
    while b - a > 1:
        num = origin + j * span
        f = _horner(grid_ints, num)
        if f == 0:
            return _float_at(num, den)
        width, kept = b - a, moved
        if (f > 0) == (flo > 0):
            a, fa, moved = j, f, 1
        else:
            b, fb, moved = j, f, -1
        probes += 1
        if probes == 1:
            j += moved  # one step from the guess toward the root
            continue
        if fa is None:
            fa = flo * (den // lo.denominator) ** d
        if fb is None:
            fb = fhi * (den // hi.denominator) ** d
        if moved == kept:
            # the other end is kept twice: Illinois halves its value
            if moved > 0:
                fb //= 2
            else:
                fa //= 2
        if secant and 2 * (b - a) > width + 1:
            # the secant did not halve the bracket: bisect
            j, secant = (a + b) // 2, False
        else:
            j, secant = min(max(a + fa * (b - a) // (fa - fb), a + 1), b - 1), True
    x = _float_at(2 * origin + (a + b) * span, 2 * den)
    lo_f, hi_f = _float_at(origin + a * span, den), _float_at(origin + b * span, den)
    dg = g.derivative()
    try:
        for _ in range(3):
            fx, dfx = g(x), dg(x)
            if dfx == 0.0:
                break
            nx = x - fx / dfx
            if not (lo_f <= nx <= hi_f) or abs(g(nx)) >= abs(fx):
                break
            x = nx
    except OverflowError:
        pass  # a coefficient beyond the float range: the cell midpoint stands
    return min(max(x, lo_f), hi_f)
