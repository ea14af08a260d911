"""Univariate polynomials and rational functions over exact rationals.

Coefficients are `fractions.Fraction`, stored in ascending degree order, so
every ring operation is exact.  The root pipeline runs on integers: a
polynomial's primitive integer form (`_int_coeffs`, positive leading
coefficient) starts one primitive pseudo-remainder sequence (`_neg_prem`),
cached on the polynomial.  It is the Sturm chain of a square-free
polynomial and always ends in the gcd with the derivative, which gives the
square-free part.  Isolation, counting and refinement all work on the monic
square-free part, cached too.  Real roots are isolated into
rational intervals certified by Sturm sign-variation counts.  The chain is
evaluated in integers at x = N/D (`_chain_values`): its first two elements
by homogeneous Horner, every later one from the two before it through the
pseudo-division step that made it, one exact division per element instead
of a Horner pass (a degree-1 pseudo-quotient is evaluated inline).
Isolation starts at +-2^e, Fujiwara's bound rounded up to a power of two,
and bisects, but splits an interval many binary orders wide at a power of
two.  Every point it makes is dyadic, so it is held as
an integer pair (num, k) for num / 2^k and split with shifts and compares;
only the returned intervals are Fractions.  Every split takes one path:
`_split_point` picks the point and evaluates the square-free part there, a
split of two roots reads that sign alone when it settles it, and any other
split hands the value to the chain as its first element.  Refinement reads
the values at the returned ends from isolation (`_end_values`).
Refinement finds the cell [j, j+1] * 2^-m holding the root, 2^-m the
largest power of two <= tol, on the grid anchored at zero: a float Newton
guess, which takes value and slope in one Horner pass and stops at a Newton
step below the square root of the grid step or at its third bisection, and
one step from it, then secants through the last two exact grid probes,
extrapolating when both lie on one side of the root, with a bisection
safeguard, then a short float Newton tail that evaluates g once per step
and g' in one pass over a tuple of floats k * num / den, made with no
Fraction (`_float_derivative_desc`).  So a refined root depends on the
polynomial and tol alone, and it is bit-identical to an exact bisection's.

The exact kernels that `folds` and `cyclotomic` share live here: `_add` and
`_mul` on coefficient lists and `_over_common_denominator`; `geometry`
scales a line's three entries in one pass of its own.  `_primitive` alone
divides out content and sign.  `_monic_from_ints` makes `folds`' monic
eliminants, and their primitive forms, from integer coefficient lists.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence, Union

from . import _checked_tol

Coeff = Union[int, Fraction]


def _add(p: Sequence, q: Sequence) -> list:
    """p + q, coefficient lists in ascending degree."""
    if len(p) < len(q):
        p, q = q, p
    out = list(p)
    for i, c in enumerate(q):
        out[i] += c
    return out


def _mul(p: Sequence, q: Sequence) -> list:
    """p * q, coefficient lists in ascending degree; a factor k is the list
    [k], and an empty factor gives zeros."""
    out = [0] * (len(p) + len(q) - 1)
    for i, c in enumerate(p):
        for j, d in enumerate(q):
            out[i + j] += c * d
    return out


def _over_common_denominator(*values) -> tuple:
    """(numerators, d): integers with values[i] == numerators[i] / d, d > 0
    the lcm of the denominators; ints, Fractions and floats alike."""
    ratios = [v.as_integer_ratio() for v in values]
    d = math.lcm(*(den for _, den in ratios))
    return [num * (d // den) for num, den in ratios], d


def _primitive(q: Sequence[int]) -> list:
    """An integer polynomial over its content, signed so the leading
    coefficient is positive: every nonzero rational multiple of it has this
    same primitive form (Knuth, TAOCP vol. 2, 4.6.1)."""
    g = -math.gcd(*q) if q and q[-1] < 0 else math.gcd(*q)
    return [c // g for c in q]


@dataclass(frozen=True)
class RatPoly:
    """Polynomial over Q; coeffs[k] multiplies x**k, trailing zeros stripped."""

    coeffs: tuple

    def __init__(self, coeffs: Iterable[Coeff] = ()):
        cs = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

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
        """float(c) for each coefficient, leading one first; built once.
        float(Fraction) is the division of numerator by denominator."""
        return tuple(c.numerator / c.denominator for c in reversed(self.coeffs))

    @cached_property
    def _int_coeffs(self) -> tuple:
        """The primitive integer form: `_primitive` of the coefficients over
        their common denominator.  It has the signs of self when lc > 0."""
        return tuple(_primitive(_over_common_denominator(*self.coeffs)[0]))

    @cached_property
    def _derivative(self) -> "RatPoly":
        # not k * c, which takes Fraction.__rmul__'s ABC checks
        return RatPoly(Fraction(k * c.numerator, c.denominator)
                       for k, c in enumerate(self.coeffs) if k > 0)

    @cached_property
    def _float_derivative_desc(self) -> tuple:
        """float(c) for each c in self', leading one first: k * num / den, the
        quotient that float(Fraction(k * num, den)) rounds, with no Fraction."""
        return tuple(k * c.numerator / c.denominator for k, c in enumerate(self.coeffs) if k)[::-1]

    @cached_property
    def _int_chain(self) -> list:
        """`_integer_sturm_chain(self)`: the Sturm chain when self is
        square-free, and in every case ending in gcd(self, self') up to a
        constant factor."""
        return _integer_sturm_chain(self)

    @cached_property
    def _grid_ints(self) -> dict:
        """`refine_root`'s integer coefficients on its grid 2^-m, and the
        largest float times the grid's denominator, by m."""
        return {}

    @cached_property
    def _end_values(self) -> dict:
        """den**d * self at the ends num/den of the intervals isolation
        returned, by (num, den) in lowest terms, for `refine_root`."""
        return {}

    @cached_property
    def _other_basis(self):
        """The monic square-free part, or None when that is self: a cache
        holding self would be a reference cycle.  Read it through `_basis`.
        The monic copy of a square-free self has self's primitive form, so
        it shares self's chain instead of building a second one."""
        g = self.square_free_part().monic()
        if g is not self and g.degree == self.degree:  # self is square-free
            g.__dict__["_int_chain"] = self._int_chain
        return None if g is self else g

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
        return RatPoly(_add(self.coeffs, _as_poly(other).coeffs))

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
        return RatPoly(_mul(self.coeffs, other.coeffs))

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


def _monic_from_ints(ints: Sequence[int]) -> RatPoly:
    """RatPoly(ints).monic() straight from the integers: coefficients
    Fraction(c, lc), lc the last nonzero one, the zeros after it stripped,
    and `_int_coeffs` filled with `_primitive` of the integers."""
    lc = next((c for c in reversed(ints) if c), 1)
    poly = RatPoly(Fraction(c, lc) for c in ints)
    poly.__dict__["_int_coeffs"] = tuple(_primitive(ints[:len(poly.coeffs)]))
    return poly


def _as_poly(v) -> RatPoly:
    if isinstance(v, RatPoly):
        return v
    if isinstance(v, (int, Fraction)):
        return RatPoly.of(v)
    raise TypeError(f"cannot treat {v!r} as a polynomial")


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


def _chain_values(chain, num: int, den: int, head: int = None) -> list:
    """den**deg q * q(num/den) for each element q of a chain, den > 0; the
    first is `head` when the caller has it.

    An element c that `_neg_prem(a, b)` made follows from the values A and B
    of the two before it: content * c = quot * b - scale * a, multiplied by
    den**deg a at num/den, reads content * den**drop * C = Q * B - scale * A
    with Q = den**deg quot * quot(num/den), so C is one exact division away.
    A degree-1 quot, the only kind in a normal chain, is evaluated inline
    as q1 * num + q0 * den, and a longer one by `_homogeneous`, as is every
    element without a step.  Either way C is Horner's value exactly, so
    every sign variation is the same.
    """
    last = _homogeneous(chain[0], num, den) if head is None else head
    values, before = [last], None
    for q in chain[1:]:
        step = getattr(q, "step", None)
        if step is None:
            value = _homogeneous(q, num, den)
        else:
            scale, quot, content, drop = step
            qv = quot[1] * num + quot[0] * den if len(quot) == 2 else _homogeneous(quot, num, den)
            value = (qv * last - scale * before) // (content * den if drop == 1
                                                     else content * den ** drop)
        values.append(value)
        before, last = last, value
    return values


def _integer_sturm_chain(g: RatPoly) -> list:
    """Sturm chain of g in primitive integer polynomials, up to g's sign.

    It starts from `_int_coeffs` and its primitive derivative, then appends
    `_neg_prem` of the last two until a constant or a zero remainder.  Each
    element is a positive multiple of the same element of the Sturm sequence
    f, f', -rem(...), ... over Q, f = +-g with lc(f) > 0, so the variations
    are the same.  Remainders keep the step that made them, so
    `_chain_values` evaluates all but the first two by the recurrence.
    """
    if g.is_zero:
        return []
    chain = [list(g._int_coeffs)]
    if len(chain[0]) > 1:
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
    signs = [v > 0 for v in values if v]
    return sum(map(operator.ne, signs, signs[1:]))


def _variations_at(int_chain, x) -> int:
    """Sign variations of the chain at x, a Fraction or a float infinity."""
    if isinstance(x, float):
        return _variations_at_inf(int_chain, 1 if x > 0 else -1)
    return _variations(_chain_values(int_chain, x.numerator, x.denominator))


def _variations_at_inf(int_chain, sign: int) -> int:
    # q's sign at -infinity is lc's negated when deg q = len(q) - 1 is odd
    return _variations([q[-1] if sign > 0 or len(q) % 2 else -q[-1] for q in int_chain])


def _range_end(x, unbounded: float):
    """A range end as a Fraction, or as a float infinity: `unbounded` for
    None, and x itself when it is a float infinity."""
    if x is None:
        return unbounded
    return x if isinstance(x, float) and math.isinf(x) else Fraction(x)


def count_real_roots(p: RatPoly, lo=None, hi=None) -> int:
    """Number of distinct real roots in (lo, hi]; None or a float infinity
    means that end is unbounded.  A range with lo > hi, and the zero
    polynomial, raise ValueError."""
    if p.is_zero:
        raise ValueError("cannot isolate roots of the zero polynomial")
    lo, hi = _range_end(lo, -math.inf), _range_end(hi, math.inf)
    if lo > hi:
        raise ValueError(f"empty range: lo {lo} is above hi {hi}")
    g = _basis(p)
    if g.degree <= 0:
        return 0
    return _variations_at(g._int_chain, lo) - _variations_at(g._int_chain, hi)


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


_SPLIT_BITS = 64  # binary orders an interval spans before it is split in the exponent


def _dyadic(num: int, k: int) -> tuple:
    """num / 2^k, k >= 0, as a dyadic pair: (num', k') in lowest terms, so
    num' is odd when k' > 0, and zero is (0, 0)."""
    if not num:
        return 0, 0
    s = min((num & -num).bit_length() - 1, k)
    return num >> s, k - s


def _fraction(point: tuple) -> Fraction:
    """A dyadic pair as a Fraction."""
    num, k = point
    return Fraction(num, 1 << k)


def _split_point(f: Sequence[int], lo: tuple, hi: tuple) -> tuple:
    """The point of (lo, hi) at which isolation splits it, and den**d * f
    there, nonzero.  Points are dyadic pairs (`_dyadic`), so every step is an
    integer shift or compare, and f is evaluated at den = 2^k.  The point is
    the midpoint, unless (lo, hi) lies on one side of zero and the exponents
    of its ends differ by more than `_SPLIT_BITS` (a zero end counts as 1):
    then it is the power of two halfway between them, so isolation crosses
    binary orders quickly.  A root of f falls back to the next of
    mid +- width / 2^j, j = 2, 3, ..."""
    (a, ka), (b, kb) = lo, hi
    k = max(ka, kb)
    a, b = a << (k - ka), b << (k - kb)  # both ends over 2^k
    mid = _dyadic(a + b, k + 1)
    if a >= 0 or b <= 0:
        sign, near, far = (1, lo, hi) if a >= 0 else (-1, hi, lo)
        # E with 2^(E-1) < |x| < 2^(E+1), and 0 for x = 0
        low, high = (abs(num).bit_length() - kx - 1 if num else 0 for num, kx in (near, far))
        if high - low > _SPLIT_BITS:
            e = (low + high) // 2
            mid = (sign << e, 0) if e >= 0 else (sign, -e)
    # fallbacks mid +- width / 2^j, each over 2^top
    (m, km), j, cands = mid, 2, (mid,)
    while True:
        for num, kc in cands:
            value = _homogeneous(f, num, 1 << kc)
            if value:
                return (num, kc), value
        top = max(km, k) + j
        centre, step, shift = m << (top - km), (b - a) << (top - k - j), top - k
        cands = [_dyadic(c, top) for c in (centre + step, centre - step)
                 if a << shift < c < b << shift]
        j += 1


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

    The polynomial is reduced to its square-free part g first, so multiple
    roots are reported once.  Interval endpoints are never roots.  Isolation
    starts at +-2^e (`_root_bound_bits`): no root lies at or beyond it, so
    both ends take the chain's variations at infinity without an evaluation.
    Each interval holding more than one root is split on one path: at the
    point `_split_point` picks, its midpoint, or a power of two when its
    ends lie many binary orders apart on one side of zero, with g's value
    there.  Interval ends are dyadic pairs until they are returned.  g's
    roots are simple, so g has the sign (-1)^r at a point with r roots above
    it (Sturm's theorem): a split of two roots where g's sign differs from
    its sign at the left end leaves one on each side without the chain;
    every other split evaluates the chain with g's value as its head.  g's
    value at each returned end but +-2^e is kept in `_end_values` for
    `refine_root`.
    """
    if p.is_zero:
        raise ValueError("cannot isolate roots of the zero polynomial")
    g = _basis(p)
    if g.degree <= 0:
        return []
    chain = g._int_chain
    e = _root_bound_bits(chain[0])
    # Two roots never lie closer than 2^-sep_bits, so an interval narrower
    # than that holding two is a kernel fault.  The first interval is
    # 2^(e+1) wide and a midpoint split keeps at least 1/4 of an interval, so
    # none split `shallow` times or fewer by midpoints is that narrow, and the
    # width is only tested deeper.  An exponent split keeps less than 1/4;
    # the guard stays sound, as a kernel that never stops drives depth on.
    sep_bits = _separation_bits(chain[0])
    shallow = (e + 1 + sep_bits) // 2
    out, ends, vinf = [], g._end_values, _variations_at_inf(chain, 1)
    # each entry: the ends, the variations and den**d * g at each (None at
    # +-2^e, where nothing is evaluated), and the depth
    stack = [((-1 << e, 0), (1 << e, 0), _variations_at_inf(chain, -1), vinf, None, None, 0)]
    while stack:
        lo, hi, vlo, vhi, flo, fhi, depth = stack.pop()
        k = vlo - vhi
        if k == 0:
            continue
        if k == 1:
            if flo is not None:
                ends[lo[0], 1 << lo[1]] = flo
            if fhi is not None:
                ends[hi[0], 1 << hi[1]] = fhi
            out.append(RootInterval(_fraction(lo), _fraction(hi)))
            continue
        if depth > shallow:
            (a, ka), (b, kb) = lo, hi
            top = max(ka, kb)
            if ((b << (top - kb)) - (a << (top - ka))) << sep_bits < 1 << top:
                raise RuntimeError(f"kernel fault: count {k} near {float(_fraction(lo))!r} on "
                                   f"an interval narrower than the root separation 2^-{sep_bits}")
        mid, fmid = _split_point(chain[0], lo, hi)
        if k == 2 and (fmid < 0) != (vlo - vinf) % 2:
            # g has the sign (-1)^(vlo - vinf) at lo, one per root above lo,
            # so a sign change at mid puts one root on each side
            vmid = vlo - 1
        else:
            vmid = _variations(_chain_values(chain, mid[0], 1 << mid[1], fmid))
        if not vhi <= vmid <= vlo:
            raise RuntimeError(f"kernel fault: count {vmid} at {_fraction(mid)} "
                               f"outside [{vhi}, {vlo}]")
        stack.append((lo, mid, vlo, vmid, flo, fmid, depth + 1))
        stack.append((mid, hi, vmid, vhi, fmid, fhi, depth + 1))
    # each right half is popped, and its roots found, before the left half
    out.reverse()
    return out


def _float_root_guess(g: RatPoly, lo: float, hi: float, left_sign: int,
                      resolution: float) -> float:
    """Float estimate of g's root in [lo, hi]; no precision is promised.

    Each step takes g's value and slope in one Horner pass.  A Newton
    iterate that moves x by less than max(resolution, sqrt(resolution)) is
    returned at once: Newton converges quadratically, so from there it is
    within about `resolution` of a simple root, and near the root it often
    lands on the bracket end just moved to x, where bisecting away from it
    only comes back.  Other Newton steps that would leave the bracket are
    replaced by bisection, and the bracket follows the float signs of g,
    which may be wrong near the root.  The third bisection, or one that
    moves x by `resolution` or less, returns the bracket midpoint: there
    the float signs are mostly noise, and the caller certifies and, if need
    be, corrects the estimate with exact evaluations.  No guess takes more
    than 64 passes.
    """
    coeffs = g._float_coeffs_desc
    near = max(resolution, math.sqrt(resolution))
    x, bisections = (lo + hi) / 2, 0
    for _ in range(64):
        fx = dfx = 0.0
        for c in coeffs:
            dfx = dfx * x + fx
            fx = fx * x + c
        if fx == 0:
            break
        nx = x - fx / dfx if dfx else math.nan
        if abs(nx - x) < near:
            return nx
        if (fx > 0) == (left_sign > 0):
            lo = x
        else:
            hi = x
        if not lo < nx < hi:
            nx, bisections = (lo + hi) / 2, bisections + 1
            if bisections == 3 or abs(nx - x) <= resolution:
                return nx
        x = nx
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


def _scaled_floor(num: int, den: int, m: int) -> int:
    """floor(num/den * 2^m) for den > 0."""
    return (num << m) // den if m >= 0 else num // (den << -m)


_FLOAT_MAX = int(sys.float_info.max)


def refine_root(p: RatPoly, interval: RootInterval, tol: float = 1e-12) -> float:
    """Refine an isolated root to a float within tol of the true root.

    The result comes from the cell [j, j+1] * 2^-m that holds the root, 2^-m
    the largest power of two <= tol (m <= 0 when tol >= 1), or is the grid
    point j * 2^-m that is the root.  The grid is anchored at zero, so the
    result depends on the polynomial and tol alone, not on the interval.
    The grid points a <= lo and b >= hi take the signs known at lo and hi
    (an end that `isolate_real_roots` returned has its value read from the
    polynomial's cache, any other is evaluated), and each probe is an exact
    evaluation at a grid point between them: a float Newton guess of j and
    one step away from it, so a good guess costs two probes; then the secant
    through the last two probes, which is regula falsi on the bracket when
    they lie on opposite sides of the root and extrapolates when they lie on
    one side.  A secant probe that fails to halve the bracket, or two probes
    of equal value, are followed by a bisection, so no root takes more than
    2 * log2(b - a) + 2 probes.  Any search that brackets on this grid ends
    in the same cell, and it probes a grid point that is the root, so the
    result is bit-identical to exact bisection's, whatever the guess
    (`_float_root_guess` stops at a Newton step below
    max(2^-m, sqrt(2^-m)) or at its third bisection).  At most three float
    Newton steps then polish the cell midpoint, each evaluating g' at x,
    in one Horner pass over the float tuple `_float_derivative_desc`
    (float(Fraction)'s bits, with no derivative `RatPoly` made), and g at
    the new point, whose value the next step reuses as g(x); a step that
    leaves the cell or fails to shrink |p| is rejected.  A guess or polish
    that would overflow the float range is skipped, and a root beyond it
    raises ValueError.
    """
    _checked_tol(tol)
    g = _basis(p)
    ints = g._int_coeffs
    lo, hi = interval.lo, interval.hi
    # an end isolation returned is never a root, so its cached value is nonzero
    flo, fhi = (g._end_values.get((x.numerator, x.denominator))
                or _homogeneous(ints, x.numerator, x.denominator) for x in (lo, hi))
    if lo.numerator * hi.denominator >= hi.numerator * lo.denominator or flo == 0 \
            or fhi == 0 or (flo > 0) == (fhi > 0):
        raise ValueError(f"{interval} does not bracket a simple root of {p!r}")
    m = 1 - math.frexp(tol)[1]
    # grid point j is (j << lift) / den, and den**d * g there is Horner in j
    # on the coefficients c_i << (lift*i + shift*(d-i)), scaled once per g and m
    shift, lift = max(m, 0), max(-m, 0)
    den, d = 1 << shift, len(ints) - 1
    grid = g._grid_ints.get(m)
    if grid is None:
        grid = g._grid_ints[m] = ([c << (lift * i + shift * (d - i)) for i, c in enumerate(ints)],
                                  _FLOAT_MAX * den)
    grid_ints, top = grid
    a = _scaled_floor(lo.numerator, lo.denominator, m)
    b = -_scaled_floor(-hi.numerator, hi.denominator, m)
    left_sign = 1 if flo > 0 else -1
    try:
        guess = _float_root_guess(g, lo.numerator / lo.denominator,
                                  hi.numerator / hi.denominator, left_sign, math.ldexp(1.0, -m))
        j = _scaled_floor(*guess.as_integer_ratio(), m)
    except OverflowError:
        j = (a + b) // 2  # an end or a coefficient beyond the float range
    # grid point a lies left of the root and grid point b right of it.  From
    # the second probe on, each step is the secant through the last two
    # probes, jp and j with den**d * g there in fp and f: on opposite sides
    # of the root they are a and b, and on one side the secant extrapolates
    j, jp, fp, secant = min(max(j, a + 1), b - 1), None, None, False
    while b - a > 1:
        f = _horner(grid_ints, j)
        if f == 0:
            return _float_at(j << lift, den)
        width = b - a
        if (f > 0) == (flo > 0):
            a = j
        else:
            b = j
        if fp is None:
            step = j + (1 if a == j else -1)  # one step from the guess toward the root
        elif secant and 2 * (b - a) > width + 1 or f == fp:
            # the secant did not halve the bracket, or has no slope: bisect
            step, secant = (a + b) // 2, False
        else:
            step, secant = min(max(jp + fp * (j - jp) // (fp - f), a + 1), b - 1), True
        jp, fp, j = j, f, step
    x = _float_at((a + b) << lift, 2 * den)
    # the cell's ends, the one past the largest float clamped to it (top)
    lo_f, hi_f = (min(max(end << lift, -top), top) / den for end in (a, b))
    try:
        fx, dcoeffs = g(x), g._float_derivative_desc
        for _ in range(3):
            dfx = 0.0
            for c in dcoeffs:
                dfx = dfx * x + c
            if dfx == 0.0:
                break
            nx = x - fx / dfx
            if not lo_f <= nx <= hi_f:
                break
            fnx = g(nx)
            if abs(fnx) >= abs(fx):
                break
            x, fx = nx, fnx  # g(nx) is the next step's g(x)
    except OverflowError:
        pass  # a coefficient beyond the float range: the cell midpoint stands
    return min(max(x, lo_f), hi_f)
