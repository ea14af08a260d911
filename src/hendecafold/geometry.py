"""Planar points and lines with twin numeric modes: exact rationals and floats.

Construction operations (reflection, intersection, bisectors) preserve the
mode of their inputs: exact values (ints / Fractions) stay exact, floats stay
float, and the two are never combined silently.  A point's or line's mode is
fixed when it is made and stored as its `mode` attribute, which is not a
dataclass field: equality, hashing and repr see the coordinates alone.
Lines are kept in a canonical implicit form ``a*x + b*y + c = 0`` so that
structural equality of the coefficient triple means geometric equality in
exact mode.

Metric queries (`distance`, `point_distance`) return floats in either mode,
since a Euclidean length is irrational in general; exact callers use
`dist_sq` and `line_residual`, which stay in the field.  Exact incidence and
the canonicalization of an exact line are decided in integers, from the
numerators and denominators of the inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from . import DEFAULT_TOL
from .polynomials import _over_common_denominator, _primitive

Scalar = Union[int, Fraction, float]

# bit length to which an exact line's triple is scaled before it is rounded
_FLOAT_BITS = 1000

EXACT = "exact"
FLOAT = "float"


class CoincidentPoints(ValueError):
    """Two points expected to be distinct are equal."""


class ParallelLines(ValueError):
    """Lines do not meet in a single point (parallel or identical)."""


class MixedModes(TypeError):
    """Exact and float scalars were combined in one geometric value."""


def scalar_mode(value: Scalar) -> str:
    return FLOAT if isinstance(value, float) else EXACT


def _common_mode(first: Scalar, *rest: Scalar) -> str:
    is_float = isinstance(first, float)
    for v in rest:
        if isinstance(v, float) is not is_float:
            raise MixedModes(f"mixed numeric modes in {(first, *rest)!r}")
    return FLOAT if is_float else EXACT


def _same_mode(first: "Point | Line", *rest: "Point | Line") -> str:
    mode = first.mode
    for o in rest:
        if o.mode != mode:
            raise MixedModes(f"operands have mixed modes: {(first, *rest)!r}")
    return mode


@dataclass(frozen=True)
class Point:
    """A point; exact coordinates are stored as Fractions.  `mode` is set
    when the point is made."""

    x: Scalar
    y: Scalar

    def __post_init__(self) -> None:
        mode = _common_mode(self.x, self.y)
        if mode == FLOAT:
            if not (math.isfinite(self.x) and math.isfinite(self.y)):
                raise ValueError(f"non-finite point ({self.x}, {self.y})")
        else:
            if type(self.x) is not Fraction:
                object.__setattr__(self, "x", Fraction(self.x))
            if type(self.y) is not Fraction:
                object.__setattr__(self, "y", Fraction(self.y))
        object.__setattr__(self, "mode", mode)

    def to_float(self) -> "Point":
        if self.mode == FLOAT:
            return self
        # float(Fraction) is this division: one correctly rounded quotient
        x, y = self.x, self.y
        return Point(x.numerator / x.denominator, y.numerator / y.denominator)

    def __repr__(self) -> str:
        return f"Point({self.x!r}, {self.y!r})"


def _canonical_exact(a: Fraction, b: Fraction, c: Fraction):
    """The coprime integer triple of a*x + b*y + c = 0, first nonzero entry
    positive; ints are accepted as they are."""
    ai, bi, ci = _primitive(_over_common_denominator(a, b, c)[0])
    if ai < 0 or (ai == 0 and bi < 0):
        ai, bi, ci = -ai, -bi, -ci
    return ai, bi, ci


def _canonical_float(a: float, b: float, c: float):
    norm = math.hypot(a, b)
    if not math.isfinite(norm) or norm == 0.0:
        raise ValueError(f"degenerate line normal ({a}, {b})")
    a, b, c = a / norm, b / norm, c / norm
    if a < 0.0 or (a == 0.0 and b < 0.0):
        a, b, c = -a, -b, -c
    # squash signed zeros so canonical triples compare byte-identically
    return a + 0.0, b + 0.0, c + 0.0


def _float_line(a: int, b: int, c: int) -> "Line":
    """The float line of a canonical integer triple, first divided by the
    power of two that brings it to at most _FLOAT_BITS: exact barring overflow
    and underflow, and cancelled by the unit normal, so every line that fits
    in floats converts."""
    bits = max(abs(a).bit_length(), abs(b).bit_length(), abs(c).bit_length())
    scale = 1 << max(0, bits - _FLOAT_BITS)
    try:
        return Line(a / scale, b / scale, c / scale)
    except ValueError:
        raise ValueError("line offset leaves the float range") from None


@dataclass(frozen=True)
class Line:
    """Implicit line a*x + b*y + c = 0, canonicalized on construction.

    Exact mode: (a, b, c) is a coprime integer triple whose first nonzero
    entry is positive, so equal lines have equal triples.  An exact line is
    made with its float line, which `to_float` returns, so one beyond the
    float range raises ValueError when it is made.  Float mode:
    a**2 + b**2 == 1 with the same sign convention.  `mode` is set when the
    line is made, `from_canonical`'s float lines included.
    """

    a: Scalar
    b: Scalar
    c: Scalar

    def __post_init__(self) -> None:
        mode = _common_mode(self.a, self.b, self.c)
        if mode == EXACT:
            a, b, c = (v if isinstance(v, (int, Fraction)) else Fraction(v)
                       for v in (self.a, self.b, self.c))
            if not (a or b):
                raise ValueError("line needs a nonzero normal (a, b)")
            ints = _canonical_exact(a, b, c)
            # stored now, not cached later: a pool may be pickling the line
            object.__setattr__(self, "_float", _float_line(*ints))
            a, b, c = (Fraction(v) for v in ints)
        else:
            a, b, c = _canonical_float(self.a, self.b, self.c)
            if not math.isfinite(c):
                raise ValueError(f"non-finite line offset {self.c}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "mode", mode)

    def to_float(self) -> "Line":
        """The float line: the one made with an exact line, and a float line
        canonicalized again (float canonicalization is not idempotent)."""
        if self.mode == EXACT:
            return self._float
        return Line(self.a, self.b, self.c)

    @classmethod
    def from_canonical(cls, a: Scalar, b: Scalar, c: Scalar) -> "Line":
        """Rebuild a line from a triple that is already canonical.

        Float canonicalization divides by a computed norm, which may move a
        stored canonical triple by an ulp; deserialization must not re-run
        it.  Input that is not canonical, or not all float, falls back to
        normal construction, which rejects mixed modes.
        """
        if all(isinstance(v, float) for v in (a, b, c)) \
                and abs(math.hypot(a, b) - 1.0) <= 1e-12 \
                and not (a < 0.0 or (a == 0.0 and b < 0.0)):
            self = object.__new__(cls)
            object.__setattr__(self, "a", a)
            object.__setattr__(self, "b", b)
            object.__setattr__(self, "c", c)
            object.__setattr__(self, "mode", FLOAT)
            return self
        return cls(a, b, c)

    def __repr__(self) -> str:
        return f"Line({self.a!r}, {self.b!r}, {self.c!r})"


def line_through(p: Point, q: Point) -> Line:
    """Line containing both points (fold axiom: crease through two points)."""
    _same_mode(p, q)
    if p == q:
        raise CoincidentPoints(f"no unique line through {p} twice")
    return Line(p.y - q.y, q.x - p.x, p.x * q.y - q.x * p.y)


def perpendicular_bisector(p: Point, q: Point) -> Line:
    """Locus of points equidistant from p and q; reflects p onto q."""
    _same_mode(p, q)
    if p == q:
        raise CoincidentPoints(f"perpendicular bisector of {p} and itself")
    a = 2 * (q.x - p.x)
    b = 2 * (q.y - p.y)
    c = (p.x * p.x + p.y * p.y) - (q.x * q.x + q.y * q.y)
    return Line(a, b, c)


def line_residual(p: Point, l: Line) -> Scalar:
    """Signed incidence residual a*x + b*y + c (unnormalized in exact mode)."""
    _same_mode(p, l)
    return l.a * p.x + l.b * p.y + l.c


def reflect_point(p: Point, axis: Line) -> Point:
    _same_mode(p, axis)
    d = line_residual(p, axis) / (axis.a * axis.a + axis.b * axis.b)
    return Point(p.x - 2 * axis.a * d, p.y - 2 * axis.b * d)


def reflect_line(l: Line, axis: Line) -> Line:
    """Image of every point of l under reflection across axis."""
    _same_mode(l, axis)
    k = (l.a * axis.a + l.b * axis.b) / (axis.a * axis.a + axis.b * axis.b)
    return Line(l.a - 2 * axis.a * k, l.b - 2 * axis.b * k, l.c - 2 * axis.c * k)


# Below this, two normalized float lines are treated as parallel; sin of the
# angle between unit normals, so well under any honest crossing.
_PARALLEL_TOL = 1e-12


def intersect(l1: Line, l2: Line) -> Point:
    mode = _same_mode(l1, l2)
    det = l1.a * l2.b - l2.a * l1.b
    parallel = det == 0 if mode == EXACT else abs(det) < _PARALLEL_TOL
    if parallel:
        raise ParallelLines(f"{l1} and {l2} do not meet in one point")
    x = (l1.b * l2.c - l2.b * l1.c) / det
    y = (l2.a * l1.c - l1.a * l2.c) / det
    return Point(x, y)


def midpoint(p: Point, q: Point) -> Point:
    _same_mode(p, q)
    half = Fraction(1, 2) if p.mode == EXACT else 0.5
    return Point((p.x + q.x) * half, (p.y + q.y) * half)


def incident(p: Point, l: Line, tol: Scalar = DEFAULT_TOL) -> bool:
    """Point-on-line test; exact mode ignores tol and decides exactly, in
    integers: an exact line's triple is integral, so a*x + b*y + c = 0 is
    multiplied through by the denominators of x and y."""
    if not tol >= 0:
        raise ValueError("tolerance must be nonnegative")
    if _same_mode(p, l) == EXACT:
        (xn, xd), (yn, yd) = p.x.as_integer_ratio(), p.y.as_integer_ratio()
        a, b, c = l.a.numerator, l.b.numerator, l.c.numerator
        return a * xn * yd + b * yn * xd + c * xd * yd == 0
    return abs(line_residual(p, l)) <= tol


def dist_sq(p: Point, q: Point) -> Scalar:
    """Squared distance, exact in exact mode (isometry checks need no sqrt)."""
    _same_mode(p, q)
    dx, dy = p.x - q.x, p.y - q.y
    return dx * dx + dy * dy


def point_distance(p: Point, q: Point) -> float:
    return math.sqrt(float(dist_sq(p, q)))


def distance(p: Point, l: Line) -> float:
    """Euclidean point-to-line distance (float in either mode)."""
    _same_mode(p, l)
    return abs(float(line_residual(p, l))) / math.hypot(float(l.a), float(l.b))


def line_defect(l1: Line, l2: Line) -> float:
    """Coefficient-wise disagreement of two lines after normalization.

    Zero iff the lines coincide; insensitive to the sign ambiguity of the
    normal, so it is a usable float-mode equality residual.
    """
    f1, f2 = l1.to_float(), l2.to_float()
    same = max(abs(f1.a - f2.a), abs(f1.b - f2.b), abs(f1.c - f2.c))
    flip = max(abs(f1.a + f2.a), abs(f1.b + f2.b), abs(f1.c + f2.c))
    return min(same, flip)
