"""Planar points and lines with twin numeric modes: exact rationals and floats.

Construction operations (reflection, intersection, bisectors) preserve the
mode of their inputs: exact values (ints / Fractions) stay exact, floats stay
float, and the two are never combined silently.  Each class has one
constructor, which works out the mode and the canonical fields and stores each
once; every value but a stored canonical float line (`Line.from_canonical`)
is made through it, each `to_float` twin too, made once: an exact line's
with the line, a float line's and an exact point's on the first call.  It
decides the mode by type first: arguments whose type is exactly `float` are
float mode at once, and any other mix, a float subclass included, goes
through the mode check.  `mode` and the twin `_float` are no dataclass
fields, so equality, hashing and repr see the coordinates alone.  Lines are
kept in a canonical implicit form ``a*x + b*y + c = 0``: in exact mode, equal
triples mean equal lines.

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

Scalar = Union[int, Fraction, float]

# bit length to which an exact line's triple is scaled before it is rounded
_FLOAT_BITS = 1000

EXACT = "exact"
FLOAT = "float"

_set = object.__setattr__  # field by field: a __dict__ update gives each value its own dict


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


def _same_mode(first: "Point | Line", second: "Point | Line") -> str:
    if first.mode != second.mode:
        raise MixedModes(f"operands have mixed modes: {(first, second)!r}")
    return first.mode


@dataclass(frozen=True, init=False)
class Point:
    """A point; exact coordinates are stored as Fractions.  The constructor
    stores each field and `mode` once, and `to_float` an exact point's twin."""

    x: Scalar
    y: Scalar

    def __init__(self, x: Scalar, y: Scalar) -> None:
        mode = FLOAT if type(x) is type(y) is float else _common_mode(x, y)
        if mode == EXACT:
            x = x if type(x) is Fraction else Fraction(x)
            y = y if type(y) is Fraction else Fraction(y)
        elif not (math.isfinite(x) and math.isfinite(y)):
            raise ValueError(f"non-finite point ({x}, {y})")
        _set(self, "x", x)
        _set(self, "y", y)
        _set(self, "mode", mode)

    def to_float(self) -> "Point":
        twin = self if self.mode == FLOAT else self.__dict__.get("_float")
        if twin is None:
            # float(Fraction) is this division: one correctly rounded quotient
            x, y = self.x, self.y
            twin = Point(x.numerator / x.denominator, y.numerator / y.denominator)
            _set(self, "_float", twin)
        return twin

    def __repr__(self) -> str:
        return f"Point({self.x!r}, {self.y!r})"


def _canonical_exact(a: Scalar, b: Scalar, c: Scalar):
    """The coprime integer triple of a*x + b*y + c = 0, first nonzero entry
    positive, in one pass over the numerators and denominators."""
    (an, ad), (bn, bd), (cn, cd) = a.as_integer_ratio(), b.as_integer_ratio(), c.as_integer_ratio()
    if not (an or bn):
        raise ValueError("line needs a nonzero normal (a, b)")
    d = math.lcm(ad, bd, cd)
    an, bn, cn = an * (d // ad), bn * (d // bd), cn * (d // cd)
    g = math.gcd(an, bn, cn)
    if an < 0 or (an == 0 and bn < 0):
        g = -g
    return an // g, bn // g, cn // g


def _float_line(a: int, b: int, c: int) -> "Line":
    """The float line of a canonical integer triple, first divided by the
    power of two that brings it to at most _FLOAT_BITS: exact barring overflow
    and underflow, and cancelled by the unit normal, so every line that fits
    in floats converts."""
    # the bit length of the or of the magnitudes is the longest entry's
    scale = 1 << max(0, (abs(a) | abs(b) | abs(c)).bit_length() - _FLOAT_BITS)
    try:
        return Line(a / scale, b / scale, c / scale)
    except ValueError:
        raise ValueError("line offset leaves the float range") from None


@dataclass(frozen=True, init=False)
class Line:
    """Implicit line a*x + b*y + c = 0, canonicalized on construction.

    Exact mode: (a, b, c) is a coprime integer triple whose first nonzero
    entry is positive, so equal lines have equal triples.  An exact line is
    made with its float line, which `to_float` returns, so one beyond the
    float range raises ValueError when it is made.  Float mode:
    a**2 + b**2 == 1 with the same sign convention.  The constructor stores
    each field and `mode` once, as `Point`'s does.
    """

    a: Scalar
    b: Scalar
    c: Scalar

    def __init__(self, a: Scalar, b: Scalar, c: Scalar) -> None:
        mode = FLOAT if type(a) is type(b) is type(c) is float else _common_mode(a, b, c)
        if mode == EXACT:
            if not (isinstance(a, (int, Fraction)) and isinstance(b, (int, Fraction))
                    and isinstance(c, (int, Fraction))):
                a, b, c = Fraction(a), Fraction(b), Fraction(c)
            ints = _canonical_exact(a, b, c)
            # made now, not on first use: a line beyond the float range fails here
            _set(self, "_float", _float_line(*ints))
            a, b, c = Fraction(ints[0]), Fraction(ints[1]), Fraction(ints[2])
        else:
            norm = math.hypot(a, b)
            if not math.isfinite(norm) or norm == 0.0:
                raise ValueError(f"degenerate line normal ({a}, {b})")
            ca, cb, cc = a / norm, b / norm, c / norm
            if ca < 0.0 or (ca == 0.0 and cb < 0.0):
                ca, cb, cc = -ca, -cb, -cc
            if not math.isfinite(cc):
                raise ValueError(f"non-finite line offset {c}")
            # squash signed zeros so canonical triples compare byte-identically
            a, b, c = ca + 0.0, cb + 0.0, cc + 0.0
        _set(self, "a", a)
        _set(self, "b", b)
        _set(self, "c", c)
        _set(self, "mode", mode)

    def to_float(self) -> "Line":
        """The float line: the one made with an exact line; for a float line,
        the line canonicalized again (float canonicalization is not
        idempotent), made on the first call and kept as `_float`."""
        try:
            return self._float
        except AttributeError:
            twin = Line(self.a, self.b, self.c)
            _set(self, "_float", twin)
            return twin

    @classmethod
    def from_canonical(cls, a: Scalar, b: Scalar, c: Scalar) -> "Line":
        """Rebuild a line from a triple that is already canonical.

        Float canonicalization divides by a computed norm, which may move a
        stored canonical triple by an ulp; deserialization must not re-run
        it.  Any other input, float or not, goes through the constructor,
        which rejects mixed modes and non-finite values.
        """
        if isinstance(a, float) and isinstance(b, float) and isinstance(c, float) \
                and math.isfinite(c) and abs(math.hypot(a, b) - 1.0) <= 1e-12 \
                and not (a < 0.0 or (a == 0.0 and b < 0.0)):
            self = object.__new__(cls)
            _set(self, "a", a)
            _set(self, "b", b)
            _set(self, "c", c)
            _set(self, "mode", FLOAT)
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
    if p.x == q.x and p.y == q.y:
        raise CoincidentPoints(f"perpendicular bisector of {p} and itself")
    return Line(2 * (q.x - p.x), 2 * (q.y - p.y),
                (p.x * p.x + p.y * p.y) - (q.x * q.x + q.y * q.y))


def line_residual(p: Point, l: Line) -> Scalar:
    """Signed incidence residual a*x + b*y + c (unnormalized in exact mode)."""
    _same_mode(p, l)
    return l.a * p.x + l.b * p.y + l.c


def reflect_point(p: Point, axis: Line) -> Point:
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
    return Point((p.x + q.x) / 2, (p.y + q.y) / 2)


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
    return abs(float(line_residual(p, l))) / math.hypot(float(l.a), float(l.b))


def _unit_triple(l: Line) -> tuple:
    """`l.to_float()`'s triple, made without a Line (see `line_defect`)."""
    if l.mode == EXACT:
        return l._float.a, l._float.b, l._float.c
    norm = math.hypot(l.a, l.b)
    if not math.isfinite(c := l.c / norm):
        raise ValueError(f"non-finite line offset {l.c}")
    return l.a / norm, l.b / norm, c


def line_defect(l1: Line, l2: Line) -> float:
    """Coefficient-wise disagreement of two lines after normalization.

    Zero iff the lines coincide; insensitive to the sign ambiguity of the
    normal, so it is a usable float-mode equality residual.  Its bits are
    those of the `to_float` lines: a float line is divided by its norm again,
    which moves bits, as a unit normal may be an ulp off.  The sign flip and
    the zero squash need not run: negating a triple is exact and
    (-x) - (-y) = -(x - y), so a flip only swaps `same` and `flip`.
    """
    (a1, b1, c1), (a2, b2, c2) = _unit_triple(l1), _unit_triple(l2)
    same = max(abs(a1 - a2), abs(b1 - b2), abs(c1 - c2))
    flip = max(abs(a1 + a2), abs(b1 + b2), abs(c1 + c2))
    return min(same, flip)
