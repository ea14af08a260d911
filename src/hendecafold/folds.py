"""Fold-line solvers: the seven single-fold alignments and the two-fold step.

A single fold is a straight crease achieving a small set of incidences
(point onto point, point onto line, line onto line, ...).  Solvers return
every crease line realizing the alignment; the count varies from zero to
three depending on the variant and the configuration.

The two-simultaneous-fold operation couples two creases: gamma places P onto
the vertical line m while delta places Q onto the horizontal line n and
simultaneously reflects the vertical axis onto gamma.  In the canonical
frame (Q at (0, 1), the moving axis x = 0, n at y = -1, m vertical, P free)
the coupling eliminates to a quintic in the x-intercept t of delta, which is
solved by certified root isolation; every real root yields a crease pair
whose three alignment residuals are verified numerically.
"""

import math
import warnings
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Union

from .geometry import (
    DEFAULT_TOL,
    EXACT,
    Line,
    ParallelLines,
    Point,
    Scalar,
    distance,
    incident,
    intersect,
    line_defect,
    line_residual,
    line_through,
    midpoint,
    perpendicular_bisector,
    point_distance,
    reflect_line,
    reflect_point,
    scalar_mode,
)
from .polynomials import (
    RatFunc,
    RatPoly,
    X,
    isolate_real_roots,
    poly_on_ratfunc,
    refine_root,
)


class DegenerateParameter(ValueError):
    """Fold-line parameter at which the parameterization is singular."""


class DegenerateProblem(ValueError):
    """Alignment problem with no well-posed finite solution set."""


class UnsupportedConfiguration(ValueError):
    """Two-fold instance outside the canonical symbolic family."""


class NoRealSolutions(ValueError):
    """The eliminated polynomial has no real root."""


# points closer than this (in float mode) are treated as coincident
_COINCIDENT = 1e-12


# ----------------------------------------------------------------------
# Single-fold alignment problems
# ----------------------------------------------------------------------
# Field annotations are evaluated (no postponed annotations in this module),
# so `dataclasses.fields` gives each argument's name and its kind, Point or
# Line; solvers take the fields in declaration order.

@dataclass(frozen=True)
class FoldThroughTwoPoints:
    p: Point
    q: Point


@dataclass(frozen=True)
class PointOntoPoint:
    moving: Point
    target: Point


@dataclass(frozen=True)
class LineOntoLine:
    moving: Line
    target: Line


@dataclass(frozen=True)
class ThroughPointPerpendicularTo:
    through: Point
    to: Line


@dataclass(frozen=True)
class PointOntoLineThroughPoint:
    moving: Point
    target: Line
    pivot: Point


@dataclass(frozen=True)
class TwoPointsOntoTwoLines:
    moving1: Point
    target1: Line
    moving2: Point
    target2: Line


@dataclass(frozen=True)
class PointOntoLinePerpendicularTo:
    moving: Point
    target: Line
    perpendicular_to: Line


def _close(p: Point, q: Point) -> bool:
    return point_distance(p, q) <= _COINCIDENT


def _fold_two_points(p: Point, q: Point) -> list:
    if _close(p, q):
        raise DegenerateProblem("crease through two coincident points")
    return [line_through(p, q)]


def _fold_point_onto_point(a: Point, b: Point) -> list:
    if _close(a, b):
        raise DegenerateProblem("point onto itself: every crease through it works")
    return [perpendicular_bisector(a, b)]


def _fold_line_onto_line(l1: Line, l2: Line) -> list:
    if line_defect(l1, l2) <= _COINCIDENT:
        raise DegenerateProblem("line onto itself has infinitely many creases")
    try:
        intersect(l1, l2)
    except ParallelLines:
        # orient the unit normals the same way, then average
        if l1.a * l2.a + l1.b * l2.b < 0:
            l2 = Line(-l2.a, -l2.b, -l2.c)
        return [Line(l1.a + l2.a, l1.b + l2.b, l1.c + l2.c)]
    return [
        Line(l1.a + l2.a, l1.b + l2.b, l1.c + l2.c),
        Line(l1.a - l2.a, l1.b - l2.b, l1.c - l2.c),
    ]


def _fold_perpendicular(p: Point, l: Line) -> list:
    return [Line(-l.b, l.a, l.b * p.x - l.a * p.y)]


def _line_param(l: Line):
    """Base point and direction of a float-canonical line (unit normal)."""
    base = Point(-l.a * l.c, -l.b * l.c)
    return base, (-l.b, l.a)


def _fold_point_onto_line_through_point(a: Point, l: Line, b: Point) -> list:
    if _close(a, b):
        raise DegenerateProblem("moving point equals the pivot")
    # image X of a lies on l with |X - b| = |a - b|; parameterize l from the
    # foot of b so the circle condition reads u^2 = r^2 - h^2
    h = line_residual(b, l)
    foot = Point(b.x - l.a * h, b.y - l.b * h)
    dx, dy = -l.b, l.a
    r2 = (a.x - b.x) ** 2 + (a.y - b.y) ** 2
    disc = r2 - h * h
    if disc < 0 and disc >= -1e-12 * (r2 + 1.0):
        disc = 0.0
    if disc < 0:
        return []
    u = math.sqrt(disc)
    images = [foot] if u == 0.0 else [
        Point(foot.x + u * dx, foot.y + u * dy),
        Point(foot.x - u * dx, foot.y - u * dy),
    ]
    folds = []
    for x in images:
        if _close(a, x):
            folds.append(line_through(b, a))
        else:
            folds.append(perpendicular_bisector(a, x))
    return folds


def _fold_two_points_onto_two_lines(p1: Point, l1: Line, p2: Point, l2: Line) -> list:
    if abs(line_residual(p1, l1)) <= _COINCIDENT or \
            abs(line_residual(p2, l2)) <= _COINCIDENT:
        raise DegenerateProblem("a moving point already lies on its target line")
    # the crease is the perpendicular bisector of p1 and its image D(u) on
    # l1; requiring that the same crease carries p2 onto l2 is a cubic in u,
    # assembled exactly from the (dyadic-rational) float inputs
    base, (ex, ey) = _line_param(l1)
    d0x, d0y = Fraction(base.x), Fraction(base.y)
    ex, ey = Fraction(ex), Fraction(ey)
    f1x, f1y = Fraction(p1.x), Fraction(p1.y)
    p2x, p2y = Fraction(p2.x), Fraction(p2.y)
    a2, b2, c2 = Fraction(l2.a), Fraction(l2.b), Fraction(l2.c)

    A = RatPoly.of(d0x - f1x, ex)
    B = RatPoly.of(d0y - f1y, ey)
    C = (RatPoly.of(f1x * f1x + f1y * f1y)
         - RatPoly.of(d0x, ex) * RatPoly.of(d0x, ex)
         - RatPoly.of(d0y, ey) * RatPoly.of(d0y, ey)) * Fraction(1, 2)
    k2 = a2 * p2x + b2 * p2y + c2
    poly = (A * A + B * B) * k2 - 2 * (A * p2x + B * p2y + C) * (A * a2 + B * b2)
    if poly.is_zero:
        raise DegenerateProblem("every crease along the family works")
    folds = []
    for iv in isolate_real_roots(poly):
        u = refine_root(poly, iv, 1e-13)
        image = Point(float(d0x) + u * float(ex), float(d0y) + u * float(ey))
        folds.append(perpendicular_bisector(p1, image))
    return folds


def _fold_point_onto_line_perpendicular_to(a: Point, l1: Line, l2: Line) -> list:
    # a crease perpendicular to l2 translates `a` along the direction of l2,
    # so the image is where that direction line through `a` meets l1
    carrier = Line(l2.a, l2.b, -l2.a * a.x - l2.b * a.y)
    try:
        image = intersect(carrier, l1)
    except ParallelLines:
        if line_defect(carrier, l1) <= _COINCIDENT:
            raise DegenerateProblem(
                "target line carries the moving point's whole travel line")
        return []
    if _close(a, image):
        return _fold_perpendicular(a, l2)
    return [perpendicular_bisector(a, image)]


#: Script variant name -> (problem dataclass, solver).  The only description
#: of the seven single-fold alignments: the solver dispatch, the script
#: runner and the script decoder all read it.
SINGLE_FOLDS = {
    "through_two_points": (FoldThroughTwoPoints, _fold_two_points),
    "point_onto_point": (PointOntoPoint, _fold_point_onto_point),
    "line_onto_line": (LineOntoLine, _fold_line_onto_line),
    "perpendicular": (ThroughPointPerpendicularTo, _fold_perpendicular),
    "point_onto_line_through_point": (
        PointOntoLineThroughPoint, _fold_point_onto_line_through_point),
    "two_points_onto_two_lines": (
        TwoPointsOntoTwoLines, _fold_two_points_onto_two_lines),
    "point_onto_line_perpendicular_to": (
        PointOntoLinePerpendicularTo, _fold_point_onto_line_perpendicular_to),
}

SingleFoldProblem = Union[tuple(cls for cls, _ in SINGLE_FOLDS.values())]

_SOLVERS = dict(SINGLE_FOLDS.values())


def solve_single_fold(problem: SingleFoldProblem) -> list:
    """All crease lines achieving the alignment, as float-mode lines.

    Results are sorted by canonical coefficient triple, so the output order
    is deterministic.  Exact inputs are accepted and converted; outputs are
    float because several variants have irrational creases.
    """
    solve = _SOLVERS.get(type(problem))
    if solve is None:
        raise TypeError(f"not a single-fold problem: {problem!r}")
    folds = solve(*(getattr(problem, f.name).to_float() for f in fields(problem)))
    return sorted(folds, key=lambda l: (l.a, l.b, l.c))


# ----------------------------------------------------------------------
# The two-simultaneous-fold operation
# ----------------------------------------------------------------------

def _mode_pair(value: Scalar):
    if scalar_mode(value) == EXACT:
        return Fraction(value), Fraction(1)
    return value, 1.0


def delta_line(t: Scalar) -> Line:
    """Crease with slope t and x-intercept t: y = t*(x - t)."""
    t, one = _mode_pair(t)
    if t == 0:
        raise DegenerateParameter("delta is undefined at t = 0")
    return Line(t, -one, -t * t)


def gamma_line_from_s(s: Scalar) -> Line:
    """Crease carrying P(-5/2, -3) onto (-3/2, 2s): perpendicular bisector
    through the midpoint (-2, s - 3/2), i.e. x + (2s+3)y - (2s^2 - 13/2) = 0."""
    s, one = _mode_pair(s)
    if 2 * s + 3 * one == 0:
        raise DegenerateParameter("gamma is undefined at s = -3/2")
    return Line(one, 2 * s + 3 * one, -(2 * s * s - 13 * one / 2))


def gamma_line_from_t(t: Scalar) -> Line:
    """Crease through Q'(2t, -1) and S(0, -t^2): y = (t^2-1)/(2t) x - t^2."""
    t, one = _mode_pair(t)
    if t == 0:
        raise DegenerateParameter("gamma-from-t is undefined at t = 0")
    return Line(t * t - one, -2 * t, -2 * t * t * t)


def s_from_t(t: Scalar) -> Scalar:
    """Couple the two gamma parameterizations: s = -t/(t^2 - 1) - 3/2."""
    t, one = _mode_pair(t)
    if t == 0 or t * t == one:
        raise DegenerateParameter("s(t) is singular at t in {0, 1, -1}")
    return -t / (t * t - one) - 3 * one / 2


@dataclass(frozen=True)
class TwoFoldConfig:
    """Instance (P, Q, ell, m, n) of the coupled two-crease alignment."""

    P: Point
    Q: Point
    ell: Line
    m: Line
    n: Line

    def __post_init__(self) -> None:
        if _on_line(self.P, self.m):
            raise DegenerateProblem("P lies on m; the gamma fold degenerates")
        if _on_line(self.Q, self.n):
            raise DegenerateProblem("Q lies on n; the delta fold degenerates")

    @classmethod
    def hendecagon(cls) -> "TwoFoldConfig":
        """The instance whose eliminated quintic is the hendecagon's."""
        return cls(
            P=Point(Fraction(-5, 2), Fraction(-3)),
            Q=Point(0, 1),
            ell=Line(1, 0, 0),
            m=Line(2, 0, 3),
            n=Line(0, 1, 1),
        )

    def canonical_family_params(self):
        """(px, py, mx) as exact rationals, after validating the family.

        The symbolic elimination assumes ell: x = 0, n: y = -1, Q = (0, 1)
        and m vertical; float configs are accepted since every float is an
        exact rational.
        """
        ell = _exact_line(self.ell)
        n = _exact_line(self.n)
        q = _exact_point(self.Q)
        m = _exact_line(self.m)
        p = _exact_point(self.P)
        if ell != Line(1, 0, 0):
            raise UnsupportedConfiguration(f"ell must be x = 0, got {self.ell}")
        if n != Line(0, 1, 1):
            raise UnsupportedConfiguration(f"n must be y = -1, got {self.n}")
        if q != Point(0, 1):
            raise UnsupportedConfiguration(f"Q must be (0, 1), got {self.Q}")
        if m.b != 0:
            raise UnsupportedConfiguration(f"m must be vertical, got {self.m}")
        mx = -m.c / m.a
        return p.x, p.y, mx


def _on_line(p: Point, l: Line) -> bool:
    if p.mode != l.mode:
        p, l = p.to_float(), l.to_float()
    return incident(p, l, _COINCIDENT)


def _exact_point(p: Point) -> Point:
    return p if p.mode == EXACT else Point(Fraction(p.x), Fraction(p.y))


def _exact_line(l: Line) -> Line:
    return l if l.mode == EXACT else Line(Fraction(l.a), Fraction(l.b), Fraction(l.c))


def eliminate_to_quintic(config: TwoFoldConfig) -> RatPoly:
    """Exact polynomial in the delta x-intercept t, monic.

    Both creases must describe the same gamma line: equating slopes fixes
    s as a rational function of t; substituting it into the offset equation
    and clearing denominators leaves a degree-5 polynomial whose real roots
    are exactly the valid fold parameters.
    """
    px, py, mx = config.canonical_family_params()
    a = mx - px
    s_of_t = RatFunc(RatPoly.of(-py / 2, -a, py / 2), RatPoly.of(-1, 0, 1))
    offset_coeff = RatPoly.of(-py, 2)                       # 2s - py
    midpoint_coeff = RatPoly.of(py * py / 2 - (mx * mx - px * px) / 2, 0, -2)
    equation = (poly_on_ratfunc(midpoint_coeff, s_of_t)
                - RatFunc(X * X) * poly_on_ratfunc(offset_coeff, s_of_t))
    quintic = equation.num
    if quintic.degree != 5:
        raise UnsupportedConfiguration(
            f"elimination degenerated to degree {quintic.degree}")
    return quintic.monic()


@dataclass(frozen=True)
class TwoFoldSolution:
    """One root of the eliminated quintic realized as a crease pair.

    All geometry is float mode; `residuals` maps each required alignment to
    the distance (or line defect) by which it is missed.
    """

    t: float
    s: float
    gamma: Line
    delta: Line
    Qp: Point
    Pp: Point
    R: Point
    S: Point
    T: Point
    residuals: dict

    @property
    def max_residual(self) -> float:
        return max(self.residuals.values())


def solve_two_fold(config: TwoFoldConfig, tol: float = DEFAULT_TOL) -> list:
    """One verified solution per real root of the quintic, descending in t.

    Roots at the singular parameters {0, 1, -1} (where the gamma coupling
    divides by zero) are discarded with a warning; they never occur for the
    hendecagon instance.
    """
    quintic = eliminate_to_quintic(config)
    px, py, mx = config.canonical_family_params()
    P = Point(float(px), float(py))
    Q = Point(0.0, 1.0)
    ell = Line(1.0, 0.0, 0.0)
    m = Line(1.0, 0.0, -float(mx))
    n = Line(0.0, 1.0, 1.0)

    singular = {v for v in (Fraction(0), Fraction(1), Fraction(-1))
                if quintic(v) == 0}
    solutions = []
    for interval in isolate_real_roots(quintic):
        if any(interval.lo < v < interval.hi for v in singular):
            warnings.warn(f"discarding singular fold parameter in {interval}")
            continue
        t = refine_root(quintic, interval, 1e-13)
        s = float(py) / 2 - t * float(mx - px) / (t * t - 1.0)
        delta = delta_line(t)
        gamma = perpendicular_bisector(P, Point(float(mx), 2.0 * s))
        Qp = reflect_point(Q, delta)
        Pp = reflect_point(P, gamma)
        residuals = {
            "Q_onto_n": distance(Qp, n),
            "P_onto_m": distance(Pp, m),
            "ell_onto_gamma": line_defect(reflect_line(ell, delta), gamma),
        }
        solution = TwoFoldSolution(
            t=t, s=s, gamma=gamma, delta=delta,
            Qp=Qp, Pp=Pp,
            R=midpoint(Q, Qp), S=intersect(delta, ell), T=midpoint(P, Pp),
            residuals=residuals,
        )
        if solution.max_residual > tol:
            raise ValueError(
                f"fold pair at t={t} misses an alignment by "
                f"{solution.max_residual:.3e} (tol {tol:.1e})")
        solutions.append(solution)
    if not solutions:
        raise NoRealSolutions("no realizable fold parameter")
    solutions.sort(key=lambda sol: -sol.t)
    return solutions
