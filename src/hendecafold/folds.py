"""Fold-line solvers: the seven single-fold alignments and the two-fold step.

A single fold is a straight crease achieving a small set of incidences
(point onto point, point onto line, line onto line, ...).  Solvers return
every crease line realizing the alignment; the count varies from zero to
three depending on the variant and the configuration.

The two-simultaneous-fold operation couples two creases: gamma carries P
onto line m while delta carries Q onto line n and reflects line ell onto
gamma.  Any non-degenerate configuration is accepted.  Q's image
Q' = foot + u*dir runs along n from the foot of Q, with dir = 2*(n.b, -n.a)
scaled by a power of two to a length in [2, 6), however n is written;
delta bisects Q and Q', gamma is ell reflected across delta, and gamma
carrying P onto m is a polynomial of degree at most five in u, built from
the same crease family as the O6 solver's cubic.  Both are assembled in
Python integers and made monic straight from them (`_monic_from_ints`):
every coordinate is scaled by one integer that clears their denominators,
dir's too, and each line's triple by the lcm of its own, with its offset
times the coordinate scale.  That multiplies the polynomial by a constant,
so its roots in u are kept.
The integer kernels this uses, coefficient-list add and multiply and the
common denominator, live in `polynomials`.  Every certified real root is
realized as a crease pair whose alignment residuals are verified.  A
solution reports u as `t`, and half the coordinate of P' along m's unit
direction (-m.b, m.a) as `s`: in the paper's frame (Q = (0, 1), ell: x = 0,
n: y = -1, m vertical) these are its t, the x-intercept of delta, and s.
"""

import math
import warnings
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cached_property
from typing import Union

from . import DEFAULT_TOL, _checked_tol
from .geometry import (
    EXACT,
    CoincidentPoints,
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
from .polynomials import (RatPoly, _add, _mul, _over_common_denominator, isolate_real_roots,
                          _monic_from_ints, refine_root)


class DegenerateParameter(ValueError):
    """Fold-line parameter at which the parameterization is singular."""


class DegenerateProblem(ValueError):
    """Alignment problem with no well-posed finite solution set."""


class NoRealSolutions(ValueError):
    """The eliminated polynomial has no real root."""


# points closer than this (in float mode) are treated as coincident
_COINCIDENT = 1e-12
_ROOT_TOL = 1e-13  # both polynomial solvers refine certified roots this far


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


def _integral(points: tuple, lines: tuple) -> list:
    """The exact frame scaled to integers: each point times one integer s,
    the lcm of all their denominators, and each line (a, b, c) as
    (k*a, k*b, k*s*c), with k the lcm of its own denominators: the same line
    in the scaled coordinates (s*x, s*y).  Coordinates are ints, Fractions
    or floats, each read as the exact rational it is."""
    coords, s = _over_common_denominator(*(v for p in points for v in p))
    scaled = [coords[k:k + 2] for k in range(0, len(coords), 2)]
    for line in lines:
        (a, b, c), _ = _over_common_denominator(*line)
        scaled.append((a, b, c * s))
    return scaled


def _bisector_family(p: tuple, base: tuple, dir: tuple) -> tuple:
    """(2A, 2B, 2C), integer polynomials in u: A*x + B*y + C = 0 is the
    crease that carries p onto D(u) = base + u*dir, the perpendicular
    bisector of p and D, with A = Dx - px, B = Dy - py and
    C = (|p|^2 - |D|^2) / 2.  The inputs are integers."""
    (px, py), (bx, by), (dx, dy) = p, base, dir
    return (
        [2 * (bx - px), 2 * dx],
        [2 * (by - py), 2 * dy],
        [px * px + py * py - bx * bx - by * by, -2 * (bx * dx + by * dy),
         -(dx * dx + dy * dy)],
    )


def _lands_on(point: tuple, crease: tuple, target: tuple) -> list:
    """Zero exactly where the crease family (A, B, C) reflects point onto
    the target line (a, b, c): (A^2+B^2)*target(point) - 2*crease(point)*(A*a + B*b).
    Integer inputs, integer polynomial out."""
    (x, y), (A, B, C), (a, b, c) = point, crease, target
    ka, kb, on_target = -2 * a, -2 * b, a * x + b * y + c
    norm = _add(_mul(A, A), _mul(B, B))
    at_point = _add(_add([x * v for v in A], [y * v for v in B]), C)
    dot = _add([ka * v for v in A], [kb * v for v in B])
    return _add([on_target * v for v in norm], _mul(at_point, dot))


def _o6_cubic(p1: Point, l1: Line, p2: Point, l2: Line) -> RatPoly:
    """Monic polynomial in u, of degree at most 3, whose roots are the
    creases carrying p1 onto base + u*dir = `_line_param(l1)` and p2 onto
    l2.  The float inputs are dyadic rationals, so `_integral` makes the
    whole family integral."""
    base, dir = _line_param(l1)
    p1, base, dir, p2, l2 = _integral(((p1.x, p1.y), (base.x, base.y), dir, (p2.x, p2.y)),
                                      ((l2.a, l2.b, l2.c),))
    return _monic_from_ints(_lands_on(p2, _bisector_family(p1, base, dir), l2))


def _fold_two_points_onto_two_lines(p1: Point, l1: Line, p2: Point, l2: Line) -> list:
    if abs(line_residual(p1, l1)) <= _COINCIDENT or \
            abs(line_residual(p2, l2)) <= _COINCIDENT:
        raise DegenerateProblem("a moving point already lies on its target line")
    # the crease is the perpendicular bisector of p1 and its image D(u) on
    # l1; requiring that the same crease carries p2 onto l2 is a cubic in u
    poly = _o6_cubic(p1, l1, p2, l2)
    if poly.is_zero:
        raise DegenerateProblem("every crease along the family works")
    base, (ex, ey) = _line_param(l1)
    folds = []
    for iv in isolate_real_roots(poly):
        u = refine_root(poly, iv, _ROOT_TOL)
        image = Point(base.x + u * ex, base.y + u * ey)
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
# each problem class's field names, in the order its solver takes them
_ARG_NAMES = {cls: tuple(f.name for f in fields(cls)) for cls in _SOLVERS}


def solve_single_fold(problem: SingleFoldProblem) -> list:
    """All crease lines achieving the alignment, as float-mode lines.

    Results are sorted by canonical coefficient triple, so the output order
    is deterministic.  Exact inputs are accepted and converted; outputs are
    float because several variants have irrational creases.
    """
    solve = _SOLVERS.get(type(problem))
    if solve is None:
        raise TypeError(f"not a single-fold problem: {problem!r}")
    folds = solve(*[getattr(problem, name).to_float() for name in _ARG_NAMES[type(problem)]])
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

    @cached_property
    def _image_track(self) -> tuple:
        """(foot, dir), exact: the image Q'(u) = foot + u*dir of Q runs along
        n from the foot of Q, with dir = 2*(n.b, -n.a) / unit.  An exact n's
        triple is coprime integers, and unit is the power of two with
        unit <= max(|n.a|, |n.b|) < 2*unit; a float n's is a unit normal,
        and unit is 1.  So 2 <= |dir| < 6 however n is written.  Built once
        per config, for the eliminant and for the realization of its roots.

        In integers: Q = (x, y) / s and n's triple is (a, b, c) / k (k is 1
        for an exact n), so the foot Q - (a, b) * (a*Q.x + b*Q.y + c) /
        (a^2 + b^2) is ((x, y) * N - (a, b) * r) / (s * N), with
        N = a^2 + b^2 and r = a*x + b*y + c*s."""
        (x, y), s = _over_common_denominator(self.Q.x, self.Q.y)
        (a, b, c), k = _over_common_denominator(self.n.a, self.n.b, self.n.c)
        N, r = a * a + b * b, a * x + b * y + c * s
        unit = 1
        if self.n.mode == EXACT:
            unit = 1 << (max(abs(a), abs(b)).bit_length() - 1)
        return ((Fraction(x * N - a * r, s * N), Fraction(y * N - b * r, s * N)),
                (Fraction(2 * b, k * unit), Fraction(-2 * a, k * unit)))

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


def _on_line(p: Point, l: Line) -> bool:
    """Incidence within _COINCIDENT in floats, and exact incidence too.

    Exact configs are realized in floats, so a point off its line by less
    than float resolution degenerates there just as a float config does.
    """
    if p.mode == l.mode == EXACT and incident(p, l):
        return True
    return incident(p.to_float(), l.to_float(), _COINCIDENT)


def eliminate_to_quintic(config: TwoFoldConfig) -> RatPoly:
    """Exact monic polynomial in the delta parameter u, of degree at most 5.

    delta = (A, B, C) is the bisector family carrying Q onto Q'(u);
    reflecting ell across it gives gamma = |n_delta|^2*ell
    - 2*(n_delta . n_ell)*delta, and gamma carrying P onto m is the
    eliminant, whose real roots are exactly the valid fold parameters.
    Raises DegenerateProblem when it is constant or identically zero.

    The family is assembled in integers (`_integral`) and made monic from
    them (`_monic_from_ints`).  Which scales are free: the common coordinate
    scale s, and ell's and m's triples, as a line is homogeneous; each
    multiplies the eliminant by a constant.  Which is not: dir, since it sets the unit
    of u, so its denominators go into s.
    """
    P, Q, ell, m = config.P, config.Q, config.ell, config.m
    P, Q, foot, dir, ell, m = _integral(((P.x, P.y), (Q.x, Q.y), *config._image_track),
                                        ((ell.a, ell.b, ell.c), (m.a, m.b, m.c)))
    A, B, C = _bisector_family(Q, foot, dir)
    norm = _add(_mul(A, A), _mul(B, B))
    ka, kb = -2 * ell[0], -2 * ell[1]
    dot = _add([ka * c for c in A], [kb * c for c in B])
    gamma = [_add([e * c for c in norm], _mul(dot, X)) for e, X in zip(ell, (A, B, C))]
    eliminant = _monic_from_ints(_lands_on(P, gamma, m))
    if eliminant.degree <= 0:
        raise DegenerateProblem(
            f"two-fold elimination degenerated to degree {eliminant.degree}")
    return eliminant


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
    """One verified solution per real root of the eliminant, descending in t.

    Each root is realized from geometry: delta is the bisector of Q and
    Q'(t), P' is the projection onto m of P reflected across the image of
    ell, and gamma is the bisector of P and P'.  A root whose realization
    degenerates (delta parallel to ell, so S does not exist) is skipped with
    a warning; one that leaves the float range raises ValueError, as does
    a foot of Q beyond it.
    """
    _checked_tol(tol)
    eliminant = eliminate_to_quintic(config)
    foot, dir = config._image_track
    try:
        fx, fy, dx, dy = (float(v) for v in (*foot, *dir))
    except OverflowError:
        raise ValueError("the foot of Q on n is beyond the float range") from None
    P, Q, ell, m, n = (v.to_float() for v in (config.P, config.Q, config.ell, config.m, config.n))
    solutions = []
    for interval in isolate_real_roots(eliminant):
        t = refine_root(eliminant, interval, _ROOT_TOL)
        try:
            delta = perpendicular_bisector(Q, Point(fx + t * dx, fy + t * dy))
            ell_image = reflect_line(ell, delta)
            image = reflect_point(P, ell_image)
            h = line_residual(image, m)
            on_m = Point(image.x - m.a * h, image.y - m.b * h)
            gamma = perpendicular_bisector(P, on_m)
            S = intersect(delta, ell)
            Qp = reflect_point(Q, delta)
            Pp = reflect_point(P, gamma)
            R, T = midpoint(Q, Qp), midpoint(P, Pp)
        except (CoincidentPoints, ParallelLines) as exc:
            warnings.warn(f"skipping degenerate fold parameter t={t!r}: {exc}")
            continue
        except ValueError as exc:
            raise ValueError(f"fold pair at t={t!r} leaves the float range ({exc})") from None
        residuals = {
            "Q_onto_n": distance(Qp, n),
            "P_onto_m": distance(Pp, m),
            "ell_onto_gamma": line_defect(ell_image, gamma),
        }
        solution = TwoFoldSolution(
            t=t, s=(m.a * on_m.y - m.b * on_m.x) / 2, gamma=gamma, delta=delta,
            Qp=Qp, Pp=Pp, R=R, S=S, T=T, residuals=residuals,
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
