import dataclasses
import hashlib
import math
import random
import warnings
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from hendecafold import folds, verification
from hendecafold.folds import (
    DegenerateParameter,
    DegenerateProblem,
    FoldThroughTwoPoints,
    LineOntoLine,
    PointOntoLinePerpendicularTo,
    PointOntoLineThroughPoint,
    PointOntoPoint,
    ThroughPointPerpendicularTo,
    TwoFoldConfig,
    TwoPointsOntoTwoLines,
    delta_line,
    eliminate_to_quintic,
    gamma_line_from_s,
    gamma_line_from_t,
    s_from_t,
    solve_single_fold,
    solve_two_fold,
)
from hendecafold.geometry import (
    Line,
    Point,
    distance,
    incident,
    line_defect,
    line_residual,
    perpendicular_bisector,
    reflect_line,
    reflect_point,
)
from hendecafold.polynomials import (
    RatFunc,
    RatPoly,
    isolate_real_roots,
    refine_root,
)

QUINTIC = RatPoly.of(1, 3, -3, -4, 1, 1)
X = RatPoly.of(0, 1)
ROOTS_11 = [2 * math.cos(2 * math.pi * k / 11) for k in range(1, 6)]


# -- single folds -----------------------------------------------------------

def test_point_onto_point_gives_n_frame_line():
    folds = solve_single_fold(PointOntoPoint(Point(0, 1), Point(0, -3)))
    assert folds == [Line(0.0, 1.0, 1.0)]  # y = -1


def test_line_onto_line_parallel_midline():
    folds = solve_single_fold(LineOntoLine(Line(1, 0, 0), Line(1, 0, 3)))
    assert folds == [Line(1.0, 0.0, 1.5)]  # x = -3/2


def test_line_onto_line_crossing_has_two_bisectors():
    folds = solve_single_fold(LineOntoLine(Line(1, 0, 0), Line(0, 1, 0)))
    assert len(folds) == 2
    for f in folds:
        img = reflect_line(Line(1.0, 0.0, 0.0), f)
        assert line_defect(img, Line(0.0, 1.0, 0.0)) < 1e-12


def test_through_point_perpendicular():
    folds = solve_single_fold(ThroughPointPerpendicularTo(Point(0, 0), Line(0, 1, 0)))
    assert folds == [Line(1.0, 0.0, 0.0)]


def test_fold_through_two_points():
    folds = solve_single_fold(FoldThroughTwoPoints(Point(0, 1), Point(0, -1)))
    assert folds == [Line(1.0, 0.0, 0.0)]


def test_point_onto_line_through_point_two_solutions():
    # place (0, 2) onto y = 0 pivoting at the origin: images (+-2, 0)
    folds = solve_single_fold(
        PointOntoLineThroughPoint(Point(0, 2), Line(0, 1, 0), Point(0, 0)))
    assert len(folds) == 2
    for f in folds:
        image = reflect_point(Point(0.0, 2.0), f)
        assert abs(image.y) < 1e-12
        assert incident(Point(0.0, 0.0), f, 1e-12)


def test_point_onto_line_through_point_tangent():
    # circle of radius 1 about the pivot just touches y = -1
    folds = solve_single_fold(
        PointOntoLineThroughPoint(Point(0, 1), Line(0, 1, 1), Point(0, 0)))
    assert folds == [Line(0.0, 1.0, 0.0)]


def test_point_onto_line_through_point_unreachable():
    folds = solve_single_fold(
        PointOntoLineThroughPoint(Point(0.0, 0.5), Line(0, 1, 5), Point(0, 0)))
    assert folds == []


def test_two_points_onto_two_lines_solutions_verify():
    problem = TwoPointsOntoTwoLines(
        Point(0, 2), Line(0, 1, 0), Point(3, 1), Line(1, 0, 0))
    folds = solve_single_fold(problem)
    assert 1 <= len(folds) <= 3
    for f in folds:
        img1 = reflect_point(Point(0.0, 2.0), f)
        img2 = reflect_point(Point(3.0, 1.0), f)
        assert abs(img1.y) < 1e-9
        assert abs(img2.x) < 1e-9


def test_point_onto_line_perpendicular_to():
    # carry (2, 3) onto x = 0 with a crease perpendicular to y = 0
    folds = solve_single_fold(
        PointOntoLinePerpendicularTo(Point(2, 3), Line(1, 0, 0), Line(0, 1, 0)))
    assert folds == [Line(1.0, 0.0, -1.0)]  # x = 1


def test_degenerate_single_folds():
    with pytest.raises(DegenerateProblem):
        solve_single_fold(PointOntoPoint(Point(1, 1), Point(1, 1)))
    with pytest.raises(DegenerateProblem):
        solve_single_fold(LineOntoLine(Line(1, 0, 0), Line(2, 0, 0)))
    with pytest.raises(DegenerateProblem):
        solve_single_fold(
            TwoPointsOntoTwoLines(Point(0, 0), Line(0, 1, 0), Point(1, 1), Line(1, 0, 0)))


def test_multi_solution_order_is_canonical():
    problem = PointOntoLineThroughPoint(Point(0, 2), Line(0, 1, 0), Point(0, 0))
    folds = solve_single_fold(problem)
    assert folds == sorted(folds, key=lambda l: (l.a, l.b, l.c))


# -- crease parameterizations ------------------------------------------------

def test_delta_line_values():
    assert delta_line(Fraction(1)) == Line(1, -1, -1)
    assert delta_line(Fraction(2)) == Line(2, -1, -4)  # y = 2x - 4
    with pytest.raises(DegenerateParameter):
        delta_line(0.0)


def test_delta_is_bisector_of_q_and_qprime():
    for t in (0.7, -1.3, 2.5):
        from hendecafold.geometry import perpendicular_bisector
        expect = perpendicular_bisector(Point(0.0, 1.0), Point(2 * t, -1.0))
        assert line_defect(delta_line(t), expect) < 1e-12


def test_gamma_from_s_values():
    assert gamma_line_from_s(Fraction(0)) == Line(2, 6, 13)    # y = -x/3 - 13/6
    assert gamma_line_from_s(Fraction(1)) == Line(2, 10, 9)    # y = -x/5 - 9/10
    with pytest.raises(DegenerateParameter):
        gamma_line_from_s(Fraction(-3, 2))


@given(st.fractions(min_value=-4, max_value=4, max_denominator=12)
       .filter(lambda s: s != Fraction(-3, 2)))
def test_gamma_from_s_reflects_p_onto_m(s):
    axis = gamma_line_from_s(s)
    assert reflect_point(Point(Fraction(-5, 2), -3), axis) == Point(Fraction(-3, 2), 2 * s)


def test_gamma_from_t_values():
    assert gamma_line_from_t(Fraction(1)) == Line(0, 1, 1)  # y = -1
    with pytest.raises(DegenerateParameter):
        gamma_line_from_t(0)


@given(st.fractions(min_value=-4, max_value=4, max_denominator=12)
       .filter(lambda t: t != 0))
def test_gamma_from_t_through_qprime_and_s(t):
    g = gamma_line_from_t(t)
    assert line_residual(Point(2 * t, -1), g) == 0
    assert line_residual(Point(0, -t * t), g) == 0


@given(st.floats(min_value=-3, max_value=3).filter(
    lambda t: abs(t) > 0.05 and abs(abs(t) - 1) > 0.05))
def test_reflecting_ell_across_delta_is_gamma_from_t(t):
    img = reflect_line(Line(1.0, 0.0, 0.0), delta_line(t))
    assert line_defect(img, gamma_line_from_t(t)) < 1e-10


def test_s_from_t_exact():
    assert s_from_t(Fraction(2)) == Fraction(-13, 6)
    for bad in (0, 1, -1, 0.0, 1.0, -1.0):
        with pytest.raises(DegenerateParameter):
            s_from_t(bad)


def test_s_from_t_near_printed_value():
    # direct float evaluation of -t/(t^2-1) - 3/2
    assert s_from_t(1.6825071) == pytest.approx(-2.4189859, abs=1e-6)


@given(st.floats(min_value=-3, max_value=3).filter(
    lambda t: abs(t) > 0.05 and abs(abs(t) - 1) > 0.05))
def test_gamma_parameterizations_share_slope(t):
    # s_from_t encodes the slope coupling, so the unit normals agree for
    # every valid t; the offsets agree exactly on the quintic's roots
    g_s = gamma_line_from_s(s_from_t(t))
    g_t = gamma_line_from_t(t)
    assert min(abs(g_s.a - g_t.a) + abs(g_s.b - g_t.b),
               abs(g_s.a + g_t.a) + abs(g_s.b + g_t.b)) < 1e-10


def test_gamma_parameterizations_agree_at_roots():
    for t in ROOTS_11:
        assert line_defect(gamma_line_from_s(s_from_t(t)), gamma_line_from_t(t)) < 1e-10


# -- elimination --------------------------------------------------------------

def test_eliminate_hendecagon_config_exactly():
    assert eliminate_to_quintic(TwoFoldConfig.hendecagon()) == QUINTIC


def test_quintic_avoids_singular_parameters():
    q = eliminate_to_quintic(TwoFoldConfig.hendecagon())
    assert q(Fraction(0)) == 1
    assert q(Fraction(1)) == -1
    assert q(Fraction(-1)) == -1


def test_elimination_degree_five_on_random_family_members():
    rng = random.Random(11)
    for _ in range(10):
        px = Fraction(rng.randint(-40, 40), rng.randint(1, 8))
        py = Fraction(rng.randint(-40, 40), rng.randint(1, 8))
        mx = Fraction(rng.randint(-40, 40), rng.randint(1, 8))
        if px == mx:
            continue
        config = TwoFoldConfig(
            P=Point(px, py), Q=Point(0, 1),
            ell=Line(1, 0, 0), m=Line(1, 0, -mx), n=Line(0, 1, 1))
        assert eliminate_to_quintic(config).degree == 5


def test_tilted_configuration_solves():
    # m: x + y + 3 = 0 is outside the paper's canonical frame
    tilted = TwoFoldConfig(
        P=Point(Fraction(-5, 2), -3), Q=Point(0, 1),
        ell=Line(1, 0, 0), m=Line(1, 1, 3), n=Line(0, 1, 1))
    solutions = solve_two_fold(tilted)
    assert solutions
    for sol in solutions:
        assert max(_independent_misses(tilted, sol)) <= 1e-9


def test_degenerate_config_rejected():
    with pytest.raises(DegenerateProblem):
        TwoFoldConfig(P=Point(Fraction(-3, 2), 0), Q=Point(0, 1),
                      ell=Line(1, 0, 0), m=Line(2, 0, 3), n=Line(0, 1, 1))


def test_exact_config_within_float_resolution_of_degenerate_is_rejected():
    # off m by 1e-20 exactly, but on m once realized in floats: the root
    # where gamma passes through P would give an arbitrary bisector
    tiny = Fraction(1, 10**20)
    with pytest.raises(DegenerateProblem, match="P lies on m"):
        solve_two_fold(TwoFoldConfig(P=Point(1 + tiny, 0), Q=Point(0, 1),
                                     ell=Line(1, 0, 0), m=Line(1, 0, -1),
                                     n=Line(0, 1, 1)))
    with pytest.raises(DegenerateProblem, match="Q lies on n"):
        solve_two_fold(TwoFoldConfig(P=Point(Fraction(-5, 2), -3), Q=Point(0, -1 - tiny),
                                     ell=Line(1, 0, 0), m=Line(2, 0, 3),
                                     n=Line(0, 1, 1)))


def test_float_config_is_accepted_exactly():
    # every float is a dyadic rational, so the float frame eliminates exactly
    config = TwoFoldConfig(P=Point(-2.5, -3.0), Q=Point(0.0, 1.0),
                           ell=Line(1.0, 0.0, 0.0), m=Line(1.0, 0.0, 1.5),
                           n=Line(0.0, 1.0, 1.0))
    assert eliminate_to_quintic(config) == QUINTIC


def test_root_at_t_zero_is_realized():
    # m: x = -P.x makes t = 0 a root: delta is y = 0, which leaves ell in
    # place, so gamma = ell carries P onto its mirror image on m
    config = TwoFoldConfig(P=Point(-2, Fraction(-3)), Q=Point(0, 1),
                           ell=Line(1, 0, 0), m=Line(1, 0, -2), n=Line(0, 1, 1))
    assert eliminate_to_quintic(config)(Fraction(0)) == 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        solutions = solve_two_fold(config)
    [zero] = [sol for sol in solutions if sol.t == 0.0]
    assert line_defect(zero.delta, Line(0.0, 1.0, 0.0)) <= 1e-12
    assert line_defect(zero.gamma, Line(1.0, 0.0, 0.0)) <= 1e-12
    assert all(sol.max_residual <= 1e-9 for sol in solutions)


def test_root_with_delta_parallel_to_ell_is_skipped_with_warning():
    # Q = (1, 0) and n: x = 3 give delta x = 2 at t = 0, parallel to ell
    # (x = 0), so S does not exist; gamma x = 4 takes P = (5, 1) onto m
    config = TwoFoldConfig(P=Point(5, 1), Q=Point(1, 0), ell=Line(1, 0, 0),
                           m=Line(1, -1, -2), n=Line(1, 0, -3))
    assert eliminate_to_quintic(config)(Fraction(0)) == 0
    with pytest.warns(UserWarning, match="skipping degenerate fold parameter t=0.0"):
        solutions = solve_two_fold(config)
    assert solutions and all(abs(sol.t) > 1e-6 for sol in solutions)
    assert all(sol.max_residual <= 1e-9 for sol in solutions)


def test_constant_eliminant_is_a_degenerate_problem(monkeypatch):
    # no valid config is known to reach this guard, so the eliminant's
    # integer coefficient list is replaced to drive it
    monkeypatch.setattr(folds, "_lands_on", lambda point, crease, target: [3, 0])
    with pytest.raises(DegenerateProblem, match="degenerated to degree 0"):
        solve_two_fold(TwoFoldConfig.hendecagon())
    monkeypatch.setattr(folds, "_lands_on", lambda point, crease, target: [0, 0, 0])
    with pytest.raises(DegenerateProblem, match="degenerated to degree -1"):
        eliminate_to_quintic(TwoFoldConfig.hendecagon())


def test_filled_image_track_cache_leaves_equality_and_hash_alone(monkeypatch):
    config = TwoFoldConfig.hendecagon()
    calls = []

    def counted(c):
        calls.append(c)
        return eliminate(c)

    # solve_two_fold calls eliminate_to_quintic by name, so it can be wrapped
    eliminate = folds.eliminate_to_quintic
    monkeypatch.setattr(folds, "eliminate_to_quintic", counted)
    solve_two_fold(config)
    assert calls == [config] and "_image_track" in vars(config)
    fresh = TwoFoldConfig.hendecagon()
    assert "_image_track" not in vars(fresh)
    assert config == fresh and hash(config) == hash(fresh) and repr(config) == repr(fresh)
    assert {config: 1}[fresh] == 1
    assert config._image_track == fresh._image_track == ((0, -1), (2, 0))


def _fraction_image_track(config):
    """`TwoFoldConfig._image_track` in Fraction arithmetic."""
    (qx, qy) = (Fraction(v) for v in (config.Q.x, config.Q.y))
    (a, b, c) = (Fraction(v) for v in (config.n.a, config.n.b, config.n.c))
    k = (a * qx + b * qy + c) / (a * a + b * b)
    unit = 1
    if isinstance(config.n.a, Fraction):
        unit = 1 << (max(abs(a.numerator), abs(b.numerator)).bit_length() - 1)
    return (qx - a * k, qy - b * k), (2 * b / unit, -2 * a / unit)


_track_fractions = st.fractions(min_value=-10**4, max_value=10**4, max_denominator=10**4)


@settings(deadline=None)
@given(st.tuples(*(_track_fractions,) * 5).filter(lambda v: v[2] or v[3]), st.booleans())
def test_image_track_matches_its_fraction_form(values, floating):
    qx, qy, a, b, c = (float(v) for v in values) if floating else values
    try:
        config = TwoFoldConfig(P=Point(qx, qy), Q=Point(qx, qy), ell=Line(a, b, c),
                               m=Line(a, -b, c + 1), n=Line(a, b, c))
    except (DegenerateProblem, ValueError):
        assume(False)  # Q on n, P on m, or a float normal of zero
    got = config._image_track
    assert got == _fraction_image_track(config)
    assert all(type(v) is Fraction for pair in got for v in pair)


# -- the general-position two-fold ---------------------------------------------

def _poly_on_ratfunc(p, value):
    """p(value) for a polynomial p and a rational-function argument."""
    acc = RatFunc.constant(0)
    for c in reversed(p.coeffs):
        acc = acc * value + c
    return acc


def _reference_eliminant(px, py, mx):
    """The canonical-frame elimination through rational functions: the
    gamma slope fixes s(t), and the offset equation's numerator is the
    quintic."""
    a = mx - px
    s_of_t = RatFunc(RatPoly.of(-py / 2, -a, py / 2), RatPoly.of(-1, 0, 1))
    offset_coeff = RatPoly.of(-py, 2)
    midpoint_coeff = RatPoly.of(py * py / 2 - (mx * mx - px * px) / 2, 0, -2)
    equation = (_poly_on_ratfunc(midpoint_coeff, s_of_t)
                - RatFunc(X * X) * _poly_on_ratfunc(offset_coeff, s_of_t))
    return equation.num.monic()


def test_eliminant_equals_the_ratfunc_elimination_on_canonical_configs():
    rng = random.Random(606)
    checked = 0
    while checked < 200:
        px, py, mx = (Fraction(rng.randint(-40, 40), rng.choice((1, 2, 3, 4, 6, 8)))
                      for _ in range(3))
        if px == mx:
            continue
        config = TwoFoldConfig(P=Point(px, py), Q=Point(0, 1), ell=Line(1, 0, 0),
                               m=Line(1, 0, -mx), n=Line(0, 1, 1))
        if checked % 4 == 0:
            # every float is an exact rational, so a float config eliminates too
            config = TwoFoldConfig(*(getattr(config, name).to_float()
                                     for name in ("P", "Q", "ell", "m", "n")))
        P, m = config.P, config.m
        assert eliminate_to_quintic(config) == _reference_eliminant(
            Fraction(P.x), Fraction(P.y), -Fraction(m.c) / Fraction(m.a)), config
        checked += 1


def _ratpoly_family(p, base, dir):
    """`folds._bisector_family` as it was on `RatPoly`s: (A, B, C) with
    `Fraction` coefficients."""
    (px, py), (bx, by), (dx, dy) = p, base, dir
    return (RatPoly.of(bx - px, dx), RatPoly.of(by - py, dy),
            RatPoly.of((px * px + py * py - bx * bx - by * by) / 2,
                       -(bx * dx + by * dy), -(dx * dx + dy * dy) / 2))


def _ratpoly_lands_on(point, crease, target):
    """`folds._lands_on` as it was on `RatPoly`s."""
    (x, y), (A, B, C), (a, b, c) = point, crease, target
    return ((A * A + B * B) * (a * x + b * y + c)
            - 2 * (A * x + B * y + C) * (A * a + B * b))


def _reference_general_eliminant(config):
    """The general-position elimination multiplied out in `RatPoly`s, in the
    config's own unscaled frame."""
    P, Q = ((Fraction(v.x), Fraction(v.y)) for v in (config.P, config.Q))
    ell, m, (a, b, c) = ((Fraction(l.a), Fraction(l.b), Fraction(l.c))
                         for l in (config.ell, config.m, config.n))
    k = (a * Q[0] + b * Q[1] + c) / (a * a + b * b)
    # u's unit: dir = 2*(b, -a) over the largest power of two at most
    # max(|a|, |b|), which is 1 for a float n's unit normal
    unit = 1
    while 2 * unit <= max(abs(a), abs(b)):
        unit *= 2
    A, B, C = _ratpoly_family(Q, (Q[0] - a * k, Q[1] - b * k), (2 * b / unit, -2 * a / unit))
    norm = A * A + B * B
    dot = 2 * (A * ell[0] + B * ell[1])
    gamma = (norm * ell[0] - dot * A, norm * ell[1] - dot * B, norm * ell[2] - dot * C)
    return _ratpoly_lands_on(P, gamma, m).monic()


def test_eliminant_equals_the_ratpoly_elimination_in_general_position():
    # non-integral P and Q, |n|^2 != 1 and nonzero ell/m offsets, so the
    # integer assembly has a coordinate scale and line scales to get right
    rng = random.Random(1111)

    def fraction():
        d = rng.randint(2, 9)
        return rng.randint(-6, 6) + Fraction(rng.randint(1, d - 1), d)

    def line(tilted):
        a = rng.randint(1, 5)
        b = rng.choice((-1, 1)) * rng.randint(1, 5) if tilted else rng.randint(-5, 5)
        return Line(a * fraction(), b * fraction(), fraction())

    checked = 0
    while checked < 300:
        try:
            config = TwoFoldConfig(P=Point(fraction(), fraction()),
                                   Q=Point(fraction(), fraction()),
                                   ell=line(False), m=line(False), n=line(True))
        except DegenerateProblem:
            continue
        if checked % 3 == 0:
            # float lines have unit normals, so n's triple has denominators
            config = TwoFoldConfig(*(getattr(config, name).to_float()
                                     for name in ("P", "Q", "ell", "m", "n")))
        assert eliminate_to_quintic(config) == _reference_general_eliminant(config), config
        checked += 1


def _independent_misses(config, sol):
    """The three alignments of a crease pair, by plain float reflection."""
    P, Q, ell, m, n = (v.to_float() for v in
                       (config.P, config.Q, config.ell, config.m, config.n))

    def reflect(x, y, l):
        k = 2.0 * (l.a * x + l.b * y + l.c) / (l.a ** 2 + l.b ** 2)
        return x - k * l.a, y - k * l.b

    def off(point, l):
        return abs(l.a * point[0] + l.b * point[1] + l.c) / math.hypot(l.a, l.b)

    # two points of ell, mirrored across delta, must lie on gamma
    e0 = (-ell.a * ell.c, -ell.b * ell.c)
    e1 = (e0[0] - ell.b, e0[1] + ell.a)
    return (off(reflect(Q.x, Q.y, sol.delta), n),
            off(reflect(P.x, P.y, sol.gamma), m),
            off(reflect(*e0, sol.delta), sol.gamma),
            off(reflect(*e1, sol.delta), sol.gamma))


def _pythagorean_motion(p, q, tx, ty):
    """x -> R x + (tx, ty) with the rational rotation R of angle 2*atan(q/p)."""
    r2 = p * p + q * q
    c, s = Fraction(p * p - q * q, r2), Fraction(2 * p * q, r2)

    def point(v):
        return Point(c * v.x - s * v.y + tx, s * v.x + c * v.y + ty)

    def line(l):
        a, b = c * l.a - s * l.b, s * l.a + c * l.b
        return Line(a, b, l.c - a * tx - b * ty)

    def float_line(l):
        a, b = float(c) * l.a - float(s) * l.b, float(s) * l.a + float(c) * l.b
        return Line(a, b, l.c - a * float(tx) - b * float(ty))

    return point, line, float_line


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 9), st.integers(-9, 9),
       st.fractions(-5, 5, max_denominator=6), st.fractions(-5, 5, max_denominator=6))
def test_rigid_motion_maps_hendecagon_solutions_onto_solutions(p, q, tx, ty):
    # u is measured in units of n's coefficient triple, so t differs
    # between frames; the crease lines themselves must correspond
    point, line, float_line = _pythagorean_motion(p, q, tx, ty)
    base = TwoFoldConfig.hendecagon()
    moved = TwoFoldConfig(P=point(base.P), Q=point(base.Q), ell=line(base.ell),
                          m=line(base.m), n=line(base.n))
    expected = solve_two_fold(base)
    got = solve_two_fold(moved)
    assert len(got) == len(expected) == 5
    for sol in expected:
        gamma, delta = float_line(sol.gamma), float_line(sol.delta)
        assert any(line_defect(g.gamma, gamma) <= 1e-9 and line_defect(g.delta, delta) <= 1e-9
                   for g in got), sol.t


def test_random_general_configs_solve_within_tolerance_or_raise():
    rng = random.Random(2009)

    def rational():
        return Fraction(rng.randint(-24, 24), rng.choice((1, 2, 3, 4)))

    def line():
        a, b = rng.randint(-4, 4), rng.randint(-4, 4)
        return Line(a or 1, b, rational())

    solved = 0
    for _ in range(150):
        try:
            config = TwoFoldConfig(P=Point(rational(), rational()),
                                   Q=Point(rational(), rational()),
                                   ell=line(), m=line(), n=line())
        except DegenerateProblem:
            continue
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                solutions = solve_two_fold(config, 1e-9)
        except ValueError:
            continue
        solved += 1
        m = config.m.to_float()
        for sol in solutions:
            assert max(_independent_misses(config, sol)) <= 1e-9, (config, sol.t)
            # s is half the coordinate of P' along m's direction (-m.b, m.a)
            assert abs(m.a * sol.Pp.y - m.b * sol.Pp.x - 2 * sol.s) <= 1e-9
    assert solved >= 120


def _outcome(config):
    """The number of solutions, or the class of the failure."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return len(solve_two_fold(config))
    except ValueError as exc:
        return type(exc).__name__


def test_exact_configs_solve_as_their_float_twins():
    # 5-digit rationals of size O(1) give n a coprime triple with entries
    # near 10^10; the fold parameter's unit must not shrink with them
    rng = random.Random(5)

    def rational():
        return Fraction(rng.randint(-99999, 99999), rng.randint(10000, 99999))

    checked = 0
    while checked < 40:
        try:
            config = TwoFoldConfig(Point(rational(), rational()), Point(rational(), rational()),
                                   *(Line(rational(), rational(), rational()) for _ in range(3)))
            twin = TwoFoldConfig(*(getattr(config, name).to_float()
                                   for name in ("P", "Q", "ell", "m", "n")))
        except DegenerateProblem:
            continue
        assert _outcome(config) == _outcome(twin), config
        checked += 1


def _reference_o6(p1, l1, p2, l2):
    """The O6 creases from the cubic assembled term by term in `RatPoly`s,
    and that cubic made monic."""
    p1, l1, p2, l2 = (v.to_float() for v in (p1, l1, p2, l2))
    base = Point(-l1.a * l1.c, -l1.b * l1.c)
    ex, ey = Fraction(-l1.b), Fraction(l1.a)
    d0x, d0y = Fraction(base.x), Fraction(base.y)
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
    folds = []
    for iv in isolate_real_roots(poly):
        u = refine_root(poly, iv, 1e-13)
        image = Point(float(d0x) + u * float(ex), float(d0y) + u * float(ey))
        folds.append(perpendicular_bisector(p1, image))
    return sorted(folds, key=lambda l: (l.a, l.b, l.c)), poly.monic()


def test_o6_creases_unchanged_by_the_shared_crease_family():
    rng = random.Random(66)
    compared = 0
    while compared < 200:
        coords = [rng.uniform(-4, 4) for _ in range(10)]
        p1, p2 = Point(*coords[0:2]), Point(*coords[2:4])
        l1, l2 = Line(*coords[4:7]), Line(*coords[7:10])
        try:
            got = solve_single_fold(TwoPointsOntoTwoLines(p1, l1, p2, l2))
        except DegenerateProblem:
            continue
        creases, cubic = _reference_o6(p1, l1, p2, l2)
        # the solver receives its inputs through `to_float`, as does the reference
        assert folds._o6_cubic(*(v.to_float() for v in (p1, l1, p2, l2))) == cubic
        assert got == creases
        compared += 1


# -- the two-fold solve --------------------------------------------------------

@pytest.fixture(scope="module")
def hendecagon_solutions():
    return solve_two_fold(TwoFoldConfig.hendecagon())


def test_five_solutions_sorted_descending(hendecagon_solutions):
    ts = [sol.t for sol in hendecagon_solutions]
    assert len(ts) == 5
    assert ts == sorted(ts, reverse=True)


def test_top_solution_is_the_hendecagon_parameter(hendecagon_solutions):
    assert abs(hendecagon_solutions[0].t - 2 * math.cos(2 * math.pi / 11)) < 1e-9


def test_solution_ts_match_vertex_cosines(hendecagon_solutions):
    got = sorted(sol.t for sol in hendecagon_solutions)
    for g, e in zip(got, sorted(ROOTS_11)):
        assert abs(g - e) < 1e-9


def test_all_alignment_residuals_small(hendecagon_solutions):
    for sol in hendecagon_solutions:
        assert sol.max_residual <= 1e-9
        assert set(sol.residuals) == {"Q_onto_n", "P_onto_m", "ell_onto_gamma"}


def test_solution_geometry(hendecagon_solutions):
    n = Line(0.0, 1.0, 1.0)
    m = Line(1.0, 0.0, 1.5)
    for sol in hendecagon_solutions:
        assert distance(sol.Qp, n) <= 1e-9
        assert distance(sol.Pp, m) <= 1e-9
        # R = (t, 0), Q' = (2t, -1), S = (0, -t^2)
        assert abs(sol.R.x - sol.t) < 1e-9 and abs(sol.R.y) < 1e-9
        assert abs(sol.Qp.x - 2 * sol.t) < 1e-9
        assert abs(sol.S.y + sol.t ** 2) < 1e-9
        assert abs(sol.Pp.y - 2 * sol.s) < 1e-9


def test_gamma_equals_both_parameterizations_at_solutions(hendecagon_solutions):
    for sol in hendecagon_solutions:
        assert line_defect(sol.gamma, gamma_line_from_t(sol.t)) < 1e-9
        assert line_defect(sol.gamma, gamma_line_from_s(sol.s)) < 1e-9
        assert line_defect(sol.delta, delta_line(sol.t)) < 1e-12


# -- the two-fold count against an independent sign scan -----------------------

_TWO_FOLD_SPAN, _TWO_FOLD_SAMPLES = 45.0, 9001


def _unit(line):
    a, b, c = float(line.a), float(line.b), float(line.c)
    norm = math.hypot(a, b)
    return a / norm, b / norm, c / norm


def _two_fold_track(config):
    """The foot of Q on n and n's unit direction, in plain floats: Q'(u) is
    the foot plus u times the direction, u the arclength along n."""
    a, b, c = _unit(config.n)
    qx, qy = float(config.Q.x), float(config.Q.y)
    off = a * qx + b * qy + c
    return (qx - a * off, qy - b * off), (-b, a)


def _two_fold_scan(config):
    """(crossings, trustworthy) of the miss of P on m as Q'(u) runs along n.

    At each u the sheet is folded along the bisector of Q and Q'(u); ell's
    image under that fold is gamma, and P reflected across gamma misses m
    by the signed residual sampled here.  The u grid and the three trust
    rules are those of the O6 oracle: every crossing inside the window, no
    two within 5 samples, and no near-zero dip away from a crossing.
    """
    (fx, fy), (dx, dy) = _two_fold_track(config)
    qx, qy = float(config.Q.x), float(config.Q.y)
    px, py = float(config.P.x), float(config.P.y)
    ea, eb, ec = _unit(config.ell)
    ma, mb, mc = _unit(config.m)
    e0x, e0y = -ea * ec, -eb * ec          # a point of ell; (-eb, ea) runs along it
    lo, hi = -_TWO_FOLD_SPAN - 2.0, _TWO_FOLD_SPAN + 2.0
    grid = [lo + i * (hi - lo) / (_TWO_FOLD_SAMPLES - 1) for i in range(_TWO_FOLD_SAMPLES)]
    values = []
    for u in grid:
        # the bisector: normal w = Q' - Q through the midpoint
        wx, wy = fx + u * dx - qx, fy + u * dy - qy
        w2 = wx * wx + wy * wy
        wc = -(wx * (qx + wx / 2.0) + wy * (qy + wy / 2.0))
        # ell's point and direction, reflected across it
        k = 2.0 * (wx * e0x + wy * e0y + wc) / w2
        rx, ry = e0x - k * wx, e0y - k * wy
        k = 2.0 * (wx * -eb + wy * ea) / w2
        gx, gy = -eb - k * wx, ea - k * wy
        # P reflected across gamma, the line through (rx, ry) along (gx, gy)
        k = 2.0 * (gy * (px - rx) - gx * (py - ry)) / (gx * gx + gy * gy)
        values.append(ma * (px - k * gy) + mb * (py + k * gx) + mc)
    crossings = verification._crossings(values)
    trustworthy = (all(abs(grid[i]) <= _TWO_FOLD_SPAN for i in crossings)
                   and all(j - i >= 5 for i, j in zip(crossings, crossings[1:]))
                   and not verification._uncovered_dip(values, crossings))
    return len(crossings), trustworthy


def _two_fold_count_in_window(config):
    """The solver's crease pairs whose Q' lies inside the scan's window, by
    the arclength of Qp from the foot; a skipped degenerate root raises."""
    (fx, fy), (dx, dy) = _two_fold_track(config)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            solutions = solve_two_fold(config)
    except folds.NoRealSolutions:
        return 0
    return sum(abs((sol.Qp.x - fx) * dx + (sol.Qp.y - fy) * dy) <= _TWO_FOLD_SPAN
               for sol in solutions)


def _count_oracle_configs():
    """A seeded stream of configs with Q at least 0.3 from n, 55 of each of
    four kinds: float, exact canonical-family, exact with tilted lines and
    non-unit denominators, and exact in general position."""
    rng = random.Random(2018)

    def rational(lo, hi, dens=range(1, 9)):
        d = rng.choice(dens)
        return Fraction(rng.randint(lo * d, hi * d), d)

    def floating():
        normals = [(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(3)]
        if min(math.hypot(a, b) for a, b in normals) < 0.1:
            return None
        return TwoFoldConfig(Point(rng.uniform(-3, 3), rng.uniform(-3, 3)),
                             Point(rng.uniform(-3, 3), rng.uniform(-3, 3)),
                             *(Line(a, b, rng.uniform(-3, 3)) for a, b in normals))

    def canonical():
        return TwoFoldConfig(P=Point(rational(-5, 5), rational(-6, 4)), Q=Point(0, 1),
                             ell=Line(1, 0, 0), m=Line(1, 0, -rational(-5, 5)),
                             n=Line(0, 1, 1))

    def tilted():
        v = [rational(-5, 5, (2, 3, 5, 7, 9, 12)) for _ in range(13)]
        return TwoFoldConfig(Point(*v[:2]), Point(*v[2:4]),
                             *(Line(*v[k:k + 3]) for k in (4, 7, 10)))

    def general():
        def line():
            a, b = rng.randint(-4, 4), rng.randint(-4, 4)
            return Line(a or 1, b, Fraction(rng.randint(-24, 24), rng.choice((1, 2, 3, 4))))
        coords = [Fraction(rng.randint(-24, 24), rng.choice((1, 2, 3, 4))) for _ in range(4)]
        return TwoFoldConfig(P=Point(*coords[:2]), Q=Point(*coords[2:]),
                             ell=line(), m=line(), n=line())

    configs = []
    for kind in (floating, canonical, tilted, general):
        made = 0
        while made < 55:
            try:
                config = kind()
            except (DegenerateProblem, ValueError):
                continue
            if config is None or abs(line_residual(config.Q.to_float(),
                                                   config.n.to_float())) < 0.3:
                continue
            configs.append(config)
            made += 1
    return configs


def test_two_fold_count_matches_an_independent_sign_scan():
    # the solver's crease pairs, counted inside the window, against the
    # sign crossings of a scan that shares none of the elimination's algebra:
    # a missing fold pair, not only an unsound one, fails here
    count, trustworthy = _two_fold_scan(TwoFoldConfig.hendecagon())
    assert (count, trustworthy) == (5, True)
    assert _two_fold_count_in_window(TwoFoldConfig.hendecagon()) == 5
    configs = _count_oracle_configs()
    trusted = 0
    for config in configs:
        count, trustworthy = _two_fold_scan(config)
        if trustworthy:
            assert _two_fold_count_in_window(config) == count, config
            trusted += 1
    assert trusted >= 0.9 * len(configs)


# -- golden two-fold outputs ---------------------------------------------------

def _golden_configs():
    """A seeded stream of three kinds of config, as callables that build one:
    canonical-family exact configs, exact configs with tilted lines and
    non-unit denominators, and float configs, the mode a script's two-fold
    step runs in."""
    rng = random.Random(2022)

    def rational(lo, hi, dens=range(1, 9)):
        d = rng.choice(dens)
        return Fraction(rng.randint(lo * d, hi * d), d)

    def canonical(px, py, mx):
        return lambda: TwoFoldConfig(P=Point(px, py), Q=Point(0, 1), ell=Line(1, 0, 0),
                                     m=Line(1, 0, -mx), n=Line(0, 1, 1))

    def tilted(values):
        points, lines = values[:4], values[4:]
        return lambda: TwoFoldConfig(Point(*points[:2]), Point(*points[2:]),
                                     *(Line(*lines[k:k + 3]) for k in (0, 3, 6)))

    def floating(values):
        return lambda: TwoFoldConfig(Point(*values[:2]), Point(*values[2:4]),
                                     *(Line(*values[k:k + 3]) for k in (4, 7, 10)))

    configs = [canonical(rational(-5, 5), rational(-6, 4), rational(-5, 5))
               for _ in range(320)]
    dens = (2, 3, 5, 7, 9, 12)
    configs += [tilted([rational(-5, 5, dens) for _ in range(13)]) for _ in range(120)]
    configs += [floating([rng.uniform(-5, 5) for _ in range(13)]) for _ in range(60)]
    return configs


def _golden_record(build):
    """One line: every solution's outputs as float hex, or the failure."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            solutions = solve_two_fold(build())
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"
    parts = []
    for sol in solutions:
        values = [sol.t, sol.s]
        values += [getattr(sol, name).a for name in ("gamma", "delta")]
        values += [getattr(sol, name).b for name in ("gamma", "delta")]
        values += [getattr(sol, name).c for name in ("gamma", "delta")]
        for name in ("Qp", "Pp", "R", "S", "T"):
            values += [getattr(sol, name).x, getattr(sol, name).y]
        values += [sol.residuals[key] for key in sorted(sol.residuals)]
        parts.append(" ".join(v.hex() for v in values))
    return " | ".join(parts)


def test_two_fold_outputs_match_the_golden_digest():
    # every output bit and every message of 500 solves: a faster path through
    # the two-fold arithmetic must leave this digest as it is
    lines = [_golden_record(build) for build in _golden_configs()]
    assert sum(line.startswith("DegenerateProblem") for line in lines) < 50
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "e77574b581db7c044d6ae591e5fc08f56016e239ad9cc9dc0d37bc165fed02eb"


# -- golden single-fold outputs ------------------------------------------------

def _single_fold_golden_problems():
    """A seeded stream of every single-fold variant, 40 exact and 20 float
    problems each.  Exact coordinates are small rationals, so parallel and
    on-line inputs come up as well as general ones."""
    rng = random.Random(2024)

    def exact():
        d = rng.choice((1, 1, 2, 3, 4))
        return Fraction(rng.randint(-3 * d, 3 * d), d)

    def floating():
        return rng.uniform(-5, 5)

    def make(kind, draw):
        if kind is Point:
            return Point(draw(), draw())
        while True:
            a, b = draw(), draw()
            if a or b:
                return Line(a, b, draw())

    def args(kinds, draw):
        # an argument may repeat the one before it of its kind, so that
        # coincident points and lines are drawn too
        made = {}
        for kind in kinds:
            if kind not in made or rng.random() >= 0.2:
                made[kind] = make(kind, draw)
            yield made[kind]

    problems = []
    for cls, _ in folds.SINGLE_FOLDS.values():
        kinds = [f.type for f in dataclasses.fields(cls)]
        for draw in [exact] * 40 + [floating] * 20:
            problems.append(cls(*args(kinds, draw)))
    return problems


def _single_fold_record(problem):
    """One line: each crease's triple as float hex, or the failure."""
    try:
        creases = solve_single_fold(problem)
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"
    return " | ".join(" ".join(v.hex() for v in (l.a, l.b, l.c)) for l in creases)


def test_single_fold_outputs_match_the_golden_digest():
    # every crease bit and every message of 420 solves over the seven variants
    lines = [_single_fold_record(p) for p in _single_fold_golden_problems()]
    assert sum(line.startswith("DegenerateProblem") for line in lines) < 60
    assert sum(line == "" for line in lines) < 60
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "89dac6e09e6f5d60edcf3a6c46bed34da93dae7330f245493dbbea15a3e1aca4"
