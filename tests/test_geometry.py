import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from hendecafold.geometry import (
    CoincidentPoints,
    Line,
    MixedModes,
    ParallelLines,
    Point,
    dist_sq,
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
)

T11 = 2 * math.cos(2 * math.pi / 11)


def fr(a, b=1):
    return Fraction(a, b)


# -- strategies --------------------------------------------------------

small_fractions = st.fractions(min_value=-50, max_value=50, max_denominator=20)
exact_points = st.builds(Point, small_fractions, small_fractions)

coords = st.floats(min_value=-100, max_value=100, allow_nan=False)
float_points = st.builds(Point, coords, coords)


def exact_line_triples():
    return st.tuples(small_fractions, small_fractions, small_fractions).filter(
        lambda t: t[0] != 0 or t[1] != 0
    )


# -- construction and canonical form -----------------------------------

def test_line_through_vertical_axis():
    l = line_through(Point(0, 1), Point(0, -1))
    assert (l.a, l.b, l.c) == (1, 0, 0)


def test_line_through_diagonal():
    l = line_through(Point(0, 0), Point(1, 1))
    assert (l.a, l.b, l.c) == (1, -1, 0)


def test_line_through_slope_matches_midpoint_construction():
    # Q=(0,1) onto Q'=(2t,-1) with t=1: the chord has slope -1/t = -1
    l = line_through(Point(0, 1), Point(2, -1))
    assert (l.a, l.b, l.c) == (1, 1, -1)


def test_line_through_coincident_raises():
    with pytest.raises(CoincidentPoints):
        line_through(Point(1, 2), Point(1, 2))


@given(exact_line_triples(), st.fractions(min_value=1, max_value=9, max_denominator=7))
def test_proportional_triples_are_equal(triple, k):
    a, b, c = triple
    assert Line(a, b, c) == Line(a * k, b * k, c * k)
    assert Line(a, b, c) == Line(-a * k, -b * k, -c * k)


def test_from_canonical_keeps_a_float_triple_and_rejects_mixed_modes():
    line = Line.from_canonical(1.0, 0.0, -2.5)
    assert (line.a, line.b, line.c) == (1.0, 0.0, -2.5)
    for triple in ((1.0, Fraction(0), Fraction(0)), (1.0, 0.0, Fraction(1)),
                   (Fraction(1), 0.0, 0.0)):
        with pytest.raises(MixedModes):
            Line.from_canonical(*triple)


def test_to_float_scales_a_long_triple_that_fits():
    # the coefficients overflow a float, the unit-normal line does not
    diagonal = Line(10**400, 10**400 + 1, 3).to_float()
    assert math.isclose(diagonal.a, math.sqrt(0.5)) and math.isclose(diagonal.b, math.sqrt(0.5))
    assert abs(diagonal.c) < 1e-300
    far = Line(2**1100 + 1, 0, 2**1150).to_float()
    assert (far.a, far.b) == (1.0, 0.0) and math.isclose(far.c, 2.0**50, rel_tol=1e-15)


def test_to_float_rejects_a_line_beyond_the_float_range():
    # each number fits in a float, the line x = -2*10**400 does not
    with pytest.raises(ValueError, match="leaves the float range"):
        Line(fr(1, 10**400), 0, 2).to_float()


def test_degenerate_line_rejected():
    with pytest.raises(ValueError):
        Line(0, 0, 3)


def test_mixed_mode_rejected():
    with pytest.raises(MixedModes):
        Point(1.0, Fraction(1, 2))
    with pytest.raises(MixedModes):
        line_residual(Point(1.0, 2.0), Line(1, 0, 0))


def test_float_point_must_be_finite():
    with pytest.raises(ValueError):
        Point(float("nan"), 0.0)


# -- perpendicular bisector ---------------------------------------------

def test_bisector_of_q_and_qprime_is_y_eq_x_minus_1():
    # fold line for t=1: y = t(x - t)
    l = perpendicular_bisector(Point(0, 1), Point(2, -1))
    assert (l.a, l.b, l.c) == (1, -1, -1)


def test_bisector_symmetric_pair():
    assert perpendicular_bisector(Point(-1, 0), Point(1, 0)) == Line(1, 0, 0)


def test_bisector_p_to_pprime_s0():
    # P=(-5/2,-3) onto (-3/2, 0): passes (-2,-3/2) with slope -1/3,
    # i.e. 2x + 6y + 13 = 0 after clearing denominators by hand
    l = perpendicular_bisector(Point(fr(-5, 2), -3), Point(fr(-3, 2), 0))
    assert (l.a, l.b, l.c) == (2, 6, 13)
    assert line_residual(Point(-2, fr(-3, 2)), l) == 0


@given(exact_points, exact_points)
def test_bisector_reflects_p_onto_q(p, q):
    if p == q:
        return
    axis = perpendicular_bisector(p, q)
    assert reflect_point(p, axis) == q
    assert dist_sq(p, midpoint(p, q)) == dist_sq(q, midpoint(p, q))


# -- reflections ---------------------------------------------------------

def test_reflect_q_across_delta_t1():
    assert reflect_point(Point(0, 1), Line(1, -1, -1)) == Point(2, -1)


def test_reflect_fixed_point_and_mirror():
    p = Point(3, 0)
    assert reflect_point(p, Line(0, 1, 0)) == p  # p lies on the axis y=0
    assert reflect_point(Point(3.0, 0.0), Line(1.0, 0.0, 0.0)) == Point(-3.0, 0.0)


@given(exact_points, exact_line_triples())
def test_reflection_involution_exact(p, triple):
    axis = Line(*triple)
    assert reflect_point(reflect_point(p, axis), axis) == p


@given(float_points, st.tuples(coords, coords, coords).filter(
    lambda t: math.hypot(t[0], t[1]) > 0.3))
def test_reflection_involution_float(p, triple):
    axis = Line(*triple)
    back = reflect_point(reflect_point(p, axis), axis)
    assert abs(back.x - p.x) <= 1e-12 * max(1.0, abs(p.x)) + 1e-12
    assert abs(back.y - p.y) <= 1e-12 * max(1.0, abs(p.y)) + 1e-12


@given(exact_points, exact_points, exact_line_triples())
def test_reflection_is_isometry_exact(p, q, triple):
    axis = Line(*triple)
    assert dist_sq(reflect_point(p, axis), reflect_point(q, axis)) == dist_sq(p, q)


def test_reflect_line_across_itself():
    l = Line(2, 3, -1)
    assert reflect_line(l, l) == l


def test_reflect_vertical_axis_across_horizontal():
    assert reflect_line(Line(1, 0, 0), Line(0, 1, 0)) == Line(1, 0, 0)


def test_reflect_ell_across_delta_gives_gamma():
    # reflecting x=0 across y = t(x-t) must give y = (t^2-1)/(2t) x - t^2
    t = T11
    delta = Line(t, -1.0, -t * t)
    img = reflect_line(Line(1.0, 0.0, 0.0), delta)
    gamma = Line(t * t - 1.0, -2.0 * t, -2.0 * t**3)
    assert line_defect(img, gamma) < 1e-12


@given(exact_points, exact_points, exact_line_triples())
def test_reflect_line_maps_points_onto_image(p, q, triple):
    if p == q:
        return
    axis = Line(*triple)
    l = line_through(p, q)
    img = reflect_line(l, axis)
    assert line_residual(reflect_point(p, axis), img) == 0
    assert line_residual(reflect_point(q, axis), img) == 0


# -- intersection, incidence, metrics ------------------------------------

def test_intersect_delta_with_ell():
    t = fr(7, 3)
    delta = Line(t, -1, -t * t)
    s = intersect(delta, Line(1, 0, 0))
    assert s == Point(0, -t * t)


def test_intersect_trivial():
    assert intersect(Line(1, 0, 0), Line(0, 1, 1)) == Point(0, -1)


def test_intersect_parallel_raises():
    with pytest.raises(ParallelLines):
        intersect(Line(1, 0, 0), Line(1, 0, -1))
    with pytest.raises(ParallelLines):
        intersect(Line(1.0, 0.0, 0.0), Line(1.0, 0.0, 0.0))


def test_midpoint_symbolic_t_point():
    # midpoint of P=(-5/2,-3) and P'=(-3/2, 2s) is (-2, s - 3/2)
    for s in (fr(0), fr(1), fr(-7, 5)):
        m = midpoint(Point(fr(-5, 2), -3), Point(fr(-3, 2), 2 * s))
        assert m == Point(-2, s - fr(3, 2))


def test_incident_and_distance():
    assert incident(Point(0.0, -1.0), Line(0.0, 1.0, 1.0), 0.0)
    assert incident(Point(0, -1), Line(0, 1, 1))
    assert distance(Point(1.0, 0.0), Line(1.0, 0.0, 0.0)) == 1.0
    assert distance(Point(1, 0), Line(1, 0, 0)) == 1.0
    assert point_distance(Point(0, 0), Point(3, 4)) == 5.0


def test_incident_rejects_negative_tol():
    with pytest.raises(ValueError):
        incident(Point(0.0, 0.0), Line(1.0, 0.0, 0.0), -1.0)


def test_line_defect_sign_insensitive():
    l1 = Line(1.0, -1.0, 0.25)
    l2 = Line(-2.0, 2.0, -0.5)
    assert line_defect(l1, l2) < 1e-15
