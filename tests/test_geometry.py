import copy
import dataclasses
import hashlib
import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from hendecafold import geometry
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


@pytest.mark.parametrize("c", [math.inf, -math.inf, math.nan])
def test_from_canonical_refuses_a_non_finite_offset(c):
    # a unit normal takes the stored-triple path, which checks the offset too
    with pytest.raises(ValueError, match=f"^non-finite line offset {c}$"):
        Line.from_canonical(1.0, 0.0, c)


def test_to_float_scales_a_long_triple_that_fits():
    # the coefficients overflow a float, the unit-normal line does not
    diagonal = Line(10**400, 10**400 + 1, 3).to_float()
    assert math.isclose(diagonal.a, math.sqrt(0.5)) and math.isclose(diagonal.b, math.sqrt(0.5))
    assert abs(diagonal.c) < 1e-300
    far = Line(2**1100 + 1, 0, 2**1150).to_float()
    assert (far.a, far.b) == (1.0, 0.0) and math.isclose(far.c, 2.0**50, rel_tol=1e-15)


def test_to_float_rejects_a_line_beyond_the_float_range():
    # each number fits in a float, the line x = -2*10**400 does not, and an
    # exact line is made with its float line, so making it fails
    with pytest.raises(ValueError, match="line offset leaves the float range"):
        Line(fr(1, 10**400), 0, 2)


def test_an_exact_line_keeps_the_float_line_it_was_made_with():
    line = Line(fr(3, 7), -2, 5)
    assert line.to_float() is line.to_float()
    assert line.to_float() == Line(3.0, -14.0, 35.0)


def test_a_float_point_is_its_own_float_form():
    p = Point(0.1, -2.5)
    assert p.to_float() is p
    assert Point(fr(1, 10), fr(-5, 2)).to_float() == p


def _two_step_to_float(a, b, c):
    # the conversion that exact lines used before they kept their float
    # line: round the triple as it is, and scale it only when that fails
    try:
        return Line(float(Fraction(a)), float(Fraction(b)), float(Fraction(c)))
    except (OverflowError, ValueError):
        pass
    ints = [a, b, c]
    shift = max(abs(v).bit_length() for v in ints) - geometry._FLOAT_BITS
    try:
        return Line(*(v / (1 << shift) for v in ints))
    except ValueError:
        raise ValueError("line offset leaves the float range") from None


def _outcome(convert, triple):
    try:
        line = convert(*triple)
    except ValueError as exc:
        return str(exc)
    return (line.a.hex(), line.b.hex(), line.c.hex())


def test_the_one_scaled_path_matches_round_then_scale():
    # canonical triples whose longest entry has 0 to 1,100 bits, half of them
    # 990 to 1,100, where rounding as is starts to overflow; every fourth has
    # a normal of at most 80 bits, so its offset may leave the float range
    rng = random.Random(17)

    def entry(bits):
        return rng.choice((-1, 1)) * rng.getrandbits(rng.randint(0, bits))

    errors = 0
    for i in range(50_000):
        top = rng.randint(990, 1_100) if i % 2 else rng.randint(0, 1_100)
        short = i % 4 == 0
        triple = [entry(min(top, 80) if short else top) for _ in range(2)] + [entry(top)]
        triple[2 if short else rng.randrange(3)] = rng.choice((-1, 1)) << top
        if triple[0] == triple[1] == 0:
            triple[rng.randrange(2)] = 1
        canonical = geometry._canonical_exact(*map(Fraction, triple))
        got = _outcome(geometry._float_line, canonical)
        assert got == _outcome(_two_step_to_float, canonical), canonical
        errors += isinstance(got, str)
    assert 100 < errors < 40_000


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
    # NaN compares false with everything, so it would report a point on the
    # line as off it; it is no tolerance either
    for tol in (-1.0, math.nan):
        with pytest.raises(ValueError, match="^tolerance must be nonnegative$"):
            incident(Point(0.0, 0.0), Line(1.0, 0.0, 0.0), tol)
        with pytest.raises(ValueError, match="^tolerance must be nonnegative$"):
            incident(Point(0, 0), Line(1, 0, 0), tol)


def test_line_defect_sign_insensitive():
    l1 = Line(1.0, -1.0, 0.25)
    l2 = Line(-2.0, 2.0, -0.5)
    assert line_defect(l1, l2) < 1e-15


def _line_defect_through_to_float(l1, l2):
    """`line_defect` as it was defined on two `to_float` lines, each made
    anew: an exact line's stored float line, a float line canonicalized
    again by the constructor, sign flip and signed-zero squash included."""
    def to_float(l):
        return l._float if l.mode == geometry.EXACT else Line(l.a, l.b, l.c)
    f1, f2 = to_float(l1), to_float(l2)
    same = max(abs(f1.a - f2.a), abs(f1.b - f2.b), abs(f1.c - f2.c))
    flip = max(abs(f1.a + f2.a), abs(f1.b + f2.b), abs(f1.c + f2.c))
    return min(same, flip)


def _defect_outcome(defect, l1, l2):
    try:
        return defect(l1, l2).hex()
    except (ArithmeticError, ValueError) as exc:
        return type(exc).__name__, str(exc)


_BIG = 1.7976931348623157e308
_offsets = st.one_of(
    st.floats(-10, 10),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-300, 1e300, -1e300, _BIG, -_BIG]),
    st.floats(allow_nan=False, allow_infinity=False))
_normal_parts = st.one_of(
    st.floats(-10, 10), st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 1e300, -1e300]),
    st.floats(allow_nan=False, allow_infinity=False))


def _made(make, *values):
    try:
        return make(*values)
    except ValueError:
        return None


@st.composite
def _any_lines(draw):
    """Float lines from the constructor, stored unit normals an ulp or a few
    off (`from_canonical`), axis-aligned and nearly axis-aligned lines with
    either normal, and exact lines; tiny and huge offsets throughout."""
    kind = draw(st.sampled_from(("float", "unit", "axis", "exact")))
    c = draw(_offsets)
    if kind == "float":
        line = _made(Line, draw(_normal_parts), draw(_normal_parts), c)
    elif kind == "unit":
        angle = draw(st.floats(-math.pi / 2, math.pi / 2))
        a, b = math.cos(angle), math.sin(angle)
        for _ in range(draw(st.integers(0, 4))):
            b = math.nextafter(b, draw(st.sampled_from((-math.inf, math.inf))))
        line = _made(Line.from_canonical, a, b, c)
    elif kind == "axis":
        a, b = draw(st.sampled_from(((1.0, 0.0), (0.0, 1.0), (-0.0, 1.0), (5e-324, 1.0),
                                     (5e-324, -1.0), (1e-300, -1.0))))
        line = _made(Line.from_canonical, a, b, c)
    else:
        line = _made(Line, draw(wide_exact), draw(wide_exact), draw(wide_exact))
    assume(line is not None)
    return line


def _flipped_twin(line):
    """The same line with its normal negated where the sign convention
    allows it (a zero or tiny first entry), else the line itself negated."""
    twin = _made(Line.from_canonical, line.a, -line.b, -line.c) \
        if line.mode == geometry.FLOAT and line.a < 1e-290 else None
    return twin or _made(Line, -line.a, -line.b, -line.c) or line


_line_pairs = st.one_of(st.tuples(_any_lines(), _any_lines()),
                        _any_lines().map(lambda l: (l, _flipped_twin(l))))


@settings(max_examples=400)
@given(_line_pairs)
# hypot(a, b) is 1 - 2**-53 here, so the offset leaves the floats on division
@example((Line.from_canonical(0.9358968236779348, 0.35227423327508994, _BIG),
          Line(1.0, 0.0, 0.0)))
@example((Line.from_canonical(-0.0, 1.0, -0.0), Line.from_canonical(5e-324, -1.0, 0.0)))
@example((Line(Fraction(3), 4, Fraction(-5, 2)), Line.from_canonical(0.6, 0.8, -0.5)))
def test_line_defect_matches_its_to_float_definition_bit_for_bit(pair):
    # no Line is made, and no sign is flipped: the bits, and any error,
    # are those of the two to_float lines
    l1, l2 = pair
    for first, second in ((l1, l2), (l2, l1), (l1, l1)):
        assert _defect_outcome(line_defect, first, second) == \
            _defect_outcome(_line_defect_through_to_float, first, second)


# -- the integer kernels against their Fraction forms ------------------

wide_fractions = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**6)
wide_exact = st.one_of(st.integers(-10**9, 10**9), wide_fractions)


def _fraction_canonical_exact(a, b, c):
    """`_canonical_exact` in Fraction arithmetic: each entry times the lcm
    of the denominators, then divided by the gcd and the sign fixed."""
    mul = math.lcm(a.denominator, b.denominator, c.denominator)
    ai, bi, ci = int(a * mul), int(b * mul), int(c * mul)
    g = math.gcd(ai, bi, ci)
    ai, bi, ci = ai // g, bi // g, ci // g
    if ai < 0 or (ai == 0 and bi < 0):
        ai, bi, ci = -ai, -bi, -ci
    return ai, bi, ci


@given(st.tuples(wide_exact, wide_exact, wide_exact).filter(lambda t: t[0] or t[1]))
def test_canonical_exact_matches_its_fraction_form(triple):
    got = geometry._canonical_exact(*triple)
    assert got == _fraction_canonical_exact(*triple)
    assert all(type(v) is int for v in got)


@given(exact_points, st.tuples(wide_fractions, wide_fractions, wide_fractions).filter(
    lambda t: t[0] or t[1]), wide_fractions)
def test_exact_incident_matches_the_residual(p, triple, along):
    l = Line(*triple)
    assert incident(p, l) == (line_residual(p, l) == 0)
    # p's foot on l, moved along it, is on it; moved off it by 10^-30, is not
    k = line_residual(p, l) / (l.a * l.a + l.b * l.b)
    on = Point(p.x - l.a * k - l.b * along, p.y - l.b * k + l.a * along)
    assert line_residual(on, l) == 0 and incident(on, l)
    off = Point(on.x + l.a * Fraction(1, 10**30), on.y + l.b * Fraction(1, 10**30))
    assert line_residual(off, l) != 0 and not incident(off, l)


def _line_outcome(*values):
    try:
        line = Line(*values)
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)
    return repr(line), repr(line.to_float())


@given(st.tuples(wide_exact, wide_exact, wide_exact),
       st.tuples(*(st.sampled_from((str, Fraction, lambda v: v)),) * 3))
def test_exact_line_entries_behave_as_their_fractions(triple, spellings):
    # ints, Fractions and numeric strings make the line of their values,
    # and a zero normal fails the same way in each spelling
    spelled = [spell(v) for spell, v in zip(spellings, triple)]
    assert _line_outcome(*spelled) == _line_outcome(*map(Fraction, triple))


@pytest.mark.parametrize("values, outcome", [
    (("1", "0", "0"), ("Line(Fraction(1, 1), Fraction(0, 1), Fraction(0, 1))",
                       "Line(1.0, 0.0, 0.0)")),
    ((" -3/6 ", "1.5", "2e1"), ("Line(Fraction(1, 1), Fraction(-3, 1), Fraction(-40, 1))",
                                "Line(0.31622776601683794, -0.9486832980505138, "
                                "-12.649110640673516)")),
    ((True, 0, 0), ("Line(Fraction(1, 1), Fraction(0, 1), Fraction(0, 1))",
                    "Line(1.0, 0.0, 0.0)")),
    (("0", Fraction(0), 3), (ValueError, "line needs a nonzero normal (a, b)")),
    (("0/5", "-0", "x"), (ValueError, "Invalid literal for Fraction: 'x'")),
    (("1", None, "0"), (TypeError, "argument should be a string or a Rational instance")),
    ((1.0, "0", 0.0), (MixedModes, "mixed numeric modes in (1.0, '0', 0.0)")),
    ((Fraction(1, 2), 0.0, 1), (MixedModes, "mixed numeric modes in (Fraction(1, 2), 0.0, 1)")),
    ((0.0, 0.0, 1.0), (ValueError, "degenerate line normal (0.0, 0.0)")),
])
def test_line_accepts_and_rejects_as_before(values, outcome):
    assert _line_outcome(*values) == outcome


# -- the stored mode -----------------------------------------------------

def _stored_mode_values():
    from_canonical = Line.from_canonical(0.6, 0.8, -1.25)
    assert "mode" in vars(from_canonical)  # the fast path, not a fallback
    return [Point(fr(1, 3), -2), Point(0.5, -1.25), Line(fr(3, 7), -2, 5),
            Line(0.3, -0.4, 2.0), from_canonical]


@pytest.mark.parametrize("value", _stored_mode_values(), ids=repr)
def test_the_stored_mode_survives_pickle_and_copy(value):
    # a pickle carries the stored mode; copies keep the instance dict
    for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert twin == value and hash(twin) == hash(value) and repr(twin) == repr(value)
        assert twin.mode == value.mode
        if isinstance(value, Line) and value.mode == geometry.EXACT:
            assert twin.to_float() == value.to_float()
    if isinstance(value, Line) or value.mode == geometry.EXACT:
        # a line or an exact point keeps the twin its first to_float made:
        # the same bits on every call, and pickles and copies carry it
        names = [f.name for f in dataclasses.fields(value)]

        def bits(flat):
            return [getattr(flat, name).hex() for name in names]
        fresh = type(value)(*(getattr(value, name) for name in names))
        first = bits(value.to_float())
        assert value.to_float() is value.to_float() and bits(value.to_float()) == first
        # the kept twin is no field: equality, hash and repr see the coordinates
        assert "_float" in vars(value)
        assert value == fresh and hash(value) == hash(fresh) and repr(value) == repr(fresh)
        for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
            assert "_float" in vars(twin) and bits(twin.to_float()) == first
            assert twin.to_float() is twin.to_float()
            assert twin == value and hash(twin) == hash(value) and repr(twin) == repr(value)
            assert [f.name for f in dataclasses.fields(twin)] == names


@pytest.mark.parametrize("value", _stored_mode_values(), ids=repr)
def test_replace_sets_the_mode_of_the_new_value(value):
    name = "x" if isinstance(value, Point) else "c"
    for new in (fr(5, 2), 2.5):
        if geometry.scalar_mode(new) != value.mode:
            with pytest.raises(MixedModes):
                dataclasses.replace(value, **{name: new})
            continue
        twin = dataclasses.replace(value, **{name: new})
        assert twin.mode == value.mode
        assert [f.name for f in dataclasses.fields(twin)] == (
            ["x", "y"] if isinstance(value, Point) else ["a", "b", "c"])


@pytest.mark.parametrize("coordinate", [3, True, fr(-7, 4), 0.25, -0.0],
                         ids=["int", "bool", "Fraction", "float", "negative_zero"])
def test_the_stored_mode_agrees_with_scalar_mode(coordinate):
    mode = geometry.scalar_mode(coordinate)
    assert Point(coordinate, coordinate).mode == mode
    other = 1.0 if mode == geometry.FLOAT else 1
    assert Line(other, coordinate, coordinate).mode == mode
    assert Line(coordinate, other, coordinate).to_float().mode == geometry.FLOAT


def test_an_exact_point_keeps_its_fraction_coordinates():
    x, y = fr(1, 3), fr(-5, 2)
    p = Point(x, y)
    assert p.x is x and p.y is y
    assert type(Point(2, True).x) is Fraction and Point(2, True) == Point(fr(2), fr(1))


@given(st.fractions(), st.integers(min_value=-1100, max_value=1100))
def test_an_exact_point_converts_as_float_does(x, shift):
    # shifted past the float range both ways: overflow raises the same error
    y = x * Fraction(2) ** shift
    try:
        f = Point(x, y).to_float()
    except OverflowError as exc:
        with pytest.raises(OverflowError, match=f"^{exc}$"):
            float(x), float(y)
        return
    assert (f.x.hex(), f.y.hex()) == (float(x).hex(), float(y).hex())


# -- the constructors against a reference copy of their dataclass form ----

def _reference_canonical_float(a, b, c):
    norm = math.hypot(a, b)
    if not math.isfinite(norm) or norm == 0.0:
        raise ValueError(f"degenerate line normal ({a}, {b})")
    a, b, c = a / norm, b / norm, c / norm
    if a < 0.0 or (a == 0.0 and b < 0.0):
        a, b, c = -a, -b, -c
    return a + 0.0, b + 0.0, c + 0.0


def _reference_common_mode(*values):
    modes = {isinstance(v, float) for v in values}
    if len(modes) > 1:
        raise MixedModes(f"mixed numeric modes in {values!r}")
    return geometry.FLOAT if modes.pop() else geometry.EXACT


def _reference_float_line(a, b, c):
    triple = _reference_canonical_float(a, b, c)
    if not math.isfinite(triple[2]):
        raise ValueError(f"non-finite line offset {c}")
    return triple


def _reference_point(x, y):
    """(fields, mode, float form) of Point(x, y) as the generated dataclass
    __init__ followed by __post_init__ made it; the float form is a thunk,
    as converting a huge exact point overflows."""
    mode = _reference_common_mode(x, y)
    if mode == geometry.FLOAT:
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ValueError(f"non-finite point ({x}, {y})")
        return (x, y), mode, lambda: (x, y)
    x = x if type(x) is Fraction else Fraction(x)
    y = y if type(y) is Fraction else Fraction(y)
    return (x, y), mode, lambda: (x.numerator / x.denominator, y.numerator / y.denominator)


def _reference_line(a, b, c):
    """(fields, mode, float form) of Line(a, b, c), likewise."""
    mode = _reference_common_mode(a, b, c)
    if mode == geometry.FLOAT:
        triple = _reference_float_line(a, b, c)
        return triple, mode, lambda: _reference_float_line(*triple)
    a, b, c = (v if isinstance(v, (int, Fraction)) else Fraction(v) for v in (a, b, c))
    if not (a or b):
        raise ValueError("line needs a nonzero normal (a, b)")
    ints = _fraction_canonical_exact(a, b, c)
    shift = max(0, max(abs(v).bit_length() for v in ints) - geometry._FLOAT_BITS)
    try:
        twin = _reference_float_line(*(v / (1 << shift) for v in ints))
    except ValueError:
        raise ValueError("line offset leaves the float range") from None
    return tuple(Fraction(v) for v in ints), mode, lambda: twin


def _bits(values):
    return [v.hex() if type(v) is float else (v, type(v)) for v in values]


def _float_bits(convert):
    try:
        return _bits(convert())
    except OverflowError as exc:
        return [(OverflowError, str(exc))]


def _fields(value):
    return tuple(getattr(value, f.name) for f in dataclasses.fields(value))


def _construction_outcome(make, *values):
    """Fields, mode, repr, hash and float bits of make(*values), or its
    exception type and message."""
    try:
        made = make(*values)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        return type(exc), str(exc)
    if isinstance(made, tuple):
        fields, mode, floats = made
        name = "Point" if len(fields) == 2 else "Line"
        shown = f"{name}({', '.join(map(repr, fields))})"
        return _bits(fields), mode, shown, hash(fields), _float_bits(floats)
    twin = _float_bits(lambda: _fields(made.to_float()))
    return _bits(_fields(made)), made.mode, repr(made), hash(made), twin


class _F(float):
    """A float whose type is not float: the constructors decide its mode
    through the mode check, not by type."""


constructor_scalars = st.one_of(
    st.sampled_from((0, 1, -1, True, False, 0.0, -0.0, Fraction(0), "0", "-0",
                     10 ** 400, -(10 ** 400) + 1, 2 ** 1100 + 1, Fraction(1, 10 ** 400),
                     math.inf, -math.inf, math.nan, 1e308, -1e308, 5e-324, _F(1.5),
                     " -3/6 ", "1.5", "2e1", "x", "1/0", None)),
    st.integers(-10 ** 30, 10 ** 30),
    st.fractions(max_denominator=10 ** 12),
    st.floats(),
    st.fractions(max_denominator=10 ** 6).map(str),
)


@given(constructor_scalars, constructor_scalars)
@example(-0.0, 0.0)
@example(Fraction(1, 3), Fraction(-5, 2))
def test_point_matches_its_reference_construction(x, y):
    assert _construction_outcome(Point, x, y) == _construction_outcome(_reference_point, x, y)
    if type(x) is Fraction and type(y) is Fraction:
        # exact Fraction coordinates are kept, not copied
        p = Point(x, y)
        assert p.x is x and p.y is y


@given(constructor_scalars, constructor_scalars, constructor_scalars)
@example(-0.0, 1.0, 2.0)  # a signed zero survives the division by the norm
@example(5e-324, 0.0, 1e308)  # the offset overflows: the message shows c as given
@example(-1.0, 0.0, -math.inf)
def test_line_matches_its_reference_construction(a, b, c):
    assert _construction_outcome(Line, a, b, c) == _construction_outcome(_reference_line, a, b, c)


# -- a golden digest of every operation ------------------------------------

def _digest_operands():
    """Seeded exact and float points and lines, the float forms of the exact
    ones among them, with coincident points and parallel, nearly parallel
    and equal lines."""
    rng = random.Random(27)

    def fraction():
        return Fraction(rng.randint(-40, 40), rng.randint(1, 12))

    exact_points = [Point(fraction(), fraction()) for _ in range(7)]
    exact_points += [exact_points[0], Point(0, 0)]
    exact_lines = [Line(*t) for t in _seeded_triples(rng, fraction, 6)]
    a, b, c = exact_lines[0].a, exact_lines[0].b, exact_lines[0].c
    exact_lines += [Line(2 * a, 2 * b, 2 * c + 1), Line(-a, -b, -c), Line(0, 1, fraction())]
    float_points = [p.to_float() for p in exact_points[:5]]
    float_points += [Point(rng.uniform(-10, 10), rng.uniform(-10, 10)) for _ in range(3)]
    float_points += [float_points[-1], Point(-0.0, 0.0)]
    float_lines = [l.to_float() for l in exact_lines[:5]]
    float_lines += [Line(rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(-5, 5))
                    for _ in range(3)]
    fa, fb, fc = float_lines[-1].a, float_lines[-1].b, float_lines[-1].c
    float_lines += [Line(fa, fb, fc + 1.0), Line(-fa, -fb, -fc), Line(0.0, -2.0, 3.0),
                    Line(fa, fb * (1 + 1e-13), 2.0)]
    return exact_points + float_points, exact_lines + float_lines


def _seeded_triples(rng, fraction, count):
    triples = []
    while len(triples) < count:
        t = (fraction(), fraction(), fraction())
        if t[0] or t[1]:
            triples.append(t)
    return triples


def _digest_record(name, op, *operands):
    """One line: the output's repr, mode and float bits, or the exception
    type and message."""
    try:
        out = op(*operands)
    except (ArithmeticError, TypeError, ValueError) as exc:
        return f"{name} {type(exc).__name__}: {exc}"
    if isinstance(out, (Point, Line)):
        bits = " ".join(v.hex() for v in _fields(out) if type(v) is float)
        return f"{name} {out!r} {out.mode} {bits}"
    return f"{name} {out!r} {out.hex() if type(out) is float else ''}"


def test_geometry_operations_match_the_golden_digest():
    # every operation over every pair of seeded operands, mixed modes
    # included: how the values are made must leave this digest as it is
    points, lines = _digest_operands()
    records = []
    for p in points:
        records.append(_digest_record("to_float", Point.to_float, p))
        for q in points:
            for name, op in (("line_through", line_through),
                             ("perpendicular_bisector", perpendicular_bisector),
                             ("midpoint", midpoint), ("dist_sq", dist_sq),
                             ("point_distance", point_distance)):
                records.append(_digest_record(name, op, p, q))
        for l in lines:
            for name, op in (("reflect_point", reflect_point), ("line_residual", line_residual),
                             ("incident", incident), ("distance", distance)):
                records.append(_digest_record(name, op, p, l))
    for l in lines:
        records.append(_digest_record("to_float", Line.to_float, l))
        records.append(_digest_record("from_canonical", Line.from_canonical, l.a, l.b, l.c))
        for k in lines:
            for name, op in (("reflect_line", reflect_line), ("intersect", intersect),
                             ("line_defect", line_defect)):
                records.append(_digest_record(name, op, l, k))
    assert len(records) == 19 * (1 + 19 * 5 + 21 * 4) + 21 * (2 + 21 * 3)
    assert sum("MixedModes" in r for r in records) > 500
    assert any("CoincidentPoints" in r for r in records)
    assert any("ParallelLines" in r for r in records)
    digest = hashlib.sha256("\n".join(records).encode()).hexdigest()
    assert digest == "99dd8cf9b0b68b49020fe7a812a279b196d7e5cb03c38e3bdaf728311513f68a"
