"""The built-in hendecagon script replayed exactly, in Q(t)(s).

Every other check of the construction compares floats with a tolerance, so
it shows that the float run lands near the regular hendecagon, not that the
fold sequence is the regular hendecagon.  Here each step of
`hendecagon_script()` is replayed in exact arithmetic, in the field

    L = K[s] / (s^2 - (16 - 4t^2)),   K = Q[t] / (f),

f the hendecagon quintic: t stands for 2cos(2pi/11), the root that the
two-fold step selects, and s for 4sin(2pi/11).  An element of L is a + b*s,
with a and b each five rational coefficients of 1, t, ..., t^4.  An
equality in K holds at every root of f, so f need not be proved
irreducible; an inverse that does not exist makes the linear solve fail,
so it cannot pass silently.

Each step is replayed with the exact form of its solver's construction.
Its outputs, read at t = that root and s = +sqrt(16 - 4t^2), match
`run_script`'s landmarks one to one within 1e-9, and every landmark equals
its analytic value, written below in t and s, exactly.  A step kind or
case the replay does not cover fails the test by name.
"""

import functools
import math
from fractions import Fraction

import pytest

from hendecafold.construction import VERTEX_IDS, FoldStep, hendecagon_script, run_script
from hendecafold.folds import TwoFoldConfig, eliminate_to_quintic
from hendecafold.geometry import Line, Point, line_defect, point_distance
from hendecafold.polynomials import isolate_real_roots, refine_root
from hendecafold.verification import HENDECAGON_QUINTIC

F = HENDECAGON_QUINTIC.coeffs  # monic, degree 5: t^5 = -(F[0] + ... + F[4] t^4)
ZERO_K = (Fraction(0),) * 5
MATCH_TOL = 1e-9


def _not_replayed(what: str):
    pytest.fail(f"the exact replay does not cover {what}", pytrace=False)


# -- K = Q[t]/(f) and L = K[s]/(s^2 - D) ----------------------------------------

def _k_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _k_mul(a, b):
    prod = [Fraction(0)] * 9
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                prod[i + j] += x * y
    for k in range(8, 4, -1):
        for i in range(5):
            prod[k - 5 + i] -= prod[k] * F[i]
    return tuple(prod[:5])


def _k_inverse(a):
    """a^-1 in K: the solution x of a*x = 1, a 5 x 5 linear system whose
    columns are a*t^j."""
    columns = [_k_mul(a, tuple(Fraction(i == j) for i in range(5))) for j in range(5)]
    rows = [[columns[j][i] for j in range(5)] + [Fraction(i == 0)] for i in range(5)]
    for col in range(5):
        pivot = next((r for r in range(col, 5) if rows[r][col]), None)
        if pivot is None:
            _not_replayed(f"a division by {a}, which has no inverse in K")
        rows[col], rows[pivot] = rows[pivot], rows[col]
        head = rows[col][col]
        rows[col] = [v / head for v in rows[col]]
        for r in range(5):
            if r != col and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [v - factor * w for v, w in zip(rows[r], rows[col])]
    return tuple(row[5] for row in rows)


class El:
    """a + b*s in L; a and b in K."""

    __slots__ = ("a", "b")

    def __init__(self, a=ZERO_K, b=ZERO_K):
        self.a, self.b = a, b

    @staticmethod
    def lift(value) -> "El":
        if isinstance(value, El):
            return value
        return El((Fraction(value),) + ZERO_K[1:])

    def __add__(self, other):
        other = El.lift(other)
        return El(_k_add(self.a, other.a), _k_add(self.b, other.b))

    __radd__ = __add__

    def __neg__(self):
        return El(tuple(-x for x in self.a), tuple(-x for x in self.b))

    def __sub__(self, other):
        return self + -El.lift(other)

    def __rsub__(self, other):
        return El.lift(other) - self

    def __mul__(self, other):
        other = El.lift(other)
        return El(_k_add(_k_mul(self.a, other.a), _k_mul(_k_mul(self.b, other.b), D_K)),
                  _k_add(_k_mul(self.a, other.b), _k_mul(self.b, other.a)))

    __rmul__ = __mul__

    def inverse(self) -> "El":
        # 1 / (a + b s) = (a - b s) / (a^2 - b^2 D), the denominator in K
        norm = _k_inverse(_k_add(_k_mul(self.a, self.a),
                                 tuple(-x for x in _k_mul(_k_mul(self.b, self.b), D_K))))
        return El(_k_mul(self.a, norm), tuple(-x for x in _k_mul(self.b, norm)))

    def __truediv__(self, other):
        return self * El.lift(other).inverse()

    def __rtruediv__(self, other):
        return El.lift(other) * self.inverse()

    def __eq__(self, other):
        other = El.lift(other)
        return self.a == other.a and self.b == other.b

    __hash__ = None

    def __bool__(self):
        return self != 0

    def rational(self):
        """The element as a Fraction, or None when it is not in Q."""
        return self.a[0] if not any(self.a[1:]) and self.b == ZERO_K else None

    def at(self, t: float, s: float) -> float:
        def horner(coeffs):
            acc = 0.0
            for c in reversed(coeffs):
                acc = acc * t + float(c)
            return acc
        return horner(self.a) + horner(self.b) * s

    def __repr__(self):
        return f"El({[str(x) for x in self.a]}, {[str(x) for x in self.b]})"


D_K = (Fraction(16), Fraction(0), Fraction(-4), Fraction(0), Fraction(0))  # 16 - 4t^2
T = El((Fraction(0), Fraction(1), Fraction(0), Fraction(0), Fraction(0)))
S = El(ZERO_K, (Fraction(1),) + ZERO_K[1:])


def _sqrt(x: El) -> El:
    """The square root q*s of x, q a positive rational: the one square root
    the construction takes is s's."""
    q = (x / (16 - 4 * T * T)).rational()
    if q is None or q <= 0 or any(math.isqrt(v) ** 2 != v for v in (q.numerator, q.denominator)):
        _not_replayed(f"the square root of {x}, which is not a rational multiple of s")
    return Fraction(math.isqrt(q.numerator), math.isqrt(q.denominator)) * S


# -- exact geometry: points (x, y) and lines (a, b, c), a*x + b*y + c = 0 -------

def _residual(p, l):
    return l[0] * p[0] + l[1] * p[1] + l[2]


def _line_through(p, q):
    return (p[1] - q[1], q[0] - p[0], p[0] * q[1] - q[0] * p[1])


def _bisector(p, q):
    return (2 * (q[0] - p[0]), 2 * (q[1] - p[1]),
            (p[0] * p[0] + p[1] * p[1]) - (q[0] * q[0] + q[1] * q[1]))


def _reflect_point(p, axis):
    d = _residual(p, axis) / (axis[0] * axis[0] + axis[1] * axis[1])
    return (p[0] - 2 * axis[0] * d, p[1] - 2 * axis[1] * d)


def _reflect_line(l, axis):
    k = (l[0] * axis[0] + l[1] * axis[1]) / (axis[0] * axis[0] + axis[1] * axis[1])
    return tuple(v - 2 * w * k for v, w in zip(l, axis))


def _intersect(l1, l2):
    det = l1[0] * l2[1] - l2[0] * l1[1]
    if not det:
        _not_replayed("a mark_point of parallel lines")
    return ((l1[1] * l2[2] - l2[1] * l1[2]) / det, (l2[0] * l1[2] - l1[0] * l2[2]) / det)


def _dist_sq(p, q):
    return (p[0] - q[0]) * (p[0] - q[0]) + (p[1] - q[1]) * (p[1] - q[1])


def _same_line(l1, l2) -> bool:
    """Equal up to a nonzero factor: every 2 x 2 minor of the triples is 0."""
    assert l1[0] or l1[1], l1
    assert l2[0] or l2[1], l2
    return not any(l1[i] * l2[j] - l1[j] * l2[i] for i, j in ((0, 1), (0, 2), (1, 2)))


def _same(value, expected) -> bool:
    if len(value) == 3:
        return len(expected) == 3 and _same_line(value, expected)
    return len(expected) == 2 and value[0] == expected[0] and value[1] == expected[1]


# -- each step kind, as its solver constructs it ---------------------------------

def _line_onto_line(moving, target):
    # parallel lines only: a*x + b*y + c2/k = 0 is target, with k its factor
    if moving[0] * target[1] - moving[1] * target[0]:
        _not_replayed("a line_onto_line of lines that meet")
    i = 0 if moving[0] else 1
    k = target[i] / moving[i]
    return [(moving[0], moving[1], (moving[2] + target[2] / k) / 2)]


def _perpendicular(through, to):
    return [(-to[1], to[0], to[1] * through[0] - to[0] * through[1])]


def _point_onto_line_through_point(moving, target, pivot):
    # the images X = foot + lam * dir on the target at the pivot's distance
    # from the moving point: lam^2 * nn^2 = |moving - pivot|^2 * nn - h^2
    nn = target[0] * target[0] + target[1] * target[1]
    h = _residual(pivot, target)
    foot = (pivot[0] - target[0] * h / nn, pivot[1] - target[1] * h / nn)
    root = _sqrt(_dist_sq(moving, pivot) * nn - h * h) / nn
    creases = []
    for lam in (root, -root):
        image = (foot[0] - target[1] * lam, foot[1] + target[0] * lam)
        if _same(image, moving):
            _not_replayed("a point_onto_line_through_point whose image is the moving point")
        creases.append(_bisector(moving, image))
    return creases


# variant -> (its exact construction, the landmark arguments it reads)
SINGLE_FOLDS = {
    "line_onto_line": (_line_onto_line, ("moving", "target")),
    "perpendicular": (_perpendicular, ("through", "to")),
    "through_two_points": (lambda p, q: [_line_through(p, q)], ("p", "q")),
    "point_onto_line_through_point": (_point_onto_line_through_point,
                                      ("moving", "target", "pivot")),
}


def _rational(value):
    """A replayed point or line in Q, as the package's exact Point or Line."""
    parts = [v.rational() for v in value]
    if None in parts:
        _not_replayed(f"a two_fold input outside Q: {value}")
    return Point(*parts) if len(parts) == 2 else Line(*parts)


def _two_fold(P, Q, ell, m, n):
    """gamma and delta at u = t: Q'(u) = foot + u * dir runs along n from
    the foot of Q, dir = 2 * (n.b, -n.a) / unit for n's coprime triple, unit
    the power of two with unit <= max(|n.a|, |n.b|) < 2 * unit."""
    config = TwoFoldConfig(*(_rational(v) for v in (P, Q, ell, m, n)))
    assert eliminate_to_quintic(config) == HENDECAGON_QUINTIC
    a, b = int(config.n.a), int(config.n.b)
    unit = 1 << (max(abs(a), abs(b)).bit_length() - 1)
    h = _residual(Q, n) / (n[0] * n[0] + n[1] * n[1])
    image = (Q[0] - n[0] * h + T * Fraction(2 * b, unit),
             Q[1] - n[1] * h - T * Fraction(2 * a, unit))
    delta = _bisector(Q, image)
    ell_image = _reflect_line(ell, delta)
    p_image = _reflect_point(P, ell_image)
    # the one condition f encodes: P reflected across ell's image lies on m,
    # so gamma, the bisector of P and that point, is ell's image
    assert _residual(p_image, m) == 0
    gamma = _bisector(P, p_image)
    assert _same_line(gamma, ell_image)
    assert _residual(_reflect_point(Q, delta), n) == 0
    return [gamma, delta]


def _rotate_length(center, frm, axis):
    image = _reflect_point(frm, axis)
    assert _dist_sq(image, center) == _dist_sq(frm, center)
    return [image]


def _replay_step(step, landmarks):
    args = step.args
    if step.kind == "single_fold":
        variant = args["variant"]
        if variant not in SINGLE_FOLDS or "select" in args:
            _not_replayed(f"step {step.id!r}: single_fold {variant!r}"
                          + (" with select" if "select" in args else ""))
        fold, names = SINGLE_FOLDS[variant]
        return fold(*(landmarks[args[name]] for name in names))
    if step.kind == "two_fold":
        if args.get("select", 0) != 0:
            _not_replayed(f"step {step.id!r}: two_fold select {args['select']!r}")
        return _two_fold(*(landmarks[args[name]] for name in ("P", "Q", "ell", "m", "n")))
    if step.kind == "mark_point":
        return [_intersect(landmarks[args["l1"]], landmarks[args["l2"]])]
    if step.kind == "crease_segment":
        if "along" in args:
            return [landmarks[args["along"]]]
        return [_line_through(landmarks[args["p"]], landmarks[args["q"]])]
    if step.kind == "rotate_length":
        return _rotate_length(*(landmarks[args[name]] for name in ("center", "frm", "axis")))
    _not_replayed(f"step {step.id!r}: kind {step.kind!r}")


# -- the analytic values, in t = 2cos(2pi/11) and s = 4sin(2pi/11) -----------

def _analytic() -> dict:
    """Every landmark of the script: the frame, the two folds, and the
    polygon z_k = (2 c_k, -1 + s V_k), with c_k = 2cos(2 pi k / 11) and
    V_k = U_{k-1}(t / 2), both by their recurrences in t."""
    c, v = [El.lift(2), T], [El.lift(0), El.lift(1)]
    while len(c) <= len(VERTEX_IDS):
        c.append(T * c[-1] - c[-2])
        v.append(T * v[-1] - v[-2])
    # the walk closes: 2cos(2 pi) = 2 and sin(2 pi) = 0
    assert c[-1] == 2 and v[-1] == 0
    z = [(2 * c[k], -1 + S * v[k]) for k in range(len(VERTEX_IDS))]
    values = {
        "sheet_left": (1, 0, 4), "sheet_right": (1, 0, -4),
        "sheet_bottom": (0, 1, 5), "sheet_top": (0, 1, -3),
        "ell": (1, 0, 0), "n": (0, 1, 1), "center": (0, -1),
        "crease_left_half": (1, 0, 2), "crease_top_half": (0, 1, -1), "Q": (0, 1),
        "crease_left_34": (1, 0, 3), "crease_m_prelim": (2, 0, 3), "m": (2, 0, 3),
        "crease_bottom_half": (0, 1, 3), "crease_p_vertical": (2, 0, 5),
        "P": (Fraction(-5, 2), -3),
        "gamma": (T * T - 1, -2 * T, -2 * T * T * T), "delta": (T, -1, -T * T),
        "midline_horizontal": (0, 1, 0), "R": (T, 0), "Qp": (2 * T, -1),
        "vertex_guide": (1, 0, -2 * T),
        # through the center, normal to z1 - z0 and to z10 - z0
        "rot_up": (2 * T - 4, S, S), "rot_dn": (2 * T - 4, -S, -S),
    }
    for k in (1, 2, 3, 4, 7, 8, 9, 10):
        # the radius through z_k
        values[f"axis{k}"] = (S * v[k], -2 * c[k], -2 * c[k])
    for k, vertex in enumerate(z):
        values[VERTEX_IDS[k]] = vertex
        # the side z_k z_k+1: normal (z_k + z_k+1 - 2 center) / 4, at
        # 4 + 2t = 8cos^2(pi / 11) times that normal's length from the center
        nx, ny = (c[k] + c[k + 1]) / 2, S * (v[k] + v[k + 1]) / 4
        values[f"side_{k}"] = (nx, ny, ny - 4 - 2 * T)
    return {name: tuple(map(El.lift, value)) for name, value in values.items()}


# -- the replay -------------------------------------------------------------

def _float_form(value, t: float, s: float):
    floats = [v.at(t, s) for v in value]
    return Point(*floats) if len(floats) == 2 else Line(*floats)


def _close(value, landmark, t: float, s: float) -> bool:
    if isinstance(landmark, Point) != (len(value) == 2):
        return False
    exact = _float_form(value, t, s)
    if isinstance(landmark, Point):
        return point_distance(exact, landmark) <= MATCH_TOL
    return line_defect(exact, landmark) <= MATCH_TOL


def _bind(names, exact, floats, t, s) -> dict:
    """names[i] -> the one exact value within MATCH_TOL of floats[i]."""
    assert len(exact) == len(floats) == len(names), (names, exact)
    bound = {}
    for name, landmark in zip(names, floats):
        matches = [value for value in exact if _close(value, landmark, t, s)]
        assert len(matches) == 1, f"{name}: {len(matches)} exact outputs within {MATCH_TOL}"
        bound[name] = matches[0]
    assert len({id(v) for v in bound.values()}) == len(exact), f"{names}: not one to one"
    return bound


@functools.cache
def _replay():
    """(script, float state, exact landmarks, t, s): the script replayed
    exactly, each step's outputs matched with the float run's."""
    script = hendecagon_script()
    state = run_script(script, MATCH_TOL)
    [twofold] = [step for step in script.steps if step.kind == "two_fold"]
    intervals = sorted(isolate_real_roots(HENDECAGON_QUINTIC), key=lambda iv: iv.lo)
    # select 0 is the largest root, by the certified intervals, and it is t
    assert len(intervals) == 5 and twofold.args.get("select", 0) == 0
    assert all(iv.hi <= intervals[-1].lo for iv in intervals[:-1])
    t = refine_root(HENDECAGON_QUINTIC, intervals[-1])
    assert intervals[-1].lo < 2 * math.cos(2 * math.pi / 11) < intervals[-1].hi
    s = math.sqrt(16 - 4 * t * t)
    # the run's own two-fold inputs eliminate to f too
    floats = TwoFoldConfig(*(state.landmarks[twofold.args[name]]
                             for name in ("P", "Q", "ell", "m", "n")))
    assert eliminate_to_quintic(floats) == HENDECAGON_QUINTIC

    frame = script.frame
    cx, cy, half = Fraction(frame.center.x), Fraction(frame.center.y), Fraction(frame.side) / 2
    edges = {"sheet_left": (1, 0, half - cx), "sheet_right": (1, 0, -half - cx),
             "sheet_bottom": (0, 1, half - cy), "sheet_top": (0, 1, -half - cy)}
    landmarks = {}
    for name, edge in edges.items():
        landmarks |= _bind([name], [tuple(map(El.lift, edge))], [state.landmarks[name]], t, s)
    for step in script.steps:
        produced = _replay_step(step, landmarks)
        landmarks |= _bind(step.outputs, produced,
                           [state.landmarks[name] for name in step.outputs], t, s)
    return script, state, landmarks, t, s


def test_every_landmark_is_replayed_and_matched():
    script, state, landmarks, _, _ = _replay()
    assert set(landmarks) == set(state.landmarks)
    assert len(landmarks) == 4 + sum(len(step.outputs) for step in script.steps) == 54


def test_every_landmark_equals_its_analytic_value_exactly():
    script, _, landmarks, t, s = _replay()
    analytic = _analytic()
    assert set(analytic) == set(landmarks)
    wrong = [name for name, value in landmarks.items() if not _same(value, analytic[name])]
    assert not wrong, wrong
    # the covered names include every vertex, every side and every expectation
    assert set(VERTEX_IDS) | {f"side_{k}" for k in range(len(VERTEX_IDS))} <= set(analytic)
    expected = {name: value for step in script.steps for name, value in step.expect.items()}
    assert set(expected) <= set(analytic)
    # and each float expectation is its analytic value's float form
    for name, value in expected.items():
        assert _close(analytic[name], value.to_float(), t, s), name


def test_the_polygon_is_regular_exactly():
    _, _, landmarks, _, _ = _replay()
    center = landmarks["center"]
    z = [landmarks[name] for name in VERTEX_IDS]
    assert all(_dist_sq(vertex, center) == 16 for vertex in z)
    # every side is the chord 2 * 4 * sin(pi / 11): its square is
    # 32 - 32 cos(2 pi / 11) = 32 - 16 t
    assert all(_dist_sq(p, q) == 32 - 16 * T for p, q in zip(z, z[1:] + z[:1]))
    for k, (p, q) in enumerate(zip(z, z[1:] + z[:1])):
        side = landmarks[f"side_{k}"]
        assert _residual(p, side) == 0 and _residual(q, side) == 0


def test_the_arithmetic_of_L():
    assert T * T * T * T * T == -(F[0] + F[1] * T + F[2] * T * T + F[3] * T * T * T
                                  + F[4] * T * T * T * T)
    assert S * S == 16 - 4 * T * T
    for x in (T, 3 - T * T, S, T + S, 2 * T * S - 1):
        assert x * x.inverse() == 1


def test_a_case_the_replay_does_not_cover_fails_by_name():
    def line(*triple):
        return tuple(map(El.lift, triple))

    with pytest.raises(pytest.fail.Exception, match="not a rational multiple of s"):
        _sqrt(T)
    with pytest.raises(pytest.fail.Exception, match="line_onto_line of lines that meet"):
        _line_onto_line(line(1, 0, 0), line(0, 1, 0))
    step = FoldStep(id="o2", kind="single_fold",
                    args={"variant": "point_onto_point", "moving": "P", "target": "Q"},
                    outputs=("crease",), figures=(1,))
    with pytest.raises(pytest.fail.Exception, match="step 'o2': single_fold 'point_onto_point'"):
        _replay_step(step, {})
