"""Acceptance suite: one test per shipped criterion, at fixed tolerances.

Criteria 1-3 and 5-7 print a PASS/FAIL line (visible with -s or in CI logs)
and assert the same check that backs `hendecafold verify`, so for them this
module and the CLI agree by construction.  Criterion 4 is different:
`verify` keeps the stated check (the two gamma parameterizations agree
coefficient-wise everywhere), which cannot hold and reports FAIL, while the
test here asserts the exact relation that does hold.  The CLI verdict,
including that FAIL, is pinned in test_render_cli.py.
"""

import math
import random
from fractions import Fraction

from hypothesis import given, strategies as st

from hendecafold.cyclotomic import classify_constructible, halved_cyclotomic
from hendecafold import verification
from hendecafold.folds import (
    TwoFoldConfig,
    TwoPointsOntoTwoLines,
    eliminate_to_quintic,
    gamma_line_from_s,
    gamma_line_from_t,
    s_from_t,
    solve_two_fold,
)
from hendecafold.geometry import Line, Point, line_defect, line_residual
from hendecafold.polynomials import RatPoly, isolate_real_roots, refine_root
from hendecafold.verification import (
    SEED,
    check_constructibility_table,
    check_end_to_end_construction,
    check_exact_quintic,
    check_property_suites,
    check_root_census,
    check_two_fold_residuals,
    single_fold_count_suite,
)

QUINTIC = RatPoly.of(1, 3, -3, -4, 1, 1)


def _report(result):
    print(f"{'PASS' if result.passed else 'FAIL'} {result.name}: {result.detail}")
    return result


def test_criterion_1_exact_quintic_reproduction():
    # zero-tolerance coefficient equality from two independent derivations
    assert halved_cyclotomic(11).poly == QUINTIC
    assert eliminate_to_quintic(TwoFoldConfig.hendecagon()) == QUINTIC
    assert _report(check_exact_quintic()).passed


def test_criterion_2_root_census():
    intervals = isolate_real_roots(QUINTIC)
    assert len(intervals) == 5
    roots = sorted(refine_root(QUINTIC, iv) for iv in intervals)
    oracle = sorted(2 * math.cos(2 * math.pi * k / 11) for k in range(1, 6))
    assert all(abs(r - e) <= 1e-9 for r, e in zip(roots, oracle))
    assert abs(max(roots) - 1.6825) <= 5e-5  # printed 5-digit value
    assert _report(check_root_census()).passed


def test_criterion_3_two_fold_incidence_residuals():
    for solution in solve_two_fold(TwoFoldConfig.hendecagon()):
        assert solution.residuals["Q_onto_n"] <= 1e-9
        assert solution.residuals["P_onto_m"] <= 1e-9
        assert solution.residuals["ell_onto_gamma"] <= 1e-9
    assert _report(check_two_fold_residuals()).passed


def test_criterion_4_gamma_parameterization_identity():
    # Exact relation between the two closed-form gamma parameterizations,
    # coupled by s = s_from_t(t).  Scaled to the normal (t^2-1, -2t), the two
    # lines have the same slope for every t and offsets that differ by
    # 2*Phi(t)/(t^2-1), Phi the hendecagon quintic, so they coincide exactly
    # at the five roots of Phi and nowhere else.  (`verify` keeps the stated
    # coefficient-agreement-everywhere check, which therefore reports FAIL;
    # the CLI test pins that verdict.)
    rng = random.Random(4)
    params = set()
    while len(params) < 1000:
        t = Fraction(rng.randint(-400, 400), rng.randint(1, 60))
        if t not in (0, 1, -1):
            params.add(t)
    for t in params:
        g_s = gamma_line_from_s(s_from_t(t))
        g_t = gamma_line_from_t(t)
        assert g_s.a * g_t.b == g_t.a * g_s.b, t
        u = t * t - 1
        offset_gap = g_s.c * u / g_s.a - g_t.c * u / g_t.a
        assert offset_gap == 2 * QUINTIC(t) / u, t
    roots = [refine_root(QUINTIC, iv) for iv in isolate_real_roots(QUINTIC)]
    assert len(roots) == 5
    for t in roots:
        assert line_defect(gamma_line_from_s(s_from_t(t)), gamma_line_from_t(t)) <= 1e-10


def test_criterion_5_constructibility_table():
    refused = {n for n in range(3, 32)
               if not classify_constructible(n).single_fold_constructible}
    assert refused == {11, 22, 23, 25, 29, 31}
    assert classify_constructible(7).single_fold_constructible
    assert classify_constructible(9).single_fold_constructible
    assert _report(check_constructibility_table()).passed


def test_criterion_6_end_to_end_construction():
    assert _report(check_end_to_end_construction()).passed


def test_criterion_7_property_suites():
    assert _report(check_property_suites()).passed


# -- the two-points-onto-two-lines oracle against its plain reference ---------

def _reference_o6_residual(u, base, direction, p1, p2, l2):
    dxp = base[0] + u * direction[0]
    dyp = base[1] + u * direction[1]
    ax, ay = dxp - p1[0], dyp - p1[1]
    c = (p1[0] ** 2 + p1[1] ** 2 - dxp ** 2 - dyp ** 2) / 2.0
    norm = ax * ax + ay * ay
    d = (ax * p2[0] + ay * p2[1] + c) / norm
    rx, ry = p2[0] - 2 * ax * d, p2[1] - 2 * ay * d
    return l2[0] * rx + l2[1] * ry + l2[2]


def _reference_oracle_count(problem, span=45.0, samples=9001):
    """The oracle as first written: one helper call per sample."""
    l1 = problem.target1.to_float()
    l2l = problem.target2.to_float()
    p1 = (float(problem.moving1.x), float(problem.moving1.y))
    p2 = (float(problem.moving2.x), float(problem.moving2.y))
    base = (-l1.a * l1.c, -l1.b * l1.c)
    direction = (-l1.b, l1.a)
    l2 = (l2l.a, l2l.b, l2l.c)
    lo, hi = -span - 2.0, span + 2.0
    step = (hi - lo) / (samples - 1)
    values = [_reference_o6_residual(lo + i * step, base, direction, p1, p2, l2)
              for i in range(samples)]
    crossings, prev = [], None
    for i, v in enumerate(values):
        if v == 0.0:
            crossings.append(i)
            prev = None
            continue
        sign = v > 0
        if prev is not None and sign != prev:
            crossings.append(i)
        prev = sign
    trustworthy = True
    for idx in crossings:
        if not (abs(lo + idx * step) <= span):
            trustworthy = False
    for i1, i2 in zip(crossings, crossings[1:]):
        if i2 - i1 < 5:
            trustworthy = False
    scale = max(abs(v) for v in values) or 1.0
    for i in range(1, samples - 1):
        near_zero = abs(values[i]) < 1e-4 * scale
        if near_zero and not any(abs(i - c) <= 3 for c in crossings):
            trustworthy = False
            break
    return len(crossings), trustworthy


def _random_o6_problem(rng):
    while True:
        p1 = Point(rng.uniform(-6, 6), rng.uniform(-6, 6))
        p2 = Point(rng.uniform(-6, 6), rng.uniform(-6, 6))
        normals = [(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(2)]
        if min(math.hypot(a, b) for a, b in normals) < 0.05:
            continue
        l1, l2 = (Line(a, b, rng.uniform(-6, 6)) for a, b in normals)
        if line_residual(p1, l1) != 0.0:  # p1 on l1 puts a 0/0 at one sample
            return TwoPointsOntoTwoLines(p1, l1, p2, l2)


def test_o6_oracle_matches_reference_on_suite_instances(monkeypatch):
    # the exact problems criterion 7 hands to the oracle, trusted or not
    oracle = verification.oracle_count_two_points_onto_two_lines
    seen = []

    def recording(problem):
        seen.append(problem)
        return oracle(problem)

    monkeypatch.setattr(verification, "oracle_count_two_points_onto_two_lines", recording)
    assert single_fold_count_suite(random.Random(SEED + 2)) == ""
    assert len(seen) >= 50
    for problem in seen:
        assert oracle(problem) == _reference_oracle_count(problem), problem


def _tangent_o6_problem(rng):
    """A random problem with target2 shifted so that the residual turns at
    a grid point 1e-7..1e-3 of its scale away from zero: a near-tangency,
    where the close-crossing and near-zero rules decide trust."""
    lo, step = -47.0, 94.0 / 9000
    while True:
        problem = _random_o6_problem(rng)
        p1, l1, p2, l2 = (problem.moving1, problem.target1, problem.moving2,
                          problem.target2)
        base, direction = (-l1.a * l1.c, -l1.b * l1.c), (-l1.b, l1.a)
        miss = [_reference_o6_residual(lo + i * step, base, direction, (p1.x, p1.y),
                                       (p2.x, p2.y), (l2.a, l2.b, 0.0))
                for i in range(9001)]
        turns = [i for i in range(1, 9000)
                 if (miss[i] - miss[i - 1]) * (miss[i + 1] - miss[i]) < 0]
        if turns:
            gap = rng.choice((-1, 1)) * max(map(abs, miss)) * 10 ** rng.uniform(-7, -3)
            c = gap - miss[rng.choice(turns)]
            return TwoPointsOntoTwoLines(p1, l1, p2, Line(l2.a, l2.b, c))


def test_o6_oracle_matches_reference_on_random_instances():
    rng = random.Random(6)
    outcomes = set()
    for _ in range(300):
        problem = _random_o6_problem(rng)
        got = verification.oracle_count_two_points_onto_two_lines(problem)
        assert got == _reference_oracle_count(problem), problem
        outcomes.add(got)
    # the instances reach several counts and both trust verdicts
    assert {count for count, _ in outcomes} >= {1, 3}
    assert {trust for _, trust in outcomes} == {True, False}


def test_o6_oracle_matches_reference_near_tangency():
    rng = random.Random(11)
    for _ in range(100):
        problem = _tangent_o6_problem(rng)
        assert (verification.oracle_count_two_points_onto_two_lines(problem)
                == _reference_oracle_count(problem)), problem


def _reference_crossings(values):
    """The sign-change loop each oracle carried before `_crossings`."""
    crossings, prev = [], None
    for i, v in enumerate(values):
        if v == 0.0:
            crossings.append(i)
            prev = None
            continue
        sign = v > 0
        if prev is not None and sign != prev:
            crossings.append(i)
        prev = sign
    return crossings


@given(st.lists(st.one_of(st.sampled_from([0.0, -0.0, 0, 1e-300, -1e-300]), st.floats())))
def test_crossings_matches_the_reference_loop(values):
    want = _reference_crossings(values)
    assert verification._crossings(values) == want
    assert verification._crossings(v for v in values) == want
