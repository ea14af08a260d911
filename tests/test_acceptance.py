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
import os
import random
import time
from fractions import Fraction

import pytest
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
    check_constructibility_table,
    check_end_to_end_construction,
    check_exact_quintic,
    check_root_census,
    check_two_fold_residuals,
    run_all,
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
    assert _report(run_all()[-1]).passed


# -- criterion 7 with forked scan workers and in-process -----------------------

def _assert_no_child_left():
    """This process has no child, running or unreaped: unlike
    multiprocessing.active_children(), waitpid sees raw forks too."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _suites_on(monkeypatch, cpus):
    """Criterion 7 of `run_all` with `cpus` usable CPUs: the parent and
    `cpus` - 1 forked workers share the queue; at 1 the parent runs it all."""
    monkeypatch.setattr(verification, "_usable_cpus", lambda: cpus)
    try:
        return run_all()[-1]
    finally:
        _assert_no_child_left()


def _count_forks(monkeypatch) -> list:
    """A list that gets one entry per os.fork call from here on."""
    forks = []
    fork = os.fork

    def counting_fork():
        forks.append(None)
        return fork()
    monkeypatch.setattr(os, "fork", counting_fork)
    return forks


def test_property_suites_fan_out_matches_in_process(monkeypatch):
    fanned = _suites_on(monkeypatch, 2)
    assert fanned.passed
    assert _suites_on(monkeypatch, 1) == fanned


def test_property_suites_report_a_planted_miscount_on_both_paths(monkeypatch):
    solve = verification.solve_single_fold
    monkeypatch.setattr(verification, "solve_single_fold",
                        lambda problem: solve(problem)[1:])
    fanned = _suites_on(monkeypatch, 2)
    assert not fanned.passed
    assert fanned.detail.startswith("point-onto-line-through-point count mismatch: solver ")
    assert _suites_on(monkeypatch, 1) == fanned


_O6_ORACLE = verification.oracle_count_two_points_onto_two_lines
_O6_DRAW = verification._two_points_onto_two_lines_problems


def _record_o6_draw(monkeypatch) -> list:
    """The two-points-onto-two-lines problems criterion 7 draws, trusted or
    not, recorded in the parent, since the scans may run in workers."""
    seen = []

    def recording(rng):
        for problem in _O6_DRAW(rng):
            seen.append(problem)
            yield problem

    monkeypatch.setattr(verification, "_two_points_onto_two_lines_problems", recording)
    return seen


def _half_trusted_oracle(problem):
    count, trustworthy = _O6_ORACLE(problem)
    return count, trustworthy and problem.moving1.x < 0


def test_property_suites_draw_until_enough_scans_are_trusted(monkeypatch):
    # about half the scans untrusted: the first draw falls short and the
    # check draws more and runs them in the parent, after the queue is
    # empty, forking nothing more; the same problems on one, two and three CPUs
    monkeypatch.setattr(verification, "oracle_count_two_points_onto_two_lines",
                        _half_trusted_oracle)
    forks = _count_forks(monkeypatch)
    results = {}
    for cpus in (3, 2, 1):
        seen = _record_o6_draw(monkeypatch)
        forks.clear()
        results[cpus] = _suites_on(monkeypatch, cpus), seen
        assert len(forks) == cpus - 1
    assert results[1] == results[2] == results[3]
    result, seen = results[2]
    assert result.passed
    trusted = [problem.moving1.x < 0 for problem in seen]
    assert len(seen) > verification.FOLD_CASES
    assert sum(trusted) == verification.FOLD_CASES and trusted[-1]


def _failing_scan(*args):
    raise ArithmeticError("planted scan failure")


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_property_suites_leave_no_worker_when_a_scan_raises(monkeypatch, cpus):
    # an oracle's scan, or a solver side, which runs on the same queue
    for name in ("sign_scan_root_count", "count_real_roots", "solve_single_fold"):
        with monkeypatch.context() as patch:
            patch.setattr(verification, name, _failing_scan)
            with pytest.raises(ArithmeticError, match="planted scan failure"):
                _suites_on(patch, cpus)


class _Interrupt(BaseException):
    """Like KeyboardInterrupt: no scan keeps it for its read."""


def _interrupted_in_the_parent(scan):
    """The scan, raising _Interrupt in this process; a forked worker's copy
    blocks until it is killed (60 s at most), so each worker holds one case
    and the parent always takes one of the others."""
    parent = os.getpid()

    def interrupted(*args):
        if os.getpid() == parent:
            raise _Interrupt("planted interrupt")
        time.sleep(60)
        return scan(*args)
    return interrupted


@pytest.mark.parametrize("cpus", [2, 3])
def test_property_suites_leave_no_worker_when_the_parents_share_is_interrupted(
        monkeypatch, cpus):
    # raised in the parent's own share of the scans, while the workers block
    # in theirs: only the kill in `_scan_pool` ends them
    name = "oracle_count_point_onto_line_through_point"
    monkeypatch.setattr(verification, name,
                        _interrupted_in_the_parent(getattr(verification, name)))
    with pytest.raises(_Interrupt, match="planted interrupt"):
        _suites_on(monkeypatch, cpus)


def _failing_criterion():
    raise ArithmeticError("planted criterion failure")


@pytest.mark.parametrize("cpus", [2, 3])
def test_run_all_leaves_no_worker_when_criteria_1_to_6_raise(monkeypatch, cpus):
    # criteria 1-6 share one queue with criterion 7's cases: the workers
    # are forked before any call runs, and one of them, or the parent,
    # takes the raising criterion while the others still scan
    forks = _count_forks(monkeypatch)
    monkeypatch.setattr(verification, "_usable_cpus", lambda: cpus)
    criteria = list(verification.ALL_CRITERIA)
    criteria[2] = _failing_criterion
    monkeypatch.setattr(verification, "ALL_CRITERIA", tuple(criteria))
    with pytest.raises(ArithmeticError, match="planted criterion failure"):
        verification.run_all()
    assert len(forks) == cpus - 1
    _assert_no_child_left()


def test_run_all_calls_every_entry_of_all_criteria_once_in_order(monkeypatch):
    # run_all is the one way a criterion runs: each entry of ALL_CRITERIA,
    # in order, then criterion 7's verdict on the cases queued after them
    monkeypatch.setattr(verification, "_usable_cpus", lambda: 1)
    calls = []

    def recording(i):
        def check():
            calls.append(i)
            return verification.CriterionResult(f"recorded_{i}", True, "")
        return check

    count = len(verification.ALL_CRITERIA)
    monkeypatch.setattr(verification, "ALL_CRITERIA", tuple(map(recording, range(count))))
    results = verification.run_all()
    assert calls == list(range(count))
    assert len(results) == count + 1
    assert [r.name for r in results] == [f"recorded_{i}" for i in range(count)] + [
        "property_suites"]
    assert results[-1].passed


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
    seen = _record_o6_draw(monkeypatch)
    assert run_all()[-1].passed
    assert len(seen) >= 50
    for problem in seen:
        assert _O6_ORACLE(problem) == _reference_oracle_count(problem), problem


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


def _reference_uncovered_dip(values, crossings):
    scale = max(abs(v) for v in values) or 1.0
    return any(abs(values[i]) < 1e-4 * scale
               and not any(abs(i - c) <= 3 for c in crossings)
               for i in range(1, len(values) - 1))


def test_o6_dip_rule_matches_the_per_sample_rule_on_crafted_samples():
    # short lists of signed zeros, near-zero, subnormal, huge, nan and inf
    # samples reach both the min/max path and the per-sample one
    rng = random.Random(3)
    pool = (0.0, -0.0, 2.0, -3.0, 1e-5, -1e-5, 5e-5, -5e-5, 1e-320, 1e308,
            math.nan, math.inf, -math.inf)
    outcomes = set()
    for _ in range(5000):
        choices = pool if rng.random() < 0.5 else pool[:10]
        values = [rng.choice(choices) for _ in range(rng.randrange(1, 40))]
        crossings = verification._crossings(values)
        got = verification._uncovered_dip(values, crossings)
        assert got == _reference_uncovered_dip(values, crossings), values
        outcomes.add((math.isfinite(sum(values)), got))
    assert outcomes == {(True, True), (True, False), (False, True), (False, False)}


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


# -- the other two dense-sampling oracles against their plain references -------

def _reference_sign_scan_samples(p, lo, hi, samples=4001):
    """sign_scan_root_count's samples as first written: one g(x) per point."""
    g = p.square_free_part()
    return [g(lo + (hi - lo) * i / (samples - 1)) for i in range(samples)]


def _reference_point_onto_line_samples(moving, target, pivot, samples=4001):
    """oracle_count_point_onto_line_through_point's samples as first written."""
    h = line_residual(pivot, target)
    radius = math.hypot(moving.x - pivot.x, moving.y - pivot.y)
    span = radius + 1.0
    return [math.hypot(h, -span + 2 * span * i / (samples - 1)) - radius
            for i in range(samples)]


def _reference_o6_samples(problem, span=45.0, samples=9001):
    """The two-points-onto-two-lines oracle's samples, as
    `_reference_oracle_count` computes them."""
    l1, l2 = problem.target1.to_float(), problem.target2.to_float()
    p1 = (float(problem.moving1.x), float(problem.moving1.y))
    p2 = (float(problem.moving2.x), float(problem.moving2.y))
    lo, hi = -span - 2.0, span + 2.0
    step = (hi - lo) / (samples - 1)
    return [_reference_o6_residual(lo + i * step, (-l1.a * l1.c, -l1.b * l1.c),
                                   (-l1.b, l1.a), p1, p2, (l2.a, l2.b, l2.c))
            for i in range(samples)]


_REFERENCE_SAMPLES = {
    "sign_scan_root_count": _reference_sign_scan_samples,
    "oracle_count_point_onto_line_through_point": _reference_point_onto_line_samples,
    "oracle_count_two_points_onto_two_lines": _reference_o6_samples,
}


def _assert_oracle_matches_reference(monkeypatch, oracle, *args):
    """The oracle's count is the reference loop's count on the reference
    samples, and the samples it scans are those, bit for bit."""
    scanned = []
    crossings = verification._crossings

    def recording(values):
        scanned.append(list(values))
        return crossings(scanned[-1])

    with monkeypatch.context() as patch:
        patch.setattr(verification, "_crossings", recording)
        got = getattr(verification, oracle)(*args)
    want = _REFERENCE_SAMPLES[oracle](*args)
    assert len(scanned) == 1, (oracle, args)
    assert list(map(float.hex, scanned[0])) == list(map(float.hex, want)), (oracle, args)
    count = got[0] if isinstance(got, tuple) else got
    assert count == len(_reference_crossings(want)), (oracle, args)


def _record_scans(monkeypatch) -> list:
    """The (oracle name, args) of every scan criterion 7 makes, on one CPU,
    so that the parent makes them all and records each call."""
    seen = []

    def recording(name, oracle):
        def record(*args):
            seen.append((name, args))
            return oracle(*args)
        return record

    monkeypatch.setattr(verification, "_usable_cpus", lambda: 1)
    for name in _REFERENCE_SAMPLES:
        monkeypatch.setattr(verification, name, recording(name, getattr(verification, name)))
    return seen


def test_scan_oracles_match_reference_on_suite_instances(monkeypatch):
    with monkeypatch.context() as patch:
        seen = _record_scans(patch)
        assert run_all()[-1].passed
    names = [name for name, _ in seen]
    assert names.count("sign_scan_root_count") == verification.STURM_CASES
    assert (names.count("oracle_count_point_onto_line_through_point")
            == verification.FOLD_CASES)
    assert names.count("oracle_count_two_points_onto_two_lines") >= verification.FOLD_CASES
    for name, args in seen:
        if name in _REFERENCE_SAMPLES:
            _assert_oracle_matches_reference(monkeypatch, name, *args)


def _with_roots(roots, scale=1):
    p = RatPoly.of(scale)
    for root in roots:
        p = p * RatPoly.of(-root, 1)
    return p


def test_sign_scan_matches_reference_on_repeated_and_sampled_roots(monkeypatch):
    # on [-4, 4] sample 2000 is 0.0 and every quarter is sampled exactly, so
    # each root of these products is a sample, as it need not be on the others
    assert _reference_sign_scan_samples(_with_roots([0]), -4.0, 4.0)[2000] == 0.0
    rng = random.Random(29)
    cases = [_with_roots([0]), _with_roots([0, 0, 0]), _with_roots([1, 1, Fraction(-3, 4)]),
             _with_roots([Fraction(5, 4)] * 4 + [-2, -2], -3)]
    for _ in range(40):
        roots = [Fraction(rng.randint(-16, 16), 4) for _ in range(rng.randint(1, 4))]
        roots += rng.choices(roots, k=rng.randint(0, 3))
        cases.append(_with_roots(roots, Fraction(rng.choice((-1, 1)) * rng.randint(1, 9),
                                                 rng.randint(1, 7))))
    for p in cases:
        for lo, hi in ((-4.0, 4.0), (-4.6, 4.6), (-3.3, 5.1)):
            _assert_oracle_matches_reference(monkeypatch, "sign_scan_root_count", p, lo, hi)


def _point_onto_line_problem(rng, disc=None):
    """moving, target, pivot; with `disc`, the moving point sits where the
    suite's tangency measure |moving - pivot|^2 - h^2 is about `disc`."""
    while True:
        pivot = Point(rng.uniform(-3, 3), rng.uniform(-3, 3))
        a, b = rng.uniform(-1, 1), rng.uniform(-1, 1)
        if math.hypot(a, b) >= 0.1:
            break
    target = Line(a, b, rng.uniform(-3, 3))
    if disc is None:
        moving = Point(rng.uniform(-3, 3), rng.uniform(-3, 3))
    else:
        h = line_residual(pivot, target)
        radius, angle = math.sqrt(max(h * h + disc, 0.0)), rng.uniform(0, 2 * math.pi)
        moving = Point(pivot.x + radius * math.cos(angle), pivot.y + radius * math.sin(angle))
    return moving, target, pivot


def test_point_onto_line_oracle_matches_reference_near_tangency(monkeypatch):
    rng = random.Random(31)
    for k in range(150):
        disc = None if k < 50 else rng.choice((-1, 1)) * 10 ** rng.uniform(-12, -1)
        _assert_oracle_matches_reference(monkeypatch, "oracle_count_point_onto_line_through_point",
                                         *_point_onto_line_problem(rng, disc))
