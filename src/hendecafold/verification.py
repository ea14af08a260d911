"""Self-contained acceptance checks, runnable from the command line.

Criteria 1-6 are the functions of `ALL_CRITERIA`, each returning a
CriterionResult; criterion 7 is a list of cases, each of which runs one
instance's solver side and its dense-scan oracle together.  The oracle side
of every check (trigonometric root values, chord lengths, dense sign scans,
brute-force fold searches) never goes through the code path it certifies.
All randomness is seeded, so a verify run is reproducible, on any number of
CPUs.  `run_all` is the one way any criterion runs: one queue of calls,
criteria 1-6, then criterion 7's cases, which forked workers (one per
usable CPU beyond the first) and the parent drain together; the parent
reads every value back in queue order.
Cases drawn late, when untrusted scans use up the first draw, run in the
parent.  Each scan's samples use the grid and float operations of a plain
per-point loop (kept in the tests as the reference), so they are that
loop's bit for bit; a fixed grid is built once per process, on first use,
never at import.

One check is expected to fail by construction and is reported honestly:
`gamma_parameterization_identity` asserts that the two closed-form gamma
parameterizations coincide at arbitrary parameters, but coupling them
through the slope relation makes the full lines (slope and offset) agree
exactly on the five quintic roots and nowhere else; that discrepancy is
precisely the polynomial the whole solver exists to solve, so the solver's
own correctness is asserted by the root-locked variants in the other
criteria.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import pickle
import random
import signal
from dataclasses import dataclass
from fractions import Fraction

from .construction import RADIUS, SIDES, hendecagon_script, run_script, verify_hendecagon
from .cyclotomic import classify_constructible, halved_cyclotomic
from .folds import (
    PointOntoLineThroughPoint,
    TwoFoldConfig,
    TwoPointsOntoTwoLines,
    eliminate_to_quintic,
    gamma_line_from_s,
    gamma_line_from_t,
    s_from_t,
    solve_single_fold,
    solve_two_fold,
)
from .geometry import (
    Line,
    Point,
    dist_sq,
    line_defect,
    line_residual,
    point_distance,
    reflect_point,
)
from .polynomials import RatPoly, count_real_roots, isolate_real_roots, refine_root

SEED = 20260810

# criterion 7: random instances per suite
STURM_CASES, FOLD_CASES = 30, 50

# oracle grids: samples of the two sign scans; the O6 scan's window |u| <= O6_SPAN
SCAN_SAMPLES = 4001
O6_SPAN, O6_SAMPLES = 45.0, 9001

HENDECAGON_QUINTIC = RatPoly.of(1, 3, -3, -4, 1, 1)


@dataclass(frozen=True)
class CriterionResult:
    name: str
    passed: bool
    detail: str


# ----------------------------------------------------------------------
# criteria
# ----------------------------------------------------------------------

def check_exact_quintic() -> CriterionResult:
    reduced = halved_cyclotomic(11).poly
    eliminated = eliminate_to_quintic(TwoFoldConfig.hendecagon())
    ok = reduced == HENDECAGON_QUINTIC and eliminated == HENDECAGON_QUINTIC
    return CriterionResult(
        "exact_quintic_reproduction", ok,
        f"cosine reduction {tuple(reduced.coeffs)}, "
        f"fold elimination {tuple(eliminated.coeffs)}")


def check_root_census() -> CriterionResult:
    intervals = isolate_real_roots(HENDECAGON_QUINTIC)
    roots = sorted(refine_root(HENDECAGON_QUINTIC, iv) for iv in intervals)
    oracle = sorted(2 * math.cos(2 * math.pi * k / 11) for k in range(1, 6))
    count_ok = len(intervals) == 5
    match_ok = all(abs(r - e) <= 1e-9 for r, e in zip(roots, oracle))
    printed_ok = abs(max(roots) - 1.6825) <= 5e-5
    ok = count_ok and match_ok and printed_ok
    return CriterionResult(
        "root_census", ok,
        f"{len(intervals)} certified roots, largest {max(roots):.12g}, "
        f"worst trig deviation {max(abs(r - e) for r, e in zip(roots, oracle)):.3e}")


def check_two_fold_residuals() -> CriterionResult:
    solutions = solve_two_fold(TwoFoldConfig.hendecagon())
    worst = max(sol.max_residual for sol in solutions)
    return CriterionResult(
        "two_fold_incidence_residuals", worst <= 1e-9,
        f"{len(solutions)} solutions, worst alignment residual {worst:.3e}")


def check_gamma_parameterization_identity() -> CriterionResult:
    # as stated: full coefficient agreement at 1000 random parameters
    rng = random.Random(SEED)
    worst_line, worst_slope = 0.0, 0.0
    for _ in range(1000):
        t = rng.uniform(-3.0, 3.0)
        if abs(t) < 1e-6 or abs(abs(t) - 1.0) < 1e-6:
            continue
        g_s = gamma_line_from_s(s_from_t(t))
        g_t = gamma_line_from_t(t)
        worst_line = max(worst_line, line_defect(g_s, g_t))
        worst_slope = max(worst_slope, min(
            abs(g_s.a - g_t.a) + abs(g_s.b - g_t.b),
            abs(g_s.a + g_t.a) + abs(g_s.b + g_t.b)))
    root_defect = max(
        line_defect(gamma_line_from_s(s_from_t(t)), gamma_line_from_t(t))
        for t in (2 * math.cos(2 * math.pi * k / 11) for k in range(1, 6)))
    ok = worst_line <= 1e-10
    return CriterionResult(
        "gamma_parameterization_identity", ok,
        f"worst full-line defect {worst_line:.3e} (slopes agree to "
        f"{worst_slope:.1e} everywhere; full lines agree to {root_defect:.1e} "
        f"on the five roots, and only there, which is what the quintic encodes)")


def check_constructibility_table() -> CriterionResult:
    refused = {n for n in range(3, 32)
               if not classify_constructible(n).single_fold_constructible}
    ok = refused == {11, 22, 23, 25, 29, 31} \
        and classify_constructible(7).single_fold_constructible \
        and classify_constructible(9).single_fold_constructible
    return CriterionResult(
        "constructibility_table", ok,
        f"non-constructible for 3 <= n <= 31: {sorted(refused)}")


def check_end_to_end_construction() -> CriterionResult:
    state = run_script(hendecagon_script(), 1e-9)
    report = verify_hendecagon(state, 1e-9)
    center = state.landmarks["center"]
    qp_dist = point_distance(state.landmarks["Qp"], center)
    qp_ok = abs(qp_dist - RADIUS * math.cos(2 * math.pi / SIDES)) <= 1e-9
    worst = max(c.worst for c in report.checks)
    ok = report.passed and qp_ok and state.max_residual() <= 1e-9
    return CriterionResult(
        "end_to_end_construction", ok,
        f"max step residual {state.max_residual():.3e}, polygon checks worst "
        f"{worst:.3e}, |Q' - center| = {qp_dist:.12g}")


ALL_CRITERIA = (
    check_exact_quintic,
    check_root_census,
    check_two_fold_residuals,
    check_gamma_parameterization_identity,
    check_constructibility_table,
    check_end_to_end_construction,
)


def run_all() -> list:
    """The result of every criterion, in order: criteria 1-6, the checks of
    `ALL_CRITERIA`, then criterion 7's verdict on its cases, queued after
    them on the one `_scan_pool` that forked workers and the parent share.
    """
    criteria = [(check, ()) for check in ALL_CRITERIA]
    cases, problems = _property_suites()
    values = _scan_pool(criteria + cases)
    return [*values[:len(criteria)], _property_verdict(values[len(criteria):], problems)]


# ----------------------------------------------------------------------
# the call queue, and criterion 7's cases
# ----------------------------------------------------------------------

def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set, where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _property_suites():
    """Criterion 7 (reflections, Sturm counts and single-fold counts, each
    against an oracle that shares no code with it) drawn as one list of
    cases, and the stream the two-points-onto-two-lines problems came from.

    Each case is (fn, args): fn runs one instance's solver side and its
    oracle, and returns "" when they agree, the mismatch message when they
    do not, or None for an untrusted two-points-onto-two-lines scan.
    """
    rng = random.Random(SEED + 2)
    through_point = []
    while len(through_point) < FOLD_CASES:
        moving = Point(rng.uniform(-3, 3), rng.uniform(-3, 3))
        pivot = Point(rng.uniform(-3, 3), rng.uniform(-3, 3))
        a, b = rng.uniform(-1, 1), rng.uniform(-1, 1)
        if math.hypot(a, b) < 0.1:
            continue
        target = Line(a, b, rng.uniform(-3, 3))
        if point_distance(moving, pivot) < 0.2:
            continue
        # reject near-tangency: the crossing count is not grid-stable there
        h = line_residual(pivot, target)
        disc = point_distance(moving, pivot) ** 2 - h * h
        if abs(disc) < 0.1:
            continue
        through_point.append((_through_point_case,
                              (PointOntoLineThroughPoint(moving, target, pivot),)))
    problems = _two_points_onto_two_lines_problems(rng)
    two_lines = [(_two_lines_case, (problem,))
                 for problem in itertools.islice(problems, FOLD_CASES)]
    rng = random.Random(SEED + 1)
    sturm = [(_sturm_case, ([Fraction(rng.randint(-16, 16), 4)
                             for _ in range(rng.randint(1, 6))],))
             for _ in range(STURM_CASES)]
    # the queue runs in draw order: the longest cases first, the short
    # Sturm cases last, so that no process waits long for another's last case
    return [(reflection_suite, (random.Random(SEED),)),
            *through_point, *two_lines, *sturm], problems


def _property_verdict(values: list, problems) -> CriterionResult:
    """Criterion 7's result from its cases' values, in draw order, so that
    the verdict and its message do not depend on the number of CPUs.  When
    untrusted scans use up the two-points-onto-two-lines cases, the missing
    ones are drawn from `problems` and run in this process."""
    reflection, *values = values
    through_point, two_lines, sturm = (values[:FOLD_CASES], values[FOLD_CASES:2 * FOLD_CASES],
                                       values[2 * FOLD_CASES:])
    trusted = (message for message in itertools.chain(two_lines, map(_two_lines_case, problems))
               if message is not None)
    single_fold = (next(filter(None, through_point), "")
                   or next(filter(None, itertools.islice(trusted, FOLD_CASES)), ""))
    failures = [message for message in (reflection, next(filter(None, sturm), ""), single_fold)
                if message]
    return CriterionResult(
        "property_suites", not failures,
        "; ".join(failures) if failures else
        "reflection involution/isometry, Sturm vs sign scan, "
        "single-fold counts vs dense sampling all agree")


# bytes per call index in the queue.  The parent writes the whole queue
# before any process reads it, so it must fit in a pipe's buffer (64 KiB on
# Linux): a verify run writes one queue, of 137 records (6 criteria and
# criterion 7's 131 cases)
_RECORD = 2


def _outcome(fn, args) -> tuple:
    """(True, fn(*args)), or (False, the exception it raised): like a
    future, a call keeps its exception until the pool reads it back."""
    try:
        return True, fn(*args)
    except Exception as exc:
        return False, exc


def _take(queue: int):
    """The call indices taken from the pipe `queue`, one record per read,
    until it is empty; each process that shares the queue takes its own."""
    while record := os.read(queue, _RECORD):
        yield int.from_bytes(record, "little")


def _scan_pool(calls: list) -> list:
    """fn(*args) for every (fn, args) in `calls`, in order; if any call
    raised, raises the exception of the first in order that did.

    The parent writes every call's index into one pipe and then forks one
    worker per usable CPU beyond the first, never more than there are
    calls.  Each worker takes one index at a time; it has the calls through
    fork, so they are not pickled, and it sends all its results back at
    once, pickled, on a pipe of its own.  The parent takes calls from the
    same queue until the queue is empty, and then collects the workers'
    results.  With one CPU, or without fork, the parent runs every call
    itself.

    No worker outlives the call: on any error, each one still running is
    killed and reaped.  A worker that dies raises OSError, as a fork that
    fails does.
    """
    workers = min(_usable_cpus(), len(calls)) - 1 if hasattr(os, "fork") else 0
    children = []             # (pid, read end of its result pipe), not yet reaped
    queue, queue_end = os.pipe()
    try:
        with open(queue_end, "wb") as indices:
            indices.write(b"".join(i.to_bytes(_RECORD, "little") for i in range(len(calls))))
        for _ in range(workers):
            results, end = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(results)
                os.close(end)
                raise
            if pid == 0:
                _scan_worker(calls, queue, end)  # never returns
            os.close(end)
            children.append((pid, results))
        outcomes = {i: _outcome(*calls[i]) for i in _take(queue)}
        while children:
            pid, results = children[0]
            data = b"".join(iter(functools.partial(os.read, results, 1 << 16), b""))
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[0]
            os.close(results)
            if status != 0:
                raise OSError(f"a verify scan worker terminated abruptly "
                              f"(exit status {status})")
            outcomes.update(pickle.loads(data))
        ordered = [outcomes[i] for i in range(len(calls))]
        for done, value in ordered:
            if not done:
                raise value
        return [value for _, value in ordered]
    finally:
        for pid, results in children:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(results)
        os.close(queue)


def _scan_worker(calls: list, queue: int, results: int) -> None:
    """A forked worker's whole life: take calls from `queue` until it is
    empty, send their outcomes to `results`, and leave through os._exit, so
    that it never runs the parent's exit handlers or flushes its stdio."""
    status = 1
    try:
        outcomes = {i: _outcome(*calls[i]) for i in _take(queue)}
        with open(results, "wb") as out:
            pickle.dump(outcomes, out)
        status = 0
    finally:
        os._exit(status)


def reflection_suite(rng: random.Random) -> str:
    """Involution and isometry of reflections, exact and float."""
    def rational(lo=-30, hi=30, den=12):
        return Fraction(rng.randint(lo, hi), rng.randint(1, den))

    for _ in range(200):
        p = Point(rational(), rational())
        q = Point(rational(), rational())
        a, b, c = rational(), rational(), rational()
        if a == 0 and b == 0:
            continue
        axis = Line(a, b, c)
        if reflect_point(reflect_point(p, axis), axis) != p:
            return f"exact involution broke at {p}, {axis}"
        if dist_sq(reflect_point(p, axis), reflect_point(q, axis)) != dist_sq(p, q):
            return f"exact isometry broke at {p}, {q}, {axis}"
    for _ in range(200):
        p = Point(rng.uniform(-50, 50), rng.uniform(-50, 50))
        q = Point(rng.uniform(-50, 50), rng.uniform(-50, 50))
        a, b = rng.uniform(-1, 1), rng.uniform(-1, 1)
        if math.hypot(a, b) < 0.1:
            continue
        axis = Line(a, b, rng.uniform(-50, 50))
        back = reflect_point(reflect_point(p, axis), axis)
        if point_distance(back, p) > 1e-12:
            return f"float involution off by {point_distance(back, p):.2e}"
        drift = abs(point_distance(reflect_point(p, axis), reflect_point(q, axis))
                    - point_distance(p, q))
        if drift > 1e-12:
            return f"float isometry off by {drift:.2e}"
    return ""


def _crossings(values) -> list:
    """Indices of the sign changes in `values`; an exact zero counts once.
    Each value is read once, as a sign byte: 1 > 0, 2 zero, 0 < 0 or nan.
    The test is against the float 0.0, which compares faster than the int."""
    signs = bytes([1 if v > 0.0 else 2 if v == 0.0 else 0 for v in values])
    crossings = []
    for pattern, shift in ((b"\x02", 0), (b"\x00\x01", 1), (b"\x01\x00", 1)):
        i = signs.find(pattern)
        while i >= 0:
            crossings.append(i + shift)
            i = signs.find(pattern, i + 1)
    return sorted(crossings)


@functools.cache
def _scan_grid(lo: float, hi: float) -> tuple:
    """The SCAN_SAMPLES points of a sign scan from lo to hi."""
    return tuple(lo + (hi - lo) * i / (SCAN_SAMPLES - 1) for i in range(SCAN_SAMPLES))


def sign_scan_root_count(p: RatPoly, lo: float, hi: float) -> int:
    """Count sign crossings of the square-free part on a dense grid.

    Horner's rule runs over the grid one coefficient at a time, with the
    floats of `RatPoly.__call__`: each sample is g(x) bit for bit.  The grid
    of each (lo, hi) is built once per process.
    """
    grid = _scan_grid(lo, hi)
    values = [0.0] * len(grid)
    for c in reversed(p.square_free_part().coeffs):
        c = c.numerator / c.denominator
        values = [v * x + c for v, x in zip(values, grid)]
    return len(_crossings(values))


def _sturm_case(roots: list) -> str:
    """The Sturm count of the product of x - root over `roots` against its
    sign scan and its distinct roots."""
    p = RatPoly.of(1)
    for root in roots:
        p = p * RatPoly.of(-root, 1)
    count = count_real_roots(p)
    scanned = sign_scan_root_count(p, -4.6, 4.6)
    if count != len(set(roots)) or scanned != count:
        return (f"root count mismatch for roots {roots}: "
                f"sturm {count}, scan {scanned}")
    return ""


def oracle_count_point_onto_line_through_point(
        moving: Point, target: Line, pivot: Point) -> int:
    """Dense search along the target line for images at the pivot radius.
    The grid scales with the radius, so each call builds its own."""
    h = line_residual(pivot, target)
    radius = math.hypot(moving.x - pivot.x, moving.y - pivot.y)
    span = radius + 1.0
    return len(_crossings([math.hypot(h, -span + 2 * span * i / (SCAN_SAMPLES - 1)) - radius
                           for i in range(SCAN_SAMPLES)]))


@functools.cache
def _o6_grid() -> tuple:
    """The O6 scan's u: the window and 2.0 beyond each edge, in even steps."""
    lo, hi = -O6_SPAN - 2.0, O6_SPAN + 2.0
    return tuple(lo + i * ((hi - lo) / (O6_SAMPLES - 1)) for i in range(O6_SAMPLES))


def oracle_count_two_points_onto_two_lines(problem: TwoPointsOntoTwoLines):
    """Sign-scan count of valid creases within the parameter window.

    Samples, directly, the alignment miss of the second point when the
    first point's image sits at parameter u along its target line.
    Returns (count, trustworthy): not trustworthy when a crossing hugs the
    window edge, two crossings share a grid cell neighborhood, or the
    residual dips near zero without crossing (tangency risk).  The grid
    of u is built once per process.
    """
    l1 = problem.target1.to_float()
    l2 = problem.target2.to_float()
    p1x, p1y = float(problem.moving1.x), float(problem.moving1.y)
    p2x, p2y = float(problem.moving2.x), float(problem.moving2.y)
    bx, by = -l1.a * l1.c, -l1.b * l1.c
    vx, vy = -l1.b, l1.a
    la, lb, lc = l2.a, l2.b, l2.c
    p1_sq = p1x ** 2 + p1y ** 2

    grid = _o6_grid()
    values = []
    for u in grid:
        dxp = bx + u * vx
        dyp = by + u * vy
        ax, ay = dxp - p1x, dyp - p1y
        c = (p1_sq - dxp ** 2 - dyp ** 2) / 2.0
        d = (ax * p2x + ay * p2y + c) / (ax * ax + ay * ay)
        values.append(la * (p2x - 2.0 * ax * d) + lb * (p2y - 2.0 * ay * d) + lc)
    crossings = _crossings(values)
    trustworthy = (all(abs(grid[idx]) <= O6_SPAN for idx in crossings)
                   and all(i2 - i1 >= 5 for i1, i2 in zip(crossings, crossings[1:]))
                   and not _uncovered_dip(values, crossings))
    return len(crossings), trustworthy


def _uncovered_dip(values: list, crossings: list) -> bool:
    """Whether a sample, not at either end and more than 3 indices from every
    crossing, lies within 1e-4 of the largest |sample| of zero.

    Between two crossings' windows every sample has one sign, so with every
    sample finite (a finite sum) one min or max per uncovered stretch finds
    a dip.  Otherwise the per-sample test runs: a nan sample reads as
    negative to `_crossings` and upsets min and max.
    """
    if not math.isfinite(sum(values)):
        near = 1e-4 * (max(map(abs, values)) or 1.0)
        dips = {i for i, v in enumerate(values) if -near < v < near} - {0, len(values) - 1}
        return not dips <= {j for idx in crossings for j in range(idx - 3, idx + 4)}
    near = 1e-4 * (max(max(values), -min(values)) or 1.0)
    start = 1
    # a crossing past the end closes the last stretch before the last sample
    for idx in crossings + [len(values) + 2]:
        if start < idx - 3:
            stretch = values[start:idx - 3]
            if min(stretch) < near if stretch[0] > 0.0 else max(stretch) > -near:
                return True
        start = idx + 4
    return False


def _two_points_onto_two_lines_problems(rng: random.Random):
    """Endless stream of well-separated two-points-onto-two-lines problems."""
    while True:
        p1 = Point(rng.uniform(-3, 3), rng.uniform(-3, 3))
        p2 = Point(rng.uniform(-3, 3), rng.uniform(-3, 3))
        lines = []
        for _ in range(2):
            a, b = rng.uniform(-1, 1), rng.uniform(-1, 1)
            if math.hypot(a, b) < 0.1:
                break
            lines.append(Line(a, b, rng.uniform(-3, 3)))
        if len(lines) < 2:
            continue
        l1, l2 = lines
        if abs(line_residual(p1, l1)) < 0.3 or abs(line_residual(p2, l2)) < 0.3:
            continue
        yield TwoPointsOntoTwoLines(p1, l1, p2, l2)


def _through_point_case(problem: PointOntoLineThroughPoint) -> str:
    """The solver's crease count against the dense search's."""
    got = len(solve_single_fold(problem))
    want = oracle_count_point_onto_line_through_point(
        problem.moving, problem.target, problem.pivot)
    if got != want:
        return (f"point-onto-line-through-point count mismatch: "
                f"solver {got}, scan {want} for {problem}")
    return ""


def _two_lines_case(problem: TwoPointsOntoTwoLines):
    """The solver's creases that put the first point's image inside the O6
    scan's window, by the image's parameter u along the first target line,
    against the scan's count; None when the scan is not trustworthy."""
    p1, l1 = problem.moving1, problem.target1
    base = (-l1.a * l1.c, -l1.b * l1.c)
    direction = (-l1.b, l1.a)
    in_window = 0
    for fold in solve_single_fold(problem):
        image = reflect_point(p1, fold)
        u = (image.x - base[0]) * direction[0] + (image.y - base[1]) * direction[1]
        if abs(u) <= O6_SPAN:
            in_window += 1
    want, trustworthy = oracle_count_two_points_onto_two_lines(problem)
    if not trustworthy:
        return None
    if in_window != want:
        return (f"two-points-onto-two-lines count mismatch: solver "
                f"{in_window} in window, scan {want} for {problem}")
    return ""
