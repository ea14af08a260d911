"""Self-contained acceptance checks, runnable from the command line.

Each criterion is an independent function returning a CriterionResult; the
oracle side of every check (trigonometric root values, chord lengths, dense
sign scans, brute-force fold searches) never goes through the code path it
certifies.  All randomness is seeded, so a verify run is reproducible, on
any number of CPUs.  `run_all` draws criterion 7's instances first and
starts their dense scans on one queue, which forked workers (one per usable
CPU beyond the first) and then the parent drain together; the parent runs
criteria 1-6 meanwhile, and reads every scan back in draw order.  Each
scan's samples use the grid and float operations of a plain per-point loop
(kept in the tests as the reference), so they are that loop's bit for bit;
a fixed grid is built once per process, on first use, never at import.

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
from collections import deque
from contextlib import ExitStack, contextmanager
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


def check_property_suites(suites=None) -> CriterionResult:
    """Reflections, Sturm counts and single-fold counts, each against an
    oracle that does not share the code it checks.

    `suites` is criterion 7 as `_property_suites` drew it and started its
    scans, which lets `run_all` run criteria 1-6 while the scans run; with
    None the check draws and starts it here.  The scans are read back in
    draw order, so the verdict and its message do not depend on the number
    of CPUs.
    """
    if suites is None:
        with _property_suites() as suites:
            return check_property_suites(suites)
    # every suite's solver side first, while the workers scan; then the scans
    verdicts = [solve() for solve in suites]
    failures = [message for message in (verdict() for verdict in verdicts) if message]
    return CriterionResult(
        "property_suites", not failures,
        "; ".join(failures) if failures else
        "reflection involution/isometry, Sturm vs sign scan, "
        "single-fold counts vs dense sampling all agree")


ALL_CRITERIA = (
    check_exact_quintic,
    check_root_census,
    check_two_fold_residuals,
    check_gamma_parameterization_identity,
    check_constructibility_table,
    check_end_to_end_construction,
    check_property_suites,
)


def run_all() -> list:
    """The result of every criterion, in order.

    Criterion 7 (last) is drawn first and its scans started, so that
    criteria 1-6, and then criterion 7's solver side, run in the parent
    while forked workers scan; then the parent joins the workers on the
    rest of the scans (see `_scan_pool`).
    """
    with _property_suites() as suites:
        results = [check() for check in ALL_CRITERIA[:-1]]
        results.append(check_property_suites(suites))
    return results


# ----------------------------------------------------------------------
# property-suite internals (criterion 7)
# ----------------------------------------------------------------------

def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set, where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


@contextmanager
def _property_suites():
    """Draws criterion 7's instances and starts their scans on `_scan_pool`.

    Yields one thunk per suite that runs the suite's solver side and returns
    its verdict: a thunk that reads the suite's scans and gives the first
    mismatch, or "".
    """
    calls = []

    def submit(fn, *args) -> int:
        calls.append((fn, args))
        return len(calls) - 1
    # the queue runs in submission order: the longest scans first, the short
    # Sturm scans last, so that no process waits long for another's last scan
    reflection = submit(reflection_suite, random.Random(SEED))
    folds = single_fold_count_suite(random.Random(SEED + 2), submit)
    sturm = sturm_suite(random.Random(SEED + 1), submit)
    # the reflection suite is all oracle: its verdict is its one scan
    suites = (lambda scans: scans[reflection], sturm, folds)
    with _scan_pool(calls) as scans:
        yield [functools.partial(solve, scans) for solve in suites]


# bytes per scan index in the queue.  The parent writes the whole queue
# before any process reads it, so it must fit in a pipe's buffer (64 KiB on
# Linux): criterion 7's first batch is 181 records
_RECORD = 2


def _outcome(fn, args) -> tuple:
    """(True, fn(*args)), or (False, the exception it raised): like a
    future, a scan keeps its exception until the scan is read."""
    try:
        return True, fn(*args)
    except Exception as exc:
        return False, exc


def _take(queue: int):
    """The scan indices taken from the pipe `queue`, one record per read,
    until it is empty; each process that shares the queue takes its own."""
    while record := os.read(queue, _RECORD):
        yield int.from_bytes(record, "little")


@contextmanager
def _scan_pool(calls: list):
    """Runs `calls`, each (fn, args), and yields one thunk per call, in
    order, that returns fn(*args) or raises what it raised.

    The parent writes every call's index into one pipe and then forks one
    worker per usable CPU beyond the first, never more than there are
    calls.  Each worker takes one index at a time; it has the calls through
    fork, so they are not pickled, and it sends all its results back at
    once, pickled, on a pipe of its own.  The parent is free until it reads
    a thunk: the first read makes it take calls from the same queue until
    the queue is empty, and then collect the workers' results.  With one
    CPU, or without fork, the parent runs every call itself.

    No worker outlives the block: on any error, each one still running is
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
        outcomes = {}

        def drain() -> None:
            for i in _take(queue):
                outcomes[i] = _outcome(*calls[i])
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

        def read(i: int):
            if not outcomes:
                drain()
            done, value = outcomes[i]
            if not done:
                raise value
            return value
        yield [functools.partial(read, i) for i in range(len(calls))]
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


def sturm_suite(rng: random.Random, submit):
    """Sturm counts against sign scans on products of linear factors.

    Draws the instances and hands each scan to `submit`, which gives its
    index in the batch.  Given the batch's thunks (see `_scan_pool`), the
    returned function runs the solver side and returns the verdict, a thunk
    that reads the scans and gives the first mismatch, or "".
    """
    cases = []
    for _ in range(STURM_CASES):
        degree = rng.randint(1, 6)
        roots = [Fraction(rng.randint(-16, 16), 4) for _ in range(degree)]
        p = RatPoly.of(1)
        for root in roots:
            p = p * RatPoly.of(-root, 1)
        cases.append((roots, p, submit(sign_scan_root_count, p, -4.6, 4.6)))

    def solve(scans):
        certified = [count_real_roots(p) for _, p, _ in cases]

        def first_mismatch() -> str:
            for (roots, _, scan), count in zip(cases, certified):
                scanned = scans[scan]()
                if count != len(set(roots)) or scanned != count:
                    return (f"root count mismatch for roots {roots}: "
                            f"sturm {count}, scan {scanned}")
            return ""
        return first_mismatch
    return solve


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
    near = 1e-4 * (max(map(abs, values)) or 1.0)
    dips = {i for i, v in enumerate(values) if -near < v < near} - {0, O6_SAMPLES - 1}
    covered = {j for idx in crossings for j in range(idx - 3, idx + 4)}
    trustworthy = (all(abs(grid[idx]) <= O6_SPAN for idx in crossings)
                   and all(i2 - i1 >= 5 for i1, i2 in zip(crossings, crossings[1:]))
                   and dips <= covered)
    return len(crossings), trustworthy


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


def single_fold_count_suite(rng: random.Random, submit):
    """Solution counts against dense-sampling searches, FOLD_CASES instances
    of each of two problems (two-points-onto-two-lines: trusted scans only).

    Draws the instances and hands each scan to `submit`, which gives its
    index in the batch.  Given the batch's thunks (see `_scan_pool`), the
    returned function runs the solver side and returns the verdict, a thunk
    that reads the scans and gives the first mismatch, or "".  When
    untrusted scans use up the draw, the verdict draws what is missing and
    scans it as a batch of its own.
    """
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
        through_point.append((
            PointOntoLineThroughPoint(moving, target, pivot),
            submit(oracle_count_point_onto_line_through_point, moving, target, pivot)))
    problems = _two_points_onto_two_lines_problems(rng)
    drawn = [(problem, submit(oracle_count_two_points_onto_two_lines, problem))
             for problem in itertools.islice(problems, FOLD_CASES)]

    def solve(scans):
        counts = [len(solve_single_fold(problem)) for problem, _ in through_point]
        two_lines = deque((problem, _creases_in_window(problem), scans[scan])
                          for problem, scan in drawn)

        def first_mismatch() -> str:
            for (problem, scan), got in zip(through_point, counts):
                want = scans[scan]()
                if got != want:
                    return (f"point-onto-line-through-point count mismatch: "
                            f"solver {got}, scan {want} for {problem}")
            checked = 0
            with ExitStack() as batches:
                while checked < FOLD_CASES:
                    if not two_lines:
                        # untrusted scans used up the draw: draw what is missing
                        more = list(itertools.islice(problems, FOLD_CASES - checked))
                        late = batches.enter_context(_scan_pool(
                            [(oracle_count_two_points_onto_two_lines, (problem,))
                             for problem in more]))
                        two_lines.extend((problem, _creases_in_window(problem), scan)
                                         for problem, scan in zip(more, late))
                    problem, in_window, scan = two_lines.popleft()
                    want, trustworthy = scan()
                    if not trustworthy:
                        continue
                    if in_window != want:
                        return (f"two-points-onto-two-lines count mismatch: solver "
                                f"{in_window} in window, scan {want} for {problem}")
                    checked += 1
            return ""
        return first_mismatch
    return solve


def _creases_in_window(problem: TwoPointsOntoTwoLines) -> int:
    """The solver's creases that put the first point's image inside the O6
    scan's window, by the image's parameter u along the first target line."""
    p1, l1 = problem.moving1, problem.target1
    base = (-l1.a * l1.c, -l1.b * l1.c)
    direction = (-l1.b, l1.a)
    in_window = 0
    for fold in solve_single_fold(problem):
        image = reflect_point(p1, fold)
        u = (image.x - base[0]) * direction[0] + (image.y - base[1]) * direction[1]
        if abs(u) <= O6_SPAN:
            in_window += 1
    return in_window
