import hashlib
import importlib.util
import itertools
import math
import pickle
import warnings
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from hendecafold import polynomials
from hendecafold.cyclotomic import chebyshev_term, halved_cyclotomic
from hendecafold.folds import TwoFoldConfig, _integral, eliminate_to_quintic
from hendecafold.geometry import EXACT, Line, Point
from hendecafold.polynomials import (
    RatFunc,
    RatPoly,
    RootInterval,
    X,
    _add,
    _chain_values,
    _homogeneous,
    _integer_sturm_chain,
    _monic_from_ints,
    _mul,
    _over_common_denominator,
    count_real_roots,
    isolate_real_roots,
    poly_gcd,
    refine_root,
)

# the hendecagon quintic, ascending coefficients
QUINTIC = RatPoly.of(1, 3, -3, -4, 1, 1)


def bisect_oracle(f, lo, hi, tol=1e-12):
    """Plain float bisection, independent of the Sturm machinery."""
    flo = f(lo)
    while hi - lo > tol:
        mid = (lo + hi) / 2
        fmid = f(mid)
        if fmid == 0:
            return mid
        if (fmid > 0) == (flo > 0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return (lo + hi) / 2


def grid_bits(tol):
    """The m with 2^-m <= tol < 2^(1-m), found in exact arithmetic."""
    m, tol = 0, Fraction(tol)
    while Fraction(2) ** -m > tol:
        m += 1
    while Fraction(2) ** (1 - m) <= tol:
        m -= 1
    return m


def bisection_refine_root(p, interval, tol=1e-12):
    """Exact bisection on the grid j * 2^-m anchored at zero.

    2^-m is the largest power of two <= tol.  Starting from the grid points
    that enclose the interval, it bisects in Fraction arithmetic down to one
    cell, then applies the same three-step float Newton polish.
    """
    g = p.square_free_part().monic()
    step = Fraction(2) ** -grid_bits(tol)
    lo, hi = interval.lo, interval.hi
    left_positive = g(lo) > 0
    a, b = math.floor(lo / step), math.ceil(hi / step)
    while b - a > 1:
        j = (a + b) // 2
        fj = g(j * step)
        if fj == 0:
            return float(j * step)
        if (fj > 0) == left_positive:
            a = j
        else:
            b = j
    lo, hi = a * step, b * step
    x = float((lo + hi) / 2)
    lo_f, hi_f = float(lo), float(hi)
    dg = g.derivative()
    for _ in range(3):
        fx, dfx = g(x), dg(x)
        if dfx == 0.0:
            break
        nx = x - fx / dfx
        if not (lo_f <= nx <= hi_f) or abs(g(nx)) >= abs(fx):
            break
        x = nx
    return min(max(x, lo_f), hi_f)


def assert_refines_like_bisection(p, tol):
    for iv in isolate_real_roots(p):
        assert refine_root(p, iv, tol).hex() == bisection_refine_root(p, iv, tol).hex()


# -- ring arithmetic ------------------------------------------------------

def test_eval_quintic_at_one():
    # 1 + 1 - 4 - 3 + 3 + 1 summed by hand
    assert QUINTIC(1) == -1
    assert QUINTIC(0) == 1
    assert QUINTIC(-1) == -1


def test_derivative_power():
    assert RatPoly.of(0, 0, 0, 0, 0, 1).derivative() == RatPoly.of(0, 0, 0, 0, 5)


def test_divmod_roundtrip():
    a = RatPoly.of(2, -3, 0, 1, 5)
    b = RatPoly.of(1, 1, 2)
    q, r = divmod(a, b)
    assert q * b + r == a
    assert r.degree < b.degree


def test_zero_poly_properties():
    z = RatPoly()
    assert z.is_zero and z.degree == -1
    assert (z + QUINTIC) == QUINTIC
    with pytest.raises(ZeroDivisionError):
        divmod(QUINTIC, z)


@given(st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=6),
                max_size=5),
       st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=6),
                max_size=5))
def test_mul_matches_pointwise_eval(ca, cb):
    a, b = RatPoly(ca), RatPoly(cb)
    prod = a * b
    for x in (Fraction(0), Fraction(1), Fraction(-2), Fraction(1, 3)):
        assert prod(x) == a(x) * b(x)


def _uncached_float_horner(p, x):
    acc = 0.0
    for c in reversed(p.coeffs):
        acc = acc * x + float(c)
    return acc


@given(st.lists(st.fractions(min_value=-10**4, max_value=10**4, max_denominator=10**3),
                max_size=10),
       st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=4))
def test_float_eval_is_bit_identical_to_uncached_horner(coeffs, xs):
    p = RatPoly(coeffs)
    for x in xs:
        assert p(x).hex() == _uncached_float_horner(p, x).hex()
    # the float cache is not part of the value
    fresh = RatPoly(coeffs)
    assert p == fresh and hash(p) == hash(fresh)
    assert {p: 1}[fresh] == 1


def test_gcd_of_shared_factor():
    shared = RatPoly.of(-1, 1)          # x - 1
    a = shared * RatPoly.of(2, 0, 1)
    b = shared * RatPoly.of(-3, 1)
    assert poly_gcd(a, b) == shared.monic()


# -- rational functions ----------------------------------------------------

def test_ratfunc_reduces_to_lowest_terms():
    f = RatFunc(RatPoly.of(-1, 0, 1), RatPoly.of(1, 1))  # (x^2-1)/(x+1)
    assert f.num == RatPoly.of(-1, 1)
    assert f.den == RatPoly.of(1)


def test_ratfunc_den_monic():
    f = RatFunc(RatPoly.of(1), RatPoly.of(2, 4))
    assert f.den.lc == 1
    assert f(Fraction(1)) == Fraction(1, 6)


def _poly_on_ratfunc(p, value):
    """p(value) for a polynomial p and a rational-function argument."""
    acc = RatFunc.constant(0)
    for c in reversed(p.coeffs):
        acc = acc * value + c
    return acc


def test_substitute_eliminates_to_quintic():
    # s(t) = -t/(t^2-1) - 3/2 pushed through (2s^2 - 13/2)/(2s + 3),
    # then compared against -t^2: clearing denominators yields the quintic.
    s_of_t = RatFunc(RatPoly.of(Fraction(3, 2), -1, Fraction(-3, 2)),
                     RatPoly.of(-1, 0, 1))
    target = RatFunc(RatPoly.of(Fraction(-13, 2), 0, 2), RatPoly.of(3, 2))
    image = _poly_on_ratfunc(target.num, s_of_t) / _poly_on_ratfunc(target.den, s_of_t)
    difference = image - RatFunc(-(X * X))
    assert difference.num.monic() == QUINTIC
    assert difference.den == RatPoly.of(0, -1, 0, 1)  # t*(t^2 - 1), monic


@given(st.fractions(min_value=-5, max_value=5, max_denominator=8),
       st.fractions(min_value=-5, max_value=5, max_denominator=8))
def test_ratfunc_field_ops_agree_with_eval(p, q):
    f = RatFunc(X + p, X * X + 1)
    g = RatFunc(RatPoly.of(q, 0, 1), X + 7)
    x = Fraction(1, 2)
    assert (f + g)(x) == f(x) + g(x)
    assert (f * g)(x) == f(x) * g(x)
    assert (f - g)(x) == f(x) - g(x)


@given(st.lists(st.fractions(min_value=-6, max_value=6, max_denominator=5),
                min_size=1, max_size=4),
       st.lists(st.fractions(min_value=-6, max_value=6, max_denominator=5),
                min_size=2, max_size=4))
def test_ratfunc_always_coprime_and_monic(num_coeffs, den_coeffs):
    num, den = RatPoly(num_coeffs), RatPoly(den_coeffs)
    if den.is_zero:
        return
    f = RatFunc(num, den)
    assert f.den.is_zero is False
    assert f.den.lc == 1
    assert poly_gcd(f.num, f.den).degree <= 0


# -- root isolation ---------------------------------------------------------

def test_quintic_has_exactly_five_real_roots():
    ivs = isolate_real_roots(QUINTIC)
    assert len(ivs) == 5
    assert count_real_roots(QUINTIC) == 5


def test_no_real_roots():
    assert isolate_real_roots(RatPoly.of(1, 0, 1)) == []
    assert count_real_roots(RatPoly.of(1, 0, 1)) == 0


def test_count_real_roots_rejects_a_reversed_range():
    p = RatPoly.of(-1, 0, 1)
    with pytest.raises(ValueError, match="empty range"):
        count_real_roots(p, 2, -2)
    with pytest.raises(ValueError, match="empty range"):
        count_real_roots(p, math.inf, 0)
    assert count_real_roots(p, 1, 1) == 0


def test_count_real_roots_takes_a_float_infinity_as_an_open_end():
    p = RatPoly.of(-1, 0, 1)
    assert count_real_roots(p, -math.inf, math.inf) == count_real_roots(p) == 2
    assert count_real_roots(p, 0, math.inf) == count_real_roots(p, 0) == 1
    assert count_real_roots(p, -math.inf, 0) == count_real_roots(p, None, 0) == 1
    assert count_real_roots(p, math.inf) == count_real_roots(p, None, -math.inf) == 0


def test_count_real_roots_of_the_zero_polynomial_raises_as_isolation_does():
    for call in (isolate_real_roots, count_real_roots):
        with pytest.raises(ValueError, match="cannot isolate roots of the zero polynomial"):
            call(RatPoly())


def test_sqrt2_brackets():
    ivs = isolate_real_roots(RatPoly.of(-2, 0, 1))
    assert len(ivs) == 2
    roots = sorted(refine_root(RatPoly.of(-2, 0, 1), iv) for iv in ivs)
    oracle = bisect_oracle(lambda x: x * x - 2, 1.0, 2.0)
    assert abs(roots[1] - oracle) < 1e-12
    assert abs(roots[0] + oracle) < 1e-12


def test_refine_quintic_largest_root():
    ivs = isolate_real_roots(QUINTIC)
    largest = refine_root(QUINTIC, ivs[-1])
    assert abs(largest - 2 * math.cos(2 * math.pi / 11)) < 1e-12


def test_all_five_roots_match_vertex_cosines():
    ivs = isolate_real_roots(QUINTIC)
    roots = sorted(refine_root(QUINTIC, iv) for iv in ivs)
    expected = sorted(2 * math.cos(2 * math.pi * k / 11) for k in range(1, 6))
    assert len(roots) == len(expected)
    for r, e in zip(roots, expected):
        assert abs(r - e) < 1e-12


def test_refined_root_stays_in_interval():
    for iv in isolate_real_roots(QUINTIC):
        r = refine_root(QUINTIC, iv)
        assert float(iv.lo) <= r <= float(iv.hi)


def test_rational_root_hit_exactly():
    p = RatPoly.of(Fraction(-1, 2), 1)  # x - 1/2
    (iv,) = isolate_real_roots(p)
    assert refine_root(p, iv) == 0.5


def test_repeated_roots_isolated_once():
    p = RatPoly.of(-1, 1) * RatPoly.of(-1, 1) * RatPoly.of(2, 1)
    ivs = isolate_real_roots(p)
    assert len(ivs) == 2


@settings(deadline=None, max_examples=60)
@given(st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=4),
                min_size=1, max_size=6))
def test_sturm_count_matches_sign_scan(roots):
    # build a polynomial from known rational roots, possibly repeated
    p = RatPoly.of(1)
    for r in roots:
        p = p * RatPoly.of(-r, 1)
    assert count_real_roots(p) == len(set(roots))
    # brute-force scan: count sign changes of the square-free part on a fine
    # grid over the root region; distinct generated roots differ by >= 1/12,
    # far above the 0.0025 grid spacing
    g = p.square_free_part()
    n = 4001
    xs = [-5.0 + 10.0 * i / (n - 1) for i in range(n)]
    crossings, prev_sign = 0, None
    for v in (g(x) for x in xs):
        if v == 0.0:
            crossings += 1
            prev_sign = None
            continue
        sign = v > 0
        if prev_sign is not None and sign != prev_sign:
            crossings += 1
        prev_sign = sign
    assert crossings == len(set(roots))


@settings(deadline=None, max_examples=40)
@given(st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=3),
                min_size=1, max_size=5, unique=True))
def test_refined_roots_stay_bracketed_and_accurate(roots):
    p = RatPoly.of(1)
    for r in roots:
        p = p * RatPoly.of(-r, 1)
    ivs = isolate_real_roots(p)
    assert len(ivs) == len(roots)
    for iv, expected in zip(ivs, sorted(roots)):
        refined = refine_root(p, iv)
        assert float(iv.lo) <= refined <= float(iv.hi)
        assert abs(refined - float(expected)) < 1e-11


def test_isolation_intervals_disjoint_and_certified():
    for p in (QUINTIC, RatPoly.of(0, -1, 0, 1), RatPoly.of(-6, 11, -6, 1)):
        ivs = isolate_real_roots(p)
        for a, b in zip(ivs, ivs[1:]):
            assert a.hi <= b.lo
        for iv in ivs:
            assert count_real_roots(p, iv.lo, iv.hi) == 1
            assert p(iv.lo) != 0 and p(iv.hi) != 0


@pytest.mark.parametrize("fault", [lambda v: -1, lambda v: v + 6],
                         ids=["below", "above"])
def test_isolation_raises_on_a_count_outside_its_interval(monkeypatch, fault):
    # a faulty chain kernel must fail loudly; without the guard isolation
    # keeps subdividing, so the patch gives up after 200 midpoints
    calls = []
    nonroot_between = polynomials._nonroot_between

    def faulty(chain, lo, hi):
        calls.append(lo)
        assert len(calls) <= 200, "isolation never stopped subdividing"
        mid, variations = nonroot_between(chain, lo, hi)
        return mid, fault(variations)

    monkeypatch.setattr(polynomials, "_nonroot_between", faulty)
    with pytest.raises(RuntimeError, match="outside"):
        isolate_real_roots(QUINTIC)
    assert len(calls) == 1


def test_isolation_raises_when_counts_stay_inside_their_interval(monkeypatch):
    # a faulty kernel that counts one root above every midpoint keeps each
    # left half at k - 1 >= 2 roots, so isolation would halve toward the
    # lower bound forever; below the root-separation floor it must raise
    calls = []
    nonroot_between = polynomials._nonroot_between

    def faulty(chain, lo, hi):
        calls.append(lo)
        assert len(calls) <= 2000, "isolation never stopped subdividing"
        mid, _ = nonroot_between(chain, lo, hi)
        return mid, polynomials._variations_at_inf(chain, 1) + 1

    monkeypatch.setattr(polynomials, "_nonroot_between", faulty)
    with pytest.raises(RuntimeError, match="root separation"):
        isolate_real_roots(QUINTIC)


# -- exact sign kernel and refinement against exact bisection ----------------

@given(st.lists(st.fractions(min_value=-50, max_value=50, max_denominator=10**6),
                max_size=7),
       st.one_of(st.just(Fraction(0)),
                 st.fractions(min_value=-20, max_value=20),
                 st.fractions(min_value=-3, max_value=3,
                              max_denominator=10**30)))
def test_sign_kernel_matches_exact_evaluation(coeffs, x):
    p = RatPoly(coeffs)
    value = p(x)
    sign = (value > 0) - (value < 0)
    num, den = x.numerator, x.denominator
    # refinement checks its bracket at points num/den that need not be in
    # lowest terms; den**d * p(num/den) keeps the sign for any den > 0, with
    # p's coefficients over their common denominator, a positive scale
    ints, _ = _over_common_denominator(*p.coeffs)
    signs = {(v > 0) - (v < 0) for v in (_homogeneous(ints, num, den),
                                         _homogeneous(ints, 6 * num, 6 * den))}
    assert signs == {sign}


@pytest.mark.parametrize("tol", [0.0, -1.0, math.inf, math.nan])
def test_refine_root_rejects_bad_tol(tol):
    (iv,) = isolate_real_roots(RatPoly.of(-2, 1))
    with pytest.raises(ValueError, match="tol must be positive"):
        refine_root(RatPoly.of(-2, 1), iv, tol)


@settings(deadline=None, max_examples=80)
@given(st.lists(st.fractions(min_value=-6, max_value=6, max_denominator=12),
                min_size=1, max_size=5),
       st.integers(min_value=0, max_value=2),
       st.fractions(min_value=-3, max_value=3, max_denominator=7),
       st.sampled_from([1e-9, 1e-12, 1e-13, 1e-15]))
def test_refine_root_matches_exact_bisection(roots, repeats, shift, tol):
    # repeated factors exercise the square-free path; a constant shift
    # moves the roots off the rationals
    p = RatPoly.of(1)
    for r in roots + roots[:repeats]:
        p = p * RatPoly.of(-r, 1)
    p = p + shift
    if p.degree < 1:
        return
    assert_refines_like_bisection(p, tol)


@pytest.mark.parametrize("n", range(3, 82, 2))
def test_refine_root_matches_exact_bisection_on_ngon_roots(n):
    assert_refines_like_bisection(halved_cyclotomic(n).poly, 1e-12)


def test_refine_root_matches_exact_bisection_on_hendecagon_quintic():
    for tol in (1e-9, 1e-12, 1e-13, 1e-15):
        assert_refines_like_bisection(QUINTIC, tol)


@pytest.mark.parametrize("root, tol", [
    # at tol 1e-12 the grid is 2**-40; an odd numerator over 2**40 is a
    # grid point of that grid and of no coarser one
    (Fraction(0x5555555555, 2**40), 1e-12),
    # at tol 0.3 the cells are quarters; three Newton steps from the
    # midpoint of the cell right of 3/4 cannot reach the root
    (Fraction(3, 4), 0.3),
])
def test_root_on_a_grid_point_is_returned_exactly(root, tol):
    steep = RatPoly.of(1)
    for _ in range(12):
        steep = steep * RatPoly.of(-2, 1)
    p = RatPoly.of(-root, 1) * (steep + 1)
    iv = RootInterval(Fraction(0), Fraction(1))
    assert refine_root(p, iv, tol) == float(root)
    assert bisection_refine_root(p, iv, tol) == float(root)


@pytest.mark.parametrize("ratio", [Fraction(9, 2), 2**20 + Fraction(1, 3), 2**40 + Fraction(1, 2)])
def test_refine_root_matches_exact_bisection_just_above_a_power_of_two(ratio):
    # 1/tol just above 2**k: the grid is 2**-(k+1), not 2**-k
    iv = RootInterval(Fraction(1), Fraction(2))
    tol = float(1 / ratio)
    assert grid_bits(tol) == int(1 / Fraction(tol)).bit_length()
    p = RatPoly.of(-2, 0, 1)
    assert refine_root(p, iv, tol).hex() == bisection_refine_root(p, iv, tol).hex()


def test_clustered_pair_matches_exact_bisection():
    third = Fraction(1, 3)
    p = (RatPoly.of(-third, 1) * RatPoly.of(-third - Fraction(1, 10**12), 1)
         * RatPoly.of(5, 0, 1))
    assert len(isolate_real_roots(p)) == 2
    assert_refines_like_bisection(p, 1e-15)


def _benchmark_two_fold_stream(seed):
    """(px, py, mx) of the benchmark's `two_fold` stream for a seed."""
    path = Path(__file__).parents[1] / "perfbench" / "fold_workloads.py"
    spec = importlib.util.spec_from_file_location("fold_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    with warnings.catch_warnings():  # the workload sets a warnings filter
        workload = module.TwoFold(None, Path("."))
    return (params for params, _ in workload.inputs(seed))


def _two_fold_eliminants(seed, count):
    """The eliminants of the first `count` configs of that stream."""
    for px, py, mx in itertools.islice(_benchmark_two_fold_stream(seed), count):
        yield eliminate_to_quintic(TwoFoldConfig(
            P=Point(px, py), Q=Point(0, 1), ell=Line(1, 0, 0), m=Line(1, 0, -mx),
            n=Line(0, 1, 1)))


def test_refine_root_matches_exact_bisection_on_two_fold_eliminants():
    # at the tol solve_two_fold refines with, on low-height quintics
    degrees = set()
    for eliminant in _two_fold_eliminants(1, 300):
        degrees.add(eliminant.degree)
        assert_refines_like_bisection(eliminant, 1e-13)
    assert 5 in degrees


# -- the integer kernel against the Fraction chain it replaced ---------------

def fraction_sturm_chain(p):
    """The Sturm chain as it was computed before the integer kernel: Fraction
    remainders, each element rescaled by 1/|lc|."""
    chain = [p.monic(), p.derivative().monic()]
    while not chain[-1].is_zero and chain[-1].degree > 0:
        rem = -(chain[-2] % chain[-1])
        if rem.is_zero:
            break
        chain.append(rem * (1 / abs(rem.lc)))
    return [q for q in chain if not q.is_zero]


def fraction_square_free_part(p):
    """p over its monic Euclidean gcd with p', all in Fraction."""
    if p.degree <= 0:
        return p
    g = poly_gcd(p, p.derivative())
    return p if g.degree <= 0 else p // g


def fraction_intervals(p):
    """isolate_real_roots run on the Fraction chain and square-free part.

    It runs on a fresh copy of p, whose chain and square-free part are not
    cached yet, and checks that the reference chain was the one used.
    """
    chains = []

    def reference_chain(g):
        chains.append(g)
        # over the common denominator, a positive scale: a primitive form
        # would make an element with a negative leading coefficient positive
        return [_over_common_denominator(*q.coeffs)[0] for q in fraction_sturm_chain(g)]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(polynomials, "_integer_sturm_chain", reference_chain)
        patch.setattr(RatPoly, "square_free_part", fraction_square_free_part)
        intervals = isolate_real_roots(RatPoly(p.coeffs))
    assert chains
    return intervals


def assert_kernel_matches_fraction_reference(p):
    assert p.square_free_part() == fraction_square_free_part(p)
    for q in (p, p.square_free_part()):
        reference = fraction_sturm_chain(q)
        integer_chain = _integer_sturm_chain(q)
        assert len(integer_chain) == len(reference)
        for ints, ref in zip(integer_chain, reference):
            ratio = ints[-1] / ref.lc
            assert ratio > 0 and RatPoly(ints) == ref * ratio
    assert isolate_real_roots(p) == fraction_intervals(p)


@st.composite
def _kernel_polys(draw):
    if draw(st.booleans()):
        return RatPoly(draw(st.lists(
            st.fractions(min_value=-50, max_value=50, max_denominator=30),
            min_size=2, max_size=9)))
    # rational roots, some repeated, a leading coefficient of either sign
    # and a constant shift that moves the roots off the rationals
    roots = draw(st.lists(st.fractions(min_value=-6, max_value=6, max_denominator=12),
                          min_size=1, max_size=6))
    p = RatPoly.of(draw(st.sampled_from([1, -1, Fraction(3, 2), Fraction(-2, 7)])))
    for r in roots + roots[:draw(st.integers(0, 3))]:
        p = p * RatPoly.of(-r, 1)
    return p + draw(st.sampled_from([0, 0, Fraction(1, 3), Fraction(-5, 2)]))


@settings(deadline=None, max_examples=150)
@given(_kernel_polys())
def test_integer_kernel_matches_fraction_reference(p):
    if p.degree >= 1:
        assert_kernel_matches_fraction_reference(p)


@pytest.mark.parametrize("n", range(3, 82, 2))
def test_integer_kernel_matches_fraction_reference_on_ngon(n):
    assert_kernel_matches_fraction_reference(halved_cyclotomic(n).poly)


def test_sturm_chain_of_constants_and_zero():
    assert _integer_sturm_chain(RatPoly()) == fraction_sturm_chain(RatPoly()) == []
    # a constant's chain is the constant alone, made positive and primitive
    assert _integer_sturm_chain(RatPoly.of(-3)) == [[1]]
    assert fraction_sturm_chain(RatPoly.of(-3)) == [RatPoly.of(1)]


# -- remainder recurrence against homogeneous Horner -------------------------

# dyadic and non-dyadic rationals, either sign, small and large heights
CHAIN_POINTS = [Fraction(0), Fraction(1), Fraction(-3, 2), Fraction(5, 64),
                Fraction(-1023, 2**40), Fraction(-7, 3), Fraction(22, 7),
                Fraction(355, 113), Fraction(1, 10**9 + 7), Fraction(-10**12 - 1, 3**20)]


def assert_chain_values_are_horner(p, points=CHAIN_POINTS):
    """Every chain value, the recurrence's included, is the exact integer
    that homogeneous Horner gives for that element."""
    chain = _integer_sturm_chain(p)
    assert all(q.step is not None for q in chain[2:])
    for x in points:
        num, den = x.numerator, x.denominator
        assert _chain_values(chain, num, den) == [_homogeneous(q, num, den) for q in chain]
    return chain


@pytest.mark.parametrize("n", range(3, 82, 2))
def test_chain_recurrence_is_exact_on_ngon(n):
    p = RatPoly(halved_cyclotomic(n).poly.coeffs)
    midpoints = [(iv.lo + iv.hi) / 2 for iv in isolate_real_roots(p)]
    chain = assert_chain_values_are_horner(p, CHAIN_POINTS + midpoints)
    # all (n - 1)/2 roots are real, so the chain has every degree down to 0
    assert [len(q) - 1 for q in chain] == list(range((n - 1) // 2, -1, -1))


@settings(deadline=None, max_examples=150)
@given(_kernel_polys(), st.fractions(min_value=-8, max_value=8, max_denominator=10**15))
def test_chain_recurrence_is_exact_on_kernel_polys(p, x):
    if p.degree >= 1:
        assert_chain_values_are_horner(p, CHAIN_POINTS + [x])


@pytest.mark.parametrize("coeffs", [
    [1, 0, 0, 0, 1],                # x^4 + 1: chain degrees 4, 3, 0
    [1, 1, 0, 0, 0, 1],             # x^5 + x + 1: 5, 4, 1, 0
    [1, 0, 0, 1, 0, 0, 1],          # x^6 + x^3 + 1: 6, 5, 3, 2, 0
    [-1, 0, 1, 0, 0, 0, 0, 1],      # x^7 + x^2 - 1: 7, 6, 2, 1, 0
])
def test_chain_recurrence_is_exact_on_non_normal_chains(coeffs):
    chain = assert_chain_values_are_horner(RatPoly(coeffs))
    assert any(q.step[3] > 2 for q in chain[2:])  # deg a - deg c > 2: not normal


def test_a_normal_chain_takes_horner_for_its_first_two_elements_only(monkeypatch):
    # every later element of a normal chain has a degree-1 pseudo-quotient,
    # evaluated inline by the recurrence
    chain = _integer_sturm_chain(RatPoly(halved_cyclotomic(81).poly.coeffs))
    assert all(len(q.step[1]) == 2 for q in chain[2:]) and len(chain) == 41
    evaluated = []

    def counted(q, num, den):
        evaluated.append(q)
        return homogeneous(q, num, den)

    homogeneous = polynomials._homogeneous
    monkeypatch.setattr(polynomials, "_homogeneous", counted)
    for x in CHAIN_POINTS:
        evaluated.clear()
        values = _chain_values(chain, x.numerator, x.denominator)
        assert len(evaluated) == 2 and evaluated[0] is chain[0] and evaluated[1] is chain[1]
        assert values == [homogeneous(q, x.numerator, x.denominator) for q in chain]


@pytest.mark.parametrize("coeffs, length", [
    ([-3], 1), ([Fraction(1, 2), -3], 2), ([0, 5], 2), ([-2, 0, 1], 3)])
def test_chain_recurrence_is_exact_on_short_chains(coeffs, length):
    assert len(assert_chain_values_are_horner(RatPoly(coeffs))) == length


def test_filled_caches_leave_equality_and_hash_alone():
    p = RatPoly.of(Fraction(-1, 3), -2, Fraction(5, 2), 1)
    for iv in isolate_real_roots(p):
        refine_root(p, iv)
    p(0.5)
    assert {"_float_coeffs_desc", "_int_coeffs", "_derivative", "_int_chain",
            "_other_basis"} <= vars(p).keys()
    # monic and square-free, p is its own basis, which is not cached on p
    assert p._other_basis is None
    fresh = RatPoly(p.coeffs)
    assert p == fresh and hash(p) == hash(fresh) and repr(p) == repr(fresh)
    assert {p: 1}[fresh] == 1
    assert p.derivative() is p.derivative() and p.derivative() == fresh.derivative()
    assert QUINTIC.monic() is QUINTIC and (-QUINTIC).monic() == QUINTIC
    doubled = p * 2
    for iv in isolate_real_roots(doubled):
        refine_root(doubled, iv)
    assert doubled._other_basis == p and "_int_chain" in vars(doubled._other_basis)
    assert doubled == RatPoly(doubled.coeffs) and hash(doubled) == hash(p * 2)


def test_isolation_runs_the_remainder_sequence_once(monkeypatch):
    p = RatPoly(halved_cyclotomic(81).poly.coeffs)  # nothing cached yet
    chain_length = len(_integer_sturm_chain(p))
    calls = []

    def counted(a, b):
        calls.append(1)
        return neg_prem(a, b)

    neg_prem = polynomials._neg_prem
    monkeypatch.setattr(polynomials, "_neg_prem", counted)
    isolate_real_roots(p)
    assert len(calls) == chain_length - 2 == 39


@pytest.mark.parametrize("scale", [3, Fraction(-2, 7)])
def test_a_square_free_multiple_builds_one_chain(monkeypatch, scale):
    p = halved_cyclotomic(81).poly * scale
    calls = []

    def counted(g):
        calls.append(g)
        return integer_sturm_chain(g)

    integer_sturm_chain = polynomials._integer_sturm_chain
    monkeypatch.setattr(polynomials, "_integer_sturm_chain", counted)
    ivs = isolate_real_roots(p)
    # p's chain finds p square-free, and its monic copy, the basis, builds its own
    assert calls == [p, p._other_basis] and len(ivs) == 40
    monkeypatch.undo()
    assert ivs == isolate_real_roots(halved_cyclotomic(81).poly)


@st.composite
def _scaled_polys(draw):
    """(p, c): p of degree 1 to 8, sometimes with a squared factor, and c a
    nonzero rational of either sign."""
    coeff = st.fractions(min_value=-20, max_value=20, max_denominator=30)

    def poly(degree):
        body = draw(st.lists(coeff, min_size=degree, max_size=degree))
        return RatPoly([*body, draw(coeff.filter(bool))])

    degree = draw(st.integers(1, 8))
    square = draw(st.integers(0, degree // 2))  # the degree of the squared factor
    q = poly(square) if square else RatPoly.of(1)
    c = draw(st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**6).filter(bool))
    return q * q * poly(degree - 2 * square), c


@settings(deadline=None, max_examples=120)
@given(_scaled_polys(), st.sampled_from([1e-12, 1e-5, 0.75, 4.0]),
       st.lists(st.fractions(min_value=-50, max_value=50, max_denominator=7),
                min_size=2, max_size=2).map(sorted))
def test_isolation_and_refinement_ignore_a_constant_factor(pc, tol, bounds):
    p, c = pc

    def fresh():
        # new objects, so that neither reads a cache the other filled
        return RatPoly(p.coeffs), RatPoly(c * a for a in p.coeffs)

    ivs = isolate_real_roots(fresh()[0])
    assert isolate_real_roots(fresh()[1]) == ivs
    f, g = fresh()
    assert count_real_roots(g) == count_real_roots(f) == len(ivs)
    assert count_real_roots(g, *bounds) == count_real_roots(f, *bounds)
    f, g = fresh()
    assert [refine_root(g, iv, tol).hex() for iv in ivs] == [
        refine_root(f, iv, tol).hex() for iv in ivs]


def test_refining_a_squared_polynomial_builds_its_square_free_part_once(monkeypatch):
    g = halved_cyclotomic(61).poly
    p = g * g
    calls = []

    def counted(self):
        calls.append(self)
        return square_free_part(self)

    square_free_part = RatPoly.square_free_part
    monkeypatch.setattr(RatPoly, "square_free_part", counted)
    ivs = isolate_real_roots(p)
    roots = [refine_root(p, iv).hex() for iv in ivs]
    assert calls == [p] and len(roots) == 30
    monkeypatch.undo()
    assert roots == [refine_root(g, iv).hex() for iv in isolate_real_roots(g)]


# -- the certified roots, pinned ----------------------------------------------

# sha256 of the n-gon roots as (lo, hi, refined .hex()) rows, odd n 3..81 at
# tol 1e-12; recorded when isolation started at the power-of-two bound and
# refinement moved to the grid anchored at zero
NGON_ROOT_DIGEST = "73cc5491d78839c0c2c6eca699b015eeb9940e0b47a15979dbb72fff95b6f24b"


def test_ngon_roots_match_the_recorded_digest():
    rows = [[(iv.lo, iv.hi, refine_root(p, iv, 1e-12).hex()) for iv in isolate_real_roots(p)]
            for p in (halved_cyclotomic(n).poly for n in range(3, 82, 2))]
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == NGON_ROOT_DIGEST


# -- isolation from the power-of-two root bound ------------------------------------

def _pair(x):
    """A dyadic rational as the pair (num, k) that `_nonroot_between` takes,
    num / 2^k in lowest terms."""
    x = Fraction(x)
    k = x.denominator.bit_length() - 1
    assert x.denominator == 1 << k, f"{x} is not dyadic"
    return x.numerator, k


def reference_isolation(p, bound=None):
    """Isolation that evaluates the chain at both starting endpoints and at
    every split point, from +-bound, by default the power-of-two bound; a
    bound given must be dyadic."""
    g = polynomials._basis(p)
    if g.degree <= 0:
        return []
    chain = g._int_chain
    if bound is None:
        bound = Fraction(2 ** _bound_bits(p))
    out = []
    stack = [(_pair(-bound), _pair(bound), polynomials._variations_at(chain, -bound),
              polynomials._variations_at(chain, bound))]
    while stack:
        lo, hi, vlo, vhi = stack.pop()
        if vlo - vhi == 1:
            out.append(RootInterval(polynomials._fraction(lo), polynomials._fraction(hi)))
        elif vlo - vhi > 1:
            mid, vmid = polynomials._nonroot_between(chain, lo, hi)
            stack += [(lo, mid, vlo, vmid), (mid, hi, vmid, vhi)]
    return sorted(out, key=lambda iv: iv.lo)


def _bound_bits(p):
    return polynomials._root_bound_bits(polynomials._basis(p)._int_chain[0])


# polynomials with coefficients of very different sizes, so that the bound
# is loose or tight by many powers of two
_wide_polys = st.lists(st.one_of(st.integers(-10**30, 10**30), st.integers(-3, 3)),
                       min_size=2, max_size=8).map(RatPoly)


@settings(deadline=None, max_examples=150)
@given(st.one_of(_kernel_polys(), _wide_polys))
def test_isolation_matches_the_reference_that_evaluates_every_midpoint(p):
    if p.degree >= 1:
        assert isolate_real_roots(p) == reference_isolation(p)


@pytest.mark.parametrize("n", range(3, 82, 2))
def test_isolation_matches_the_reference_on_ngon(n):
    p = halved_cyclotomic(n).poly
    assert isolate_real_roots(p) == reference_isolation(p)


def test_isolation_matches_the_reference_on_the_hendecagon_quintic():
    assert isolate_real_roots(QUINTIC) == reference_isolation(QUINTIC)


def test_isolation_evaluates_no_chain_at_or_beyond_the_bound(monkeypatch):
    p = RatPoly(halved_cyclotomic(81).poly.coeffs)
    expected = reference_isolation(p)
    bound = 2 ** _bound_bits(p)
    points = []

    def counted(chain, num, den):
        points.append(Fraction(num, den))
        return chain_values(chain, num, den)

    chain_values = polynomials._chain_values
    monkeypatch.setattr(polynomials, "_chain_values", counted)
    assert isolate_real_roots(p) == expected
    # from Fujiwara's bound 12.49, rounded up to 16, the chain is evaluated
    # at neither end and at 46 midpoints: +-8, +-4, +-2, and 40 inside
    # (-2, 2), where the roots are
    assert bound == 16
    assert len(points) == 46 and sum(-2 < x < 2 for x in points) == 40
    assert all(-bound < x < bound for x in points)


@settings(deadline=None, max_examples=150)
@given(st.one_of(_kernel_polys(), _wide_polys))
def test_power_of_two_bound_holds_every_root(p):
    # the skip is exact only if the chain at +-2^e already counts as at
    # +-infinity, with no root at the bound itself
    if p.degree < 1:
        return
    chain = polynomials._basis(p)._int_chain
    bound = 2 ** _bound_bits(p)
    for x, side in ((-bound, -1), (bound, 1)):
        values = _chain_values(chain, x, 1)
        assert values[0] != 0
        assert polynomials._variations(values) == polynomials._variations_at_inf(chain, side)
    for iv in isolate_real_roots(p):
        assert count_real_roots(p, max(iv.lo, -bound), min(iv.hi, bound)) == 1


@pytest.mark.parametrize("lo, hi, point", [
    # a zero end counts as 1: 2^64 lies 64 binary orders from it, 2^65 65
    (0, 2**64, 2**63),
    (0, 2**65, 2**32),
    (-2**100, 0, -2**50),
    (Fraction(1, 2**80), 2**80, 1),
    # an interval at zero below 1, and one across zero, keep their midpoints
    (0, Fraction(1, 2**100), Fraction(1, 2**101)),
    (-1, 2**100, Fraction(2**100 - 1, 2)),
])
def test_an_interval_is_split_in_the_exponent_only_on_one_side_of_zero(lo, hi, point):
    chain = RatPoly.of(1, 0, 1)._int_chain  # x^2 + 1: no real root
    assert polynomials._nonroot_between(chain, _pair(lo), _pair(hi))[0] == _pair(point)


def test_a_split_point_that_is_a_root_falls_back_to_a_nonroot():
    p = RatPoly.of(-2**50, 1)
    mid, _ = polynomials._nonroot_between(p._int_chain, _pair(0), _pair(2**100))
    mid = polynomials._fraction(mid)
    assert 0 < mid < 2**100 and p(mid) != 0
    assert isolate_real_roots(p) == reference_isolation(p)


# -- dyadic isolation against the Fraction isolation it replaced --------------------

def _fraction_nonroot_between(chain, lo, hi):
    """`_nonroot_between` as it was on Fraction endpoints."""
    mid = (lo + hi) / 2
    if lo >= 0 or hi <= 0:
        sign, near, far = (1, lo, hi) if lo >= 0 else (-1, -hi, -lo)
        low, high = (x.numerator.bit_length() - x.denominator.bit_length() if x else 0
                     for x in (near, far))
        if high - low > polynomials._SPLIT_BITS:
            mid = sign * Fraction(2) ** ((low + high) // 2)
    width, k, cands = hi - lo, 4, (mid,)
    while True:
        for cand in cands:
            values = _chain_values(chain, cand.numerator, cand.denominator)
            if values[0] != 0:
                return cand, polynomials._variations(values)
        cands = [c for c in (mid + width / k, mid - width / k) if lo < c < hi]
        k *= 2


def fraction_isolation(p):
    """`isolate_real_roots` as it was on Fraction endpoints, without its
    kernel-fault guards."""
    g = polynomials._basis(p)
    if g.degree <= 0:
        return []
    chain = g._int_chain
    bound = Fraction(1 << polynomials._root_bound_bits(chain[0]))
    out = []
    stack = [(-bound, bound, polynomials._variations_at_inf(chain, -1),
              polynomials._variations_at_inf(chain, 1))]
    while stack:
        lo, hi, vlo, vhi = stack.pop()
        if vlo - vhi == 1:
            out.append(RootInterval(lo, hi))
        elif vlo - vhi > 1:
            mid, vmid = _fraction_nonroot_between(chain, lo, hi)
            stack += [(lo, mid, vlo, vmid), (mid, hi, vmid, vhi)]
    return sorted(out, key=lambda iv: iv.lo)


@settings(deadline=None, max_examples=200)
@given(st.one_of(_kernel_polys(), _wide_polys))
def test_isolation_matches_the_fraction_isolation(p):
    if p.degree >= 1:
        assert isolate_real_roots(p) == fraction_isolation(p)


def test_isolation_matches_the_fraction_isolation_on_ngon_and_two_fold_eliminants():
    polys = [halved_cyclotomic(n).poly for n in range(3, 82, 2)]
    for p in polys + list(_two_fold_eliminants(2, 300)):
        assert isolate_real_roots(p) == fraction_isolation(p)


# -- refined roots depend on the polynomial and tol alone ---------------------------

def cauchy_bound(p):
    """Cauchy's bound: every real root of p lies strictly inside (-B, B)."""
    return 1 + max(abs(c / p.lc) for c in p.coeffs[:-1]) + 1


def assert_roots_do_not_depend_on_the_start(p, tols):
    """Roots refined from isolation started at +-Cauchy and at +-2^e are
    .hex()-equal; returns whether the two isolations differ at all."""
    intervals = isolate_real_roots(p)
    from_cauchy = reference_isolation(p, cauchy_bound(polynomials._basis(p)))
    assert len(from_cauchy) == len(intervals)
    for tol in tols:
        roots = [refine_root(p, iv, tol).hex() for iv in intervals]
        assert [refine_root(p, iv, tol).hex() for iv in from_cauchy] == roots
    return from_cauchy != intervals


def test_refined_roots_do_not_depend_on_where_isolation_starts():
    # the 820 n-gon roots and the quintic's 5, each at three tols
    polys = [halved_cyclotomic(n).poly for n in range(3, 82, 2)] + [QUINTIC]
    differ = [assert_roots_do_not_depend_on_the_start(p, (1e-9, 1e-12, 1e-15)) for p in polys]
    assert sum(differ) == 38  # the two isolations differ for all but 3 of the 41


@pytest.mark.parametrize("tol", [1.0, 4.0])
def test_a_grid_coarser_than_one_is_anchored_at_zero_too(tol):
    # x^2 - 1000 has roots at +-31.6; at tol 4 the cells are [28, 32] and
    # [-32, -28], at tol 1 [31, 32] and [-32, -31]
    p = RatPoly.of(-1000, 0, 1)
    assert assert_roots_do_not_depend_on_the_start(p, (tol,))
    assert_refines_like_bisection(p, tol)


# -- refinement from a bad guess ---------------------------------------------------

def _probe_budget(interval, tol):
    """2 * log2(b - a) + 2, rounded up, where a <= lo and b >= hi are the
    nearest points of refine_root's grid."""
    step = Fraction(2) ** -grid_bits(tol)
    cells = math.ceil(interval.hi / step) - math.floor(interval.lo / step)
    return 2 * (cells - 1).bit_length() + 2


@pytest.mark.parametrize("guess", [
    lambda lo, hi: lo,
    lambda lo, hi: hi + 1e6 * (hi - lo),
    lambda lo, hi: lo - 1e6 * (hi - lo),
], ids=["left_end", "far_right", "far_left"])
def test_refinement_from_a_bad_guess_matches_bisection_within_its_budget(monkeypatch, guess):
    third = Fraction(1, 3)
    cases = [(QUINTIC, tol) for tol in (1e-9, 1e-12, 1e-15)]
    cases += [(halved_cyclotomic(n).poly, 1e-12) for n in (11, 41, 81)]
    cases += [(RatPoly.of(-third, 1) * RatPoly.of(-third - Fraction(1, 10**12), 1)
               * RatPoly.of(5, 0, 1), 1e-15)]
    expected = [[bisection_refine_root(p, iv, tol).hex() for iv in isolate_real_roots(p)]
                for p, tol in cases]
    probes = []

    def counted(q, x):
        probes.append(x)
        return horner(q, x)

    horner = polynomials._horner
    monkeypatch.setattr(polynomials, "_horner", counted)
    monkeypatch.setattr(polynomials, "_float_root_guess",
                        lambda g, lo, hi, left_sign, resolution: guess(lo, hi))
    for (p, tol), roots in zip(cases, expected):
        for iv, root in zip(isolate_real_roots(p), roots):
            probes.clear()
            assert refine_root(p, iv, tol).hex() == root
            assert len(probes) <= _probe_budget(iv, tol)


def test_a_good_guess_costs_two_probes(monkeypatch):
    probes = []

    def counted(q, x):
        probes.append(x)
        return horner(q, x)

    horner = polynomials._horner
    monkeypatch.setattr(polynomials, "_horner", counted)
    for iv in isolate_real_roots(QUINTIC):
        probes.clear()
        refine_root(QUINTIC, iv)
        assert len(probes) == 2


class _CountedPasses(tuple):
    """Float coefficients that count the Horner passes made over them."""

    def __iter__(self):
        self.passes += 1
        return super().__iter__()


def guess_passes(p, iv, tol):
    """Horner passes the float guess makes for the root of p in iv."""
    g = polynomials._basis(p)
    coeffs = _CountedPasses(g._float_coeffs_desc)
    coeffs.passes = 0
    g.__dict__["_float_coeffs_desc"] = coeffs
    left_sign = 1 if g(iv.lo) > 0 else -1
    polynomials._float_root_guess(g, float(iv.lo), float(iv.hi), left_sign,
                                  math.ldexp(1.0, -grid_bits(tol)))
    return coeffs.passes


def test_a_converged_newton_guess_is_not_bisected_back():
    # Newton converges next to the bracket end it has just moved; a guess
    # that tested the bracket first bisected away and back in 49 passes
    p = RatPoly.of(Fraction(-1, 4), Fraction(19, 4), Fraction(-13, 2), Fraction(-23, 4),
                   Fraction(-1, 4), 1)
    assert guess_passes(p, RootInterval(Fraction(2), Fraction(4)), 1e-13) <= 8


def test_no_two_fold_root_takes_a_long_float_guess():
    # the guess took 32 passes or more on 122 of these 820 roots when it
    # bisected away from a converged Newton iterate
    passes = [guess_passes(p, iv, 1e-13) for p in _two_fold_eliminants(2, 300)
              for iv in isolate_real_roots(p)]
    assert len(passes) == 820 and max(passes) < 32


def test_no_ngon_root_takes_a_long_float_guess():
    # the guess made 8,702 passes over these 820 roots, and 32 for one, when
    # it ran Newton down to the grid and bisected on float signs that are
    # noise near the clustered roots
    passes = [guess_passes(p, iv, 1e-12)
              for p in (RatPoly(halved_cyclotomic(n).poly.coeffs) for n in range(3, 82, 2))
              for iv in isolate_real_roots(p)]
    assert len(passes) == 820 and sum(passes) <= 3500 and max(passes) <= 12


def test_the_polish_evaluates_g_once_per_newton_step(monkeypatch):
    # g at x once, then per step g' at x and g at the new point: g there is
    # the next step's g(x), carried over, not evaluated again
    cases = [(QUINTIC, 1e-12), (QUINTIC, 1e-6)]
    cases += [(halved_cyclotomic(n).poly, 1e-12) for n in (11, 41, 81)]
    cases += [(p, 1e-13) for p in _two_fold_eliminants(1, 30)]
    calls = []
    call = RatPoly.__call__

    def counted(self, x):
        calls.append(self)
        return call(self, x)

    most_steps = 0
    for p, tol in cases:
        g = polynomials._basis(p)
        for iv in isolate_real_roots(p):
            calls.clear()
            with monkeypatch.context() as patch:
                patch.setattr(RatPoly, "__call__", counted)
                refine_root(p, iv, tol)
            steps = sum(q is g.derivative() for q in calls)
            assert steps <= 3 and len(calls) <= 1 + 2 * steps
            assert all(q is g or q is g.derivative() for q in calls)
            most_steps = max(most_steps, steps)
    assert most_steps >= 2


# -- refinement beyond the float range ---------------------------------------------

def test_a_root_beyond_the_float_range_is_a_value_error():
    p = RatPoly.of(-10**400, 1)
    (iv,) = isolate_real_roots(p)
    with pytest.raises(ValueError, match="beyond the float range"):
        refine_root(p, iv)


def test_a_cell_reaching_past_the_float_range_refines_a_root_inside_it():
    # at tol 1e308 the cell of 1.5 * 2^1023 is [1, 2] * 2^1023, whose right
    # end is beyond the float range
    p = RatPoly.of(-3 * 2**1022, 1)
    (iv,) = isolate_real_roots(p)
    assert refine_root(p, iv, 1e308) == float(3 * 2**1022)


def test_coefficients_beyond_the_float_range_need_no_float_guess():
    # the float guess and polish overflow, so the exact search runs alone
    p = RatPoly.of(-10**400, 0, 1)
    assert [refine_root(p, iv) for iv in isolate_real_roots(p)] == [-1e200, 1e200]


# -- pickling ----------------------------------------------------------------------

def test_a_pickle_carries_the_coefficients_and_no_cache():
    p = QUINTIC * RatPoly.of(Fraction(-1, 3), 1)
    count_real_roots(p)
    p(0.5)  # fills the chain and the float coefficients
    copy = pickle.loads(pickle.dumps(p))
    assert copy == p and copy.coeffs == p.coeffs
    assert vars(copy) == {"coeffs": p.coeffs}
    assert count_real_roots(copy) == count_real_roots(p)


# -- the shared exact kernels, against the code each one replaced ---------------

def _padded_add(p, q):
    """`RatPoly.__add__`'s loop before it called `_add`."""
    n = max(len(p), len(q))
    a = list(p) + [Fraction(0)] * (n - len(p))
    b = list(q) + [Fraction(0)] * (n - len(q))
    return [x + y for x, y in zip(a, b)]


def _nested_mul(p, q):
    """`RatPoly.__mul__`'s loop before it called `_mul`."""
    if not p or not q:
        return []
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, ci in enumerate(p):
        for j, cj in enumerate(q):
            out[i + j] += ci * cj
    return out


exact_coeff_lists = st.one_of(
    st.lists(st.integers(-10**12, 10**12), max_size=7),
    st.lists(st.one_of(st.integers(-10**6, 10**6), st.fractions(max_denominator=10**6)),
             max_size=7))


@given(exact_coeff_lists, exact_coeff_lists)
def test_add_and_mul_match_the_ratpoly_loops_they_replaced(p, q):
    assert _add(p, q) == _padded_add(p, q)
    assert RatPoly(_mul(p, q)) == RatPoly(_nested_mul(p, q))
    if p and q:
        assert _mul(p, q) == _nested_mul(p, q)
    if all(isinstance(c, int) for c in p + q):
        # the integer elimination relies on integers staying integers
        assert all(type(c) is int for c in _add(p, q) + _mul(p, q))
    assert RatPoly(p) + RatPoly(q) == RatPoly(_padded_add(p, q))
    assert RatPoly(p) * RatPoly(q) == RatPoly(_nested_mul(p, q))


exact_or_float = st.one_of(st.integers(-10**30, 10**30), st.fractions(),
                           st.floats(allow_nan=False, allow_infinity=False))


@given(st.lists(exact_or_float, min_size=1, max_size=6))
def test_over_common_denominator_is_exact_over_the_lcm(values):
    numerators, d = _over_common_denominator(*values)
    assert d == math.lcm(*(Fraction(v).denominator for v in values))
    assert all(type(n) is int for n in numerators)
    assert [Fraction(n, d) for n in numerators] == [Fraction(v) for v in values]


def _exact(obj) -> tuple:
    """`folds._exact` before it was deleted: a float object's coordinates
    converted to Fractions, an exact object's as stored."""
    values = (obj.x, obj.y) if isinstance(obj, Point) else (obj.a, obj.b, obj.c)
    return values if obj.mode == EXACT else tuple(map(Fraction, values))


coordinates = st.floats(-1e6, 1e6)
float_points = st.builds(Point, coordinates, coordinates)
float_lines = st.tuples(coordinates, coordinates, coordinates).filter(
    lambda t: math.hypot(t[0], t[1]) >= 1e-6).map(lambda t: Line(*t))
exact_points = st.builds(Point, st.fractions(-10**3, 10**3, max_denominator=10**4),
                         st.fractions(-10**3, 10**3, max_denominator=10**4))


@given(st.lists(st.one_of(float_points, exact_points), min_size=1, max_size=4),
       st.lists(float_lines, max_size=2))
def test_integral_of_stored_coordinates_matches_their_fractions(points, lines):
    raw = _integral(tuple((p.x, p.y) for p in points), tuple((l.a, l.b, l.c) for l in lines))
    converted = _integral(tuple(map(_exact, points)), tuple(map(_exact, lines)))
    assert raw == converted
    assert all(type(v) is int for row in raw for v in row)


def _next_term(prev: list, cur: list) -> list:
    """`cyclotomic._next_term` before `_add` took its place."""
    nxt = [0] + cur
    for i, c in enumerate(prev):
        nxt[i] -= c
    return nxt


def _halved_cyclotomic(n: int) -> list:
    """`cyclotomic.halved_cyclotomic`'s running sum before `_add`."""
    prev, cur = [2], [0, 1]
    acc = [1, 1]
    for _ in range((n - 1) // 2 - 1):
        prev, cur = cur, _next_term(prev, cur)
        acc = [a + c for a, c in zip(acc + [0], cur)]
    return acc


def test_cyclotomic_recurrence_matches_the_step_it_replaced():
    prev, cur = [2], [0, 1]
    for k in range(61):
        assert chebyshev_term(k).coeffs == tuple(prev)
        prev, cur = cur, _next_term(prev, cur)
    for n in range(3, 122, 2):
        assert halved_cyclotomic(n).poly.coeffs == tuple(_halved_cyclotomic(n))


# -- reference forms of the conversions ----------------------------------------

# integer coefficient lists with trailing zeros, leading coefficients of
# either sign and of size one, constants and the empty list
int_coeff_lists = st.builds(
    lambda body, lead, zeros: [*body, *lead, *[0] * zeros],
    st.lists(st.integers(-10 ** 30, 10 ** 30), max_size=7),
    st.lists(st.sampled_from((-1, 1, -2, 3, -(10 ** 40) - 7)) | st.integers(), max_size=1),
    st.integers(0, 3))


@given(int_coeff_lists)
def test_monic_from_ints_is_the_monic_of_the_integer_polynomial(ints):
    got, want = _monic_from_ints(ints), RatPoly(ints).monic()
    assert got == want
    assert all(type(c) is Fraction for c in got.coeffs)


@given(int_coeff_lists)
def test_monic_from_ints_fills_the_lcm_integer_form(ints):
    # the integer form it stores is the one `_int_coeffs` would compute
    got = _monic_from_ints(ints)
    assert vars(got)["_int_coeffs"] == tuple(_over_common_denominator(*got.coeffs)[0])
    assert all(type(c) is int for c in got._int_coeffs)


@pytest.mark.parametrize("ints, coeffs", [
    ([], ()), ([0, 0], ()), ([5], (1,)), ([-3, 0], (1,)), ([4, -1, 0], (-4, 1)),
    ([3, 6, -4], (Fraction(-3, 4), Fraction(-3, 2), 1)), ([2, 0, 1], (2, 0, 1)),
])
def test_monic_from_ints_by_example(ints, coeffs):
    assert _monic_from_ints(ints).coeffs == coeffs


@given(st.lists(st.fractions() | st.integers(-10 ** 400, 10 ** 400), max_size=6))
def test_float_coeffs_desc_converts_as_float_does(coeffs):
    p = RatPoly(coeffs)
    try:
        want = tuple(float(c) for c in reversed(p.coeffs))
    except OverflowError as exc:
        with pytest.raises(OverflowError, match=f"^{exc}$"):
            p._float_coeffs_desc
        return
    assert [c.hex() for c in p._float_coeffs_desc] == [c.hex() for c in want]


def test_float_coeffs_desc_overflows_beyond_the_float_range():
    p = RatPoly.of(1, Fraction(10 ** 400, 3))
    with pytest.raises(OverflowError):
        tuple(float(c) for c in reversed(p.coeffs))
    with pytest.raises(OverflowError):
        p._float_coeffs_desc
