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
from hendecafold.cyclotomic import halved_cyclotomic
from hendecafold.folds import TwoFoldConfig, eliminate_to_quintic
from hendecafold.geometry import Line, Point
from hendecafold.polynomials import (
    IdenticallyZeroDenominator,
    RatFunc,
    RatPoly,
    RootInterval,
    X,
    _chain_values,
    _homogeneous,
    _integer_sturm_chain,
    count_real_roots,
    isolate_real_roots,
    poly_gcd,
    ratfunc_substitute,
    refine_root,
    root_bound,
    sturm_chain,
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


def bisection_refine_root(p, interval, tol=1e-12):
    """The exact-bisection refine_root that the cell search replaced.

    Bisects the bracket in Fraction arithmetic until it is no wider than tol,
    then applies the same three-step float Newton polish.
    """
    g = p.square_free_part().monic()
    lo, hi = interval.lo, interval.hi
    flo = g(lo)
    width_goal = Fraction(tol)
    while hi - lo > width_goal:
        mid = (lo + hi) / 2
        fmid = g(mid)
        if fmid == 0:
            return float(mid)
        if (fmid > 0) == (flo > 0):
            lo, flo = mid, fmid
        else:
            hi = mid
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


def test_compose_square_with_shift():
    assert (X * X).compose(X + 1) == RatPoly.of(1, 2, 1)


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


def test_substitute_constant_and_identity():
    const = RatFunc.constant(Fraction(5, 2))
    assert ratfunc_substitute(const, RatFunc.constant(9)) == const
    sq = RatFunc(X * X)
    assert ratfunc_substitute(sq, RatFunc(X)) == sq


def test_substitute_eliminates_to_quintic():
    # s(t) = -t/(t^2-1) - 3/2 pushed through (2s^2 - 13/2)/(2s + 3),
    # then compared against -t^2: clearing denominators yields the quintic.
    s_of_t = RatFunc(RatPoly.of(Fraction(3, 2), -1, Fraction(-3, 2)),
                     RatPoly.of(-1, 0, 1))
    target = RatFunc(RatPoly.of(Fraction(-13, 2), 0, 2), RatPoly.of(3, 2))
    image = ratfunc_substitute(target, s_of_t)
    difference = image - RatFunc(-(X * X))
    assert difference.num.monic() == QUINTIC
    assert difference.den == RatPoly.of(0, -1, 0, 1)  # t*(t^2 - 1), monic


def test_substitute_zero_denominator():
    f = RatFunc(RatPoly.of(1), RatPoly.of(-1, 0, 1))  # 1/(x^2-1)
    with pytest.raises(IdenticallyZeroDenominator):
        ratfunc_substitute(f, RatFunc.constant(1))


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


def test_sturm_chain_shape():
    chain = sturm_chain(QUINTIC)
    assert chain[0] == QUINTIC.monic()
    assert chain[1] == QUINTIC.derivative().monic()
    degrees = [q.degree for q in chain]
    assert degrees == sorted(degrees, reverse=True)


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
    # lowest terms; den**d * p(num/den) keeps the sign for any den > 0
    ints = p._int_coeffs
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
    # with (lo, hi) = (0, 1) the last bisection level is 40 at tol 1e-12;
    # an odd numerator over 2**40 is a grid point of that level only
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
    # width/tol just above 2**k: bisection needs 2**(k+1) cells, not 2**k
    iv = RootInterval(Fraction(1), Fraction(2))
    tol = float(1 / ratio)
    assert 2 ** (math.ceil(1 / Fraction(tol)) - 1).bit_length() > 1 / Fraction(tol) + 1
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


def test_refine_root_matches_exact_bisection_on_two_fold_eliminants():
    # at the tol solve_two_fold refines with, on low-height quintics
    degrees = set()
    for px, py, mx in itertools.islice(_benchmark_two_fold_stream(1), 300):
        config = TwoFoldConfig(P=Point(px, py), Q=Point(0, 1), ell=Line(1, 0, 0),
                               m=Line(1, 0, -mx), n=Line(0, 1, 1))
        eliminant = eliminate_to_quintic(config)
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
        return [q._int_coeffs for q in fraction_sturm_chain(g)]

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
        assert sturm_chain(q) == reference
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
    assert sturm_chain(RatPoly()) == fraction_sturm_chain(RatPoly()) == []
    assert sturm_chain(RatPoly.of(-3)) == fraction_sturm_chain(RatPoly.of(-3))


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
    assert calls == [p] and len(ivs) == 40
    monkeypatch.undo()
    assert ivs == isolate_real_roots(halved_cyclotomic(81).poly)


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
# tol 1e-12; recorded before the root bound and the secant search changed
NGON_ROOT_DIGEST = "060d162dbf921a52a79135670d23c7a1f0ed01696a80e218bf9fbc3b68528347"


def test_ngon_roots_match_the_recorded_digest():
    rows = [[(iv.lo, iv.hi, refine_root(p, iv, 1e-12).hex()) for iv in isolate_real_roots(p)]
            for p in (halved_cyclotomic(n).poly for n in range(3, 82, 2))]
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == NGON_ROOT_DIGEST


# -- isolation skips the chain beyond the power-of-two root bound ----------------

def reference_isolation(p):
    """Isolation that evaluates the chain at both starting endpoints and at
    every midpoint, with no root bound but Cauchy's."""
    g = polynomials._basis(p)
    if g.degree <= 0:
        return []
    chain, bound = g._int_chain, root_bound(g)
    out = []
    stack = [(-bound, bound, polynomials._variations_at(chain, -bound),
              polynomials._variations_at(chain, bound))]
    while stack:
        lo, hi, vlo, vhi = stack.pop()
        if vlo - vhi == 1:
            out.append(RootInterval(lo, hi))
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
    # from the Cauchy bound 3.46e7 the chain was evaluated 90 times: at both
    # ends and at 88 midpoints, 40 inside (-2, 2) where the roots are, and 3
    # more on each side inside Fujiwara's bound 12.49, rounded up to 16
    assert bound == 16 and root_bound(p) > 10**7
    assert len(points) == 46
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


# -- refinement from a bad guess ---------------------------------------------------

def _probe_budget(interval, tol):
    """2 * log2(cells) + 2, where cells is refine_root's power-of-two grid."""
    cells = 1 << (math.ceil((interval.hi - interval.lo) / Fraction(tol)) - 1).bit_length()
    return 2 * (cells.bit_length() - 1) + 2


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


# -- refinement beyond the float range ---------------------------------------------

def test_a_root_beyond_the_float_range_is_a_value_error():
    p = RatPoly.of(-10**400, 1)
    (iv,) = isolate_real_roots(p)
    with pytest.raises(ValueError, match="beyond the float range"):
        refine_root(p, iv)


def test_coefficients_beyond_the_float_range_need_no_float_guess():
    # the float guess and polish overflow, so the exact search runs alone
    p = RatPoly.of(-10**400, 0, 1)
    assert [refine_root(p, iv) for iv in isolate_real_roots(p)] == [-1e200, 1e200]


# -- pickling, as the verify scan pool sends polynomials ---------------------------

def test_a_pickle_carries_the_coefficients_and_no_cache():
    p = QUINTIC * RatPoly.of(Fraction(-1, 3), 1)
    count_real_roots(p)
    p(0.5)  # fills the chain and the float coefficients
    copy = pickle.loads(pickle.dumps(p))
    assert copy == p and copy.coeffs == p.coeffs
    assert vars(copy) == {"coeffs": p.coeffs}
    assert count_real_roots(copy) == count_real_roots(p)
