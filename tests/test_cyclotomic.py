import math

import pytest
from hypothesis import given, strategies as st

from hendecafold.cyclotomic import (
    MAX_CLASSIFY_N,
    MAX_POLY_N,
    InvalidN,
    classify_constructible,
    halved_cyclotomic,
)
from hendecafold.polynomials import RatPoly

QUINTIC = RatPoly.of(1, 3, -3, -4, 1, 1)


def chebyshev_term(k: int) -> RatPoly:
    """Polynomial expressing z**k + z**(-k) in t = z + 1/z, by the recurrence
    p0 = 2, p1 = t, p_{k+1} = t*p_k - p_{k-1} on integer coefficient lists."""
    prev, cur = [2], [0, 1]
    for _ in range(k):
        nxt = [0, *cur]
        for i, c in enumerate(prev):
            nxt[i] -= c
        prev, cur = cur, nxt
    return RatPoly(prev)


def vertex_cosines(n: int) -> list:
    """[2*cos(2*pi*k/n) for k = 1..n//2], descending: a trig oracle."""
    return [2.0 * math.cos(2.0 * math.pi * k / n) for k in range(1, n // 2 + 1)]


def test_chebyshev_term_base_cases():
    assert chebyshev_term(0) == RatPoly.of(2)
    assert chebyshev_term(1) == RatPoly.of(0, 1)


def test_chebyshev_term_k2():
    # (z + 1/z)^2 - 2 = z^2 + 1/z^2
    assert chebyshev_term(2) == RatPoly.of(-2, 0, 1)


def test_chebyshev_term_k5():
    # recurrence by hand: t^5 - 5 t^3 + 5 t
    assert chebyshev_term(5) == RatPoly.of(0, 5, 0, -5, 0, 1)


@given(st.integers(min_value=0, max_value=12),
       st.floats(min_value=0.05, max_value=3.09))
def test_chebyshev_term_is_cosine_multiplier(k, theta):
    # p_k(2 cos theta) == 2 cos(k theta)
    t = 2.0 * math.cos(theta)
    assert chebyshev_term(k)(t) == pytest.approx(2.0 * math.cos(k * theta), abs=1e-9)


def test_halved_cyclotomic_11_is_the_quintic():
    assert halved_cyclotomic(11).poly == QUINTIC


def test_halved_cyclotomic_3():
    assert halved_cyclotomic(3).poly == RatPoly.of(1, 1)


def test_halved_cyclotomic_7():
    # 1 + p1 + p2 + p3 summed by hand
    assert halved_cyclotomic(7).poly == RatPoly.of(-1, -2, 1, 1)


def _reference_terms(count):
    """p_0 .. p_{count-1} by the recurrence in RatPoly arithmetic, independent
    of the integer step of `chebyshev_term` and `halved_cyclotomic`."""
    t = RatPoly.of(0, 1)
    terms = [RatPoly.of(2), t]
    while len(terms) < count:
        terms.append(t * terms[-1] - terms[-2])
    return terms[:count]


@pytest.mark.parametrize("n", range(3, 82, 2))
def test_halved_cyclotomic_equals_sum_of_chebyshev_terms(n):
    terms = _reference_terms((n - 1) // 2 + 1)
    acc = RatPoly.of(1)
    for k in range(1, len(terms)):
        assert chebyshev_term(k) == terms[k]
        acc = acc + terms[k]
    assert halved_cyclotomic(n).poly == acc.monic()


def test_halved_cyclotomic_rejects_even_and_small():
    for bad in (2, 4, 1, 0, -5):
        with pytest.raises(InvalidN):
            halved_cyclotomic(bad)


def test_halved_cyclotomic_takes_n_up_to_the_cap_and_names_it_beyond():
    assert halved_cyclotomic(MAX_POLY_N).poly.degree == (MAX_POLY_N - 1) // 2
    for n in (MAX_POLY_N + 2, 10 ** 9 + 7):
        with pytest.raises(InvalidN, match=r"^need n <= 4001, got \d+$"):
            halved_cyclotomic(n)


def test_vertex_cosines_square():
    vals = vertex_cosines(4)
    assert len(vals) == 2
    assert abs(vals[0]) < 1e-15
    assert vals[1] == -2.0


def test_vertex_cosines_11():
    vals = vertex_cosines(11)
    assert len(vals) == 5
    assert abs(vals[0] - 1.6825071) < 1e-6
    assert vals == sorted(vals, reverse=True)
    poly = halved_cyclotomic(11).poly
    for v in vals:
        assert abs(poly(v)) < 1e-9


@pytest.mark.parametrize("n", [3, 5, 7, 9, 11, 13])
def test_vertex_cosines_are_roots_for_odd_n(n):
    poly = halved_cyclotomic(n).poly
    assert poly.degree == (n - 1) // 2
    for v in vertex_cosines(n):
        assert abs(poly(v)) < 1e-9


def test_classify_11_not_constructible():
    rep = classify_constructible(11)
    assert not rep.single_fold_constructible
    assert rep.obstructions


def test_classify_7_and_9_constructible():
    rep7 = classify_constructible(7)
    assert rep7.single_fold_constructible
    assert [(w.prime, w.two_exp, w.three_exp) for w in rep7.pierpont_primes] == [(7, 1, 1)]
    rep9 = classify_constructible(9)
    assert rep9.single_fold_constructible and rep9.r == 0 and rep9.s == 2


def test_classify_table_3_to_31():
    not_constructible = {n for n in range(3, 32)
                         if not classify_constructible(n).single_fold_constructible}
    assert not_constructible == {11, 22, 23, 25, 29, 31}


def test_classify_takes_n_up_to_the_cap_and_names_it_beyond():
    assert classify_constructible(MAX_CLASSIFY_N).r == 44
    for n in (MAX_CLASSIFY_N + 1, 1000000000000000003):
        with pytest.raises(InvalidN, match=r"^need n <= 2\^44 = 17592186044416, got \d+$"):
            classify_constructible(n)


def test_classify_12():
    rep = classify_constructible(12)
    assert rep.single_fold_constructible and rep.r == 2 and rep.s == 1
    assert rep.pierpont_primes == ()


def test_witness_reconstructs_n():
    for n in range(3, 200):
        rep = classify_constructible(n)
        if rep.single_fold_constructible:
            prod = 2**rep.r * 3**rep.s
            for w in rep.pierpont_primes:
                assert w.prime == 2**w.two_exp * 3**w.three_exp + 1
                assert w.prime > 3
                prod *= w.prime
            assert prod == n


def _oracle_constructible_set(limit):
    """Generate constructible n by products, independent of factorization."""
    pierponts = []
    for p in range(5, limit + 1):
        if all(p % d for d in range(2, int(math.isqrt(p)) + 1)):
            q = p - 1
            while q % 2 == 0:
                q //= 2
            while q % 3 == 0:
                q //= 3
            if q == 1:
                pierponts.append(p)
    out = set()

    def extend(value, idx):
        if value > limit:
            return
        v = value
        while v <= limit:
            w = v
            while w <= limit:
                out.add(w)
                w *= 3
            v *= 2
        for j in range(idx, len(pierponts)):
            extend(value * pierponts[j], j + 1)

    extend(1, 0)
    return {n for n in out if n >= 3}


def test_classifier_matches_generation_oracle_to_100():
    oracle = _oracle_constructible_set(100)
    mine = {n for n in range(3, 101)
            if classify_constructible(n).single_fold_constructible}
    assert mine == oracle


@given(st.integers(min_value=3, max_value=300))
def test_monotone_under_2_and_3(n):
    if classify_constructible(n).single_fold_constructible:
        assert classify_constructible(2 * n).single_fold_constructible
        assert classify_constructible(3 * n).single_fold_constructible
