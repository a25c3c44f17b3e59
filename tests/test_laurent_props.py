"""Property tests: Laurent arithmetic returns clean polynomials that match a
plain dict-of-coefficients reference."""

from collections import defaultdict

from hypothesis import given, settings, strategies as st

from kfan.laurent import LaurentPoly, divides, exact_divide

COEFFS = st.integers(-5, 5) | st.integers(-2 ** 70, 2 ** 70)


@st.composite
def term_dicts(draw, count):
    """A rank and `count` raw term dicts; zero coefficients may occur."""
    rank = draw(st.integers(1, 3))
    exps = st.tuples(*[st.integers(-3, 3)] * rank)
    return (rank,) + tuple(draw(st.dictionaries(exps, COEFFS, max_size=6))
                           for _ in range(count))


def reference(*weighted):
    """Sum of c * term dict over (c, dict) pairs, zeros dropped."""
    out = defaultdict(int)
    for c, terms in weighted:
        for e, x in terms.items():
            out[e] += c * x
    return {e: x for e, x in out.items() if x}


def reference_mul(a, b):
    out = defaultdict(int)
    for e1, x1 in a.items():
        for e2, x2 in b.items():
            out[tuple(p + q for p, q in zip(e1, e2))] += x1 * x2
    return {e: x for e, x in out.items() if x}


def assert_clean(r, rank, expected, *inputs):
    assert r.rank == rank
    assert r == LaurentPoly(rank, dict(r.terms))
    for e, x in r.terms.items():
        assert type(e) is tuple and len(e) == rank
        assert all(type(v) is int for v in e)
        assert type(x) is int and x != 0
    assert r.terms == expected
    for p in inputs:
        assert r.terms is not p.terms


@settings(max_examples=200, derandomize=True, database=None)
@given(term_dicts(2), st.integers(-3, 3))
def test_arithmetic_is_clean_and_matches_reference(data, n):
    rank, a, b = data
    f, g = LaurentPoly(rank, a), LaurentPoly(rank, b)
    const = {(0,) * rank: 1}
    assert_clean(f + g, rank, reference((1, a), (1, b)), f, g)
    assert_clean(f - g, rank, reference((1, a), (-1, b)), f, g)
    assert_clean(-f, rank, reference((-1, a)), f)
    assert_clean(f * g, rank, reference_mul(a, b), f, g)
    assert_clean(n * f, rank, reference((n, a)), f)
    assert_clean(f * n, rank, reference((n, a)), f)
    assert_clean(f + n, rank, reference((1, a), (n, const)), f)
    assert_clean(n - f, rank, reference((n, const), (-1, a)), f)


@settings(max_examples=100, derandomize=True, database=None)
@given(term_dicts(2))
def test_quotients_are_clean(data):
    rank, a, b = data
    f, g = LaurentPoly(rank, a), LaurentPoly(rank, b)
    if not g.is_zero():
        q = exact_divide(f * g, g)
        assert_clean(q, rank, f.terms)
    chi = (1,) + (0,) * (rank - 1)
    ok, q = divides((1 - LaurentPoly.monomial(chi)) * f, chi)
    assert ok
    assert_clean(q, rank, f.terms)
