"""Unit tests for the l_q space substrate."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqclass.spaces import (
    INF,
    Space,
    Vector,
    as_exponent,
    conjugate_exponent,
    dual_direction,
    dual_witness,
    lq_norm,
    norming_functional,
    pairing,
    vector_norm,
)

Q_VALUES = [1, Fraction(4, 3), Fraction(3, 2), 2, 3, 4, INF]


def test_vector_norm_examples():
    assert vector_norm(Vector(Space(3, 2), [3, 4, 0])) == pytest.approx(5.0, abs=1e-12)
    assert vector_norm(Vector(Space(2, INF), [-2, 1])) == pytest.approx(2.0, abs=1e-12)
    assert vector_norm(Vector(Space(4, 1), [1, 1, 1, 1])) == pytest.approx(4.0, abs=1e-12)


def test_lq_norm_q2_no_overflow_or_underflow():
    for c in (1e200, 1e-200, 2.0**600, 2.0**-600):
        got = lq_norm(np.array([c, c]), 2)
        assert abs(got - math.sqrt(2) * c) <= 1e-15 * math.sqrt(2) * c
    # inside the safe range the fast path is the plain root of the squares
    v = np.random.default_rng(7).standard_normal(9)
    assert lq_norm(v, 2) == float(np.sqrt((v * v).sum()))
    assert lq_norm(np.array([0.0, -0.0]), 2) == 0.0
    assert lq_norm(np.array([1.0, INF]), 2) == INF


def _slice_loop(A, q, axis):
    """Reference: lq_norm of each slice along `axis`, one Python call per slice."""
    B = np.moveaxis(A, axis, -1)
    out = np.zeros(B.shape[:-1])
    for idx in np.ndindex(out.shape):
        out[idx] = lq_norm(B[idx], q)
    return out


@pytest.mark.parametrize("q", [1, Fraction(4, 3), Fraction(3, 2), 2, 3, INF])
def test_lq_norm_axis_matches_slice_loop(q):
    rng = np.random.default_rng(17)
    arrays = [np.zeros(0), np.zeros((3, 0)), np.zeros((0, 4)), np.zeros((2, 3))]
    for shape in [(5,), (4, 3), (1, 6), (3, 2, 4)]:
        A = rng.standard_normal(shape)
        arrays.append(A)
        # rows at 1e+-200 beside rows near 1, and an all-zero slice
        mixed = A.copy().reshape(shape[0], -1)
        mixed[0] *= 1e200
        if shape[0] > 2:
            mixed[1] *= 1e-200
            mixed[2] = 0.0
        arrays.append(mixed.reshape(shape))
    for A in arrays:
        whole = _slice_loop(A.reshape(1, -1), q, 1)[0]
        assert lq_norm(A, q) == pytest.approx(whole, rel=1e-15, abs=0)
        for axis in range(-A.ndim, A.ndim):
            got = lq_norm(A, q, axis=axis)
            want = _slice_loop(A, q, axis)
            assert got.shape == want.shape
            assert np.all(np.abs(got - want) <= 1e-15 * want), (A.shape, axis)


@pytest.mark.parametrize("p", [1, Fraction(4, 3), 2, 3, INF])
def test_dual_direction_attains_holder(p):
    # <w, r> = ||w||_{p*} ||r||_p: w is a positive multiple of the gradient of ||.||_p at r
    rng = np.random.default_rng(19)
    pstar = conjugate_exponent(p)
    for _ in range(50):
        r = rng.standard_normal(int(rng.integers(1, 6)))
        w = dual_direction(r, p)
        assert w @ r == pytest.approx(lq_norm(w, pstar) * lq_norm(r, p), rel=1e-12)
    assert not dual_direction(np.zeros(3), p).any()


@pytest.mark.parametrize("q", Q_VALUES)
def test_dual_kernels_on_a_stack_match_the_rows(q):
    # zero rows, tied peaks (first peak, lowest index) and signed ties included
    rng = np.random.default_rng(23)
    R = rng.standard_normal((12, 4))
    R[3] = 0.0
    R[5] = [2.0, -2.0, 1.0, 2.0]
    R[7] = [-1.0, 0.5, -1.0, 0.0]
    R[9, 1:] = 0.0
    for f in (dual_direction, dual_witness):
        got = f(R, q)
        assert got.shape == R.shape
        for r, g in zip(R, got):
            want = f(r, q)
            assert np.array_equal(g, want) and np.array_equal(np.signbit(g), np.signbit(want)), f
        assert not got[3].any()
        assert np.array_equal(f(R.reshape(3, 4, 4), q), got.reshape(3, 4, 4))
    assert np.array_equal(dual_direction(R[5], INF), [1.0, 0.0, 0.0, 0.0])
    assert np.array_equal(dual_witness(R[7], 1), [-1.0, 0.0, 0.0, 0.0])


def test_conjugate_exponent_examples():
    assert conjugate_exponent(2) == 2
    assert conjugate_exponent(1) == INF
    assert conjugate_exponent(4) == Fraction(4, 3)


def test_conjugate_is_exact_involution():
    for q in Q_VALUES + [Fraction(7, 5), as_exponent(1.37)]:
        assert conjugate_exponent(conjugate_exponent(q)) == as_exponent(q)


def test_conjugate_exponent_is_memoised_and_still_validates():
    for q in Q_VALUES + [Fraction(7, 5), 1.5, "4/3", "inf"]:
        first = conjugate_exponent(q)
        assert conjugate_exponent(q) is first  # the second call is a cache hit
        assert conjugate_exponent(first) == as_exponent(q)
    for bad in (0.5, Fraction(1, 2), "abc", -1):
        for _ in range(2):  # a failure is not cached
            with pytest.raises(ValueError):
                conjugate_exponent(bad)


@pytest.mark.parametrize("q", [1, Fraction(4, 3), Fraction(3, 2), 2, 3, Fraction(7, 2), INF])
def test_lq_norm_whole_array_equals_one_slice(q):
    # the whole-array root goes through the same power loop as the slice roots
    rng = np.random.default_rng(19)
    for n in (1, 2, 3, 4, 6, 9):
        A = rng.standard_normal((3000, n)) * np.exp2(rng.integers(-20, 21, size=(3000, 1)))
        rows = lq_norm(A, q, axis=1)
        for a, r in zip(A, rows):
            assert lq_norm(a, q) == r
            assert lq_norm(a[None], q, axis=1)[0] == r


def test_dual_dual_is_identity():
    for q in Q_VALUES:
        s = Space(3, q)
        assert s.dual.dual == s


def test_exponent_validation():
    with pytest.raises(ValueError):
        as_exponent(0.5)
    with pytest.raises(ValueError):
        Space(0, 2)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_vector_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="non-finite"):
        Vector(Space(3, 2), [1.0, bad, 0.0])


def test_pairing_examples():
    s = Space(2, 2)
    assert pairing(Vector(s.dual, [1, 0]), Vector(s, [3, 4])) == pytest.approx(3.0)
    assert pairing(Vector(s.dual, [0, 0]), Vector(s, [3, 4])) == 0.0
    l1 = Space(2, 1)
    assert pairing(Vector(l1.dual, [1, 1]), Vector(l1, [2, -1])) == pytest.approx(1.0)


def test_pairing_rejects_dimension_mismatch():
    with pytest.raises(ValueError):
        pairing(Vector(Space(3, 2), [1, 0, 0]), Vector(Space(2, 2), [1, 0]))


def test_norming_functional_examples():
    phi = norming_functional(Vector(Space(2, 2), [3, 4]))
    np.testing.assert_allclose(phi.coords, [0.6, 0.8], atol=1e-15)

    phi = norming_functional(Vector(Space(2, 1), [2, -1]))
    np.testing.assert_allclose(phi.coords, [1, -1], atol=0)
    assert phi.space.q == INF

    phi = norming_functional(Vector(Space(2, INF), [5, -5]))
    np.testing.assert_allclose(phi.coords, [1, 0], atol=0)


def test_norming_functional_rejects_zero():
    with pytest.raises(ValueError):
        norming_functional(Vector(Space(2, 2), [0, 0]))


def test_norming_functional_random():
    rng = np.random.default_rng(7)
    for _ in range(300):
        q = Q_VALUES[rng.integers(len(Q_VALUES))]
        d = int(rng.integers(1, 7))
        x = Vector(Space(d, q), rng.standard_normal(d))
        if not x.coords.any():
            continue
        phi = norming_functional(x)
        assert vector_norm(phi) == pytest.approx(1.0, abs=1e-12)
        assert pairing(phi, x) == pytest.approx(vector_norm(x), abs=1e-12, rel=1e-12)


def test_holder_inequality_bulk():
    rng = np.random.default_rng(11)
    for q in Q_VALUES:
        s = Space(4, q)
        phis = rng.standard_normal((2500, 4))
        xs = rng.standard_normal((2500, 4))
        for prow, xrow in zip(phis, xs):
            phi, x = Vector(s.dual, prow), Vector(s, xrow)
            slack = vector_norm(phi) * vector_norm(x) - abs(pairing(phi, x))
            assert slack >= -1e-12


@settings(max_examples=200, deadline=None)
@given(
    q=st.sampled_from(Q_VALUES),
    a=st.lists(st.floats(-10, 10), min_size=1, max_size=6),
    c=st.floats(-10, 10),
)
def test_norm_axioms(q, a, c):
    d = len(a)
    s = Space(d, q)
    x = Vector(s, a)
    assert vector_norm(Vector(s, c * np.array(a))) == pytest.approx(
        abs(c) * vector_norm(x), abs=1e-12, rel=1e-12
    )


@settings(max_examples=200, deadline=None)
@given(
    q=st.sampled_from(Q_VALUES),
    pair=st.integers(1, 6).flatmap(
        lambda d: st.tuples(
            st.lists(st.floats(-10, 10), min_size=d, max_size=d),
            st.lists(st.floats(-10, 10), min_size=d, max_size=d),
        )
    ),
)
def test_triangle_inequality(q, pair):
    a, b = pair
    s = Space(len(a), q)
    lhs = vector_norm(Vector(s, np.add(a, b)))
    rhs = vector_norm(Vector(s, a)) + vector_norm(Vector(s, b))
    assert lhs <= rhs + 1e-12 * max(1.0, rhs)
