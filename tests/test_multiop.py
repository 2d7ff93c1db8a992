"""Tests for multilinear operators: evaluation, norms, composition, decoupling."""

import hashlib
import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from seqclass import multiop
from seqclass._optim import ball_max
from seqclass.spaces import INF, Space, Vector, lq_norm, norming_functional, vector_norm
from seqclass.seqnorm import SeqClassSpec, VecSeq
from seqclass.idealnorm import IdealSpec, ideal_ratio
from seqclass.sampling import DEFAULT_EXPONENTS, random_operator
from seqclass.multiop import (
    MultiOp,
    _contract_all_but,
    compose,
    decoupling_check,
    diag_operator,
    evaluate,
    evaluate_batch,
    finite_type,
    holder_coefficient_bound,
    op_norm,
    scalar_multiplication,
)

Q_VALUES = [1, Fraction(3, 2), 2, 3, INF]


def random_op(rng, dims, d_out, qs=None, q_out=2) -> MultiOp:
    qs = qs or [2] * len(dims)
    domain = tuple(Space(d, q) for d, q in zip(dims, qs))
    coeffs = rng.standard_normal(tuple(dims) + (d_out,))
    return MultiOp(domain, Space(d_out, q_out), coeffs)


def test_eval_diag_basis():
    D = diag_operator(2, 3, 2)
    e1 = D.domain[0].basis_vector(0)
    out = evaluate(D, [e1, e1])
    np.testing.assert_allclose(out.coords, [1, 0, 0], atol=0)


def test_eval_zero_argument():
    rng = np.random.default_rng(1)
    A = random_op(rng, [3, 2], 2)
    z = Vector(A.domain[1], [0, 0])
    x = Vector(A.domain[0], rng.standard_normal(3))
    assert vector_norm(evaluate(A, [x, z])) == 0.0


def test_eval_scalar_multiplication():
    I2 = scalar_multiplication(2)
    out = evaluate(I2, [Vector(I2.domain[0], [2]), Vector(I2.domain[1], [3])])
    assert out.coords[0] == pytest.approx(6.0, abs=0)


def test_eval_coordinatewise_product():
    D = diag_operator(2, 2, 2)
    out = evaluate(D, [Vector(D.domain[0], [1, 1]), Vector(D.domain[1], [1, -1])])
    np.testing.assert_allclose(out.coords, [1, -1], atol=0)


def test_eval_is_multilinear():
    rng = np.random.default_rng(2)
    for _ in range(30):
        A = random_op(rng, [3, 2, 2], 3)
        m = int(rng.integers(3))
        args = [Vector(s, rng.standard_normal(s.dim)) for s in A.domain]
        x = Vector(A.domain[m], rng.standard_normal(A.domain[m].dim))
        y = Vector(A.domain[m], rng.standard_normal(A.domain[m].dim))
        a, b = float(rng.standard_normal()), float(rng.standard_normal())
        lin = [v for v in args]
        lin[m] = Vector(A.domain[m], a * x.coords + b * y.coords)
        left = evaluate(A, lin).coords
        args_x, args_y = list(args), list(args)
        args_x[m], args_y[m] = x, y
        right = a * evaluate(A, args_x).coords + b * evaluate(A, args_y).coords
        np.testing.assert_allclose(left, right, atol=1e-12 * max(1, np.abs(right).max()))


def test_eval_shape_mismatch():
    rng = np.random.default_rng(3)
    A = random_op(rng, [3, 2], 2)
    with pytest.raises(ValueError):
        evaluate(A, [Vector(Space(2, 2), [1, 0]), Vector(Space(2, 2), [1, 0])])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_multiop_rejects_non_finite(bad):
    coeffs = np.ones((2, 3, 2))
    coeffs[1, 2, 0] = bad
    with pytest.raises(ValueError, match="non-finite"):
        MultiOp((Space(2, 2), Space(3, 1)), Space(2, INF), coeffs)


def test_evaluate_batch_matches_pointwise():
    rng = np.random.default_rng(4)
    A = random_op(rng, [3, 2], 4)
    mats = [rng.standard_normal((7, 3)), rng.standard_normal((7, 2))]
    batch = evaluate_batch(A, mats)
    for i in range(7):
        one = evaluate(A, [Vector(A.domain[0], mats[0][i]), Vector(A.domain[1], mats[1][i])])
        np.testing.assert_allclose(batch[i], one.coords, rtol=1e-12)
    # arities 1-3, empty to large batches, unit slot and output dimensions
    shapes = [
        ([3], 4), ([1], 1), ([4], 1),
        ([3, 2], 4), ([1, 3], 1), ([3, 1], 2),
        ([2, 3, 2], 3), ([3, 1, 2], 1), ([1, 1, 1], 1), ([4, 4, 4], 2),
    ]
    for dims, d_out in shapes:
        A = random_op(rng, dims, d_out)
        for B in (0, 1, 7, 1 << 14):
            mats = [rng.standard_normal((B, d)) for d in dims]
            batch = evaluate_batch(A, mats)
            assert batch.shape == (B, d_out)
            ref = np.array(
                [evaluate(A, [Vector(s, x[i]) for s, x in zip(A.domain, mats)]).coords
                 for i in range(B)]
            ).reshape(B, d_out)
            # atol covers entries that cancel to near zero
            scale = np.abs(ref).max(initial=1.0)
            np.testing.assert_allclose(batch, ref, rtol=1e-12, atol=1e-12 * scale)


def test_evaluate_batch_does_not_plan_contractions(monkeypatch):
    def no_planning(*args, **kwargs):
        raise AssertionError("evaluate_batch must not plan a contraction path")

    einsum_module = sys.modules[np.einsum.__wrapped__.__module__]
    monkeypatch.setattr(np, "einsum_path", no_planning)
    monkeypatch.setattr(einsum_module, "einsum_path", no_planning)
    rng = np.random.default_rng(6)
    for dims in ([3], [3, 2], [2, 3, 2], [4, 4, 4, 4]):
        A = random_op(rng, dims, 3)
        mats = [rng.standard_normal((5, d)) for d in dims]
        batch = evaluate_batch(A, mats)
        one = evaluate(A, [Vector(s, x[2]) for s, x in zip(A.domain, mats)])
        np.testing.assert_allclose(batch[2], one.coords, rtol=1e-12)


def test_evaluate_batch_arity_mismatch():
    rng = np.random.default_rng(7)
    A = random_op(rng, [3, 2], 2)
    with pytest.raises(ValueError):
        evaluate_batch(A, [rng.standard_normal((4, 3))])


def test_finite_type_matrix_unit():
    phi = Vector(Space(3, 2).dual, [1, 0, 0])
    b = Vector(Space(2, 2), [0, 1])
    A = finite_type([phi], b)
    expected = np.zeros((3, 2))
    expected[0, 1] = 1.0
    np.testing.assert_array_equal(A.coeffs, expected)


def test_finite_type_defining_identity():
    rng = np.random.default_rng(5)
    for _ in range(20):
        s1, s2 = Space(3, Fraction(3, 2)), Space(2, INF)
        phi1 = Vector(s1.dual, rng.standard_normal(3))
        phi2 = Vector(s2.dual, rng.standard_normal(2))
        b = Vector(Space(2, 1), rng.standard_normal(2))
        A = finite_type([phi1, phi2], b)
        x = Vector(s1, rng.standard_normal(3))
        y = Vector(s2, rng.standard_normal(2))
        lhs = evaluate(A, [x, y]).coords
        rhs = float(phi1.coords @ x.coords) * float(phi2.coords @ y.coords) * b.coords
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-14)


def test_finite_type_zero_functional():
    phi = Vector(Space(2, 2).dual, [0, 0])
    b = Vector(Space(2, 2), [1, 1])
    A = finite_type([phi, phi], b)
    assert not A.coeffs.any()


def test_compose_identity():
    rng = np.random.default_rng(6)
    A = random_op(rng, [3, 2], 2)
    ident = lambda s: MultiOp((s,), s, np.eye(s.dim))
    C = compose(ident(A.codomain), A, [ident(s) for s in A.domain])
    np.testing.assert_allclose(C.coeffs, A.coeffs, atol=1e-15)


def test_compose_zero_outer():
    rng = np.random.default_rng(7)
    A = random_op(rng, [2, 2], 3)
    v = MultiOp((A.codomain,), Space(2, 2), np.zeros((3, 2)))
    ident = lambda s: MultiOp((s,), s, np.eye(s.dim))
    C = compose(v, A, [ident(s) for s in A.domain])
    assert not C.coeffs.any()


def test_compose_matches_direct_evaluation():
    rng = np.random.default_rng(8)
    A = random_op(rng, [3, 2], 2, qs=[2, INF], q_out=1)
    us = [
        MultiOp((Space(2, 2),), A.domain[0], rng.standard_normal((2, 3))),
        MultiOp((Space(4, 1),), A.domain[1], rng.standard_normal((4, 2))),
    ]
    v = MultiOp((A.codomain,), Space(3, INF), rng.standard_normal((2, 3)))
    C = compose(v, A, us)
    for _ in range(100):
        xs = [Vector(u.domain[0], rng.standard_normal(u.domain[0].dim)) for u in us]
        direct = evaluate(v, [evaluate(A, [evaluate(u, [x]) for u, x in zip(us, xs)])])
        via = evaluate(C, xs)
        np.testing.assert_allclose(
            via.coords, direct.coords, rtol=1e-12, atol=1e-12 * max(1, np.abs(direct.coords).max())
        )


def test_diag_operator_norm_is_one():
    D = diag_operator(2, 4, 2)
    est = op_norm(D, seed=0)
    assert est.bracket.lower == pytest.approx(1.0, abs=1e-9)
    assert est.bracket.upper >= 1.0 - 1e-12


def test_op_norm_rank_one():
    rng = np.random.default_rng(9)
    for _ in range(20):
        qs = [Q_VALUES[rng.integers(len(Q_VALUES))] for _ in range(2)]
        s1, s2 = Space(3, qs[0]), Space(2, qs[1])
        out = Space(3, Q_VALUES[rng.integers(len(Q_VALUES))])
        phi1 = Vector(s1.dual, rng.standard_normal(3))
        phi2 = Vector(s2.dual, rng.standard_normal(2))
        b = Vector(out, rng.standard_normal(3))
        A = finite_type([phi1, phi2], b)
        expected = vector_norm(phi1) * vector_norm(phi2) * vector_norm(b)
        est = op_norm(A, seed=1)
        assert est.bracket.lower <= expected * (1 + 1e-6)
        assert est.bracket.upper >= expected * (1 - 1e-6)
        assert est.bracket.lower == pytest.approx(expected, rel=1e-6)


def test_op_norm_zero():
    A = MultiOp((Space(2, 2), Space(2, 2)), Space(2, 2), np.zeros((2, 2, 2)))
    est = op_norm(A, seed=0)
    assert est.bracket.exact
    assert est.bracket.lower == est.bracket.upper == 0.0


def test_op_norm_witness_reproduces_lower():
    rng = np.random.default_rng(10)
    for _ in range(10):
        A = random_op(
            rng, [3, 2], 3,
            qs=[Q_VALUES[rng.integers(len(Q_VALUES))] for _ in range(2)],
            q_out=Q_VALUES[rng.integers(len(Q_VALUES))],
        )
        # extra starts off the unit sphere, as the stability re-verification passes them
        starts = [[3.0 * rng.standard_normal(s.dim) for s in A.domain] for _ in range(2)]
        for est in (op_norm(A, seed=3), op_norm(A, seed=3, starts=starts)):
            val = vector_norm(evaluate(A, est.witness))
            assert val == pytest.approx(est.bracket.lower, abs=1e-9)
            for w, s in zip(est.witness, A.domain):
                assert vector_norm(w) <= 1 + 1e-9


def test_op_norm_linear_matches_svd():
    rng = np.random.default_rng(11)
    for _ in range(10):
        M = rng.standard_normal((4, 3))
        A = MultiOp((Space(3, 2),), Space(4, 2), M.T.copy())
        est = op_norm(A, seed=5)
        sv = np.linalg.svd(M, compute_uv=False)[0]
        assert est.bracket.lower == pytest.approx(sv, rel=1e-9)


def test_op_norm_bilinear_scalar_output_matches_svd():
    rng = np.random.default_rng(12)
    for _ in range(10):
        M = rng.standard_normal((4, 3))
        A = MultiOp((Space(4, 2), Space(3, 2)), Space(1, 2), M[..., None])
        est = op_norm(A, seed=6)
        sv = np.linalg.svd(M, compute_uv=False)[0]
        assert est.bracket.lower == pytest.approx(sv, rel=1e-9)


def test_holder_bound_dominates():
    rng = np.random.default_rng(13)
    for _ in range(20):
        A = random_op(
            rng, [3, 2], 2,
            qs=[Q_VALUES[rng.integers(len(Q_VALUES))] for _ in range(2)],
            q_out=Q_VALUES[rng.integers(len(Q_VALUES))],
        )
        est = op_norm(A, seed=7)
        assert holder_coefficient_bound(A) >= est.bracket.lower * (1 - 1e-12)


def test_op_norm_submultiplicative_under_composition():
    rng = np.random.default_rng(14)
    for _ in range(15):
        A = random_op(rng, [3, 2], 2)
        us = [
            MultiOp((Space(2, 2),), A.domain[0], rng.standard_normal((2, 3))),
            MultiOp((Space(3, 2),), A.domain[1], rng.standard_normal((3, 2))),
        ]
        v = MultiOp((A.codomain,), Space(2, 2), rng.standard_normal((2, 2)))
        C = compose(v, A, us)
        lhs = op_norm(C, seed=8).bracket.lower
        rhs = (
            op_norm(v, seed=8).bracket.upper
            * op_norm(A, seed=8).bracket.upper
            * math.prod(op_norm(u, seed=8).bracket.upper for u in us)
        )
        assert lhs <= rhs * (1 + 1e-6)


def test_decoupling_bilinear_random():
    rng = np.random.default_rng(15)
    for _ in range(50):
        k = int(rng.integers(1, 9))
        A = random_op(rng, [3, 2], 2, qs=[2, INF], q_out=1)
        seqs = [
            VecSeq(A.domain[0], rng.standard_normal((k, 3))),
            VecSeq(A.domain[1], rng.standard_normal((k, 2))),
        ]
        assert decoupling_check(A, seqs) <= 1e-10


def test_decoupling_trilinear():
    rng = np.random.default_rng(16)
    A = random_op(rng, [2, 2, 2], 2)
    seqs = [VecSeq(s, rng.standard_normal((4, 2))) for s in A.domain]
    assert decoupling_check(A, seqs) <= 1e-10


def test_decoupling_linear_is_exact():
    rng = np.random.default_rng(17)
    A = random_op(rng, [3], 2)
    seqs = [VecSeq(A.domain[0], rng.standard_normal((5, 3)))]
    assert decoupling_check(A, seqs) <= 1e-14


def test_decoupling_residual_scales_without_overflow():
    rng = np.random.default_rng(19)
    A = random_op(rng, [3, 2], 2)
    seqs = [VecSeq(s, rng.standard_normal((6, s.dim))) for s in A.domain]
    for c in (2.0**600, 2.0**-600):
        scaled = [VecSeq(seqs[0].space, c * seqs[0].mat), seqs[1]]
        assert decoupling_check(A, scaled) <= 1e-10 * c


def test_op_norm_homogeneous_at_extreme_scales():
    # the dual updates of the generic slots stop on a relative gain, so a
    # tiny operator is searched exactly like its unit-scale copy
    rng = np.random.default_rng(23)
    for t in range(40):
        qs = [Q_VALUES[i] for i in rng.integers(len(Q_VALUES), size=2)]
        dims = [int(d) for d in rng.integers(1, 5, size=2)]
        q_out = Q_VALUES[rng.integers(len(Q_VALUES))]
        A = random_op(rng, dims, int(rng.integers(1, 5)), qs=qs, q_out=q_out)
        ref = op_norm(A, seed=t).bracket
        for c in (2.0**600, 2.0**-600):
            got = op_norm(MultiOp(A.domain, A.codomain, c * A.coeffs), seed=t).bracket
            assert abs(got.lower - c * ref.lower) <= 1e-12 * c * ref.lower, (t, c)
            # exactness is a relative verdict: the same flag and upper end at every scale
            assert got.exact == ref.exact, (t, c)
            assert abs(got.upper - c * ref.upper) <= 1e-12 * c * ref.upper, (t, c)


def value_ref(A, xs):
    """A(x_1, ..., x_n) by a tensordot chain, slot 0 first."""
    t = A.coeffs
    for x in xs:
        t = np.tensordot(x, t, axes=(0, 0))
    return t


def contract_ref(coeffs, xs, m):
    """The d_out x d_m matrix of slot m with the other slots fixed, by a tensordot chain."""
    t = coeffs
    for l in range(len(xs) - 1, -1, -1):
        if l != m:
            t = np.tensordot(xs[l], t, axes=(0, l))
    return t.T


def op_norm_per_start(A, seed=0, restarts=16, starts=()):
    """Lower end of op_norm as a loop over its initial tuples, one start at a time.

    The reference for the block walk: the same tuples in the same order, the
    same sweeps, slot solves and freezing rule, with one-matrix `ball_max`
    calls and tensordot contractions.
    """
    rng = np.random.default_rng(seed)
    q_out = A.codomain.q
    inits = [list(map(np.asarray, s)) for s in starts]
    peak = np.unravel_index(int(np.argmax(np.abs(A.coeffs))), A.coeffs.shape)
    inits.append([np.eye(s.dim)[i] for s, i in zip(A.domain, peak)])
    for _ in range(restarts):
        cand = []
        for s in A.domain:
            v = rng.standard_normal(s.dim)
            nv = lq_norm(v, s.q)
            cand.append(v / nv if nv > 0 else v)
        inits.append(cand)
    best_val, best_args = -1.0, inits[0]
    for xs in inits:
        xs = [x.copy() for x in xs]
        f = lq_norm(value_ref(A, xs), q_out)
        for _ in range(60):
            for m in range(A.arity):
                M = contract_ref(A.coeffs, xs, m)
                if M.any():
                    xs[m] = ball_max(M, A.domain[m].q, q_out, lambda: xs[m][None], 20)[1]
            fn = lq_norm(value_ref(A, xs), q_out)
            if fn <= f * (1.0 + 1e-12):
                f = max(f, fn)
                break
            f = fn
        if f > best_val:
            best_val, best_args = f, xs
    return lq_norm(value_ref(A, best_args), q_out)


@pytest.mark.parametrize(
    "menu",
    [Q_VALUES + [Fraction(4, 3)], [1, 2, INF], [1, INF], [Fraction(3, 2), 3]],
    ids=["default", "1-2-inf", "1-inf", "3/2-3"],
)
def test_op_norm_block_walk_matches_per_start_loop(menu):
    # arities 1 to 3, d <= 4; every third operator also gets extra starts
    def unit(x, q):
        return x / lq_norm(x, q)

    rng = np.random.default_rng(53)
    for t in range(30):
        n = int(rng.integers(1, 4))
        dims = [int(d) for d in rng.integers(1, 5, size=n)]
        qs = [menu[i] for i in rng.integers(len(menu), size=n + 1)]
        A = random_op(rng, dims, int(rng.integers(1, 5)), qs=qs[:-1], q_out=qs[-1])
        kw = {"seed": t}
        if t % 3 == 0:
            starts = [[unit(rng.standard_normal(s.dim), s.q) for s in A.domain] for _ in range(3)]
            kw.update(restarts=4, starts=starts)
        want = op_norm_per_start(A, **kw)
        got = op_norm(A, **kw).bracket.lower
        assert abs(got - want) <= 1e-12 * want, (t, got, want)


# linear maps with an exact slot (l_1, small l_inf, l_2 -> l_2) and the
# (lower, upper, exact, witness) that `op_norm` gives them, as float.hex
EXACT_SLOT_MAPS = [((3, 1), (2, 3)), ((4, INF), (3, Fraction(3, 2))), ((3, 2), (3, 2)),
                   ((2, INF), (4, 1)), ((4, 1), (2, INF)), ((4, 2), (2, 2))]
EXACT_SLOT_BRACKETS = [
    ('0x1.2b7d68f8c260ap+1', '0x1.2b7d68f8c260ap+1', True, ['0x1.0000000000000p+0', '0x0.0p+0', '0x0.0p+0']),
    ('0x1.cf350135af2ebp+2', '0x1.cf350135af2ebp+2', True, ['0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0']),
    ('0x1.47c5cceb5c56ep+0', '0x1.47c5cceb5c56ep+0', True, ['0x1.2cbd7fa5ec6d6p-1', '-0x1.0607cf7df31f7p-3', '0x1.9927c236495e2p-1']),
    ('0x1.8d82f69f06a69p+2', '0x1.8d82f69f06a69p+2', True, ['0x1.0000000000000p+0', '0x1.0000000000000p+0']),
    ('0x1.35d0d25f084cap+0', '0x1.35d0d25f084cap+0', True, ['0x1.0000000000000p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0']),
    ('0x1.49b8a9bc82191p+1', '0x1.49b8a9bc82191p+1', True, ['0x1.78f38d39af0c3p-4', '-0x1.7e626c5583173p-1', '0x1.aa12706b3816dp-3', '0x1.3fefef68b9d70p-1']),
]
# linear maps whose slot `ball_max` searches by power iteration
SEARCHED_SLOT_MAPS = [((3, 2), (3, 3)), ((4, 3), (4, Fraction(4, 3))), ((21, INF), (2, 2))]


def test_op_norm_exact_linear_slot_is_one_ball_max_call(monkeypatch):
    # every linear map, exact slot or searched, is one call on its (1, m, d) stack
    calls = []
    monkeypatch.setattr(multiop, "ball_max", lambda *a, **kw: calls.append(a[0].shape) or ball_max(*a, **kw))
    for i, ((d, q), (m, r)) in enumerate(EXACT_SLOT_MAPS + SEARCHED_SLOT_MAPS):
        A = MultiOp((Space(d, q),), Space(m, r), np.random.default_rng([1601, i]).standard_normal((d, m)))
        calls.clear()
        est = op_norm(A, seed=i)
        assert calls == [(1, m, d)]
        b = est.bracket
        if i >= len(EXACT_SLOT_MAPS):
            assert (b.method, b.exact) == ("alternating-maximization", False), i
            assert b.lower == lq_norm(evaluate(A, est.witness).coords, r) < b.upper, i
            continue
        got = (b.lower.hex(), b.upper.hex(), b.exact, [x.hex() for x in est.witness[0].coords])
        assert got == EXACT_SLOT_BRACKETS[i], i


@pytest.mark.parametrize("q, r", [(1, 3), (INF, 2), (2, 2), (3, Fraction(3, 2))],
                         ids=["l1-vertices", "linf-vertices", "svd", "power"])
def test_op_norm_zero_linear_map_is_exact_zero(q, r):
    for d in (1, 3):
        A = MultiOp((Space(d, q),), Space(2, r), np.zeros((d, 2)))
        for kw in ({}, {"restarts": 0}, {"starts": [[np.zeros(d)]]}):
            est = op_norm(A, seed=d, **kw)
            b = est.bracket
            assert (b.lower, b.upper, b.exact) == (0.0, 0.0, True), (d, kw)
            x = est.witness[0].coords
            assert x.shape == (d,) and lq_norm(x, q) <= 1.0, (d, kw)


# SHA-256 of the bracket ends, exact flags, methods and witness bytes of
# `op_norm` on 240 random linear, 120 bilinear and 60 trilinear maps: the
# bits of the walk that the summing-norm climb rests on
OP_NORM_WALK_SHA256 = {
    1: "4413bcbfb0019a557a3a1019df332410592c0dc1785e73c313d06b7d7e7a75ff",
    2: "44203b3168f65548ba32fc17e6d86b1987722aab182b4f786d67fcafb8064b8c",
    3: "00b6269da2538a95d9e5906c6bdca27172b1844d7ff9a1fb953b593d91f5adc0",
}


@pytest.mark.parametrize("arity, count", [(1, 240), (2, 120), (3, 60)])
def test_op_norm_walk_bits_are_pinned(arity, count):
    rng = np.random.default_rng([19, arity])
    h = hashlib.sha256()
    for i in range(count):
        A = random_operator(rng, arity, (1, 2, 3, 4), DEFAULT_EXPONENTS)
        est = op_norm(A, seed=i)
        b = est.bracket
        # a bracket never edits its lower end: it is the witness's value, bit for bit
        assert b.lower == lq_norm(evaluate(A, est.witness).coords, A.codomain.q), i
        h.update(f"{b.lower.hex()} {b.upper.hex()} {b.exact} {b.method};".encode())
        h.update(b"".join(x.coords.tobytes() for x in est.witness))
    assert h.hexdigest() == OP_NORM_WALK_SHA256[arity]


@pytest.mark.parametrize("scale", [0, 600, -600])
def test_op_norm_tight_cap_stays_over_its_witness_at_every_scale(scale):
    # a product of l_3 functionals meets its Hoelder cap; taken from unscaled
    # power sums, the cap fell hundreds of ulps short at 2^600, so its slices
    # are scaled before it is rounded outward, and it stays over the witness
    rng = np.random.default_rng(9)
    for i in range(12):
        phis = [Vector(Space(3, 3).dual, np.ldexp(rng.standard_normal(3), scale // 3)) for _ in range(3)]
        A = finite_type(phis, Vector(Space(2, (2, 3, Fraction(3, 2))[i % 3]), rng.standard_normal(2)))
        est = op_norm(A, seed=i)
        assert est.bracket.lower == lq_norm(evaluate(A, est.witness).coords, A.codomain.q), i
        assert est.bracket.exact, i


def test_op_norm_contractions_match_tensordot():
    # evaluate keeps the tensordot arithmetic bit for bit; the stacked slot
    # contraction sums the same products in another order, so each row meets
    # the reference within the forward error bound of both computations:
    # 2 (terms + arity) eps times the sum of the absolute products
    rng = np.random.default_rng(29)
    eps = np.finfo(float).eps
    for t in range(300):
        dims = [int(d) for d in rng.integers(1, 5, size=1 + t % 3)]
        A = random_op(rng, dims, int(rng.integers(1, 5)))
        X = [rng.standard_normal((5, d)) for d in dims]
        for s in range(5):
            xs = [x[s] for x in X]
            want = value_ref(A, xs)
            assert np.array_equal(evaluate(A, [Vector(sp, x) for sp, x in zip(A.domain, xs)]).coords, want)
        for m in range(A.arity):
            got = _contract_all_but(A, X, m)
            assert got.shape == (5, A.codomain.dim, dims[m])
            terms = math.prod(dims) // dims[m]
            for s in range(5):
                xs = [x[s] for x in X]
                bound = contract_ref(np.abs(A.coeffs), [np.abs(x) for x in xs], m)
                err = np.abs(got[s] - contract_ref(A.coeffs, xs, m))
                assert (err <= 2 * (terms + A.arity) * eps * bound).all(), (t, m, s)


def test_decoupling_budget_guard():
    rng = np.random.default_rng(18)
    A = random_op(rng, [2, 2, 2], 2)
    seqs = [VecSeq(s, rng.standard_normal((11, 2))) for s in A.domain]
    with pytest.raises(ValueError):
        decoupling_check(A, seqs)


_TUPLE_MISMATCHES = {
    "count": ([(2, 2)], "expected 2 sequences, got 1"),
    "length": ([(2, 2), (3, 3)], "sequences must share a common length"),
    "dimension": ([(2, 2), (2, 2)], "sequence space does not match operator domain"),
}


@pytest.mark.parametrize("check", ["ideal_ratio", "decoupling_check"])
@pytest.mark.parametrize("mismatch", sorted(_TUPLE_MISMATCHES))
def test_sequence_tuple_mismatch_messages(check, mismatch):
    # operator l_2^2 x l_3^3 -> l_2^2; each tuple is (k, dim) per given sequence
    A = MultiOp((Space(2, 2), Space(3, 3)), Space(2, 2), np.ones((2, 3, 2)))
    shapes, message = _TUPLE_MISMATCHES[mismatch]
    seqs = [VecSeq(Space(d, 2), np.ones((k, d))) for k, d in shapes]
    fn = {
        "ideal_ratio": lambda: ideal_ratio(A, IdealSpec.uniform(SeqClassSpec.weak(1), 2), seqs),
        "decoupling_check": lambda: decoupling_check(A, seqs),
    }[check]
    with pytest.raises(ValueError, match=message):
        fn()


def test_diag_operator_validation():
    with pytest.raises(ValueError):
        diag_operator(1, 3, 2)
    with pytest.raises(ValueError):
        diag_operator(2, 0, 2)
