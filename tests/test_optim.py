"""Tests for the meet-in-the-middle sign enumerator, its exact consumers, the dual-update kernel and the ball maximum."""

import math
from fractions import Fraction

import numpy as np
import pytest

from seqclass import _optim, multiop
from seqclass._optim import ball_max, power_iterate, sign_patterns, sign_table, unit_scaled
from seqclass.multiop import MultiOp, decoupling_check
from seqclass.seqnorm import VecSeq, norm_rad, norm_weak_p
from seqclass.spaces import INF, Space, lq_norm


def bit_patterns(k, fix_first, block):
    """Reference: expand the bits of each pattern index, low bits fastest."""
    nfree = k - 1 if fix_first and k else k
    total = 1 << nfree
    for start in range(0, total, block):
        idx = np.arange(start, min(start + block, total))
        pm = ((idx[:, None] >> np.arange(nfree)) & 1) * 2.0 - 1.0
        if fix_first and k:
            pm = np.hstack([np.ones((len(idx), 1)), pm])
        yield pm


@pytest.mark.parametrize("block", [1 << 14, 1 << 15])
@pytest.mark.parametrize("fix_first", [False, True])
def test_identity_yields_the_sign_patterns(fix_first, block):
    for k in range(18):
        want = list(bit_patterns(k, fix_first, block))
        got = list(sign_patterns(np.eye(k), fix_first, block))
        assert len(got) == len(want), k
        for g, w in zip(got, want):
            assert g.shape == w.shape, k
            assert np.array_equal(g, w), k


def test_sums_match_pattern_products():
    rng = np.random.default_rng(51)
    for k in range(21):
        for d in (1, 2, 6):
            X = rng.standard_normal((k, d))
            fix_first = bool(k % 2)
            blocks = list(sign_patterns(X, fix_first))
            refs = [pm @ X for pm in bit_patterns(k, fix_first, _optim.DEFAULT_BLOCK)]
            assert len(blocks) == len(refs)
            scale = max(np.abs(r).max() for r in refs)
            for got, ref in zip(blocks, refs):
                assert got.shape == ref.shape
                assert np.abs(got - ref).max() <= 1e-14 * scale, (k, d)


def test_sign_patterns_on_a_stack_match_each_matrix():
    rng = np.random.default_rng(53)
    for k, d, block in ((0, 3, 1 << 15), (1, 2, 1 << 15), (3, 4, 1 << 15), (7, 2, 4), (9, 3, 1 << 3)):
        M = rng.standard_normal((5, k, d))
        for fix_first in (False, True):
            stacked = list(sign_patterns(M, fix_first, block))
            for i in range(5):
                alone = list(sign_patterns(M[i], fix_first, block))
                assert len(stacked) == len(alone)
                for s, a in zip(stacked, alone):
                    assert s.shape == (5,) + a.shape
                    assert np.array_equal(s[i], a)


def test_sign_table_is_the_one_block_of_sign_patterns():
    rng = np.random.default_rng(55)
    for shape in ((0, 3), (1, 3), (2, 1), (5, 3), (4, 0, 2), (4, 1, 2), (3, 6, 2)):
        M = rng.standard_normal(shape)
        for fix_first in (False, True):
            (block,) = sign_patterns(M, fix_first)
            table = sign_table(M, fix_first)
            assert np.array_equal(np.swapaxes(table, -1, -2), block), (shape, fix_first)
            assert not np.shares_memory(table, M)


def test_unit_scaled_on_a_stack_matches_each_matrix():
    rng = np.random.default_rng(54)
    S = rng.standard_normal((6, 3, 2)) * np.exp2(rng.integers(-700, 700, size=(6, 1, 1)))
    S[4] = 0.0
    Y, e = unit_scaled(S)
    for i in range(6):
        y, ei = unit_scaled(S[i])
        assert isinstance(ei, int) and e[i] == ei
        assert np.array_equal(Y[i], y)
        assert not S[i].any() or 0.5 <= np.abs(y).max() < 1.0


def test_no_pattern_matrix_at_k20():
    X = np.random.default_rng(52).standard_normal((20, 3))
    block = _optim.DEFAULT_BLOCK
    for fix_first, count in ((False, (1 << 20) // block), (True, (1 << 19) // block)):
        shapes = [b.shape for b in sign_patterns(X, fix_first)]
        assert shapes == [(block, 3)] * count


def test_empty_sum():
    blocks = list(sign_patterns(np.zeros((0, 4)), fix_first=True))
    assert len(blocks) == 1 and np.array_equal(blocks[0], np.zeros((1, 4)))


@pytest.mark.parametrize("q", [Fraction(3, 2), 2, INF])
def test_enumerations_past_one_block_match_a_pattern_matrix_reference(q):
    # k = 13..20 spans the low/high split of DEFAULT_BLOCK = 2^13 (one block up
    # to k = 14 with the first sign fixed, then 2, 4, ... 64 blocks); the
    # reference sums every pattern as pm @ X and takes numpy's own vector norm
    rng = np.random.default_rng(56)
    for k in range(13, 21):
        for d in (2, 6):
            X = rng.standard_normal((k, d))
            total, best = 0.0, 0.0
            for pm in bit_patterns(k, True, 1 << 16):
                vals = np.linalg.norm(pm @ X, ord=float(q), axis=1)
                total += (vals * vals).sum()
                best = max(best, vals.max())
            s = VecSeq(Space(d, q), X)
            assert norm_rad(s) == pytest.approx(math.sqrt(total / (1 << (k - 1))), rel=1e-14, abs=0), (k, d)
            b = norm_weak_p(s, 1)
            assert b.lower == b.upper == pytest.approx(best, rel=1e-14, abs=0), (k, d)


@pytest.mark.parametrize("n, k", [(2, 16), (3, 8)])
def test_decoupling_past_one_block(n, k):
    # k (n - 1) = 16 free signs: 2^16 sign tuples, eight blocks of DEFAULT_BLOCK = 2^13 rows
    rng = np.random.default_rng(57)
    A = MultiOp(tuple(Space(3, q) for q in (2, Fraction(3, 2), INF)[:n]), Space(2, 3),
                rng.standard_normal((3,) * n + (2,)))
    seqs = [VecSeq(sp, rng.standard_normal((k, sp.dim))) for sp in A.domain]
    assert decoupling_check(A, seqs) <= 1e-10


def decoupling_reference(A, seqs):
    """Brute force: each (n-1)-tuple of sign vectors a row of a +-1 pattern matrix, the last slot their product."""
    n, k = A.arity, len(seqs[0])
    letters = "abcdefgh"[:n]
    contract = ",".join(f"z{c}" for c in letters) + f",{letters}o->o"
    direct = np.einsum(contract, *[s.mat for s in seqs], A.coeffs)
    total = np.zeros(A.codomain.dim)
    for pm in bit_patterns(k * (n - 1), False, 1 << 14):
        groups = [pm[:, l * k:(l + 1) * k] for l in range(n - 1)]
        mats = [g @ s.mat for g, s in zip(groups, seqs)]
        prod = np.ones((len(pm), k))
        for g in groups:
            prod = prod * g
        mats.append(prod @ seqs[-1].mat)
        total += np.einsum(contract, *mats, A.coeffs)
    return lq_norm(direct - total / (1 << (k * (n - 1))), A.codomain.q)


@pytest.mark.parametrize("n, k", [(1, 1), (1, 30), (2, 1), (2, 13), (2, 14), (2, 20), (3, 1), (3, 7), (3, 10),
                                  (4, 2), (4, 5), (4, 6)])
def test_decoupling_matches_a_sign_pattern_reference_on_integers(monkeypatch, n, k):
    # integer coefficients and entries make every signed sum, product and sum exact,
    # so both residuals are exactly 0 and any tuple visited twice, missed or paired
    # with the wrong product sign would show; k (n - 1) runs up to SIGN_CUTOFF
    rng = np.random.default_rng([59, n, k])
    A = MultiOp(tuple(Space(d, q) for d, q in zip((2, 1, 3, 2)[:n], (2, Fraction(3, 2), INF, 1))),
                Space(2, 3), rng.integers(-3, 4, size=(2, 1, 3, 2)[:n] + (2,)))
    seqs = [VecSeq(sp, rng.integers(-3, 4, size=(k, sp.dim))) for sp in A.domain]
    rows = []
    original = multiop.evaluate_batch
    monkeypatch.setattr(multiop, "evaluate_batch", lambda A, mats: rows.append(len(mats[0])) or original(A, mats))
    assert decoupling_check(A, seqs) == decoupling_reference(A, seqs) == 0.0
    # the direct sum's k rows, then every sign tuple once (at n = 2 each one with eps_0 = +1,
    # since A(-a, -b) = A(a, b)), in blocks of at most DEFAULT_BLOCK rows
    assert rows[0] == k and sum(rows[1:]) == 1 << (k - 1 if n == 2 else k * (n - 1))
    assert max(rows[1:]) <= _optim.DEFAULT_BLOCK


def test_sign_blocks_never_exceed_their_block():
    rng = np.random.default_rng(58)
    for block in (1, 4, 1 << 12, _optim.DEFAULT_BLOCK):
        for k in (0, 1, 5, 12, 13, 14, 17):
            for fix_first in (False, True):
                nfree = k - 1 if fix_first and k else k
                rows = [b.shape[0] for b in sign_patterns(rng.standard_normal((k, 2)), fix_first, block)]
                assert max(rows) <= block and sum(rows) == 1 << nfree, (block, k, fix_first)


def unit_rows(rng, n, d, ball_q):
    """n random points of the l_{ball_q} unit sphere in dimension d, as rows."""
    V = rng.standard_normal((n, d))
    return V / lq_norm(V, ball_q, axis=1)[:, None]


@pytest.mark.parametrize("p", [1, Fraction(3, 2), 2, 3, INF])
@pytest.mark.parametrize("ball_q", [1, Fraction(4, 3), 2, 4, INF])
def test_power_iterate_is_monotone_and_stays_in_the_ball(ball_q, p):
    rng = np.random.default_rng(29)
    for trial in range(30):
        k, d = (int(n) for n in rng.integers(1, 6, size=2))
        M = rng.standard_normal((k, d))
        X0 = unit_rows(rng, 1 if trial % 2 else 7, d, ball_q)
        X, f = power_iterate(M, ball_q, p, X0, 20)
        assert X.shape == X0.shape and f.shape == (len(X0),)
        # references through the block path: BLAS may sum a block product in another
        # order than M @ x, and the whole-array lq_norm takes its root with another pow
        f0, fx = lq_norm(X0 @ M.T, p, axis=1), lq_norm(X @ M.T, p, axis=1)
        for i in range(len(X0)):
            assert f[i] >= f0[i]
            assert lq_norm(X[i], ball_q) <= 1.0 + 1e-12
            assert f[i] == fx[i]


def solo_steps(M, ball_q, p, x0, iters):
    """Steps a one-row run from x0 accepts, taken one call at a time."""
    x = x0[None]
    for t in range(iters):
        nxt, _ = power_iterate(M, ball_q, p, x, 1)
        if np.array_equal(nxt, x):
            return t
        x = nxt
    return iters


@pytest.mark.parametrize("p", [1, Fraction(3, 2), 2, 3, INF])
@pytest.mark.parametrize("ball_q", [1, Fraction(4, 3), 2, 4, INF])
def test_power_iterate_rows_match_solo_runs(ball_q, p):
    # a block advances each row as if it ran alone, up to the order BLAS sums
    # a product in; rows stop at different steps, and a zero M stops every row
    rng = np.random.default_rng(41)
    mixed = False
    for trial in range(20):
        k, d = (int(n) for n in rng.integers(1, 6, size=2))
        M = np.zeros((k, d)) if trial == 0 else rng.standard_normal((k, d))
        X0 = unit_rows(rng, 7, d, ball_q)
        X, f = power_iterate(M, ball_q, p, X0, 30)
        for i in range(len(X0)):
            x, fi = power_iterate(M, ball_q, p, X0[i:i + 1], 30)
            assert abs(f[i] - fi[0]) <= 1e-13 * fi[0], (trial, i)
        if trial == 0:
            assert np.array_equal(X, X0) and not f.any()
        mixed = mixed or len({solo_steps(M, ball_q, p, x0, 30) for x0 in X0}) > 1
    # on the l_1 ball at p = 1 every start reaches its vertex in one step
    assert mixed or ball_q == p == 1


def ball_cases(rng):
    """Random matrices from 1 x 1 up, a zero matrix first and, last, d = 17 (two sign blocks)."""
    yield np.zeros((3, 2))
    for _ in range(30):
        k, d = (int(n) for n in rng.integers(1, 6, size=2))
        yield rng.standard_normal((k, d))
    yield rng.standard_normal((2, 17))


def no_starts():
    raise AssertionError("an exact branch asked for starts")


def assert_attained(M, ball_q, p, val, x):
    assert lq_norm(x, ball_q) <= 1.0 + 1e-12
    assert abs(lq_norm(M @ x, p) - val) <= 1e-12 * max(val, 1e-300)


@pytest.mark.parametrize("p", [1, Fraction(3, 2), 2, 3, INF])
def test_ball_max_exact_branches_match_brute_force(p):
    rng = np.random.default_rng(31)
    for M in ball_cases(rng):
        d = M.shape[1]
        signs = ((np.arange(1 << d)[:, None] >> np.arange(d)) & 1) * 2.0 - 1.0
        refs = [(1, "l1-ball-vertices", max(lq_norm(M @ e, p) for e in np.eye(d))),
                (INF, "linf-ball-vertices", float(lq_norm(signs @ M.T, p, axis=1).max()))]
        if p == 2:
            refs.append((2, "svd-spectral", float(np.sqrt(np.linalg.eigvalsh(M.T @ M).max()))))
        for ball_q, method, want in refs:
            val, x, got = ball_max(M, ball_q, p, no_starts)
            assert got == method
            assert abs(val - want) <= 1e-12 * max(want, 1e-300), (ball_q, M.shape)
            assert_attained(M, ball_q, p, val, x)


@pytest.mark.parametrize("p", [1, Fraction(3, 2), 2, 3, INF])
@pytest.mark.parametrize("ball_q", [Fraction(4, 3), 2, 4, INF])
def test_ball_max_power_branch_is_attained_and_below_exact(ball_q, p, monkeypatch):
    rng = np.random.default_rng(37)
    for M in ball_cases(rng):
        d = M.shape[1]
        starts = unit_rows(rng, 4, d, ball_q)
        with monkeypatch.context() as mp:
            mp.setattr(_optim, "SIGN_CUTOFF", 0)
            val, x, method = ball_max(M, ball_q, p, lambda: starts)
            empty = ball_max(M, ball_q, p, lambda: np.empty((0, d)))
        if ball_q == 2 and p == 2:
            assert method == "svd-spectral"
            continue
        assert method == "power-iteration"
        assert_attained(M, ball_q, p, val, x)
        assert val >= lq_norm(starts @ M.T, p, axis=1).max()
        if ball_q == INF:
            assert val <= ball_max(M, INF, p, no_starts)[0] * (1.0 + 1e-12)
        assert empty[:1] == (0.0,)


@pytest.mark.parametrize("p", [1, Fraction(3, 2), 2, 3, INF])
@pytest.mark.parametrize("ball_q", [1, Fraction(4, 3), 2, 4, INF])
def test_power_iterate_on_a_stack_matches_solo_runs(ball_q, p):
    # block i of an (S, m, d) stack searches M[i] as if it ran alone, up to the
    # order BLAS sums a product in; a zero item stops its row at once
    rng = np.random.default_rng(43)
    for trial in range(10):
        S = int(rng.integers(1, 7))
        k, d = (int(n) for n in rng.integers(1, 6, size=2))
        Ms = rng.standard_normal((S, k, d))
        Ms[0] *= trial % 2
        X0 = unit_rows(rng, S, d, ball_q)[:, None]
        X, f = power_iterate(Ms, ball_q, p, X0, 30)
        assert X.shape == (S, 1, d) and f.shape == (S, 1)
        for i in range(S):
            x, fi = power_iterate(Ms[i], ball_q, p, X0[i], 30)
            assert abs(f[i, 0] - fi[0]) <= 1e-13 * fi[0], (trial, i)
        if trial % 2 == 0:
            assert np.array_equal(X[0], X0[0]) and f[0, 0] == 0.0


@pytest.mark.parametrize("p", [1, Fraction(3, 2), 2, 3, INF])
@pytest.mark.parametrize("ball_q", [1, Fraction(4, 3), 2, 4, INF])
def test_ball_max_on_a_stack_matches_each_matrix(ball_q, p, monkeypatch):
    # bit for bit on the exact branches, within 1e-13 on the power branch;
    # the power branch is also forced onto the l_inf ball
    rng = np.random.default_rng(47)
    for cutoff in (_optim.SIGN_CUTOFF, 0) if ball_q == INF else (_optim.SIGN_CUTOFF,):
        monkeypatch.setattr(_optim, "SIGN_CUTOFF", cutoff)
        for trial in range(12):
            S = int(rng.integers(1, 7))
            k, d = (int(n) for n in rng.integers(1, 7, size=2))
            Ms = rng.standard_normal((S, k, d))
            Ms[0] *= trial % 2
            starts = unit_rows(rng, 3 * S, d, ball_q).reshape(S, 3, d)
            vals, xs, method = ball_max(Ms, ball_q, p, lambda: starts, 20)
            assert vals.shape == (S,) and xs.shape == (S, d)
            for i in range(S):
                val, x, solo = ball_max(Ms[i], ball_q, p, lambda: starts[i], 20)
                assert solo == method
                if method == "power-iteration":
                    assert abs(vals[i] - val) <= 1e-13 * val, (trial, i)
                    assert_attained(Ms[i], ball_q, p, vals[i], xs[i])
                else:
                    assert vals[i] == val and np.array_equal(xs[i], x), (trial, i)
        empty = ball_max(Ms, ball_q, p, lambda: np.empty((S, 0, d)))
        assert empty[0].shape == (S,) and empty[1].shape == (S, d)
        if empty[2] == "power-iteration":
            assert not empty[0].any() and not empty[1].any()
