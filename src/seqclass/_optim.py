"""Internal search primitives: sign enumeration, dual updates, ball maxima.

Signed sums eps @ M come from the two `sign_halves` tables, a low one of
the first log2(block) signs and a high one of the rest: `sign_patterns`
yields every low row l_r plus each high column h_c as a block, and
`seqnorm._weak_sign_oracle` bounds each row l_r + h_c by ||l_r|| +
||h_c|| and evaluates only the rows that can reach its running max
(within a relative margin 2^-40 + d 2^-51 for rounding), gathered by
`take` into C-ordered tables of at least two rows so that each row is
summed as in its block.

`ball_max` is the routine for max ||M x||_p over an l_q unit ball
wherever a maximizer or a search is needed: the weak-p norm's branches
other than its l_inf and weak-1 ones (which read the value alone through
`seqnorm._weak_linf_value` and `seqnorm._weak_sign_oracle`), the whole
norm of a linear map, the one-slot step of the multilinear operator-norm
walk and the Cohen dual rescaling. It is exact on the ball's vertices and
at p = q = 2 (the method it returns names its branch), and otherwise
makes one `power_iterate` call, the one dual-update loop, which advances
every start as a row of one block. Both also take a stack of matrices,
item by item, so the walk solves one slot for all its starts in one call.
All routines are pure functions of their inputs, so a fixed seed
reproduces results bit for bit (single-threaded).
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from .spaces import INF, dual_direction, dual_witness, lq_norm

#: Rows per sign block. A (2^13, d) block and the two temporaries `lq_norm`
#: makes from it stay within a 2 MB L2 cache; at 2^15 rows they were 0.5-1.5 MB
#: each. The weak-1 enumeration of a 20 x 4 sequence on l_{3/2} took 10.5 ms in
#: 2^13-row blocks and 24.1 ms in 2^15-row ones, and 2^13 was the fastest of
#: 2^10..2^16 at d = 2, 4 and 6 (2-core Xeon VM, 2 MB L2 per core, timeit).
DEFAULT_BLOCK = 1 << 13

#: Largest length (or l_inf dimension) for which 2^k sign enumeration is attempted.
#: The one cutoff of every exact enumeration (weak-1, Rademacher, l_inf ball
#: vertices, decoupling); each reads it from this module at call time.
SIGN_CUTOFF = 20


def unit_scaled(X: np.ndarray):
    """X * 2^-e with max|X * 2^-e| in [1/2, 1): exact, and no sum of k rows overflows.

    X is a (k, d) matrix, with an int e, or a (B, k, d) stack scaled item
    by item, with an int array e.
    """
    if X.ndim == 2:
        e = math.frexp(float(np.abs(X).max()))[1]
        return np.ldexp(X, -e), e
    e = np.frexp(np.abs(X).max(axis=(-2, -1)))[1]
    return np.ldexp(X, -e[:, None, None]), e


def sign_table(M: np.ndarray, fix_first: bool = False) -> np.ndarray:
    """Every signed sum eps @ M as one (..., d, 2^free) table, column i holding pattern i.

    The whole enumeration of `sign_patterns` in one doubling table, which
    is its single block transposed when it has one; a consumer of a small
    enumeration reads it directly. Each free row doubles the table: bit j
    of the column index sets the sign of free row j.
    """
    M = np.asarray(M, dtype=float)
    if fix_first and M.shape[-2]:
        S, M = np.swapaxes(M[..., :1, :], -1, -2), M[..., 1:, :]
        if not M.shape[-2]:
            S = S.copy()  # with no free sign the start column is the table
    else:
        S = np.zeros(M.shape[:-2] + (M.shape[-1], 1))
    for j in range(M.shape[-2]):
        m = M[..., j, :, None]
        S = np.concatenate([S - m, S + m], axis=-1)
    return S


def sign_patterns(M: np.ndarray, fix_first: bool = False, block: int = DEFAULT_BLOCK) -> Iterator[np.ndarray]:
    """Yield the signed sums eps @ M over eps in {-1,+1}^k, in (R, d) blocks.

    Bit j of the pattern index sets eps_j, low bits fastest. With
    `fix_first` eps_0 is pinned to +1, halving the enumeration; valid
    whenever the consumer is invariant under global sign flips. Blocks hold
    R = min(block, 2^free) rows, `block` being a power of two.
    `sign_patterns(np.eye(k))` yields the +-1 patterns themselves. A
    (B, k, d) stack of matrices yields (B, R, d) blocks, and item i of each
    block is the block of M[i] alone, bit for bit.

    Meet in the middle (Horowitz & Sahni, J. ACM 21, 1974): the partial
    sums of the low log2(block) free signs and of the remaining high signs
    are tabulated once, and each block is the low table plus one column of
    the high table, so no (B, k) pattern matrix is ever built. Blocks are
    transposed views of column-major tables: each row reduction runs
    along contiguous memory.
    """
    low, high = sign_halves(M, fix_first, block)
    if high is None:
        yield np.swapaxes(low, -1, -2)  # a single block: the low table is the whole enumeration
        return
    for c in range(high.shape[-1]):
        yield np.swapaxes(low + high[..., c, None], -1, -2)


def sign_halves(M: np.ndarray, fix_first: bool = False, block: int = DEFAULT_BLOCK):
    """The low and high `sign_table`s of `sign_patterns`, (low, None) when the low one is the whole enumeration.

    The low table holds the signs of the first min(log2(block) free, k)
    rows, the high table those of the rest, so block c of `sign_patterns`
    is `low + high[..., c, None]` transposed. Every reader of the split
    takes it from here.
    """
    M = np.asarray(M, dtype=float)
    k = M.shape[-2]
    lo = min((1 if fix_first and k else 0) + block.bit_length() - 1, k)
    low = sign_table(M[..., :lo, :], fix_first)
    return low, (sign_table(M[..., lo:, :]) if lo < k else None)


def power_iterate(M: np.ndarray, ball_q, p, X: np.ndarray, iters: int) -> tuple[np.ndarray, np.ndarray]:
    """Monotone dual updates for max ||M x||_p over the l_{ball_q} unit ball.

    Boyd's power method (D. W. Boyd, Linear Algebra Appl. 9, 1974; N. J.
    Higham, Numer. Math. 62, 1992) from each row of the (S, d) block of
    starts `X` at once, one matmul per product for the whole block, as in
    the block 1-norm estimator (N. J. Higham & F. Tisseur, SIAM J. Matrix
    Anal. Appl. 21, 2000). A (..., m, d) stack of matrices takes a
    (..., S, d) stack of blocks, block i searching M[i]. A row x moves to
    the ball point that best pairs with the gradient of ||M .||_p at x,
    for at most `iters` steps and only while f = ||M x||_p rises by more
    than 1e-15 relative (an absolute threshold would stop every search on
    a matrix scaled by 2^-600); the first step that fails freezes the row.
    Returns the last accepted rows and their values (X, f), so no f falls
    below its start.
    """
    pf, qf = float(p), float(ball_q)
    X = np.array(X, dtype=float)  # a copy: frozen rows are kept by writing into it
    MT = np.swapaxes(M, -1, -2)
    Y = X @ MT  # the rows' images M x, each kept from the step that accepted it
    f = lq_norm(Y, pf, axis=-1)
    live = np.isfinite(f)  # a row at f = inf or NaN cannot rise
    for _ in range(iters):
        cand = dual_witness(dual_direction(Y, pf) @ M, qf)
        Yc = cand @ MT
        fc = lq_norm(Yc, pf, axis=-1)
        live &= fc > f * (1.0 + 1e-15)
        n = np.count_nonzero(live)
        if not n:
            break
        if n == live.size:  # every row rose: the candidates are the new block
            X, Y, f = cand, Yc, fc
            continue
        np.copyto(X, cand, where=live[..., None])
        np.copyto(Y, Yc, where=live[..., None])
        np.copyto(f, fc, where=live)
    return X, f


def ball_max(M: np.ndarray, ball_q, p, starts, iters: int = 200) -> tuple[float | np.ndarray, np.ndarray, str]:
    """max ||M x||_p over the unit ball of l_{ball_q}: (value, maximizer, method).

    The objective is convex, so the maximum sits at an extreme point.
    Exact on the +-e_i of the l_1 ball, on the sign vertices of the l_inf
    ball when d <= `SIGN_CUTOFF`, and by the top singular value at
    ball_q = p = 2 (methods "l1-ball-vertices", "linf-ball-vertices",
    "svd-spectral"). Otherwise ("power-iteration") one `power_iterate`
    call on the (S, d) block of unit-ball points `starts()`, a callable
    that only this branch calls, and the first best row: a lower end
    attained by the returned maximizer (0 with no start). An (..., m, d)
    stack of matrices, with (..., S, d) starts, gives (...) values and
    (..., d) maximizers, item i that of M[i] alone: bit for bit on the
    exact branches, up to BLAS summation order on the power branch.
    """
    d = M.shape[-1]
    if ball_q == 1:
        vals = lq_norm(M, p, axis=-2)  # ||M e_i||_p: the column norms
        return vals.max(-1)[()], (np.arange(d) == vals.argmax(-1)[..., None]) * 1.0, "l1-ball-vertices"
    if ball_q == INF and d <= SIGN_CUTOFF:
        best, idx = np.full(M.shape[:-2], -1.0), 0
        for b, sums in enumerate(sign_patterns(np.swapaxes(M, -1, -2), fix_first=True)):
            vals = lq_norm(sums, p, axis=-1)
            top = vals.max(-1)
            idx = np.where(top > best, b * sums.shape[-2] + vals.argmax(-1), idx)
            best = np.maximum(best, top)
        # eps_0 = +1 is pinned; bit j of the pattern index, bit j + 1 of 2 idx + 1, sets eps_{j+1}
        x = ((2 * idx + 1)[..., None] >> np.arange(d) & 1) * 2.0 - 1.0
        return best[()], x, "linf-ball-vertices"
    if ball_q == 2 and p == 2:
        _, sig, vt = np.linalg.svd(M, full_matrices=False)
        return sig[..., 0][()], vt[..., 0, :], "svd-spectral"
    X, f = power_iterate(M, ball_q, p, starts(), iters)
    if not f.shape[-1]:
        return np.zeros(M.shape[:-2])[()], np.zeros(M.shape[:-2] + (d,)), "power-iteration"
    i = f.argmax(-1)[..., None, None]  # the first best row of each block
    return f.max(-1)[()], np.take_along_axis(X, i, -2)[..., 0, :], "power-iteration"
