"""Internal search primitives: sign enumeration, sphere grids, dual updates, projected ascent.

All routines are pure functions of their inputs and the supplied RNG, so a
fixed seed reproduces results bit for bit (single-threaded).
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterator

import numpy as np

from .spaces import dual_direction, dual_witness, lq_norm

DEFAULT_BLOCK = 1 << 15


@lru_cache(maxsize=64)
def sphere_grid(d: int, qf: float, n: int = 512) -> np.ndarray:
    """Deterministic covering of the l_q unit sphere in dimension d <= 3.

    Used to brace low-dimensional dual-ball searches: one matmul scores
    every grid point at once.
    """
    if d == 1:
        pts = np.array([[1.0], [-1.0]])
    elif d == 2:
        ang = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
        pts = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    elif d == 3:
        # Fibonacci lattice on the Euclidean sphere, then renormalized
        i = np.arange(n) + 0.5
        z = 1.0 - 2.0 * i / n
        r = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
        phi = math.pi * (1.0 + math.sqrt(5.0)) * i
        pts = np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)
    else:
        raise ValueError("sphere grid only tabulated for d <= 3")
    pts = pts / lq_norm(pts, qf, axis=1)[:, None]
    pts.flags.writeable = False
    return pts


def _signed_sums(S: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """(d, 2^r) table whose column i is S + sum_j (+-1) rows[j], bit j of i giving the sign.

    `S` is a (d, 1) column and `rows` is (r, d).
    """
    for m in rows[:, :, None]:
        S = np.concatenate([S - m, S + m], axis=1)
    return S


def sign_patterns(M: np.ndarray, fix_first: bool = False, block: int = DEFAULT_BLOCK) -> Iterator[np.ndarray]:
    """Yield the signed sums eps @ M over eps in {-1,+1}^k, in (B, d) blocks.

    Bit j of the pattern index sets eps_j, low bits fastest. With
    `fix_first` eps_0 is pinned to +1, halving the enumeration; valid
    whenever the consumer is invariant under global sign flips. Blocks hold
    min(block, 2^free) rows, `block` being a power of two.
    `sign_patterns(np.eye(k))` yields the +-1 patterns themselves.

    Meet in the middle (Horowitz & Sahni, J. ACM 21, 1974): the partial
    sums of the low log2(block) free signs and of the remaining high signs
    are tabulated once, and each block is the low table plus one column of
    the high table, so no (B, k) pattern matrix is ever built. Blocks are
    transposed views of column-major tables: each row reduction runs
    along contiguous memory.
    """
    M = np.asarray(M, dtype=float)
    k, d = M.shape
    first = 1 if fix_first and k else 0
    lo = min(first + block.bit_length() - 1, k)
    # copied: with no free low sign the start column is yielded as it is
    low = _signed_sums(M[:1].T.copy() if first else np.zeros((d, 1)), M[first:lo])
    if lo == k:
        yield low.T  # a single block: the low table is the whole enumeration
        return
    for h in _signed_sums(np.zeros((d, 1)), M[lo:]).T:
        yield (low + h[:, None]).T


def power_iterate(
    M: np.ndarray, ball_q, p, x: np.ndarray, f: float, iters: int
) -> tuple[np.ndarray, float]:
    """Monotone dual updates for max ||M x||_p over the l_{ball_q} unit ball.

    Boyd's power method (D. W. Boyd, Linear Algebra Appl. 9, 1974; N. J.
    Higham, Numer. Math. 62, 1992): x moves to the ball point that best
    pairs with the gradient of ||M .||_p at x, for at most `iters` steps
    and only while f = ||M x||_p rises by more than 1e-15 relative (an
    absolute threshold would stop every search on a matrix scaled by
    2^-600). Returns the last accepted (x, f), so f never falls below its
    start.
    """
    for _ in range(iters):
        g = M.T @ dual_direction(M @ x, p)
        if not g.any():
            break
        cand = dual_witness(g, ball_q)
        fc = lq_norm(M @ cand, p)
        if fc <= f * (1.0 + 1e-15):
            break
        x, f = cand, fc
    return x, f


def weak_p_ascent(
    X: np.ndarray,
    ball_q,
    p: float,
    rng: np.random.Generator,
    restarts: int = 32,
    iters: int = 200,
    tol: float = 1e-10,
    row_starts: int | None = None,
) -> tuple[float, np.ndarray]:
    """Maximize ||X phi||_p over the unit sphere of l_{ball_q}.

    Projected gradient ascent with step halving, restarted from uniform
    random directions plus the per-row dual witnesses, then polished by
    `power_iterate`. The objective is convex in phi, so the maximum sits on
    the sphere; restarts make the boundary search reliable at small
    dimension.
    """
    k, d = X.shape
    pf = float(p)

    def obj(phi: np.ndarray) -> float:
        return lq_norm(X @ phi, pf)

    starts: list[np.ndarray] = []
    nrows = k if row_starts is None else min(k, row_starts)
    for j in range(nrows):
        if X[j].any():
            starts.append(dual_witness(X[j], ball_q))
    if d <= 3:
        # brace the restarts with the best points of a deterministic grid
        grid = sphere_grid(d, float(ball_q))
        scores = lq_norm(X @ grid.T, pf, axis=0)
        for i in np.argsort(scores)[-3:]:
            starts.append(grid[i])
    for _ in range(restarts):
        v = rng.standard_normal(d)
        n = lq_norm(v, ball_q)
        if n > 0:
            starts.append(v / n)
    if not starts:
        return 0.0, np.zeros(d)

    best_val, best_phi = -1.0, starts[0]
    for phi0 in starts:
        phi = phi0
        f = obj(phi)
        for _ in range(iters):
            g = X.T @ dual_direction(X @ phi, pf)
            gn = float(np.linalg.norm(g))
            if gn == 0.0:
                break
            g /= gn
            t, accepted = 1.0, 0.0
            while t > 1e-12:
                cand = phi + t * g
                n = lq_norm(cand, ball_q)
                if n > 0:
                    cand = cand / n
                    fc = obj(cand)
                    if fc > f:
                        phi, f, accepted = cand, fc, t
                        break
                t *= 0.5
            if accepted == 0.0 or accepted < tol:
                break
        phi, f = power_iterate(X, ball_q, pf, phi, f, 40)
        if f > best_val:
            best_val, best_phi = f, phi
    return max(best_val, 0.0), best_phi

