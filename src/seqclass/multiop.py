"""Continuous n-linear operators between l_q spaces.

An operator is a dense coefficient tensor of shape d_1 x ... x d_n x d_out.
The operator norm is reported as a bracket: the lower end is certified by
an explicit witness tuple, and `NormBracket.searched` caps the heuristic
slack on the search value by a rigorous coefficient (iterated Hoelder)
bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import _optim
from ._optim import ball_max, sign_patterns, sign_table
from .spaces import Space, Vector, _float_array, _max_scaled, as_exponent, conjugate_exponent, lq_norm
from .seqnorm import NormBracket, VecSeq

__all__ = [
    "MultiOp",
    "OpNormEstimate",
    "evaluate",
    "evaluate_batch",
    "op_norm",
    "finite_type",
    "compose",
    "diag_operator",
    "decoupling_check",
]


@dataclass(frozen=True, eq=False)
class MultiOp:
    """n-linear operator E_1 x ... x E_n -> F as a coefficient tensor."""

    domain: tuple[Space, ...]
    codomain: Space
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        dom = tuple(self.domain)
        object.__setattr__(self, "domain", dom)
        if len(dom) < 1:
            raise ValueError("operator arity must be >= 1")
        shape = tuple(s.dim for s in dom) + (self.codomain.dim,)
        object.__setattr__(self, "coeffs", _float_array(self.coeffs, shape, "operator"))

    @property
    def arity(self) -> int:
        return len(self.domain)

    def __call__(self, *args: Vector) -> Vector:
        return evaluate(self, args)

    def __repr__(self):
        dom = " x ".join(repr(s) for s in self.domain)
        return f"MultiOp({dom} -> {self.codomain!r})"


@dataclass(frozen=True)
class OpNormEstimate:
    """Operator-norm bracket plus the argument tuple attaining the lower end."""

    bracket: NormBracket
    witness: tuple[Vector, ...]


def evaluate(A: MultiOp, args: Sequence[Vector]) -> Vector:
    """Apply the operator; multilinear in each slot."""
    if len(args) != A.arity:
        raise ValueError(f"expected {A.arity} arguments, got {len(args)}")
    for x, s in zip(args, A.domain):
        if x.space.dim != s.dim:
            raise ValueError(f"argument dimension {x.space.dim} does not match {s.dim}")
    return Vector(A.codomain, _apply(A, [x.coords for x in args]))


def _apply(A: MultiOp, xs: Sequence[np.ndarray]) -> np.ndarray:
    """A(x_1, ..., x_n) on coordinate arrays: one vector-matrix product per slot, slot 0 first."""
    t = A.coeffs
    for x in xs:
        t = x @ t.reshape(len(x), -1)
    return t


def evaluate_batch(A: MultiOp, mats: Sequence[np.ndarray]) -> np.ndarray:
    """Evaluate at B argument tuples at once; mats[m] has shape (B, d_m).

    A fixed contraction chain with no per-call path search: one matmul
    folds slot 0 into the coefficient tensor, then each further slot is a
    batched contraction over the rows. Returns shape (B, d_out).

    Row i of the result need not equal the B = 1 call on row i in the
    last bit: BLAS takes its matrix-vector kernel for one row and its
    matrix-matrix kernel for several, and the two may round differently.
    """
    if len(mats) != A.arity:
        raise ValueError(f"expected {A.arity} argument matrices, got {len(mats)}")
    dims = A.coeffs.shape
    rows = mats[0].shape[0]
    rest = A.coeffs.size // dims[0]
    t = mats[0] @ A.coeffs.reshape(dims[0], rest)
    for m in range(1, A.arity):
        rest //= dims[m]
        t = np.einsum("zi,zir->zr", mats[m], t.reshape(rows, dims[m], rest))
    return t


def _contract_all_but(A: MultiOp, X: Sequence[np.ndarray], m: int) -> np.ndarray:
    """(S, d_out, d_m) stack: the map in slot m with each other slot l fixed at a row of X[l].

    One einsum without path search; its ones vector fixes the summation order of the walk's arity-2 bits.
    """
    n, row = A.arity, A.arity + 1
    ops = [A.coeffs, list(range(n + 1)), np.ones(len(X[m])), [row]]
    for l in range(n):
        if l != m:
            ops += [X[l], [row, l]]
    return np.einsum(*ops, [row, n, m])


def holder_coefficient_bound(A: MultiOp) -> float:
    """Iterated Hoelder on |coefficients|, each slice's max scaled out; `NormBracket.searched` rounds it up."""
    T = np.abs(A.coeffs)
    for m in range(A.arity - 1, -1, -1):
        T = _max_scaled(T, float(conjugate_exponent(A.domain[m].q)), m)
    return float(_max_scaled(T, float(A.codomain.q), 0))


#: The walk's budget: `_SWEEPS` sweeps, each of at most `_SLOT_STEPS` dual updates per searched slot.
_SWEEPS, _SLOT_STEPS = 60, 20


def op_norm(
    A: MultiOp,
    seed: int = 0,
    restarts: int = 16,
    starts: Sequence[Sequence[np.ndarray]] = (),
) -> OpNormEstimate:
    """Maximization of ||A(x_1,...,x_n)|| over unit arguments.

    Each initial tuple, scaled to unit arguments, is a row of one block
    per slot: the `starts` (tuples of coordinate arrays), the basis tuple
    at the largest coefficient, then `restarts` random tuples. A linear
    map is one `ball_max` call on A^T with the walk's whole budget, and
    its bracket is exact under the method of an exact branch. Otherwise
    each sweep of a block walk solves one slot for all live rows with one
    `ball_max` call; a row freezes at its first sweep that does not rise
    by 1e-12 relative, and the first best row is the witness. A searched
    bracket is `NormBracket.searched`, capped by `holder_coefficient_bound`.
    """
    q_out = A.codomain.q
    if A.arity > 1:
        witness = _alternating_walk(A, _start_blocks(A, seed, restarts, starts))
    else:
        _, x, method = ball_max(np.ascontiguousarray(A.coeffs.T)[None], A.domain[0].q, q_out,
                                lambda: _start_blocks(A, seed, restarts, starts)[0][None], _SWEEPS * _SLOT_STEPS)
        witness = (Vector(A.domain[0], x[0]),)
    lower = lq_norm(evaluate(A, witness).coords, q_out)
    if A.arity == 1 and method != "power-iteration":
        return OpNormEstimate(NormBracket.exact_value(lower, method, seed), witness)
    bracket = NormBracket.searched(lower, "alternating-maximization", seed, cap=holder_coefficient_bound(A))
    return OpNormEstimate(bracket, witness)


def _start_blocks(A: MultiOp, seed: int, restarts: int, starts) -> list[np.ndarray]:
    """`op_norm`'s initial tuples as one (S, d_m) block per slot, each nonzero row scaled onto the unit sphere."""
    dims = [s.dim for s in A.domain]
    peak = np.unravel_index(int(np.argmax(np.abs(A.coeffs))), A.coeffs.shape)
    V = np.random.default_rng(seed).standard_normal((restarts, sum(dims)))
    X = []
    for m, Vm in enumerate(np.split(V, np.cumsum(dims)[:-1], axis=1)):
        Xm = np.vstack([np.reshape([s[m] for s in starts], (-1, dims[m])), np.eye(dims[m])[peak[m]], Vm])
        nv = lq_norm(Xm, A.domain[m].q, axis=1)
        # a start left outside the unit ball could witness more than the norm
        X.append(Xm / np.where(nv > 0, nv, 1.0)[:, None])
    return X


def _alternating_walk(A: MultiOp, X: list[np.ndarray]) -> tuple[Vector, ...]:
    """The witness tuple of `op_norm`'s walk from the start blocks X: the first best row after the last sweep."""
    q_out = A.codomain.q
    f = lq_norm(evaluate_batch(A, X), q_out, axis=1)
    live = np.ones(len(f), dtype=bool)
    for _ in range(_SWEEPS):
        for m in range(A.arity):
            M = _contract_all_but(A, X, m)
            rows = live & M.any(axis=(1, 2))
            if rows.any():
                X[m][rows] = ball_max(M[rows], A.domain[m].q, q_out, lambda: X[m][rows, None], _SLOT_STEPS)[1]
        fn = lq_norm(evaluate_batch(A, X), q_out, axis=1)
        f, live = np.where(live, np.maximum(f, fn), f), live & (fn > f * (1.0 + 1e-12))
        if not live.any():
            break

    best = int(np.argmax(f))  # the first best row
    return tuple(Vector(s, x[best]) for s, x in zip(A.domain, X))


def finite_type(phis: Sequence[Vector], b: Vector) -> MultiOp:
    """Elementary operator (x_1,...,x_n) -> phi_1(x_1)...phi_n(x_n) b.

    The functionals live in the dual spaces, so the operator acts on the
    preduals.
    """
    if not phis:
        raise ValueError("at least one functional required")
    t = np.array([1.0])
    for phi in phis:
        t = np.multiply.outer(t, phi.coords)
    t = np.multiply.outer(t, b.coords)[0]
    domain = tuple(phi.space.dual for phi in phis)
    return MultiOp(domain, b.space, t)


def compose(v: MultiOp, A: MultiOp, us: Sequence[MultiOp]) -> MultiOp:
    """v o A o (u_1,...,u_n) with linear v and u_m."""
    if v.arity != 1:
        raise ValueError("outer factor v must be linear")
    if len(us) != A.arity:
        raise ValueError(f"expected {A.arity} inner factors, got {len(us)}")
    for u in us:
        if u.arity != 1:
            raise ValueError("inner factors must be linear")
    if v.domain[0].dim != A.codomain.dim:
        raise ValueError("v does not compose with the codomain of A")
    for u, s in zip(us, A.domain):
        if u.codomain.dim != s.dim:
            raise ValueError("an inner factor does not compose with A")

    t = np.tensordot(A.coeffs, v.coeffs, axes=(A.arity, 0))
    for m in range(A.arity - 1, -1, -1):
        # contract slot m of A with the output axis of u_m
        t = np.tensordot(us[m].coeffs, t, axes=(1, m))
        t = np.moveaxis(t, 0, m)
    domain = tuple(u.domain[0] for u in us)
    return MultiOp(domain, v.codomain, t)


def scalar_multiplication(n: int) -> MultiOp:
    """(t_1,...,t_n) -> t_1 ... t_n on the scalars."""
    if n < 1:
        raise ValueError("arity must be >= 1")
    t = np.ones((1,) * (n + 1))
    return MultiOp((Space(1, 2),) * n, Space(1, 2), t)


def diag_operator(n: int, k: int, q_in) -> MultiOp:
    """Coordinatewise product (l_{q_in}^k)^n -> l_1^k.

    The witness operator behind the weak-p growth experiments.
    """
    if n < 2:
        raise ValueError("diagonal operator needs arity >= 2")
    if k < 1:
        raise ValueError("dimension must be >= 1")
    q_in = as_exponent(q_in)
    t = np.zeros((k,) * (n + 1))
    idx = (np.arange(k),) * (n + 1)
    t[idx] = 1.0
    return MultiOp((Space(k, q_in),) * n, Space(k, 1), t)


def seq_tuple_length(A: MultiOp, seqs: Sequence[VecSeq]) -> int:
    """Common length k of a tuple of sequences, one per slot of A and in its slot's dimension."""
    if len(seqs) != A.arity:
        raise ValueError(f"expected {A.arity} sequences, got {len(seqs)}")
    k = len(seqs[0])
    for s, sp in zip(seqs, A.domain):
        if len(s) != k:
            raise ValueError("sequences must share a common length")
        if s.space.dim != sp.dim:
            raise ValueError("sequence space does not match operator domain")
    return k


def decoupling_check(A: MultiOp, seqs: Sequence[VecSeq]) -> float:
    """Residual of the sign-decoupling identity.

    Compares sum_j A(x_j^1,...,x_j^n) with the exact average over all
    (n-1)-tuples of sign vectors eps^1, ..., eps^(n-1) of A applied to the
    signed sums sum_j eps^l_j x_j^l, the last slot carrying the products
    eps^1_j ... eps^(n-1)_j. Zero up to roundoff. Needs k (n-1) <=
    `_optim.SIGN_CUTOFF`.

    Every sign tuple is visited once, as a row of an `evaluate_batch`
    block of at most `_optim.DEFAULT_BLOCK` rows, and no +-1 pattern is
    built. For n = 2 the last slot's signs are the first slot's own, so one
    `sign_patterns` call on the two sequences side by side yields both
    slots; since A(-a, -b) = A(a, b), it visits only the tuples with
    eps_0 = +1. For n >= 3 (so k <= 10) slot l reads the `sign_table` of
    its own sequence: slot l < n - 1 at the index i_l of its group of k
    signs, the last slot at i_0 ^ ... ^ i_(n-2), complemented when n is
    odd. A set bit of an index is a + sign, so the product of the signs at
    j is + when an even number of the n - 1 bits at j are clear.
    """
    n = A.arity
    k = seq_tuple_length(A, seqs)
    if k * (n - 1) > _optim.SIGN_CUTOFF:
        raise ValueError(
            f"enumeration budget exceeded: k*(n-1) = {k * (n - 1)} > {_optim.SIGN_CUTOFF}"
        )

    direct = evaluate_batch(A, [s.mat for s in seqs]).sum(axis=0)
    free = k * (n - 1)
    if n == 1:
        blocks = [[seqs[0].mat.sum(axis=0, keepdims=True)]]
    elif n == 2:
        d0, free = A.domain[0].dim, max(k - 1, 0)
        S2 = np.concatenate([s.mat for s in seqs], axis=1)
        blocks = ([S[:, :d0], S[:, d0:]] for S in sign_patterns(S2, fix_first=True))
    else:
        blocks = _table_blocks([s.mat for s in seqs], k)
    acc = np.zeros(A.codomain.dim)
    for mats in blocks:
        acc += evaluate_batch(A, mats).sum(axis=0)
    return lq_norm(direct - acc / (1 << free), A.codomain.q)


def _table_blocks(mats: Sequence[np.ndarray], k: int):
    """`decoupling_check`'s argument blocks for n >= 3, each slot's rows gathered from one sign table."""
    T = sign_table(np.concatenate(mats, axis=1)).T  # row i: every slot's signed sum under sign pattern i
    ends = np.cumsum([X.shape[1] for X in mats])
    tables = [np.ascontiguousarray(T[:, e - X.shape[1] : e]) for X, e in zip(mats, ends)]
    mask, groups = (1 << k) - 1, len(mats) - 1
    total = 1 << (k * groups)
    for start in range(0, total, _optim.DEFAULT_BLOCK):
        idx = np.arange(start, min(start + _optim.DEFAULT_BLOCK, total))
        rows = [(idx >> (l * k)) & mask for l in range(groups)]
        last = mask if len(mats) % 2 else 0
        for r in rows:
            last = last ^ r
        yield [t.take(r, axis=0) for t, r in zip(tables, rows + [last])]  # take: faster than t[r] on 2^13 rows
