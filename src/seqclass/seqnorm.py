"""Sequence-class norms on finite vector sequences.

Five engines: sup, strong-p, weak-p, Rademacher, and Cohen (projective).
Supremum-defined norms come back as a `NormBracket`: a certified interval
whose lower end is witnessed by an explicit feasible point. Exact branches
(closed forms, finite enumerations, SVD) collapse the bracket to a point.
A search value becomes a bracket in one place, `NormBracket.searched`.
`block_kernel` brackets (B, k, d) blocks of sequences, its dispatch
resolved once for a block shape: the exact branches that act row by row
are written for a stack of matrices, and the one-sequence engines are
their B = 1 case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import _optim
from ._optim import DEFAULT_BLOCK, ball_max, power_iterate, sign_patterns, sign_table, unit_scaled
from .spaces import INF, Space, as_exponent, conjugate_exponent, dual_witness, lq_norm

__all__ = [
    "ASCENT_SLACK",
    "RAD_MC_SAMPLES",
    "VecSeq",
    "SeqClassSpec",
    "NormBracket",
    "norm_sup",
    "norm_strong_p",
    "norm_weak_p",
    "norm_rad",
    "norm_rad_prefix_sup",
    "norm_rad_mc",
    "norm_cohen",
    "truncate",
    "seq_norm",
    "block_kernel",
]

#: Relative slack reported on heuristic (search-derived) upper ends.
ASCENT_SLACK = 1e-3

#: Outward rounding of a computed upper bound, 512 ulps: 2^-54 ln(2^960) < 3.7e-14 covers `lq_norm`'s unscaled
#: root of a witness value, the rest the few ulps per level and summed term of that value and of a max-scaled cap.
_ROUNDING = 2.0**-44

#: Monte-Carlo samples `seq_norm` draws for a Rademacher norm past `_optim.SIGN_CUTOFF`.
RAD_MC_SAMPLES = 10_000


@dataclass(frozen=True, eq=False)
class VecSeq:
    """A finite sequence of k vectors in one space, stored as a k x d matrix."""

    space: Space
    mat: np.ndarray = field(repr=False)

    def __post_init__(self):
        m = np.array(self.mat, dtype=float)
        if not np.isfinite(m).all():
            raise ValueError("sequence has non-finite entries (NaN or inf)")
        if m.size == 0:
            m = m.reshape(0, self.space.dim)
        if m.ndim == 1 and self.space.dim == 1:
            m = m.reshape(-1, 1)
        if m.ndim != 2 or m.shape[1] != self.space.dim:
            raise ValueError(
                f"matrix shape {m.shape} does not match space dim {self.space.dim}"
            )
        m.flags.writeable = False
        object.__setattr__(self, "mat", m)

    def __len__(self) -> int:
        return self.mat.shape[0]

    def __repr__(self):
        return f"VecSeq({self.space!r}, k={len(self)})"


def truncate(s: VecSeq, m: int) -> VecSeq:
    """Prefix of length m (0 <= m <= k)."""
    if not 0 <= m <= len(s):
        raise ValueError(f"prefix length {m} out of range [0, {len(s)}]")
    return VecSeq(s.space, s.mat[:m])


@dataclass(frozen=True)
class SeqClassSpec:
    """Tag + parameter naming one of the five norm engines."""

    tag: str
    p: object = None  # exponent in [1, inf) where applicable

    PARAMETRIC = ("strong", "weak", "cohen")
    TAGS = ("sup", "strong", "weak", "rad", "cohen")

    def __post_init__(self):
        if self.tag not in self.TAGS:
            raise ValueError(f"unknown sequence-class tag {self.tag!r}")
        if self.tag in self.PARAMETRIC:
            if self.p is None:
                raise ValueError(f"class {self.tag!r} requires an exponent")
            object.__setattr__(self, "p", _finite_exponent(self.p))
        elif self.p is not None:
            raise ValueError(f"class {self.tag!r} takes no exponent")

    @classmethod
    def sup(cls) -> "SeqClassSpec":
        return cls("sup")

    @classmethod
    def strong(cls, p) -> "SeqClassSpec":
        return cls("strong", p)

    @classmethod
    def weak(cls, p) -> "SeqClassSpec":
        return cls("weak", p)

    @classmethod
    def rad(cls) -> "SeqClassSpec":
        return cls("rad")

    @classmethod
    def cohen(cls, p) -> "SeqClassSpec":
        return cls("cohen", p)

    @property
    def finitely_determined(self) -> bool:
        # the Rademacher class is the one engine whose infinite-sequence
        # space is not recovered from prefix suprema
        return self.tag != "rad"

    def describe(self) -> str:
        return self.tag if self.p is None else f"{self.tag}[p={self.p}]"


def _finite_exponent(p):
    if isinstance(p, Fraction) and p.numerator >= p.denominator:
        return p  # already normalized and finite
    p = as_exponent(p)
    if p == INF:
        raise ValueError("exponent must be finite; use the sup class for p = inf")
    return p


@dataclass(frozen=True)
class NormBracket:
    """Certified enclosure 0 <= lower <= upper of a norm value; no end is ever edited.

    `exact` asserts the two ends agree to 1e-9 relative and both are
    rigorous; heuristic estimators set exact=False and record their method
    and seed.
    """

    lower: float
    upper: float
    exact: bool
    method: str
    seed: int = 0

    def __post_init__(self):
        lo, up = float(self.lower), float(self.upper)
        if not 0.0 <= lo <= up:  # a negative or NaN end, or an inversion
            raise ValueError(f"invalid bracket [{lo}, {up}] ({self.method})")
        if self.exact and up - lo > 1e-9 * up:
            raise ValueError(f"bracket [{lo}, {up}] too wide to be exact")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", up)

    @classmethod
    def exact_value(cls, value: float, method: str, seed: int = 0) -> "NormBracket":
        return cls(value, value, True, method, seed)

    @classmethod
    def searched(cls, lower: float, method: str, seed: int = 0, cap: float = math.inf) -> "NormBracket":
        """The bracket of a witnessed search value `lower` under a floating-point bound `cap`.

        The upper end is min(lower * (1 + `ASCENT_SLACK`), cap * (1 + `_ROUNDING`)),
        the cap rounded outward once; it is exact only when that rounded cap is
        within 1e-9 relative of the lower end, so a search with no cap is never exact.
        """
        cap *= 1.0 + _ROUNDING
        upper = min(lower * (1.0 + ASCENT_SLACK), cap)
        return cls(lower, upper, cap - lower <= 1e-9 * lower, method, seed)

    @property
    def width(self) -> float:
        return self.upper - self.lower

    def contains(self, value: float) -> bool:
        return self.lower <= value <= self.upper


# ---------------------------------------------------------------------------
# sup / strong-p
# ---------------------------------------------------------------------------

def norm_sup(s: VecSeq) -> float:
    """max_j ||x_j||; 0 on the empty sequence.

    This and `norm_strong_p` scale by an exact power of two first, so the
    scales that the weak-p and Cohen searches divide by are exactly
    homogeneous.
    """
    if len(s) == 0:
        return 0.0
    return float(_sup_value(s.mat, s.space.q))


def norm_strong_p(s: VecSeq, p) -> float:
    """(sum_j ||x_j||^p)^(1/p)."""
    p = float(_finite_exponent(p))
    if len(s) == 0:
        return 0.0
    return float(_strong_value(s.mat, s.space.q, p))


# The value kernels below take a (k, d) matrix or a (B, k, d) stack of
# nonempty sequences; `block_kernel` runs them on whole blocks.

def _sup_value(X: np.ndarray, q):
    X, e = unit_scaled(X)
    return np.ldexp(lq_norm(X, q, axis=-1).max(-1), e)


def _strong_value(X: np.ndarray, q, p: float):
    X, e = unit_scaled(X)
    return np.ldexp(lq_norm(lq_norm(X, q, axis=-1), p, axis=-1), e)


# ---------------------------------------------------------------------------
# weak-p
# ---------------------------------------------------------------------------

def _rows_disjoint(X: np.ndarray):
    """Whether the rows have pairwise disjoint supports, per item of a stack."""
    return ((X != 0.0).sum(axis=-2) <= 1).all(axis=-1)


def _weak_disjoint_value(X: np.ndarray, q, p: float) -> float:
    # rows with pairwise disjoint supports decouple: each row j can absorb
    # a dual-ball budget t_j on its own coordinates, contributing
    # (t_j ||x_j||_q)^p; the best budget split gives the l_s norm of the
    # row norms, 1/s = max(1/p - 1/q*, 0)
    r = p / float(conjugate_exponent(q))
    return lq_norm(lq_norm(X, q, axis=1), p / (1.0 - r) if r < 1.0 else INF)


def _weak_sign_oracle(X: np.ndarray, q):
    X, e = unit_scaled(X)
    if 1 << (X.shape[-2] - 1) <= DEFAULT_BLOCK:  # one block: the signed sums of one doubling table
        return np.ldexp(lq_norm(sign_table(X, fix_first=True), q, axis=-2).max(-1), e)
    best = np.zeros(X.shape[:-2])
    for sums in sign_patterns(X, fix_first=True):
        best = np.fmax(best, lq_norm(sums, q, axis=-1).max(-1))
    return np.ldexp(best, e)


def _weak_linf_value(X: np.ndarray, p: float):
    # on l_inf the dual ball is l_1, whose extreme points +-e_i give column norms
    X, e = unit_scaled(X)
    return np.ldexp(lq_norm(X, p, axis=-2).max(-1), e)


#: `ball_max` methods under the names the weak-p brackets report.
_WEAK_METHODS = {"linf-ball-vertices": "dual-linf-vertices"}


def _weak_starts(X: np.ndarray, ball_q, restarts: int, seed: int) -> np.ndarray:
    """(S, d) block of unit-ball starts for the weak-p and Cohen cut searches.

    The row witnesses, then `restarts` seeded random points.
    """
    V = np.random.default_rng(seed).standard_normal((restarts, X.shape[1]))
    return np.vstack([dual_witness(X, ball_q), V / lq_norm(V, ball_q, axis=1)[:, None]])


def norm_weak_p(s: VecSeq, p, seed: int = 0, restarts: int = 32) -> NormBracket:
    """sup over the dual unit ball of (sum_j |phi(x_j)|^p)^(1/p).

    Exact branches: singleton, l_inf spaces (dual l_1 extreme points),
    rows with disjoint supports, p = 1 via sign enumeration (k <=
    `_optim.SIGN_CUTOFF`), l_1 spaces via
    dual l_inf vertices, and (p, q) = (2, 2) via the top singular value.
    Otherwise `ball_max` runs power iteration from the row witnesses and
    `restarts` seeded random points: the lower end is attained by its
    maximizer, and `NormBracket.searched` caps its slack by the strong-p
    norm. `ball_max` gets the rows scaled by an exact power of two, so its
    branches, the search included, are exactly homogeneous under scaling
    by powers of two.
    """
    p = float(_finite_exponent(p))
    X = s.mat
    if len(s) == 0 or not X.any():
        return NormBracket.exact_value(0.0, "zero", seed)
    X = X[X.any(axis=1)]  # zero vectors never move any dual value
    k = len(X)
    q = s.space.q
    if k == 1:
        return NormBracket.exact_value(lq_norm(X[0], q), "singleton", seed)
    if q == INF:
        return NormBracket.exact_value(_weak_linf_value(X, p), "dual-l1-extreme-points", seed)
    if _rows_disjoint(X):
        return NormBracket.exact_value(_weak_disjoint_value(X, q, p), "disjoint-support", seed)
    if p == 1.0 and k <= _optim.SIGN_CUTOFF:
        return NormBracket.exact_value(_weak_sign_oracle(X, q), "sign-enumeration", seed)

    ball_q = conjugate_exponent(q)
    X, e = unit_scaled(X)
    val, _, method = ball_max(X, ball_q, p, lambda: _weak_starts(X, ball_q, restarts, seed))
    val = math.ldexp(val, e)
    if method != "power-iteration":
        return NormBracket.exact_value(val, _WEAK_METHODS.get(method, method), seed)
    return NormBracket.searched(val, method, seed, cap=norm_strong_p(s, p))


# ---------------------------------------------------------------------------
# Rademacher
# ---------------------------------------------------------------------------

def norm_rad(s: VecSeq) -> float:
    """Exact Rademacher average (2^-k sum over signs of ||sum_j e_j x_j||^2)^(1/2).

    The L_2 average of the random signed sum over [0,1] equals this finite
    mean exactly, so no quadrature is involved. k is at most `_optim.SIGN_CUTOFF`.
    """
    k = len(s)
    if k > _optim.SIGN_CUTOFF:
        raise ValueError(
            f"k={k} exceeds sign cutoff {_optim.SIGN_CUTOFF}; use norm_rad_mc for long sequences"
        )
    if k == 0 or not s.mat.any():
        return 0.0
    # signs on zero vectors never matter
    return float(_rad_value(s.mat[s.mat.any(axis=1)], s.space.q))


def _rad_value(X: np.ndarray, q):
    X, e = unit_scaled(X)
    total, count = 0.0, 0
    for sums in sign_patterns(X, fix_first=True):
        vals = lq_norm(sums, q, axis=-1)
        total = total + (vals * vals).sum(-1)
        count += sums.shape[-2]
    return np.ldexp(np.sqrt(total / count), e)


def norm_rad_prefix_sup(s: VecSeq) -> float:
    """max over prefixes of the Rademacher norm (coincides with the full norm)."""
    if len(s) > _optim.SIGN_CUTOFF:
        raise ValueError(f"k={len(s)} exceeds sign cutoff {_optim.SIGN_CUTOFF}")
    return max((norm_rad(truncate(s, m)) for m in range(len(s) + 1)), default=0.0)


def norm_rad_mc(s: VecSeq, samples: int, seed: int = 0) -> NormBracket:
    """Monte-Carlo bracket: mean +- 3 standard errors of ||sum e_j x_j||^2, rooted."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if len(s) == 0 or not s.mat.any():
        return NormBracket.exact_value(0.0, "zero", seed)
    X, e = unit_scaled(s.mat[s.mat.any(axis=1)])
    k = len(X)
    rng = np.random.default_rng(seed)
    sq = np.empty(samples)
    block = 1 << 14
    for start in range(0, samples, block):
        n = min(block, samples - start)
        signs = rng.integers(0, 2, size=(n, k)).astype(float) * 2.0 - 1.0
        vals = lq_norm(signs @ X, s.space.q, axis=1)
        sq[start : start + n] = vals * vals
    mean = float(sq.mean())
    sem = float(sq.std(ddof=1) / math.sqrt(samples)) if samples > 1 else 0.0
    lower = math.ldexp(math.sqrt(max(mean - 3.0 * sem, 0.0)), e)
    upper = math.ldexp(math.sqrt(mean + 3.0 * sem), e)
    return NormBracket(lower, upper, False, f"monte-carlo[n={samples}]", seed)


# ---------------------------------------------------------------------------
# Cohen (projective) norm
# ---------------------------------------------------------------------------

#: Rounds of cuts `_cohen_bracket` runs before it settles for its best bracket.
_CUT_ROUNDS = 24

#: A dual value above 1 + `_CUT_TOL` at a unit-ball point makes that point a new atom.
_CUT_TOL = 1e-5


def _cohen_bracket(X: np.ndarray, q, p, seed: int) -> tuple[float, float]:
    """(lower, upper) for the projective norm of X in l_p^k (x)_pi l_q^d.

    Cutting planes (J. E. Kelley, J. SIAM 8, 1960) on the dual program
    max <Phi, X> subject to ||Phi b||_{p*} <= 1 on the l_q unit ball. Each
    round solves it by SLSQP with ||Phi b_i||_{p*}^2 <= 1 imposed on a set
    of unit atoms b_i: the sign vertices for q = inf and d <= 6 (exact in
    one round), else the e_i, the rows of X and 4 seeded random points.
    The KKT multipliers give X = sum_i a_i b_i^T + R with
    a_i = lambda_i grad ||Phi b_i||_{p*}^2, priced at
    sum_i ||a_i||_p ||b_i||_q + sum_j ||R_j||_q: an upper end at any Phi.
    One `power_iterate` call runs from the 8 atoms with the largest
    multipliers and the weak-p* starts of Phi (its row witnesses and 8
    seeded random points), and each row that ends above 1 + `_CUT_TOL`
    adds its end point as an atom; the rounds stop when none does. The
    lower end is <Phi, X> over the upper end of the weak-p* bracket of the
    best-scoring Phi.
    """
    from scipy import optimize

    k, d = X.shape
    pstar = conjugate_exponent(p)
    ps, x = float(pstar), X.ravel()
    if q == INF and d <= 6:
        B = np.vstack(list(sign_patterns(np.eye(d), fix_first=True)))
    else:
        B = np.vstack([np.eye(d), X, np.random.default_rng(seed).standard_normal((4, d))])
        B = B / lq_norm(B, q, axis=1)[:, None]

    def grads(z):
        # columns 2 ||y_i|| grad ||y_i||_{p*} at y_i = Phi b_i, and the norms ||y_i||_{p*}
        Y = z.reshape(k, d) @ B.T
        n = lq_norm(Y, ps, axis=0)
        U = Y / np.where(n > 0.0, n, 1.0)
        return 2.0 * n * np.sign(U) * np.abs(U) ** (ps - 1.0), n

    # B grows between rounds; the constraint closures always read the current atoms
    cons = {
        "type": "ineq",
        "fun": lambda z: 1.0 - grads(z)[1] ** 2,
        "jac": lambda z: -(grads(z)[0].T[:, :, None] * B[:, None, :]).reshape(len(B), -1),
    }
    z, upper, best = np.zeros(k * d), math.inf, (0.0, np.zeros((k, d)))
    for _ in range(_CUT_ROUNDS):
        res = optimize.minimize(
            lambda z: -float(z @ x), z, jac=lambda z: -x, method="SLSQP",
            constraints=[cons], options={"maxiter": 200, "ftol": 1e-12},
        )
        z, Phi = res.x, res.x.reshape(k, d)
        A = res.multipliers[:, None] * grads(z)[0].T
        R = X - A.T @ B
        cost = (lq_norm(A, p, axis=1) * lq_norm(B, q, axis=1)).sum() + lq_norm(R, q, axis=1).sum()
        upper = min(upper, float(cost))
        starts = np.vstack([B[np.argsort(res.multipliers)[-8:]], _weak_starts(Phi, q, 8, seed)])
        ends, fs = power_iterate(Phi, q, ps, starts, 10)
        top = float(fs.max())
        score = float(z @ x) / top if top > 0.0 else 0.0
        if score > best[0]:
            best = (score, Phi)
        m = len(B)
        for b, f in zip(ends, fs):
            if f > 1.0 + _CUT_TOL and np.minimum(abs(B - b).max(1), abs(B + b).max(1)).min() > 1e-9:
                B = np.vstack([B, b])
        if len(B) == m:
            break
    Phi = best[1]
    num = float((Phi * X).sum())
    den = norm_weak_p(VecSeq(Space(d, conjugate_exponent(q)), Phi), pstar, seed=seed, restarts=8).upper
    return (num / den if num > 0.0 and den > 0.0 else 0.0), upper


def norm_cohen(s: VecSeq, p, seed: int = 0) -> NormBracket:
    """Cohen strongly-p-summable norm: the projective norm of sum_j e_j (x) x_j.

    Exact for p = 1 (sum of norms), scalars (plain l_p), singletons, l_1
    spaces (the l_1 factor splits off), and (p, q) = (2, 2) (trace norm).
    Otherwise `_cohen_bracket` on the rows scaled by their strong-p norm:
    cutting planes on the dual program give a dual lower end, divided by
    the heuristic weak-p* upper end of its functional, and the decomposition
    its KKT multipliers price as the upper end (capped by the strong-1
    norm, then rounded outward by `_ROUNDING`). The lower end is kept under
    it, since it divides by a heuristic weak-p* upper end. The width floor is
    about `ASCENT_SLACK`, the weak-p* slack, unless that bracket is exact (q = inf).
    """
    p = _finite_exponent(p)
    if len(s) == 0 or not s.mat.any():
        return NormBracket.exact_value(0.0, "zero", seed)
    X = s.mat[s.mat.any(axis=1)]  # zero vectors are free in any decomposition
    k = len(X)
    q = s.space.q
    if p == 1:
        return NormBracket.exact_value(norm_strong_p(s, 1), "l1-rows", seed)
    if s.space.dim == 1:
        return NormBracket.exact_value(lq_norm(X[:, 0], float(p)), "scalar-lp", seed)
    if k == 1:
        return NormBracket.exact_value(lq_norm(X[0], q), "singleton", seed)
    if q == 1:
        val = float(lq_norm(X, p, axis=0).sum())
        return NormBracket.exact_value(val, "l1-factor-columns", seed)
    if p == 2 and q == 2:
        val = float(np.linalg.svd(X, compute_uv=False).sum())
        return NormBracket.exact_value(val, "svd-nuclear", seed)

    scale = norm_strong_p(s, p)
    lower, upper = _cohen_bracket(X / scale, q, p, seed)
    upper = min(upper * scale, norm_strong_p(s, 1.0)) * (1.0 + _ROUNDING)
    lower = min(lower * scale, upper)
    return NormBracket(lower, upper, False, "dual-ascent/decomposition-search", seed)


# ---------------------------------------------------------------------------
# dispatcher
# ---------------------------------------------------------------------------

def seq_norm(s: VecSeq, spec: SeqClassSpec, seed: int = 0) -> NormBracket:
    """Uniform bracket-valued interface to the five engines.

    Exact engines come back as zero-width brackets; the Rademacher norm
    falls back to `RAD_MC_SAMPLES` Monte-Carlo samples beyond
    `_optim.SIGN_CUTOFF`.
    """
    if spec.tag == "sup":
        return NormBracket.exact_value(norm_sup(s), "sup", seed)
    if spec.tag == "strong":
        return NormBracket.exact_value(norm_strong_p(s, spec.p), "strong-p", seed)
    if spec.tag == "weak":
        return norm_weak_p(s, spec.p, seed=seed)
    if spec.tag == "rad":
        if len(s) <= _optim.SIGN_CUTOFF:
            return NormBracket.exact_value(norm_rad(s), "rad-enumeration", seed)
        return norm_rad_mc(s, RAD_MC_SAMPLES, seed)
    if spec.tag == "cohen":
        return norm_cohen(s, spec.p, seed=seed)
    raise ValueError(f"unknown spec {spec!r}")


def block_kernel(space: Space, spec: SeqClassSpec, k: int, B: int, seed: int = 0):
    """The map S -> (lower, upper) on (B, k, space.dim) blocks of sequences, its dispatch resolved.

    Entry i equals `seq_norm(VecSeq(space, S[i]), spec, seed)` bit for
    bit. The branch, the float exponents and the enumeration budget are
    fixed here, once per shape. The exact branches that act row by row
    run on the whole block at once: sup and strong-p on every item, and,
    on the items with k >= 2 and no zero row, weak-p on l_inf spaces,
    weak-1 by sign enumeration (q < inf, rows not disjoint) and Rad by
    enumeration, the two enumerations while B 2^(k-1) <= `DEFAULT_BLOCK`.
    A block with no zero entry is all such items, since at k >= 2 no two
    of its rows have disjoint supports. A block whose items all take the
    kernel goes to it as it is, and its lower and upper ends come back as
    one array. Every other item goes through `seq_norm`. A block of
    another shape is a `ValueError`.
    """
    q, shape = float(space.q), (B, k, space.dim)
    kernel, every, overlap = None, False, False
    if k >= 1 and spec.tag == "sup":
        kernel, every = (lambda X: _sup_value(X, q)), True
    elif k >= 1 and spec.tag == "strong":
        p = float(spec.p)
        kernel, every = (lambda X: _strong_value(X, q, p)), True
    elif k >= 2 and spec.tag in ("weak", "rad"):
        enumerable = B << (k - 1) <= DEFAULT_BLOCK
        if spec.tag == "weak" and q == INF:
            p = float(spec.p)
            kernel = lambda X: _weak_linf_value(X, p)
        elif spec.tag == "weak" and spec.p == 1 and enumerable:
            kernel, overlap = (lambda X: _weak_sign_oracle(X, q)), True
        elif spec.tag == "rad" and enumerable:
            kernel = lambda X: _rad_value(X, q)

    def brackets(S: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if S.shape != shape:
            raise ValueError(f"block shape {S.shape} is not {shape}")
        if kernel is not None and (every or S.all()):
            val = kernel(S)
            return val, val
        fast = np.zeros(B, dtype=bool)
        val = np.zeros(B)
        if kernel is not None:
            fast = S.any(axis=-1).all(axis=-1)  # the one-sequence engines drop zero rows
            if overlap:
                fast &= ~_rows_disjoint(S)
            if fast.any():
                val[fast] = kernel(S[fast])
        lower, upper = val.copy(), val
        for i in (~fast).nonzero()[0]:
            b = seq_norm(VecSeq(space, S[i]), spec, seed=seed)
            lower[i], upper[i] = b.lower, b.upper
        return lower, upper

    return brackets
