"""Sequence-class norms on finite vector sequences.

Five engines: sup, strong-p, weak-p, Rademacher, and Cohen (projective).
Supremum-defined norms come back as a `NormBracket`: a certified interval
whose lower end is witnessed by an explicit feasible point. Exact branches
(closed forms, finite enumerations, SVD) collapse the bracket to a point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Sequence

import numpy as np

from ._optim import SIGN_CUTOFF, ball_max, sign_patterns, sphere_grid, unit_scaled
from .spaces import INF, Space, Vector, as_exponent, conjugate_exponent, dual_witness, lq_norm

__all__ = [
    "SIGN_CUTOFF",
    "ASCENT_SLACK",
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
]

#: Relative slack reported on heuristic (search-derived) upper ends.
ASCENT_SLACK = 1e-3


@dataclass(frozen=True, eq=False)
class VecSeq:
    """A finite sequence of k vectors in one space, stored as a k x d matrix."""

    space: Space
    mat: np.ndarray = field(repr=False)

    def __post_init__(self):
        m = np.array(self.mat, dtype=float)
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

    @classmethod
    def from_vectors(cls, vectors: Sequence[Vector]) -> "VecSeq":
        if not vectors:
            raise ValueError("cannot infer the space from an empty vector list")
        space = vectors[0].space
        for v in vectors:
            if v.space != space:
                raise ValueError("all vectors must share one space")
        return cls(space, np.stack([v.coords for v in vectors]))

    def __len__(self) -> int:
        return self.mat.shape[0]

    @property
    def vectors(self) -> tuple[Vector, ...]:
        return tuple(Vector(self.space, row) for row in self.mat)

    def vector(self, j: int) -> Vector:
        return Vector(self.space, self.mat[j])

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

    _PARAMETRIC = ("strong", "weak", "cohen")
    _TAGS = ("sup", "strong", "weak", "rad", "cohen")

    def __post_init__(self):
        if self.tag not in self._TAGS:
            raise ValueError(f"unknown sequence-class tag {self.tag!r}")
        if self.tag in self._PARAMETRIC:
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
    """Certified enclosure [lower, upper] of a norm value.

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
        if lo < 0.0 and lo > -1e-12:
            lo = 0.0
        if not lo <= up:  # lo > up, or an end is NaN
            if math.isnan(lo) or math.isnan(up):
                raise ValueError(f"bracket [{lo}, {up}] has a NaN end")
            if lo - up > 1e-9 * max(1.0, abs(up)):
                raise ValueError(f"invalid bracket [{lo}, {up}]")
            lo = up
        if self.exact and up - lo > 1e-9 * max(1.0, up):
            raise ValueError(f"bracket [{lo}, {up}] too wide to be exact")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", up)

    @classmethod
    def exact_value(cls, value: float, method: str, seed: int = 0) -> "NormBracket":
        return cls(value, value, True, method, seed)

    @property
    def mid(self) -> float:
        return 0.5 * (self.lower + self.upper)

    @property
    def width(self) -> float:
        return self.upper - self.lower

    def contains(self, value: float, tol: float = 0.0) -> bool:
        return self.lower - tol <= value <= self.upper + tol

    def scaled(self, c: float) -> "NormBracket":
        if c < 0:
            raise ValueError("bracket scaling factor must be nonnegative")
        return replace(self, lower=self.lower * c, upper=self.upper * c)


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
    X, e = unit_scaled(s.mat)
    return math.ldexp(float(lq_norm(X, s.space.q, axis=1).max()), e)


def norm_strong_p(s: VecSeq, p) -> float:
    """(sum_j ||x_j||^p)^(1/p)."""
    p = float(_finite_exponent(p))
    if len(s) == 0:
        return 0.0
    X, e = unit_scaled(s.mat)
    return math.ldexp(lq_norm(lq_norm(X, s.space.q, axis=1), p), e)


# ---------------------------------------------------------------------------
# weak-p
# ---------------------------------------------------------------------------

def _rows_disjoint(X: np.ndarray) -> bool:
    support = X != 0.0
    return bool((support.sum(axis=0) <= 1).all())


def _weak_disjoint_value(X: np.ndarray, q, p: float) -> float:
    # rows with pairwise disjoint supports decouple: each row j can absorb
    # a dual-ball budget t_j on its own coordinates, contributing
    # (t_j ||x_j||_q)^p; the best budget split gives the l_s norm of the
    # row norms, 1/s = max(1/p - 1/q*, 0)
    r = p / float(conjugate_exponent(q))
    return lq_norm(lq_norm(X, q, axis=1), p / (1.0 - r) if r < 1.0 else INF)


def _weak_sign_oracle(X: np.ndarray, q) -> float:
    X, e = unit_scaled(X)
    best = 0.0
    for sums in sign_patterns(X, fix_first=True):
        best = max(best, float(lq_norm(sums, q, axis=1).max()))
    return math.ldexp(best, e)


#: `ball_max` methods under the names the weak-p brackets report.
_WEAK_METHODS = {
    "l1-ball-vertices": "dual-l1-extreme-points",
    "linf-ball-vertices": "dual-linf-vertices",
}


def _weak_starts(X: np.ndarray, ball_q, p: float, restarts: int, seed: int):
    """Unit-ball starts for the weak-p search: row witnesses, the best grid points, random points."""
    d = X.shape[1]
    for row in X:
        yield dual_witness(row, ball_q)
    if d <= 3:
        # brace the restarts with the best points of a deterministic grid
        grid = sphere_grid(d, float(ball_q))
        yield from grid[np.argsort(lq_norm(X @ grid.T, p, axis=0))[-3:]]
    rng = np.random.default_rng(seed)
    for _ in range(restarts):
        v = rng.standard_normal(d)
        yield v / lq_norm(v, ball_q)


def norm_weak_p(
    s: VecSeq,
    p,
    seed: int = 0,
    sign_cutoff: int = SIGN_CUTOFF,
    restarts: int = 32,
) -> NormBracket:
    """sup over the dual unit ball of (sum_j |phi(x_j)|^p)^(1/p).

    Exact branches: singleton, l_inf spaces (dual l_1 extreme points),
    rows with disjoint supports, p = 1 via sign enumeration, l_1 spaces via
    dual l_inf vertices, and (p, q) = (2, 2) via the top singular value.
    Otherwise `ball_max` runs power iteration from the row witnesses, the
    best grid points (d <= 3) and `restarts` random points: the lower end
    is attained by its maximizer, and the upper end carries `ASCENT_SLACK`
    (capped by the strong-p norm). `ball_max` gets the rows scaled by an
    exact power of two, so its branches, the search included, are exactly
    homogeneous under scaling by powers of two.
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
    if q != INF:  # l_inf spaces go straight to the dual l_1 extreme points
        if _rows_disjoint(X):
            return NormBracket.exact_value(_weak_disjoint_value(X, q, p), "disjoint-support", seed)
        if p == 1.0 and k <= sign_cutoff:
            return NormBracket.exact_value(_weak_sign_oracle(X, q), "sign-enumeration", seed)

    ball_q = conjugate_exponent(q)
    X, e = unit_scaled(X)
    val, _, method = ball_max(
        X, ball_q, p, _weak_starts(X, ball_q, p, restarts, seed), sign_cutoff=sign_cutoff
    )
    val = math.ldexp(val, e)
    if method != "power-iteration":
        return NormBracket.exact_value(val, _WEAK_METHODS.get(method, method), seed)
    upper = min(val * (1.0 + ASCENT_SLACK), norm_strong_p(s, p))
    return NormBracket(val, upper, False, method, seed)


# ---------------------------------------------------------------------------
# Rademacher
# ---------------------------------------------------------------------------

def norm_rad(s: VecSeq, sign_cutoff: int = SIGN_CUTOFF) -> float:
    """Exact Rademacher average (2^-k sum over signs of ||sum_j e_j x_j||^2)^(1/2).

    The L_2 average of the random signed sum over [0,1] equals this finite
    mean exactly, so no quadrature is involved.
    """
    k = len(s)
    if k > sign_cutoff:
        raise ValueError(
            f"k={k} exceeds sign cutoff {sign_cutoff}; use norm_rad_mc for long sequences"
        )
    if k == 0 or not s.mat.any():
        return 0.0
    X, e = unit_scaled(s.mat[s.mat.any(axis=1)])  # signs on zero vectors never matter
    q = s.space.q
    total, count = 0.0, 0
    for sums in sign_patterns(X, fix_first=True):
        vals = lq_norm(sums, q, axis=1)
        total += float((vals * vals).sum())
        count += sums.shape[0]
    return math.ldexp(math.sqrt(total / count), e)


def norm_rad_prefix_sup(s: VecSeq, sign_cutoff: int = SIGN_CUTOFF) -> float:
    """max over prefixes of the Rademacher norm (coincides with the full norm)."""
    if len(s) > sign_cutoff:
        raise ValueError(f"k={len(s)} exceeds sign cutoff {sign_cutoff}")
    return max((norm_rad(truncate(s, m), sign_cutoff) for m in range(len(s) + 1)), default=0.0)


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

def _cohen_lower(s: VecSeq, p: float, seed: int, hint: tuple | None = None) -> float:
    """Best certified dual value: sum_j <phi_j, x_j> for a feasible (phi_j).

    Feasibility is enforced by dividing each candidate by the *upper* end
    of its weak-p* bracket, so the returned value is a true lower bound
    even when that inner norm is itself estimated.
    """
    X = s.mat
    k, d = X.shape
    q = s.space.q
    qstar = conjugate_exponent(q)
    dual_space = s.space.dual
    pstar = conjugate_exponent(as_exponent(p))
    pv = float(pstar)

    def value(Phi: np.ndarray) -> float:
        num = float((Phi * X).sum())
        if num <= 0.0:
            return 0.0
        den = norm_weak_p(VecSeq(dual_space, Phi), pstar, seed=seed, restarts=8).upper
        if den <= 0.0:
            return 0.0
        return num / den

    def quick_starts(Phi: np.ndarray):
        # the best grid point (d <= 3) or the peak-row and column-sum witnesses
        if d <= 3:
            grid = sphere_grid(d, float(q))
            yield grid[int(np.argmax(lq_norm(Phi @ grid.T, pv, axis=0)))]
        else:
            yield dual_witness(Phi[int(np.argmax(lq_norm(Phi, 2, axis=1)))], q)
            yield dual_witness(Phi.sum(axis=0), q)

    def value_quick(Phi: np.ndarray) -> float:
        # search-loop surrogate: the same quantity from a few dual updates
        # (exact on the l_1 ball and on small l_inf balls); the winning
        # candidate is re-scored by the full evaluator
        num = float((Phi * X).sum())
        if num <= 0.0:
            return 0.0
        den, _, method = ball_max(Phi, q, pv, quick_starts(Phi), 4 if d <= 3 else 14)
        if method == "power-iteration":
            den = min(den * (1.0 + ASCENT_SLACK), lq_norm(lq_norm(Phi, qstar, axis=1), pv))
        return num / den if den > 0 else 0.0

    row_norms = lq_norm(X, q, axis=1)
    witnesses = np.stack([dual_witness(row, qstar) for row in X])
    candidates = [witnesses]
    if d <= 3:
        prog = _dual_program_candidate(X, float(p), q)
        if prog is not None:
            candidates.append(prog)
    if row_norms.any():
        w = row_norms ** (float(p) - 1.0)
        candidates.append(witnesses * w[:, None])
    u, _, vt = np.linalg.svd(X, full_matrices=False)
    candidates.append(u @ vt)
    if hint is not None:
        # align with the cheapest decomposition found: pick T with
        # T a_i = ||a_i||_p * (norming functional of b_i); at a tight
        # decomposition this T is nearly dual-feasible after rescaling
        A, B = hint
        keep = [i for i in range(A.shape[0]) if A[i].any() and B[i].any()]
        if keep:
            A, B = A[keep], B[keep]
            psi = np.stack([dual_witness(b, qstar) for b in B])
            targets = psi * lq_norm(A, p, axis=1)[:, None]
            T = targets.T @ np.linalg.pinv(A.T)  # d x k
            candidates.append(T.T)

    best_val, best_phi = 0.0, candidates[0]
    for cand in candidates:
        v = value(cand)
        if v > best_val:
            best_val, best_phi = v, cand

    from scipy import optimize

    res = optimize.minimize(
        lambda flat: -value_quick(flat.reshape(k, d)),
        best_phi.ravel(),
        method="Powell",
        options={"maxfev": 300, "xtol": 1e-8, "ftol": 1e-10},
    )
    if -res.fun > best_val:
        best_val = max(best_val, value(res.x.reshape(k, d)))
    return best_val


def _dual_program_candidate(X: np.ndarray, p: float, q) -> np.ndarray | None:
    """Solve max <Phi, X> over the dual-feasible set, cutting-plane style.

    Feasibility sup_{x in B_q} ||Phi x||_{p*} <= 1 is imposed on the
    extreme points of the ball for q = inf (exact) and on an adaptively
    grown subset of the sphere grid otherwise. The result is only a
    candidate: the caller re-certifies it through the rescaling pipeline.
    """
    from scipy import optimize

    k, d = X.shape
    qf = float(q)
    pstar = p / (p - 1.0) if p > 1.0 else math.inf
    if pstar == math.inf:
        return None
    if qf == math.inf:
        pts = np.vstack(list(sign_patterns(np.eye(d), fix_first=True)))
        rounds = 1
    else:
        pts = sphere_grid(d, qf)
        rounds = 3
    active = pts[:: max(1, len(pts) // 16)].copy()
    phi0 = np.zeros(k * d)

    for _ in range(rounds):
        acts = active

        def neg_obj(z):
            return -float(z.reshape(k, d).ravel() @ X.ravel())

        def cons_fun(z):
            return 1.0 - lq_norm(z.reshape(k, d) @ acts.T, pstar, axis=0)

        res = optimize.minimize(
            neg_obj, phi0, method="SLSQP",
            constraints=[{"type": "ineq", "fun": cons_fun}],
            options={"maxiter": 120, "ftol": 1e-12},
        )
        if not np.isfinite(res.fun):
            return None
        phi0 = res.x
        Phi = res.x.reshape(k, d)
        scores = lq_norm(Phi @ pts.T, pstar, axis=0)
        worst = np.argsort(scores)[-8:]
        if scores[worst[-1]] <= 1.0 + 1e-9:
            break
        active = np.vstack([active, pts[worst]])
    return phi0.reshape(k, d)


def _decomposition_cost(A: np.ndarray, B: np.ndarray, p: float, q) -> float:
    return float((lq_norm(A, p, axis=1) * lq_norm(B, q, axis=1)).sum())


def _vertex_program_upper(X: np.ndarray, p: float) -> tuple[float, tuple]:
    """Decompose X over the sign vertices of the l_inf ball (q = inf only).

    Any rank-one term a (x) b rewrites at equal cost over the vertices of
    the l_inf ball, so minimizing sum_v ||a_v||_p subject to
    sum_v a_v v^T = X is the exact projective norm. The smoothed program
    is solved locally; the returned cost is evaluated at an exactly
    feasible point (least-squares correction), hence a true upper bound.
    """
    from scipy import optimize

    k, d = X.shape
    verts = np.vstack(list(sign_patterns(np.eye(d), fix_first=True)))  # (V, d)
    V = verts.shape[0]
    M = verts.T  # d x V; constraint: coeff @ M.T... per row j: verts.T @ a_j = X[j]

    def unpack(z):
        return z.reshape(V, k)

    def make_feasible(z):
        A = unpack(z)
        # correct each sequence slot independently: verts^T a_.j = X[j,:]
        resid = verts.T @ A - X.T  # d x k
        A = A - np.linalg.pinv(verts.T) @ resid
        return A

    def smooth_obj(z, eps):
        A = unpack(z)
        return float(sum((lq_norm(A[v], p) ** 2 + eps * eps) ** 0.5 for v in range(V)))

    z0 = np.linalg.pinv(verts.T).dot(X.T).ravel()
    cons = {
        "type": "eq",
        "fun": lambda z: (verts.T @ unpack(z) - X.T).ravel(),
    }
    z = z0
    for eps in (1e-2, 1e-5):
        res = optimize.minimize(
            smooth_obj, z, args=(eps,), constraints=[cons], method="SLSQP",
            options={"maxiter": 160, "ftol": 1e-12},
        )
        if np.isfinite(res.fun):
            z = res.x
    A = make_feasible(z)
    cost = _decomposition_cost(A.reshape(V, k), verts, p, INF)
    return cost, (A.reshape(V, k), verts)


def _cohen_upper(s: VecSeq, p: float, seed: int) -> tuple[float, tuple]:
    """Cheapest explicit decomposition sum_i a_i (x) b_i found for the sequence tensor.

    Returns the cost and the factor pair (A, B) realizing it, rows a_i in
    l_p^k and b_i in the target space.
    """
    X = s.mat
    k, d = X.shape
    q = s.space.q

    rows_factors = (np.eye(k), X.copy())
    best, factors = _decomposition_cost(*rows_factors, p, q), rows_factors
    cols_factors = (X.T.copy(), np.eye(d))
    cand = _decomposition_cost(*cols_factors, p, q)
    if cand < best:
        best, factors = cand, cols_factors

    u, sig, vt = np.linalg.svd(X, full_matrices=False)
    nz = sig > sig[0] * 1e-13 if sig.size else np.zeros(0, bool)
    r = int(nz.sum())
    if r == 0:
        return 0.0, (np.zeros((1, k)), np.zeros((1, d)))
    root = np.sqrt(sig[nz])
    A0 = (u[:, nz] * root).T  # r x k
    B0 = vt[nz] * root[:, None]  # r x d
    cand = _decomposition_cost(A0, B0, p, q)
    if cand < best:
        best, factors = cand, (A0, B0)

    rng = np.random.default_rng(seed)

    def orbit_search(A: np.ndarray, B: np.ndarray, maxfev: int, tries: int):
        # all decompositions with the same number of terms are one GL
        # orbit away from this one, so an unconstrained local search over
        # the mixing matrix covers them
        from scipy import optimize

        nonlocal best, factors
        rr = A.shape[0]

        def cost_of(flat: np.ndarray) -> float:
            G = np.eye(rr) + flat.reshape(rr, rr)
            det = np.linalg.det(G)
            if abs(det) < 1e-9:
                return 1e12
            return _decomposition_cost(G.T @ A, np.linalg.solve(G, B), p, q)

        for t in range(tries):
            z0 = np.zeros(rr * rr) if t == 0 else rng.standard_normal(rr * rr) * 0.4
            res = optimize.minimize(
                cost_of, z0, method="Powell",
                options={"maxfev": maxfev, "xtol": 1e-8, "ftol": 1e-10},
            )
            if res.fun < best:
                G = np.eye(rr) + res.x.reshape(rr, rr)
                best, factors = float(res.fun), (G.T @ A, np.linalg.solve(G, B))

    orbit_search(A0, B0, 600, 2)
    if r <= 5:
        pad_a, pad_b = np.zeros((1, k)), np.zeros((1, d))
        orbit_search(np.vstack([A0, pad_a]), np.vstack([B0, pad_b]), 450, 1)

    if q == INF and d <= 6:
        cand, vfac = _vertex_program_upper(X, p)
        if cand < best:
            best, factors = cand, vfac

    # greedy rank-one peeling of the residual, trivial completion priced per step
    Y = X.copy()
    peels: list[tuple[np.ndarray, np.ndarray]] = []
    peel_cost = 0.0
    for _ in range(50):
        uu, ss, vv = np.linalg.svd(Y, full_matrices=False)
        if ss[0] <= 1e-14:
            break
        u1, v1 = uu[:, 0], vv[0]

        qf = float(q)

        def total_at(c: float) -> float:
            resid = Y - c * np.outer(u1, v1)
            return (
                peel_cost
                + abs(c) * lq_norm(u1, p) * lq_norm(v1, qf)
                + float(lq_norm(resid, qf, axis=1).sum())
            )

        cs = ss[0] * np.linspace(0.0, 1.4, 15)
        i = int(np.argmin([total_at(c) for c in cs]))
        c = float(cs[i])
        if c == 0.0:
            break
        peels.append((c * u1, v1.copy()))
        peel_cost += c * lq_norm(u1, p) * lq_norm(v1, qf)
        Y = Y - c * np.outer(u1, v1)
        total = peel_cost + float(lq_norm(Y, qf, axis=1).sum())
        if total < best:
            A = np.vstack([np.stack([a for a, _ in peels]), np.eye(k)])
            B = np.vstack([np.stack([b for _, b in peels]), Y])
            best, factors = total, (A, B)
    return best, factors


def norm_cohen(s: VecSeq, p, seed: int = 0) -> NormBracket:
    """Cohen strongly-p-summable norm: the projective norm of sum_j e_j (x) x_j.

    Exact for p = 1 (sum of norms), scalars (plain l_p), singletons, l_1
    spaces (the l_1 factor splits off), and (p, q) = (2, 2) (trace norm).
    Otherwise a heuristic bracket: certified dual lower bound against the
    cheapest explicit decomposition found.
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

    pf = float(p)
    scale = norm_strong_p(s, pf)
    sn = VecSeq(s.space, X / scale)
    upper_n, factors = _cohen_upper(sn, pf, seed)
    lower = _cohen_lower(sn, pf, seed, hint=factors) * scale
    upper = min(upper_n * scale, norm_strong_p(s, 1.0))
    lower = min(lower, upper)
    return NormBracket(lower, upper, False, "dual-ascent/decomposition-search", seed)


# ---------------------------------------------------------------------------
# dispatcher
# ---------------------------------------------------------------------------

def seq_norm(
    s: VecSeq,
    spec: SeqClassSpec,
    seed: int = 0,
    sign_cutoff: int = SIGN_CUTOFF,
    mc_samples: int = 10_000,
) -> NormBracket:
    """Uniform bracket-valued interface to the five engines.

    Exact engines come back as zero-width brackets; the Rademacher norm
    falls back to Monte Carlo beyond the sign cutoff.
    """
    if spec.tag == "sup":
        return NormBracket.exact_value(norm_sup(s), "sup", seed)
    if spec.tag == "strong":
        return NormBracket.exact_value(norm_strong_p(s, spec.p), "strong-p", seed)
    if spec.tag == "weak":
        return norm_weak_p(s, spec.p, seed=seed, sign_cutoff=sign_cutoff)
    if spec.tag == "rad":
        if len(s) <= sign_cutoff:
            return NormBracket.exact_value(norm_rad(s, sign_cutoff), "rad-enumeration", seed)
        return norm_rad_mc(s, mc_samples, seed)
    if spec.tag == "cohen":
        return norm_cohen(s, spec.p, seed=seed)
    raise ValueError(f"unknown spec {spec!r}")
