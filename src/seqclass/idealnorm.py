"""Summing norms of multilinear operators over sequence classes.

The ideal norm of an operator relative to input classes X_1,...,X_n and an
output class Y is the best constant C with

    Y-norm(A(x^1_j,...,x^n_j))_j  <=  C * prod_m X_m-norm(x^m_j)_j

over all finite sequences. The estimator sweeps sequence lengths k,
maximizing the certified ratio (output lower / product of input uppers);
the k = 1 slice recovers the operator norm. At each longer k a hill climb
advances all its starts as one population. A block ratio scores many
candidate tuples with one `evaluate_batch` call and one block-kernel call
per class, whose dispatch is resolved once per length
(`seqnorm.block_kernel`). Where every class has a whole-block kernel,
one block ratio scores the candidates of the next four steps of every
start; elsewhere it scores one step. Stability and growth
experiments probe which classes transport through multilinear maps with
constant equal to the operator norm, and at what rate the others fail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .multiop import MultiOp, OpNormEstimate, diag_operator, evaluate_batch, op_norm, seq_tuple_length
from .sampling import DEFAULT_EXPONENTS, random_operator, random_vecseq
from .seqnorm import NormBracket, SeqClassSpec, VecSeq, block_kernel, seq_norm
from .spaces import INF, Space, as_exponent, conjugate_exponent

__all__ = [
    "IdealSpec",
    "IdealNormEstimate",
    "StabilityReport",
    "LimitStabilityReport",
    "ideal_ratio",
    "ideal_norm",
    "stability_report",
    "growth_experiment",
    "limit_stability_experiment",
    "scalar_compatibility_excess",
]

#: Relative slack a searched value may exceed its proven bound by before a check fails.
TRANSPORT_SLACK = 1e-6


@dataclass(frozen=True)
class IdealSpec:
    """Input classes (one per operator slot) and the output class."""

    inputs: tuple[SeqClassSpec, ...]
    output: SeqClassSpec

    def __post_init__(self):
        inputs = tuple(self.inputs)
        if not inputs:
            raise ValueError("at least one input class required")
        object.__setattr__(self, "inputs", inputs)

    @property
    def arity(self) -> int:
        return len(self.inputs)

    @property
    def finitely_determined(self) -> bool:
        return all(c.finitely_determined for c in self.inputs) and self.output.finitely_determined

    @classmethod
    def uniform(cls, spec: SeqClassSpec, n: int) -> "IdealSpec":
        return cls((spec,) * n, spec)

    @classmethod
    def holder(cls, tag: str, ps: Sequence) -> "IdealSpec":
        """(tag p_1, ..., tag p_n; tag p) with p = max(1, 1 / sum_m 1/p_m) in exact Fractions."""
        inputs = tuple(SeqClassSpec(tag, p) for p in ps)
        p_out = max(Fraction(1), 1 / sum(1 / c.p for c in inputs))
        return cls(inputs, SeqClassSpec(tag, p_out))

    @classmethod
    def stable_family(cls, family: SeqClassSpec, n: int) -> "IdealSpec":
        """The theorem-backed ideal spec for a stable class family.

        weak-1 and Rad transport into themselves; strong-p and Cohen-p
        admit the tighter Hoelder output exponent of `holder`. Weak-p for
        p > 1 does not transport (see `growth_experiment`), nor has sup a theorem.
        """
        if family.tag == "rad" or (family.tag == "weak" and family.p == 1):
            return cls.uniform(family, n)
        if family.tag in ("strong", "cohen"):
            return cls.holder(family.tag, (family.p,) * n)
        raise ValueError(f"no stability theorem on file for class {family.describe()}")

    def describe(self) -> str:
        ins = ", ".join(c.describe() for c in self.inputs)
        return f"({ins}; {self.output.describe()})"


@dataclass(frozen=True)
class IdealNormEstimate:
    """Result of the k-sweep search for the summing norm."""

    bracket: NormBracket
    best_k: int
    witness: tuple[VecSeq, ...]
    ratio_by_k: tuple[tuple[int, float], ...]
    op_estimate: OpNormEstimate


def ideal_ratio(
    A: MultiOp, spec: IdealSpec, seqs: Sequence[VecSeq], seed: int = 0
) -> float:
    """Certified ratio output-lower / product of input-uppers for one tuple.

    A valid lower bound on any constant C for which the summing
    inequality holds. The B = 1 case of the block ratio the hill climb
    scores its populations with; an input sequence of norm zero is an error.
    """
    if spec.arity != A.arity:
        raise ValueError(f"spec arity {spec.arity} does not match operator arity {A.arity}")
    if seq_tuple_length(A, seqs) < 1:
        raise ValueError("sequences must have length k >= 1")
    if not all(s.mat.any() for s in seqs):  # every class norm vanishes exactly on the zero sequence
        raise ValueError("input sequence of norm zero is excluded from ratios")
    return float(_ratio_map(A, spec, len(seqs[0]), 1, seed)([s.mat[None] for s in seqs])[0])


def _ratio_map(A: MultiOp, spec: IdealSpec, k: int, B: int, seed: int):
    """The map mats -> certified ratios of B tuples of length k, the dispatch of every class resolved.

    mats[m] is a (B, k, d_m) stack; a stack of another shape is a
    `ValueError` of its class's `block_kernel`, which is fixed here, once
    per shape. A call then makes one `evaluate_batch` call on all B k
    argument rows and one kernel call per class. The ratio is 0 wherever
    an input norm is 0. A ratio may differ in the last bit from the B = 1
    call on the same tuple (see `evaluate_batch`): at k = 1 a (B, 1, d)
    stack differed from its B = 1 calls on 42-61% of rows, at k = 2 to 6
    on none, whatever B. The hill climb scores no k = 1 stack, and its
    lookahead rests on that row independence. The map's `whole_block`
    attribute is true when every class's `block_kernel` has a whole-block
    kernel at this shape, so that a block with no zero entry makes no
    `seq_norm` call.
    """
    inputs = [block_kernel(s, c, k, B, seed) for s, c in zip(A.domain, spec.inputs)]
    output = block_kernel(A.codomain, spec.output, k, B, seed)

    def ratio(mats: Sequence[np.ndarray]) -> np.ndarray:
        denom = inputs[0](mats[0])[1]
        for kernel, M in zip(inputs[1:], mats[1:]):
            denom = denom * kernel(M)[1]
        out = evaluate_batch(A, [M.reshape(B * k, -1) for M in mats]).reshape(B, k, -1)
        return np.divide(output(out)[0], denom, out=np.zeros(B), where=denom > 0.0)

    ratio.whole_block = all(kernel.whole_block for kernel in inputs) and output.whole_block
    return ratio


#: Hill-climb steps per start at each sequence length.
_CLIMB_STEPS = 40

#: Steps a climb round scores in one block ratio where every class has a
#: whole-block kernel; divides `_CLIMB_STEPS`.
_LOOKAHEAD = 4


def ideal_norm(
    A: MultiOp,
    spec: IdealSpec,
    k_max: int,
    restarts: int = 8,
    seed: int = 0,
) -> IdealNormEstimate:
    """Maximize the certified ratio over sequences of length 1..k_max.

    k = 1 is solved by the operator-norm search (its witness is the best
    singleton tuple). Each longer length k runs a random-search hill
    climb from 3 + `restarts` starts: the best witness so far, zero-padded
    to length k, the coordinate sequences, the signed operator
    witness and `restarts` random draws. The starts advance as one
    population for `_CLIMB_STEPS` steps: every step moves each start
    along its own random direction, scaled by its own step size, and a
    start keeps its candidate only if the ratio rises. The steps run in
    rounds (`_climb_round`) of `_LOOKAHEAD` steps, whose 15 reachable
    candidates per start one block ratio scores, when the ratio map on
    that many rows runs every class as one whole-block kernel: sup,
    strong-p, Rad on l_2, weak-p on l_inf, and the weak-1 and Rad
    enumerations while 15 S 2^(k-1) <= `_optim.DEFAULT_BLOCK` for S starts.
    Otherwise a round is one step, so that a class scored item by item
    (heuristic weak-p, Cohen) scores no candidate the climb does not
    reach. The result is the one-step climb's, bit for bit, either way.
    The ratio maps (`_ratio_map`) are resolved once per k: each class's
    branch, float exponents and enumeration budget are fixed before the
    scorings of that length (11 at depth 4, 41 at depth 1). The
    ratio-by-k curve is reported as a running maximum, which the
    pad-with-zeros argument justifies, and the bracket is
    `NormBracket.searched` at the best ratio, with no cap.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    if restarts < 0:
        raise ValueError("restarts must be >= 0")
    if spec.arity != A.arity:
        raise ValueError("spec arity does not match the operator")

    rng = np.random.default_rng(seed)
    op_est = op_norm(A, seed=seed)
    witness1 = tuple(
        VecSeq(s, w.coords[None, :]) for s, w in zip(A.domain, op_est.witness)
    )
    best_ratio = float(_ratio_map(A, spec, 1, 1, seed)([w.mat[None] for w in witness1])[0])
    best_k, best_witness = 1, witness1
    curve = [(1, best_ratio)]

    dims = [s.dim for s in A.domain]

    for k in range(2, k_max + 1):
        padded = [
            np.vstack([w.mat, np.zeros((k - 1 - len(w), d)), 0.01 * rng.standard_normal((1, d))])
            for w, d in zip(best_witness, dims)
        ]
        # canonical structured candidates: coordinate sequences (cycled
        # past the dimension) and the operator witness repeated with signs
        basis = [np.eye(d)[np.arange(k) % d] for d in dims]
        signs = rng.choice([-1.0, 1.0], size=k)
        repw = [signs[:, None] * np.tile(w.coords, (k, 1)) for w in op_est.witness]
        starts = [np.concatenate([m.ravel() for m in ms]) for ms in (padded, basis, repw)]
        for _ in range(restarts):
            starts.append(np.concatenate([rng.standard_normal(k * d) for d in dims]))
        Z = np.vstack(starts)
        # unit step directions, drawn start by start as a sequential climb would draw them
        U = rng.standard_normal((len(Z), _CLIMB_STEPS, Z.shape[1]))
        n = _row_norms(U)
        U = U / np.where(n > 0.0, n, 1.0)[..., None]
        ratio = _ratio_map(A, spec, k, len(Z), seed)
        f = ratio(_slots(Z, k, dims))
        step = np.full(len(Z), 0.4)
        lookahead = _ratio_map(A, spec, k, ((1 << _LOOKAHEAD) - 1) * len(Z), seed)
        depth, score = (_LOOKAHEAD, lookahead) if lookahead.whole_block else (1, ratio)
        for t in range(0, _CLIMB_STEPS, depth):
            Z, f, step = _climb_round(score, Z, f, step, U[:, t : t + depth], k, dims)
        # the first best start, as a sequential climb over the starts would keep it
        f = np.where(f > 0.0, f, 0.0)
        i = int(np.argmax(f))
        # a longer witness must win by more than roundoff, so ties keep the shorter k
        if f[i] > best_ratio * (1.0 + 1e-12):
            best_ratio, best_k = float(f[i]), k
            best_witness = tuple(VecSeq(s, m[i]) for s, m in zip(A.domain, _slots(Z, k, dims)))
        curve.append((k, best_ratio))

    bracket = NormBracket.searched(best_ratio, "k-sweep-ratio-search", seed)
    return IdealNormEstimate(bracket, best_k, best_witness, tuple(curve), op_est)


def _climb_round(score, Z, f, step, U, k: int, dims: Sequence[int]):
    """The next U.shape[1] climb steps of every start, their candidates scored in one block ratio.

    From each start's state (row of Z, f, step), the depth steps can reach
    2^j states after j accept/reject decisions. A node's children keep its
    point at step * 0.8 or move to its candidate at min(step * 1.3, 1).
    Every node's candidate is computed with the one-step climb's
    expressions, and one `score` call rates all (2^depth - 1) B of them.
    Each start then walks down its tree with the real decisions fc > f,
    so it ends in the state that depth one-step rounds reach, bit for
    bit, as long as a block ratio's rows do not depend on the block (see
    `_ratio_map`).
    """
    B, depth = len(Z), U.shape[1]
    nodes, steps = Z[:, None], step[:, None]
    for j in range(depth):
        cand = nodes + (steps * _row_norms(nodes))[..., None] * U[:, j, None]
        # node i's children are i, at its point, and 2^j + i, at its candidate
        nodes = np.concatenate([nodes, cand], axis=1)
        steps = np.concatenate([steps * 0.8, np.minimum(steps * 1.3, 1.0)], axis=1)
    # nodes[:, 0] is the start's point, nodes[:, 2^j + i] the candidate of node i at level j
    F = score(_slots(nodes[:, 1:].reshape(B * ((1 << depth) - 1), -1), k, dims)).reshape(B, -1)
    rows, node = np.arange(B), np.zeros(B, dtype=np.intp)
    for j in range(depth):
        fc = F[rows, (1 << j) - 1 + node]
        up = fc > f
        f = np.where(up, fc, f)
        node += up << j
    return nodes[rows, node], f, steps[rows, node]


def _slots(Z: np.ndarray, k: int, dims: Sequence[int]) -> list[np.ndarray]:
    """The (B, k, d_m) argument stacks of a (B, k sum_m d_m) block of flattened tuples."""
    stacks, end = [], 0
    for d in dims:
        stacks.append(Z[:, end : end + k * d].reshape(len(Z), k, d))
        end += k * d
    return stacks


def _row_norms(Z: np.ndarray) -> np.ndarray:
    """Euclidean norms along the last axis, each one sqrt(z . z) as `np.linalg.norm(z)` takes it."""
    return np.sqrt((Z[..., None, :] @ Z[..., :, None])[..., 0, 0])


# ---------------------------------------------------------------------------
# stability
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StabilityReport:
    """Outcome of randomized transport tests for one class family."""

    trials: int
    violations: int
    max_ratio_over_ceiling: float

    @property
    def passed(self) -> bool:
        return self.violations == 0


def _stability_trials(
    spec_factory,
    arity: int,
    trials: int,
    seed: int,
    k_max: int,
    dims,
    exponents,
) -> StabilityReport:
    """Per trial: `spec_factory(rng)`, an operator, k <= `k_max` and sequences, against `op_norm`."""
    rng = np.random.default_rng(seed)
    violations, max_rel = 0, 0.0
    for t in range(trials):
        spec = spec_factory(rng)
        A = random_operator(rng, arity, dims, exponents)
        k = int(rng.integers(1, k_max + 1))
        seqs = [random_vecseq(rng, s, k) for s in A.domain]
        ratio = ideal_ratio(A, spec, seqs, seed=seed + t)
        ceiling = op_norm(A, seed=seed + t).bracket.upper
        if ratio > ceiling * (1.0 + TRANSPORT_SLACK):
            # re-verify before flagging: reinforce the ceiling with more
            # restarts plus the per-index argument tuples of the sequences
            extra = [[s.mat[j] for s in seqs] for j in range(k)]
            ceiling = op_norm(A, seed=seed + t, restarts=64, starts=extra).bracket.upper
            violations += ratio > ceiling * (1.0 + TRANSPORT_SLACK)
        max_rel = max(max_rel, ratio / ceiling if ceiling > 0 else math.inf)
    return StabilityReport(trials, violations, max_rel)


def stability_report(
    spec_family: SeqClassSpec,
    arity: int,
    trials: int,
    seed: int = 0,
    k_max: int = 6,
    dims=4,
    exponents=DEFAULT_EXPONENTS,
) -> StabilityReport:
    """Randomized check that a stable family never beats the operator norm.

    Supported families: those of `IdealSpec.stable_family`. A violation is
    flagged only when the certified ratio exceeds the reinforced
    operator-norm ceiling by more than `TRANSPORT_SLACK` relative.
    """
    spec = IdealSpec.stable_family(spec_family, arity)
    return _stability_trials(lambda rng: spec, arity, trials, seed, k_max, dims, exponents)


def cohen_holder_stability(
    trials: int,
    seed: int = 0,
    arity: int = 2,
    k_max: int = 4,
    dims=3,
) -> StabilityReport:
    """Cohen transport with randomized Hoelder exponent tuples.

    Draws input exponents p_m and an output exponent p with
    1/p <= sum 1/p_m, the regime where the transported norm equals the
    operator norm.
    """
    choices = [Fraction(4, 3), Fraction(3, 2), 2, 3]

    def factory(rng: np.random.Generator) -> IdealSpec:
        return IdealSpec.holder("cohen", [choices[rng.integers(len(choices))] for _ in range(arity)])

    return _stability_trials(factory, arity, trials, seed, k_max, dims, (Fraction(3, 2), 2, 3, INF))


def growth_experiment(p, n: int, k_list: Sequence[int]) -> list[tuple[int, float]]:
    """Quantitative failure of weak-p transport for p > 1.

    The coordinatewise-product operator on n copies of l_{p*}^k (bounded
    with norm <= 1 once n >= p*) applied to the standard basis yields
    certified ratios k^(1/p): unbounded in k, so no constant can close the
    inequality.
    """
    p = as_exponent(p)
    if p == INF or p <= 1:
        raise ValueError("growth experiment needs a finite exponent p > 1")
    pstar = conjugate_exponent(p)
    if n < pstar:
        raise ValueError(
            f"arity {n} is below the conjugate exponent {pstar}; the product operator would be unbounded"
        )
    out = []
    for k in k_list:
        if k < 1:
            raise ValueError("sequence lengths must be >= 1")
        D = diag_operator(n, k, pstar)
        spec = IdealSpec.uniform(SeqClassSpec.weak(p), n)
        basis = VecSeq(Space(k, pstar), np.eye(k))
        ratio = ideal_ratio(D, spec, [basis] * n)
        out.append((k, ratio))
    return out


@dataclass(frozen=True)
class LimitStabilityReport:
    """Pointwise-limit bound: the limit norm never exceeds the member supremum."""

    limit_lower: float
    member_sup_upper: float

    @property
    def margin(self) -> float:
        """limit_lower - member_sup_upper * (1 + TRANSPORT_SLACK), <= 0 exactly when the bound holds."""
        return self.limit_lower - self.member_sup_upper * (1.0 + TRANSPORT_SLACK)

    @property
    def passed(self) -> bool:
        return self.margin <= 0


def limit_stability_experiment(
    A_seq: Sequence[MultiOp],
    A: MultiOp,
    spec: IdealSpec,
    k_max: int,
    seed: int = 0,
    restarts: int = 4,
) -> LimitStabilityReport:
    """Check ideal_norm(A).lower <= sup_m ideal_norm(A_m).upper for a family.

    Only finitely determined classes are admitted (the prefix supremum is
    what makes the limit argument sound). Each member is additionally
    scored at the limit operator's best witness so that search variance
    cannot produce a spurious failure.
    """
    if not spec.finitely_determined:
        raise ValueError("limit stability requires finitely determined classes")
    for B in A_seq:
        if B.coeffs.shape != A.coeffs.shape:
            raise ValueError("family members must share the operator shape")
    est = ideal_norm(A, spec, k_max, restarts=restarts, seed=seed)
    sup_upper = 0.0
    for B in A_seq:
        est_m = ideal_norm(B, spec, k_max, restarts=restarts, seed=seed)
        lower_m = max(est_m.bracket.lower, ideal_ratio(B, spec, est.witness, seed=seed))
        sup_upper = max(sup_upper, NormBracket.searched(lower_m, "member-ratio-search", seed).upper)
    return LimitStabilityReport(est.bracket.lower, sup_upper)


def scalar_compatibility_excess(spec: IdealSpec, trials: int, seed: int = 0) -> float:
    """Numeric check of the scalar product embedding behind finite-type bounds.

    Samples scalar sequences of length 1..8 and returns the worst relative
    excess of Y-norm(prod_m lambda^m) over prod_m X_m-norm(lambda^m); a
    stable family should keep this at roundoff level.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for t in range(trials):
        k = int(rng.integers(1, 9))
        lams = [rng.standard_normal(k) for _ in range(spec.arity)]
        prod = np.ones(k)
        for lam in lams:
            prod = prod * lam
        scalar = Space(1, 2)
        num = seq_norm(VecSeq(scalar, prod[:, None]), spec.output, seed=seed).lower
        den = 1.0
        for lam, cls in zip(lams, spec.inputs):
            den *= seq_norm(VecSeq(scalar, lam[:, None]), cls, seed=seed).upper
        if den > 0:
            worst = max(worst, num / den - 1.0)
    return worst
