"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (visible with pytest -s) and
enforces the stated tolerance and runtime budget.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from seqclass import _optim
from seqclass.spaces import INF, Space, as_exponent, lq_norm
from seqclass.seqnorm import (
    SeqClassSpec,
    VecSeq,
    norm_cohen,
    norm_rad,
    norm_rad_mc,
    norm_rad_prefix_sup,
    norm_strong_p,
    norm_sup,
    norm_weak_p,
    seq_norm,
)
from seqclass.multiop import decoupling_check
from seqclass.idealnorm import (
    IdealSpec,
    cohen_holder_stability,
    growth_experiment,
    ideal_norm,
    limit_stability_experiment,
    stability_report,
)
from seqclass.sampling import DEFAULT_EXPONENTS, random_multiop, random_operator, random_space, random_vecseq
from seqclass.multiop import MultiOp, scalar_multiplication

ENGINES = [
    SeqClassSpec.sup(),
    SeqClassSpec.strong(2),
    SeqClassSpec.weak(Fraction(3, 2)),
    SeqClassSpec.rad(),
    SeqClassSpec.cohen(2),
]


def _report(n: int, label: str, passed: bool, elapsed: float, limit: float):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {n:2d} [{status}] {label} ({elapsed:.1f}s / limit {limit:.0f}s)")
    assert passed, f"criterion {n} failed: {label}"
    assert elapsed < limit, f"criterion {n} exceeded its runtime budget"


def test_criterion_1_unit_sequence_lemma():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst_exact, worst_est = 0.0, 0.0
    for spec in ENGINES:
        for _ in range(200):
            space = random_space(rng, dims=4)
            k = int(rng.integers(1, 7))
            mat = np.zeros((k, space.dim))
            mat[rng.integers(k)] = rng.standard_normal(space.dim)
            expect = norm_sup(VecSeq(space, mat))
            b = seq_norm(VecSeq(space, mat), spec, seed=1)
            err = max(abs(b.lower - expect), abs(b.upper - expect)) / max(1.0, expect)
            if b.exact:
                worst_exact = max(worst_exact, err)
            else:
                worst_est = max(worst_est, err)
    ok = worst_exact <= 1e-12 and worst_est <= 1e-9
    _report(1, "unit-sequence norm equals the vector norm", ok,
            time.perf_counter() - t0, 10)


def test_criterion_2_rad_exactness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    worst = 0.0
    for t in range(500):
        d = 1 if t % 2 == 0 else int(rng.integers(2, 7))
        k = int(rng.integers(1, 13))
        s = random_vecseq(rng, Space(d, 2), k)
        r = norm_rad(s)
        scale = max(1.0, r)
        worst = max(worst, abs(r - norm_strong_p(s, 2)) / scale)
        worst = max(worst, abs(norm_rad_prefix_sup(s) - r) / scale)
    _report(2, "Rademacher norm is the Hilbert strong-2 norm; prefix sup collapses",
            worst <= 1e-12, time.perf_counter() - t0, 30)


def test_criterion_3_decoupling_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(303)
    worst = 0.0
    for t in range(500):
        n = 2 if t % 2 == 0 else 3
        k = int(rng.integers(1, 7))
        A = random_operator(rng, n, 3, DEFAULT_EXPONENTS)
        seqs = [random_vecseq(rng, s, k) for s in A.domain]
        worst = max(worst, decoupling_check(A, seqs))
    _report(3, "sign-decoupling identity residual", worst <= 1e-10,
            time.perf_counter() - t0, 30)


def test_criterion_4_weak1_stability():
    t0 = time.perf_counter()
    rep2 = stability_report(SeqClassSpec.weak(1), 2, 250, seed=44, k_max=8, dims=4)
    rep3 = stability_report(SeqClassSpec.weak(1), 3, 250, seed=45, k_max=8, dims=4)
    rng = np.random.default_rng(404)
    spec = IdealSpec.uniform(SeqClassSpec.weak(1), 2)
    attain = math.inf
    for t in range(12):
        A = random_operator(rng, 2, 4, (1, 2, INF))
        est = ideal_norm(A, spec, k_max=4, restarts=4, seed=46 + t)
        if est.op_estimate.bracket.lower > 0:
            attain = min(attain, est.bracket.lower / est.op_estimate.bracket.lower)
    ok = rep2.passed and rep3.passed and attain >= 0.9
    _report(4, "weak-1 transport bounded by the operator norm; sweep attains it",
            ok, time.perf_counter() - t0, 120)


def test_criterion_5_growth_for_p_above_one():
    t0 = time.perf_counter()
    ok = True
    for k, ratio in growth_experiment(2, 2, [1, 4, 9, 16, 25]):
        ok = ok and abs(ratio - math.sqrt(k)) <= 1e-6
    for k, ratio in growth_experiment(Fraction(4, 3), 4, [1, 16]):
        ok = ok and abs(ratio - k ** 0.75) <= 1e-6
    _report(5, "weak-p transport fails at rate k^(1/p) for p > 1", ok,
            time.perf_counter() - t0, 10)


def test_criterion_6_rad_stability():
    t0 = time.perf_counter()
    rep = stability_report(SeqClassSpec.rad(), 2, 200, seed=66, k_max=6, dims=4)
    _report(6, "Rademacher transport bounded by the operator norm", rep.passed,
            time.perf_counter() - t0, 60)


def test_criterion_7_cohen_norms():
    t0 = time.perf_counter()
    rng = np.random.default_rng(707)
    ok = True
    # scalar collapse and p = 1 collapse
    for _ in range(50):
        lam = rng.standard_normal(int(rng.integers(1, 8)))
        p = [1.0, 1.5, 2.0, 3.0][rng.integers(4)]
        b = norm_cohen(VecSeq(Space(1, 2), lam[:, None]), p, seed=7)
        ok = ok and abs(b.lower - lq_norm(lam, p)) <= 1e-9 * max(1, b.lower)
        ok = ok and abs(b.upper - lq_norm(lam, p)) <= 1e-9 * max(1, b.upper)
        s = random_vecseq(rng, random_space(rng, dims=4), int(rng.integers(1, 6)))
        b1 = norm_cohen(s, 1, seed=7)
        ok = ok and abs(b1.lower - norm_strong_p(s, 1)) <= 1e-9 * max(1, b1.lower)
    # sandwich on 300 random sequences
    for _ in range(300):
        s = random_vecseq(rng, random_space(rng, dims=4), int(rng.integers(1, 6)))
        p = [1.0, 1.5, 2.0, 3.0][rng.integers(4)]
        b = norm_cohen(s, p, seed=7)
        ok = ok and norm_strong_p(s, p) <= b.upper + 1e-9
        ok = ok and b.upper <= norm_strong_p(s, 1) + 1e-12
    # bracket width on small heuristic-branch corpora
    width = 0.0
    for _ in range(60):
        q = [Fraction(3, 2), 2, 3, INF][rng.integers(4)]
        p = [Fraction(4, 3), Fraction(3, 2), 2, 3][rng.integers(4)]
        s = random_vecseq(rng, Space(int(rng.integers(2, 4)), q), int(rng.integers(2, 6)))
        b = norm_cohen(s, p, seed=8)
        if b.upper > 0:
            width = max(width, b.width / b.upper)
    ok = ok and width <= 0.10
    rep = cohen_holder_stability(60, seed=77, arity=2, k_max=4, dims=3)
    ok = ok and rep.passed
    _report(7, "Cohen norm collapses, sandwiches, stays tight, and transports",
            ok, time.perf_counter() - t0, 180)


def test_criterion_8_holder_identity():
    t0 = time.perf_counter()
    ok = True
    for n, ps, p_out in [(2, (2, 2), 1), (3, (3, 3, 3), 1), (2, (Fraction(3, 2), 3), 1)]:
        spec = IdealSpec(tuple(SeqClassSpec.strong(p) for p in ps), SeqClassSpec.strong(p_out))
        est = ideal_norm(scalar_multiplication(n), spec, k_max=3, restarts=3, seed=88)
        ok = ok and abs(est.bracket.lower - 1.0) <= 1e-9
    rng = np.random.default_rng(808)
    exps = (Fraction(3, 2), 2, 3)
    for t in range(100):
        n = 2 if t % 2 == 0 else 3
        ps = [exps[rng.integers(3)] for _ in range(n)]
        p_out = max(Fraction(1), 1 / sum(Fraction(1) / Fraction(p) for p in ps))
        spec = IdealSpec(tuple(SeqClassSpec.strong(p) for p in ps), SeqClassSpec.strong(p_out))
        A = random_operator(rng, n, 3, DEFAULT_EXPONENTS)
        est = ideal_norm(A, spec, k_max=3, restarts=3, seed=89 + t)
        op = est.op_estimate.bracket
        if op.lower == 0:
            continue
        ok = ok and est.bracket.lower >= 0.95 * op.lower
        ok = ok and est.bracket.lower <= (1 + 1e-6) * op.upper
    _report(8, "strong-p Hoelder transport matches the operator norm", ok,
            time.perf_counter() - t0, 60)


def test_criterion_9_ideal_axioms_and_limits():
    t0 = time.perf_counter()
    from seqclass.multiop import compose, finite_type, op_norm
    from seqclass.spaces import Vector, vector_norm

    rng = np.random.default_rng(909)
    specs = [
        IdealSpec.uniform(SeqClassSpec.weak(1), 2),
        IdealSpec((SeqClassSpec.strong(2), SeqClassSpec.strong(2)), SeqClassSpec.strong(1)),
    ]
    ok = True
    for t in range(100):
        spec = specs[t % 2]
        A = random_operator(rng, 2, 3, (1, 2, INF))
        us = [random_multiop(rng, [random_space(rng, dims=3, exponents=(1, 2, INF))], s)
              for s in A.domain]
        v = random_multiop(rng, [A.codomain], random_space(rng, dims=3, exponents=(1, 2, INF)))
        C = compose(v, A, us)
        lhs = ideal_norm(C, spec, 2, restarts=2, seed=90 + t).bracket.lower
        rhs = (op_norm(v, seed=90 + t).bracket.upper
               * ideal_norm(A, spec, 2, restarts=2, seed=90 + t).bracket.upper
               * math.prod(op_norm(u, seed=90 + t).bracket.upper for u in us))
        ok = ok and lhs <= rhs * (1 + 1e-6)
    for t in range(100):
        spec = specs[t % 2]
        s1, s2 = random_space(rng, 3), random_space(rng, 3)
        out = random_space(rng, 3)
        phi1 = Vector(s1.dual, rng.standard_normal(s1.dim))
        phi2 = Vector(s2.dual, rng.standard_normal(s2.dim))
        b = Vector(out, rng.standard_normal(out.dim))
        expected = vector_norm(phi1) * vector_norm(phi2) * vector_norm(b)
        if expected == 0:
            continue
        est = ideal_norm(finite_type([phi1, phi2], b), spec, 2, restarts=2, seed=91 + t)
        ok = ok and est.bracket.lower <= expected * (1 + 1e-6)
    # 50 seeded families for the pointwise-limit bound
    ms = (1, 10, 1000, 1_000_000)
    for t in range(50):
        spec = specs[t % 2]
        A = random_operator(rng, 2, 2, (1, 2, INF))
        if t % 2 == 0:
            fam = [MultiOp(A.domain, A.codomain, (1 - 1 / m) * A.coeffs) for m in ms]
        else:
            B = random_multiop(rng, A.domain, A.codomain)
            fam = [MultiOp(A.domain, A.codomain, A.coeffs + B.coeffs / m) for m in ms]
        rep = limit_stability_experiment(fam, A, spec, k_max=3, seed=92 + t, restarts=2)
        ok = ok and rep.passed
    _report(9, "ideal axioms: composition, finite type, pointwise limits", ok,
            time.perf_counter() - t0, 60)


def test_criterion_10_oracle_equivalence(monkeypatch):
    t0 = time.perf_counter()
    rng = np.random.default_rng(1010)
    ok = True
    from seqclass.seqnorm import _weak_sign_oracle

    for t in range(200):
        k = int(rng.integers(2, 11))
        d = int(rng.integers(1, 5))
        q = [1, Fraction(3, 2), 2, 3, INF][rng.integers(5)]
        X = rng.standard_normal((k, d))
        exact = _weak_sign_oracle(X, as_exponent(q))
        # SIGN_CUTOFF = 0 skips the sign enumeration: ball_max's power
        # iteration (the dual l_1 extreme points, exact, for q = inf)
        with monkeypatch.context() as mp:
            mp.setattr(_optim, "SIGN_CUTOFF", 0)
            val = norm_weak_p(VecSeq(Space(d, q), X), 1, seed=t).lower
        ok = ok and abs(val - exact) <= 1e-6 * max(1.0, exact)
    hits = 0
    for t in range(1000):
        s = random_vecseq(np.random.default_rng([1010, t]), Space(3, 2), 10)
        exact = norm_rad(s)
        if norm_rad_mc(s, 10_000, seed=t).contains(exact):
            hits += 1
    ok = ok and hits >= 990
    _report(10, "sign oracle matches power iteration; Monte-Carlo brackets contain truth",
            ok, time.perf_counter() - t0, 60)


if __name__ == "__main__":
    import sys

    rc = pytest.main([__file__, "-s", "-v"] + sys.argv[1:])
    sys.exit(rc)
