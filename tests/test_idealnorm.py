"""Tests for summing-norm estimation, stability suites, and growth laws."""

import hashlib
import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from seqclass.spaces import INF, Space, Vector
from seqclass import idealnorm
from seqclass.sampling import random_multiop, random_operator, random_space
from seqclass.seqnorm import SeqClassSpec, VecSeq
from seqclass.multiop import (
    MultiOp,
    compose,
    diag_operator,
    finite_type,
    op_norm,
    scalar_multiplication,
)
from seqclass.idealnorm import (
    IdealSpec,
    _ratio_map,
    _stability_trials,
    cohen_holder_stability,
    growth_experiment,
    ideal_norm,
    ideal_ratio,
    limit_stability_experiment,
    scalar_compatibility_excess,
    stability_report,
)


def test_ideal_ratio_singleton_is_evaluation():
    rng = np.random.default_rng(1)
    A = MultiOp((Space(3, 2), Space(2, 2)), Space(2, 1), rng.standard_normal((3, 2, 2)))
    x = rng.standard_normal(3)
    y = rng.standard_normal(2)
    x /= np.linalg.norm(x)
    y /= np.linalg.norm(y)
    seqs = [VecSeq(A.domain[0], x[None]), VecSeq(A.domain[1], y[None])]
    spec = IdealSpec.uniform(SeqClassSpec.weak(1), 2)
    out = A(Vector(A.domain[0], x), Vector(A.domain[1], y))
    assert ideal_ratio(A, spec, seqs) == pytest.approx(abs(out.coords).sum(), rel=1e-12)


def test_ideal_ratio_diag_weak2_basis():
    for k in (2, 4, 9):
        D = diag_operator(2, k, 2)
        spec = IdealSpec.uniform(SeqClassSpec.weak(2), 2)
        basis = VecSeq(Space(k, 2), np.eye(k))
        assert ideal_ratio(D, spec, [basis, basis]) == pytest.approx(
            math.sqrt(k), rel=1e-9
        )


def test_ideal_ratio_diag_weak1_basis():
    for k in (2, 5, 8):
        D = diag_operator(2, k, 2)
        spec = IdealSpec.uniform(SeqClassSpec.weak(1), 2)
        basis = VecSeq(Space(k, 2), np.eye(k))
        assert ideal_ratio(D, spec, [basis, basis]) == pytest.approx(1.0, rel=1e-9)


def test_ideal_ratio_rejects_zero_input():
    D = diag_operator(2, 2, 2)
    spec = IdealSpec.uniform(SeqClassSpec.weak(1), 2)
    z = VecSeq(Space(2, 2), np.zeros((2, 2)))
    ok = VecSeq(Space(2, 2), np.eye(2))
    with pytest.raises(ValueError):
        ideal_ratio(D, spec, [z, ok])


def test_ideal_norm_scalar_multiplication_holder():
    for n, ps, p_out in [(2, (2, 2), 1), (2, (2, 2), Fraction(3, 2)), (3, (3, 3, 3), 1)]:
        I = scalar_multiplication(n)
        spec = IdealSpec(
            tuple(SeqClassSpec.strong(p) for p in ps), SeqClassSpec.strong(p_out)
        )
        est = ideal_norm(I, spec, k_max=4, restarts=4, seed=0)
        assert est.bracket.lower == pytest.approx(1.0, abs=1e-9)


def test_ideal_norm_diag_weak2_reaches_sqrt_kmax():
    D = diag_operator(2, 5, 2)
    spec = IdealSpec.uniform(SeqClassSpec.weak(2), 2)
    est = ideal_norm(D, spec, k_max=5, restarts=4, seed=1)
    assert est.bracket.lower >= math.sqrt(5) - 1e-6


def test_ideal_norm_rejects_negative_restarts():
    D = diag_operator(2, 2, 2)
    spec = IdealSpec.uniform(SeqClassSpec.weak(1), 2)
    with pytest.raises(ValueError, match="restarts must be >= 0"):
        ideal_norm(D, spec, k_max=2, restarts=-3)
    with pytest.raises(ValueError, match="restarts must be >= 0"):
        limit_stability_experiment([D], D, spec, k_max=2, restarts=-1)
    assert ideal_norm(D, spec, k_max=2, restarts=0).best_k >= 1


def test_ideal_norm_zero_operator():
    A = MultiOp((Space(2, 2), Space(2, 2)), Space(2, 2), np.zeros((2, 2, 2)))
    spec = IdealSpec.uniform(SeqClassSpec.strong(2), 2)
    est = ideal_norm(A, spec, k_max=3, restarts=2, seed=0)
    assert est.bracket.lower == 0.0


def test_ideal_norm_k1_recovers_op_norm():
    rng = np.random.default_rng(3)
    for _ in range(10):
        A = MultiOp(
            (Space(3, 2), Space(2, 2)), Space(2, 2), rng.standard_normal((3, 2, 2))
        )
        spec = IdealSpec.uniform(SeqClassSpec.weak(1), 2)
        est = ideal_norm(A, spec, k_max=3, restarts=2, seed=4)
        k1 = dict(est.ratio_by_k)[1]
        assert k1 == pytest.approx(est.op_estimate.bracket.lower, abs=1e-9)


def test_ideal_norm_curve_monotone():
    rng = np.random.default_rng(5)
    A = MultiOp((Space(2, 2), Space(2, 2)), Space(2, 1), rng.standard_normal((2, 2, 2)))
    spec = IdealSpec.uniform(SeqClassSpec.weak(1), 2)
    est = ideal_norm(A, spec, k_max=5, restarts=3, seed=6)
    ratios = [r for _, r in est.ratio_by_k]
    assert all(b >= a - 1e-12 for a, b in zip(ratios, ratios[1:]))


def test_ideal_norm_rad_sweeps_every_length_up_to_k_max():
    rng = np.random.default_rng(5)
    A = MultiOp((Space(2, 2), Space(2, 3)), Space(2, 1), rng.standard_normal((2, 2, 2)))
    est = ideal_norm(A, IdealSpec.uniform(SeqClassSpec.rad(), 2), k_max=13, restarts=0, seed=0)
    assert [k for k, _ in est.ratio_by_k] == list(range(1, 14))


def test_ideal_axiom_composition():
    rng = np.random.default_rng(8)
    spec = IdealSpec.uniform(SeqClassSpec.weak(1), 2)
    for _ in range(6):
        A = MultiOp(
            (Space(2, 2), Space(2, 2)), Space(2, 2), rng.standard_normal((2, 2, 2))
        )
        us = [
            MultiOp((Space(2, 2),), A.domain[0], rng.standard_normal((2, 2))),
            MultiOp((Space(2, 2),), A.domain[1], rng.standard_normal((2, 2))),
        ]
        v = MultiOp((A.codomain,), Space(2, 2), rng.standard_normal((2, 2)))
        C = compose(v, A, us)
        lhs = ideal_norm(C, spec, k_max=3, restarts=3, seed=9).bracket.lower
        rhs = (
            op_norm(v, seed=9).bracket.upper
            * ideal_norm(A, spec, k_max=3, restarts=3, seed=9).bracket.upper
            * math.prod(op_norm(u, seed=9).bracket.upper for u in us)
        )
        assert lhs <= rhs * (1 + 1e-6)


def test_finite_type_membership_bound():
    rng = np.random.default_rng(10)
    for spec in (
        IdealSpec.uniform(SeqClassSpec.weak(1), 2),
        IdealSpec((SeqClassSpec.strong(2), SeqClassSpec.strong(2)), SeqClassSpec.strong(1)),
    ):
        for _ in range(5):
            s1, s2 = Space(3, 2), Space(2, Fraction(3, 2))
            phi1 = Vector(s1.dual, rng.standard_normal(3))
            phi2 = Vector(s2.dual, rng.standard_normal(2))
            b = Vector(Space(2, INF), rng.standard_normal(2))
            A = finite_type([phi1, phi2], b)
            est = ideal_norm(A, spec, k_max=3, restarts=3, seed=11)
            expected = phi1.norm * phi2.norm * b.norm
            assert est.bracket.lower <= expected * (1 + 1e-6)


def test_scalar_compatibility():
    assert scalar_compatibility_excess(
        IdealSpec.uniform(SeqClassSpec.weak(1), 2), trials=40, seed=1
    ) <= 1e-9
    assert scalar_compatibility_excess(
        IdealSpec((SeqClassSpec.strong(2), SeqClassSpec.strong(2)), SeqClassSpec.strong(1)),
        trials=40,
        seed=2,
    ) <= 1e-9


def test_growth_experiment_sqrt_law():
    for k, ratio in growth_experiment(2, 2, [1, 4, 9, 16, 25]):
        assert ratio == pytest.approx(math.sqrt(k), abs=1e-6)


def test_growth_experiment_p43():
    out = dict(growth_experiment(Fraction(4, 3), 4, [1, 16]))
    assert out[1] == pytest.approx(1.0, abs=1e-6)
    assert out[16] == pytest.approx(8.0, abs=1e-6)


def test_growth_experiment_guards():
    with pytest.raises(ValueError):
        growth_experiment(2, 1, [4])  # arity below conjugate exponent
    with pytest.raises(ValueError):
        growth_experiment(1, 2, [4])  # p must exceed 1


def test_stability_weak1_no_violations():
    rep = stability_report(SeqClassSpec.weak(1), arity=2, trials=40, seed=0, k_max=6)
    assert rep.passed
    assert rep.max_ratio_over_ceiling <= 1 + 1e-6


def test_stability_rad_no_violations():
    rep = stability_report(SeqClassSpec.rad(), arity=2, trials=25, seed=1, k_max=6, dims=3)
    assert rep.passed


def test_stability_rad_checks_every_length_up_to_k_max(monkeypatch):
    lengths = []

    def recording_ratio(A, spec, seqs, seed=0):
        lengths.append(len(seqs[0]))
        return ideal_ratio(A, spec, seqs, seed=seed)

    monkeypatch.setattr(idealnorm, "ideal_ratio", recording_ratio)
    rep = stability_report(SeqClassSpec.rad(), arity=2, trials=20, seed=1, k_max=8, dims=2)
    assert rep.passed
    assert max(lengths) == 8


def test_stability_strong_no_violations():
    rep = stability_report(SeqClassSpec.strong(2), arity=2, trials=30, seed=2)
    assert rep.passed


def test_stability_cohen_no_violations():
    rep = cohen_holder_stability(trials=12, seed=3)
    assert rep.passed


def test_stability_rejects_weak_p_above_one():
    with pytest.raises(ValueError):
        stability_report(SeqClassSpec.weak(2), arity=2, trials=5, seed=0)


def _engine_fault(*args, **kwargs):
    raise ValueError("engine fault")


def test_stability_report_surfaces_engine_faults(monkeypatch):
    # no trial draws a zero sequence, so a ValueError from a ratio is a fault, not a skipped trial
    monkeypatch.setattr(idealnorm, "block_kernel", _engine_fault)
    with pytest.raises(ValueError, match="engine fault"):
        stability_report(SeqClassSpec.weak(1), 2, 20, seed=1, k_max=3, dims=3)


def test_limit_stability_surfaces_engine_faults(monkeypatch):
    rng = np.random.default_rng(12)
    A = MultiOp((Space(2, 2), Space(2, 2)), Space(2, 2), rng.standard_normal((2, 2, 2)))
    spec = IdealSpec.uniform(SeqClassSpec.weak(1), 2)
    monkeypatch.setattr(idealnorm, "ideal_ratio", _engine_fault)
    with pytest.raises(ValueError, match="engine fault"):
        limit_stability_experiment([A, A], A, spec, k_max=2, seed=13)


def test_limit_stability_scaled_family():
    rng = np.random.default_rng(12)
    A = MultiOp((Space(2, 2), Space(2, 2)), Space(2, 2), rng.standard_normal((2, 2, 2)))
    spec = IdealSpec.uniform(SeqClassSpec.weak(1), 2)
    family = [
        MultiOp(A.domain, A.codomain, (1 - 1 / m) * A.coeffs)
        for m in (1, 10, 100, 10_000, 10_000_000)
    ]
    rep = limit_stability_experiment(family, A, spec, k_max=3, seed=13)
    assert rep.passed


def test_limit_stability_constant_family():
    rng = np.random.default_rng(14)
    A = MultiOp((Space(2, 2), Space(2, 2)), Space(2, 1), rng.standard_normal((2, 2, 2)))
    spec = IdealSpec.uniform(SeqClassSpec.strong(2), 2)
    rep = limit_stability_experiment([A, A, A], A, spec, k_max=3, seed=15)
    assert rep.passed


def test_limit_stability_perturbation_family():
    rng = np.random.default_rng(16)
    A = MultiOp((Space(2, 2), Space(2, 2)), Space(2, 2), rng.standard_normal((2, 2, 2)))
    B = MultiOp(A.domain, A.codomain, rng.standard_normal((2, 2, 2)))
    spec = IdealSpec.uniform(SeqClassSpec.weak(1), 2)
    family = [
        MultiOp(A.domain, A.codomain, A.coeffs + B.coeffs / m)
        for m in (1, 10, 1000, 1_000_000)
    ]
    rep = limit_stability_experiment(family, A, spec, k_max=3, seed=17)
    assert rep.passed


def test_limit_stability_rejects_rad():
    rng = np.random.default_rng(18)
    A = MultiOp((Space(2, 2),), Space(2, 2), rng.standard_normal((2, 2)))
    spec = IdealSpec.uniform(SeqClassSpec.rad(), 1)
    with pytest.raises(ValueError):
        limit_stability_experiment([A], A, spec, k_max=2)


def test_stable_family_specs():
    s = IdealSpec.stable_family(SeqClassSpec.strong(2), 2)
    assert s.output.p == 1
    s = IdealSpec.stable_family(SeqClassSpec.cohen(3), 2)
    assert s.output.p == Fraction(3, 2)
    s = IdealSpec.stable_family(SeqClassSpec.rad(), 3)
    assert s.output.tag == "rad"
    with pytest.raises(ValueError):
        IdealSpec.stable_family(SeqClassSpec.sup(), 2)
    assert IdealSpec.stable_family(SeqClassSpec.weak(1), 2).output.p == 1
    with pytest.raises(ValueError):  # weak-p for p > 1 does not transport
        IdealSpec.stable_family(SeqClassSpec.weak(2), 2)


@pytest.mark.parametrize(
    "ps, p_out",
    [
        ((2, 2), 1),
        ((Fraction(3, 2), 3), 1),
        ((3, 3, 3), 1),
        ((3, 3), Fraction(3, 2)),
        ((2, 3), Fraction(6, 5)),
    ],
)
def test_holder_spec_closed_forms(ps, p_out):
    for tag in ("strong", "cohen"):
        spec = IdealSpec.holder(tag, ps)
        assert spec.inputs == tuple(SeqClassSpec(tag, p) for p in ps)
        assert spec.output == SeqClassSpec(tag, p_out)


def test_stable_family_is_the_holder_spec_max_1_p_over_n():
    for tag in ("strong", "cohen"):
        for p in (1, Fraction(4, 3), Fraction(3, 2), 2, 3):
            for n in range(1, 5):
                family = SeqClassSpec(tag, p)
                old = IdealSpec((family,) * n, SeqClassSpec(tag, max(Fraction(1), Fraction(p) / n)))
                assert IdealSpec.stable_family(family, n) == old, (tag, p, n)


@pytest.mark.parametrize("arity, dims", [(1, 4), (2, (1, 2, 3)), (3, 2)])
def test_random_operator_draws_domain_codomain_coefficients(arity, dims):
    exps = (1, Fraction(3, 2), 2, INF)
    rng, ref = np.random.default_rng(7), np.random.default_rng(7)
    A = random_operator(rng, arity, dims, exps)
    domain = [random_space(ref, dims, exps) for _ in range(arity)]
    B = random_multiop(ref, domain, random_space(ref, dims, exps))
    assert A.domain == B.domain and A.codomain == B.codomain
    assert np.array_equal(A.coeffs, B.coeffs)
    assert rng.random() == ref.random()


def _low_first_ceiling(monkeypatch, reinforced_holds: bool) -> list:
    """Make every first `op_norm` ceiling (no starts given) 0; record the reinforced calls.

    The reinforced call returns the true estimate if `reinforced_holds`, else a zero ceiling too.
    """
    calls, lengths = [], []
    true_op_norm, true_ratio = idealnorm.op_norm, idealnorm.ideal_ratio

    def ratio(A, spec, seqs, seed=0):
        lengths.append(len(seqs[0]))
        return true_ratio(A, spec, seqs, seed=seed)

    def fake_op_norm(A, seed=0, restarts=16, starts=()):
        if not starts:
            return SimpleNamespace(bracket=SimpleNamespace(upper=0.0))
        calls.append((restarts, len(starts), lengths[-1], {len(s) for s in starts}, A.arity))
        if reinforced_holds:
            return true_op_norm(A, seed=seed, restarts=restarts, starts=starts)
        return SimpleNamespace(bracket=SimpleNamespace(upper=0.0))

    monkeypatch.setattr(idealnorm, "ideal_ratio", ratio)
    monkeypatch.setattr(idealnorm, "op_norm", fake_op_norm)
    return calls


def _weak1_trials(trials):
    spec = IdealSpec.stable_family(SeqClassSpec.weak(1), 2)
    return _stability_trials(lambda rng: spec, 2, trials, 3, 4, 3, (1, 2, INF))


def test_stability_trials_reverify_when_the_reinforced_ceiling_holds(monkeypatch):
    calls = _low_first_ceiling(monkeypatch, reinforced_holds=True)
    rep = _weak1_trials(6)
    # every trial is re-verified, once, with 64 restarts and its k argument tuples as starts
    assert len(calls) == 6
    for restarts, n_starts, k, widths, arity in calls:
        assert restarts == 64 and n_starts == k and widths == {arity}
    assert rep.violations == 0 and rep.passed
    assert 0.0 < rep.max_ratio_over_ceiling <= 1.0 + idealnorm.TRANSPORT_SLACK


def test_stability_trials_count_a_violation_when_the_reinforced_ceiling_fails(monkeypatch):
    calls = _low_first_ceiling(monkeypatch, reinforced_holds=False)
    rep = _weak1_trials(6)
    assert len(calls) == 6
    assert rep.trials == 6 and rep.violations == 6 and not rep.passed
    assert rep.max_ratio_over_ceiling == math.inf


# --- the population climb ------------------------------------------------------

def reference_ideal_norm(A, spec, k_max, restarts, seed):
    """The hill climb start by start, one `ideal_ratio` call per candidate: (best_k, curve, witness)."""
    dims = [s.dim for s in A.domain]

    def ratio(z, k):
        seqs = [VecSeq(s, m.reshape(k, s.dim)) for s, m in zip(A.domain, np.split(z, np.cumsum(dims)[:-1] * k))]
        try:
            return ideal_ratio(A, spec, seqs, seed=seed)
        except ValueError:
            return 0.0

    rng = np.random.default_rng(seed)
    op_w = [w.coords for w in op_norm(A, seed=seed).witness]
    best, best_k, wit = ratio(np.concatenate(op_w), 1), 1, np.concatenate(op_w)
    curve, prev = [(1, best)], [w[None] for w in op_w]
    for k in range(2, k_max + 1):
        padded = [np.vstack([m, 0.01 * rng.standard_normal((1, d))]) for m, d in zip(prev, dims)]
        basis = [np.eye(d)[np.arange(k) % d] for d in dims]
        signs = rng.choice([-1.0, 1.0], size=k)
        repw = [signs[:, None] * np.tile(w, (k, 1)) for w in op_w]
        starts = [np.concatenate([m.ravel() for m in ms]) for ms in (padded, basis, repw)]
        starts += [np.concatenate([rng.standard_normal(k * d) for d in dims]) for _ in range(restarts)]
        k_best, k_wit = 0.0, None
        for z in starts:
            fz, step = ratio(z, k), 0.4
            for _ in range(40):
                v = rng.standard_normal(z.size)
                cand = z + step * np.linalg.norm(z) * (v / np.linalg.norm(v))
                fc = ratio(cand, k)
                if fc > fz:
                    z, fz, step = cand, fc, min(step * 1.3, 1.0)
                else:
                    step *= 0.8
            if fz > k_best:
                k_best, k_wit = fz, z
        if k_wit is not None and k_best > best * (1.0 + 1e-12):
            best, best_k, wit = k_best, k, k_wit
            prev = [m.reshape(k, d) for m, d in zip(np.split(wit, np.cumsum(dims)[:-1] * k), dims)]
        else:
            prev = [np.vstack([m, np.zeros((1, d))]) for m, d in zip(prev, dims)]
        curve.append((k, best))
    return best_k, curve, wit


SUP, W1 = SeqClassSpec.sup(), SeqClassSpec.weak(1)

# (name, spec, (q of slot 0, q of slot 1, q of the codomain)); sup inputs
# make longer sequences win, so the witness comes out of the k-steps
CLIMB_CASES = [
    ("weak-1-uniform", IdealSpec.uniform(W1, 2), (2, 1, INF)),
    ("weak-1", IdealSpec((SUP, SUP), W1), (2, 1, 2)),
    ("weak-1-linf", IdealSpec((SUP, SUP), W1), (INF, 2, INF)),
    ("strong-holder", IdealSpec((SeqClassSpec.strong(3),) * 2, SeqClassSpec.strong(1)), (2, 3, 1)),
    ("weak-2", IdealSpec((SUP, SUP), SeqClassSpec.weak(2)), (2, 2, 3)),
    ("rad", IdealSpec((SUP, SUP), SeqClassSpec.rad()), (2, 1, INF)),
    ("cohen", IdealSpec((SUP, SUP), SeqClassSpec.cohen(2)), (2, 2, 2)),
    ("weak-1-trilinear", IdealSpec((SUP,) * 3, W1), (2, 1, 2)),
    # the 1-summing norm of a linear map: no structured start attains it, so
    # the witness is a climbed one and the lookahead tree shows in the result
    ("pi-1", IdealSpec((W1,), SeqClassSpec.strong(1)), (2, 2, 2)),
]


def _climb_operator(spec, qs):
    rng = np.random.default_rng(71)
    n = spec.arity
    dims = [int(d) for d in rng.integers(2, 4, size=n + 1)]
    domain = tuple(Space(d, q) for d, q in zip(dims, (qs[0], qs[1], qs[0])[:n]))
    return MultiOp(domain, Space(dims[-1], qs[2]), rng.standard_normal(tuple(dims)))


def _assert_sequential_climb(A, spec, k_max, restarts):
    est = ideal_norm(A, spec, k_max, restarts=restarts, seed=5)
    best_k, curve, wit = reference_ideal_norm(A, spec, k_max, restarts, 5)
    assert est.best_k == best_k, (k_max, restarts)
    assert list(est.ratio_by_k) == curve, (k_max, restarts)
    assert np.array_equal(np.concatenate([w.mat.ravel() for w in est.witness]), wit), (k_max, restarts)
    return best_k


@pytest.mark.parametrize("name, spec, qs", CLIMB_CASES, ids=[c[0] for c in CLIMB_CASES])
def test_ideal_norm_matches_the_sequential_climb(name, spec, qs):
    A = _climb_operator(spec, qs)
    # 5, 3 and 11 starts: lookahead blocks of 75, 45 and 165 rows
    for k_max, restarts in ((3, 2), (5, 0), (5, 8)):
        best_k = _assert_sequential_climb(A, spec, k_max, restarts)
        if name != "weak-1-uniform":  # a stable class: k = 1 already attains the ratio
            assert best_k == k_max


def test_ideal_norm_matches_the_sequential_climb_where_lookahead_turns_off(monkeypatch):
    # 11 starts: a weak-1 block of 15 * 11 tuples enumerates within DEFAULT_BLOCK up to k = 6
    rounds, climb_round = [], idealnorm._climb_round

    def recording(score, Z, f, step, U, k, dims):
        rounds.append((k, U.shape[1]))
        return climb_round(score, Z, f, step, U, k, dims)

    monkeypatch.setattr(idealnorm, "_climb_round", recording)
    _, spec, qs = CLIMB_CASES[1]
    assert _assert_sequential_climb(_climb_operator(spec, qs), spec, 8, 8) == 8
    assert rounds == [(k, 4) for k in range(2, 7) for _ in range(10)] + [(k, 1) for k in (7, 8) for _ in range(40)]


@pytest.mark.parametrize("case", ["weak-2-strong-2", "cohen-holder", "weak-1", "strong-holder"])
def test_climb_block_sizes_follow_the_depth_rule(monkeypatch, case):
    # the rows of every block ratio a climb scores, one evaluate_batch call each
    rows, evaluate = [], idealnorm.evaluate_batch
    monkeypatch.setattr(idealnorm, "evaluate_batch", lambda A, args: rows.append(len(args[0])) or evaluate(A, args))
    rng = np.random.default_rng(74)
    if case == "weak-2-strong-2":  # heuristic weak-2 on l_3^3, the 2-summing norm
        A = MultiOp((Space(3, 3),), Space(3, 3), rng.standard_normal((3, 3)))
        spec = IdealSpec((SeqClassSpec.weak(2),), SeqClassSpec.strong(2))
    else:
        A = MultiOp((Space(2, 2), Space(2, 2)), Space(2, 2), rng.standard_normal((2, 2, 2)))
        spec = {
            "cohen-holder": IdealSpec.holder("cohen", (2, 2)),
            "weak-1": IdealSpec.uniform(SeqClassSpec.weak(1), 2),
            "strong-holder": IdealSpec.holder("strong", (2, 3)),
        }[case]
    S, k_max = 4, 3
    ideal_norm(A, spec, k_max, restarts=S - 3, seed=2)
    if case in ("weak-2-strong-2", "cohen-holder"):  # 41 scorings of S tuples per length
        want = [[S * k] * 41 for k in range(2, k_max + 1)]
    else:  # the starts, then 10 rounds of 15 S candidates
        want = [[S * k] + [15 * S * k] * 10 for k in range(2, k_max + 1)]
    assert rows == [1] + sum(want, [])


def test_block_ratio_matches_single_tuples():
    rng = np.random.default_rng(72)
    A = MultiOp((Space(3, 2), Space(2, INF)), Space(2, 1), rng.standard_normal((3, 2, 2)))
    specs = [
        IdealSpec.uniform(SeqClassSpec.weak(1), 2),
        IdealSpec.uniform(SeqClassSpec.rad(), 2),
        IdealSpec((SeqClassSpec.strong(3), SeqClassSpec.strong(3)), SeqClassSpec.strong(Fraction(3, 2))),
        IdealSpec.uniform(SeqClassSpec.weak(2), 2),
    ]
    # k >= 2: a one-row product takes BLAS's matrix-vector path, whose sums may differ in the last bit
    for spec in specs:
        for k in (2, 3):
            mats = [rng.standard_normal((6, k, s.dim)) for s in A.domain]
            mats[1][2] = 0.0  # an input of norm zero scores 0
            block = _ratio_map(A, spec, k, 6, 4)(mats)
            assert block.shape == (6,) and block[2] == 0.0
            for i in range(6):
                assert _ratio_map(A, spec, k, 1, 4)([m[i : i + 1] for m in mats])[0] == block[i]
                if i != 2:
                    seqs = [VecSeq(s, m[i]) for s, m in zip(A.domain, mats)]
                    assert ideal_ratio(A, spec, seqs, seed=4) == block[i]
    # the climb's lookahead block of 15 S rows against its S-row slices, on every kernel class:
    # sup, strong-p, Rad on l_2, weak-p on l_inf, the weak-1 and Rad enumerations, and item by item
    specs.append(IdealSpec.uniform(SeqClassSpec.sup(), 2))
    for spec in specs:
        for k in range(2, 7):
            mats = [rng.standard_normal((90, k, s.dim)) for s in A.domain]
            block = _ratio_map(A, spec, k, 90, 4)(mats)
            S = _ratio_map(A, spec, k, 6, 4)
            for i in range(0, 90, 6):
                assert np.array_equal(S([m[i : i + 6] for m in mats]), block[i : i + 6]), (spec.describe(), k, i)


def test_ideal_norm_homogeneous_at_extreme_scales():
    rng = np.random.default_rng(73)
    cases = [
        (IdealSpec.uniform(SeqClassSpec.weak(1), 2), (2, INF, 1)),
        (IdealSpec((SeqClassSpec.strong(2), SeqClassSpec.strong(3)), SeqClassSpec.strong(Fraction(6, 5))), (2, 1, 3)),
    ]
    for t in range(6):
        spec, (q1, q2, q_out) = cases[t % 2]
        dims = [int(d) for d in rng.integers(1, 5, size=3)]
        A = MultiOp((Space(dims[0], q1), Space(dims[1], q2)), Space(dims[2], q_out), rng.standard_normal(dims))
        ref = ideal_norm(A, spec, 3, restarts=2, seed=t)
        for c in (2.0**600, 2.0**-600):
            got = ideal_norm(MultiOp(A.domain, A.codomain, c * A.coeffs), spec, 3, restarts=2, seed=t)
            assert got.best_k == ref.best_k
            assert abs(got.bracket.lower - c * ref.bracket.lower) <= 1e-12 * c * ref.bracket.lower, (t, c)
            # the k = 1 slice's operator-norm bracket too: the same exact flag, the upper end scaled
            for b, r in ((got.bracket, ref.bracket), (got.op_estimate.bracket, ref.op_estimate.bracket)):
                assert b.exact == r.exact, (t, c)
                assert abs(b.upper - c * r.upper) <= 1e-12 * c * r.upper, (t, c)


# eight operators over l_1, l_2 and l_inf slots, with the two spec kinds of
# the benchmark's sweep (weak-1 throughout, Hoelder strong-p) at arities 2
# and 3: (spec, slot (dim, q), codomain (dim, q))
PINNED_CLIMBS = [
    (IdealSpec.uniform(SeqClassSpec.weak(1), 2), ((3, 1), (2, 2)), (3, INF)),
    (IdealSpec.uniform(SeqClassSpec.weak(1), 2), ((2, INF), (4, 2)), (2, 1)),
    (IdealSpec.uniform(SeqClassSpec.weak(1), 3), ((2, 2), (2, INF), (3, 1)), (2, 2)),
    (IdealSpec.uniform(SeqClassSpec.weak(1), 3), ((1, 1), (3, 2), (2, 2)), (4, INF)),
    (IdealSpec.holder("strong", (Fraction(3, 2), 2)), ((2, INF), (3, 1)), (2, 2)),
    (IdealSpec.holder("strong", (3, 3)), ((4, 2), (2, 2)), (3, 1)),
    (IdealSpec.holder("strong", (2, 3, Fraction(3, 2))), ((2, 1), (2, INF), (2, 2)), (3, INF)),
    (IdealSpec.holder("strong", (3, 3, 3)), ((3, 2), (1, 2), (2, 1)), (2, 2)),
]

# per operator, at its spec and then with sup inputs (where k = 3 wins, so the
# climb's own maximum is the result): bracket ends, best_k, ratio_by_k, the
# first 32 hex digits of the SHA-256 of the witness bytes and the op_norm
# lower end, floats as float.hex
PINNED_RESULTS = [
    ('0x1.1ef3212120b2bp+1', '0x1.1f3c96aaa202bp+1', 1, ['0x1.1ef3212120b2bp+1', '0x1.1ef3212120b2bp+1', '0x1.1ef3212120b2bp+1'], '855cdb5832c0aeeb527021029a35ad2f', '0x1.1ef3212120b2bp+1'),
    ('0x1.ae6cb1b1b10c0p+2', '0x1.aedae1fff3040p+2', 3, ['0x1.1ef3212120b2bp+1', '0x1.1ef3212120b2bp+2', '0x1.ae6cb1b1b10c0p+2'], 'd038d761fef87db21e0156daffdf2efc', '0x1.1ef3212120b2bp+1'),
    ('0x1.e8c4eff775b53p+1', '0x1.e9420ff35af20p+1', 1, ['0x1.e8c4eff775b53p+1', '0x1.e8c4eff775b53p+1', '0x1.e8c4eff775b53p+1'], '95afff5987567248afaa0b2497a5da6c', '0x1.e8c4eff775b52p+1'),
    ('0x1.6e93b3f99847ep+3', '0x1.6ef18bf684358p+3', 3, ['0x1.e8c4eff775b53p+1', '0x1.e8c4eff775b53p+2', '0x1.6e93b3f99847ep+3'], 'e90693c745a6e63cb5377eebf90c11b4', '0x1.e8c4eff775b52p+1'),
    ('0x1.3bd81fbcb2afbp+2', '0x1.3c28fae7a3814p+2', 1, ['0x1.3bd81fbcb2afbp+2', '0x1.3bd81fbcb2afbp+2', '0x1.3bd81fbcb2afbp+2'], '0e5f85d529a00a5afed1e141426c660f', '0x1.3bd81fbcb2afbp+2'),
    ('0x1.d9c42f9b0c078p+3', '0x1.da3d785b7541dp+3', 3, ['0x1.3bd81fbcb2afbp+2', '0x1.3bd81fbcb2afbp+3', '0x1.d9c42f9b0c078p+3'], 'ae96b2ed176def2aa73ee664186548a2', '0x1.3bd81fbcb2afbp+2'),
    ('0x1.3d5f48011f533p+1', '0x1.3db0874ef28e6p+1', 1, ['0x1.3d5f48011f533p+1', '0x1.3d5f48011f533p+1', '0x1.3d5f48011f533p+1'], 'aee9f8c44e80a8e929476128b7e0477a', '0x1.3d5f48011f533p+1'),
    ('0x1.dc0eec01aefccp+2', '0x1.dc88caf66bd58p+2', 3, ['0x1.3d5f48011f533p+1', '0x1.3d5f48011f533p+2', '0x1.dc0eec01aefccp+2'], 'f02f59879ac18f9e60dc399dc69442d5', '0x1.3d5f48011f533p+1'),
    ('0x1.4f21d2c90a3ecp+1', '0x1.4f779e010c8f2p+1', 1, ['0x1.4f21d2c90a3ecp+1', '0x1.4f21d2c90a3ecp+1', '0x1.4f21d2c90a3ecp+1'], 'bbd54255bad74a82e2df29eea3592268', '0x1.4f21d2c90a3ecp+1'),
    ('0x1.f6b2bc2d8f5e2p+2', '0x1.f7336d0192d6cp+2', 3, ['0x1.4f21d2c90a3ecp+1', '0x1.4f21d2c90a3ecp+2', '0x1.f6b2bc2d8f5e2p+2'], '24bb0ff35ce6c0165c6b1df0d3fbb8e8', '0x1.4f21d2c90a3ecp+1'),
    ('0x1.f53df1aa74d2ep+1', '0x1.f5be430f3c1bcp+1', 1, ['0x1.f53df1aa74d2ep+1', '0x1.f53df1aa74d2ep+1', '0x1.f53df1aa74d2ep+1'], '7540483e5b67f24785c1fe20d274c9fc', '0x1.f53df1aa74d2dp+1'),
    ('0x1.04a8051720fb6p+3', '0x1.04eabf76a3d4bp+3', 3, ['0x1.f53df1aa74d2ep+1', '0x1.8dd60507e5216p+2', '0x1.04a8051720fb6p+3'], '3137b5cae8fa488f7b378bfdecb5234b', '0x1.f53df1aa74d2dp+1'),
    ('0x1.355f67875c4d5p+1', '0x1.35ae9a9387257p+1', 1, ['0x1.355f67875c4d5p+1', '0x1.355f67875c4d5p+1', '0x1.355f67875c4d5p+1'], 'cad089400a5504b2c0fb1dccd8a40829', '0x1.355f67875c4d4p+1'),
    ('0x1.d00f1b4b0a740p+2', '0x1.d085e7dd4ab82p+2', 3, ['0x1.355f67875c4d5p+1', '0x1.355f67875c4d5p+2', '0x1.d00f1b4b0a740p+2'], '602e00014d21948410fc1cfb5bf8f7d5', '0x1.355f67875c4d4p+1'),
    ('0x1.26700b698b1c1p+1', '0x1.26bb6bae003d9p+1', 1, ['0x1.26700b698b1c1p+1', '0x1.26700b698b1c1p+1', '0x1.26700b698b1c1p+1'], '7c2fd921abbf0774c85ab008b668b52c', '0x1.26700b698b1c3p+1'),
    ('0x1.b9a8111e50aa1p+2', '0x1.ba192185005c6p+2', 3, ['0x1.26700b698b1c1p+1', '0x1.26700b698b1c1p+2', '0x1.b9a8111e50aa1p+2'], '709ae4b8fb829d34e83ff76049cf6b5a', '0x1.26700b698b1c3p+1'),
]


@pytest.mark.parametrize("i", range(len(PINNED_CLIMBS)))
def test_ideal_norm_pinned_end_to_end(i):
    spec, slots, (m, r) = PINNED_CLIMBS[i]
    domain = tuple(Space(d, q) for d, q in slots)
    coeffs = np.random.default_rng([1602, i]).standard_normal(tuple(d for d, _ in slots) + (m,))
    A = MultiOp(domain, Space(m, r), coeffs)
    sup_inputs = IdealSpec((SeqClassSpec.sup(),) * len(slots), spec.output)
    for j, sp in enumerate((spec, sup_inputs)):
        est = ideal_norm(A, sp, 3, restarts=3, seed=i)
        wit = hashlib.sha256(b"".join(w.mat.tobytes() for w in est.witness)).hexdigest()[:32]
        got = (est.bracket.lower.hex(), est.bracket.upper.hex(), est.best_k,
               [r.hex() for _, r in est.ratio_by_k], wit, est.op_estimate.bracket.lower.hex())
        assert got == PINNED_RESULTS[2 * i + j], (i, sp.describe())
        assert [k for k, _ in est.ratio_by_k] == [1, 2, 3]
