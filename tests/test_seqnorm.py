"""Tests for the five sequence-norm engines against independent oracles."""

import itertools
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from seqclass import _optim, seqnorm
from seqclass._optim import ball_max
from seqclass.spaces import INF, Space, Vector, lq_norm
from seqclass.seqnorm import (
    NormBracket,
    _cohen_bracket,
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
    truncate,
)

ALL_SPECS = [
    SeqClassSpec.sup(),
    SeqClassSpec.strong(2),
    SeqClassSpec.strong(Fraction(4, 3)),
    SeqClassSpec.weak(1),
    SeqClassSpec.weak(2),
    SeqClassSpec.rad(),
    SeqClassSpec.cohen(2),
    SeqClassSpec.cohen(Fraction(3, 2)),
]

Q_VALUES = [1, Fraction(4, 3), 2, 3, INF]


def random_seq(rng, k, d, q) -> VecSeq:
    return VecSeq(Space(d, q), rng.standard_normal((k, d)))


# --- independent oracles -----------------------------------------------------

def oracle_weak_signs(X, q):
    """Brute-force weak-1 value max over sign patterns of ||sum e_j x_j||."""
    best = 0.0
    for eps in itertools.product([-1.0, 1.0], repeat=X.shape[0]):
        best = max(best, lq_norm(np.asarray(eps) @ X, q))
    return best


def oracle_weak_sampled(X, q, p, n=20000, seed=123):
    """Dense-sampling lower oracle for the weak-p norm over the dual ball."""
    rng = np.random.default_rng(seed)
    qstar = INF if q == 1 else (1 if q == INF else Fraction(q) / (Fraction(q) - 1))
    best = 0.0
    dirs = rng.standard_normal((n, X.shape[1]))
    for v in dirs:
        nv = lq_norm(v, qstar)
        if nv == 0:
            continue
        best = max(best, lq_norm(X @ (v / nv), float(p)))
    return best


def oracle_rad(X, q):
    total = 0.0
    k = X.shape[0]
    for eps in itertools.product([-1.0, 1.0], repeat=k):
        total += lq_norm(np.asarray(eps) @ X, q) ** 2
    return math.sqrt(total / 2 ** k)


# --- sup / strong ------------------------------------------------------------

def test_sup_examples():
    s = VecSeq(Space(2, 2), [[3, 4], [0, 1]])
    assert norm_sup(s) == pytest.approx(5.0, abs=1e-12)
    assert norm_sup(VecSeq(Space(2, 2), np.zeros((0, 2)))) == 0.0
    single = VecSeq(Space(2, 2), [[1, 2]])
    assert norm_sup(single) == pytest.approx(math.sqrt(5), rel=1e-12)


def test_strong_p_examples():
    s = VecSeq(Space(2, 2), [[1, 0], [0, 1]])
    assert norm_strong_p(s, 2) == pytest.approx(math.sqrt(2), rel=1e-12)
    single = VecSeq(Space(2, 2), [[3, 4]])
    for p in (1, 2, 3.5):
        assert norm_strong_p(single, p) == pytest.approx(5.0, rel=1e-12)
    rep = VecSeq(Space(2, 2), [[1, 0]] * 3)
    assert norm_strong_p(rep, 1) == pytest.approx(3.0, rel=1e-12)
    with pytest.raises(ValueError):
        norm_strong_p(s, 0.5)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_vecseq_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="non-finite"):
        VecSeq(Space(2, 2), [[1.0, 0.0], [bad, 2.0]])


@pytest.mark.parametrize("dim, mat, shape", [
    (2, [[]], "(1, 0)"),
    (2, [[], []], "(2, 0)"),
    (2, np.zeros((0, 5)), "(0, 5)"),
    (1, np.array([1.0, 2.0]), "(2,)"),
    (2, [[1, 2, 3]], "(1, 3)"),
], ids=["one-empty-row", "two-empty-rows", "no-rows-of-5-on-dim-2", "1-d-on-dim-1", "long-row"])
def test_vecseq_rejects_rows_of_the_wrong_length(dim, mat, shape):
    with pytest.raises(ValueError, match=re.escape(f"sequence shape {shape} does not match (k, {dim})")):
        VecSeq(Space(dim, 2), mat)


# --- weak-p ------------------------------------------------------------------

def test_weak_basis_in_dual_space_is_one():
    # frozen from the analytic value: the objective equals ||phi||_p <= 1
    for p in (Fraction(3, 2), 2, 3):
        pstar = Fraction(p) / (Fraction(p) - 1)
        for k, d in [(2, 3), (3, 3)]:
            s = VecSeq(Space(d, pstar), np.eye(d)[:k])
            b = norm_weak_p(s, p)
            assert b.exact
            assert b.lower == pytest.approx(1.0, abs=1e-12)


def test_weak_one_sign_oracle_example():
    s = VecSeq(Space(2, 2), [[1, 0], [0, 1]])
    b = norm_weak_p(s, 1)
    assert b.exact
    assert b.lower == pytest.approx(math.sqrt(2), rel=1e-12)
    assert b.lower == pytest.approx(oracle_weak_signs(s.mat, 2), rel=1e-12)


def test_weak_basis_in_l1_is_k_pow_inv_p():
    for p in (Fraction(3, 2), 2, 4):
        for k in (2, 3, 4):
            s = VecSeq(Space(4, 1), np.eye(4)[:k])
            b = norm_weak_p(s, p)
            assert b.exact
            assert b.lower == pytest.approx(k ** (1 / float(p)), rel=1e-9)


def test_weak_exact_branches_match_each_other():
    # disjoint-support closed form vs dual-l_inf vertex enumeration
    rng = np.random.default_rng(3)
    for _ in range(40):
        k, d = int(rng.integers(1, 4)), 6
        X = np.zeros((k, d))
        cols = rng.permutation(d)[:k]
        for j in range(k):
            X[j, cols[j]] = rng.standard_normal()
        p = rng.choice([1.5, 2.0, 3.0])
        s = VecSeq(Space(d, 1), X)
        direct = norm_weak_p(s, p)
        val, _, method = ball_max(X, INF, p, None)  # the dual l_inf vertex branch itself
        assert method == "linf-ball-vertices"
        assert direct.lower == pytest.approx(val, rel=1e-10)


def test_weak_disjoint_formula_against_sampling():
    rng = np.random.default_rng(5)
    for q in (Fraction(4, 3), 2, 3):
        for p in (1.5, 2.0, 4.0):
            X = np.zeros((3, 6))
            cols = rng.permutation(6)[:3]
            for j in range(3):
                X[j, cols[j]] = rng.standard_normal()
            s = VecSeq(Space(6, q), X)
            b = norm_weak_p(s, p)
            assert b.exact
            lo = oracle_weak_sampled(X, q, p, n=4000, seed=int(rng.integers(1e6)))
            assert lo <= b.lower * (1 + 1e-9)
            assert b.lower <= lo * 1.2  # sampling finds most of the mass at d=6


def test_weak_svd_branch():
    rng = np.random.default_rng(9)
    X = rng.standard_normal((5, 3))
    s = VecSeq(Space(3, 2), X)
    b = norm_weak_p(s, 2)
    assert b.exact
    # independent arithmetic path: largest eigenvalue of the Gram matrix
    lam = np.linalg.eigvalsh(X.T @ X).max()
    assert b.lower == pytest.approx(math.sqrt(lam), rel=1e-10)


def test_weak_exact_branches_build_no_starts(monkeypatch):
    def no_starts(*args):
        raise AssertionError("an exact branch built the power-iteration starts")

    monkeypatch.setattr(seqnorm, "_weak_starts", no_starts)
    X = np.random.default_rng(13).standard_normal((5, 3))
    for q, p, method in (
        (INF, 1.5, "dual-l1-extreme-points"),
        (1, 3, "dual-linf-vertices"),
        (2, 2, "svd-spectral"),
        (Fraction(3, 2), 1, "sign-enumeration"),
    ):
        b = norm_weak_p(VecSeq(Space(3, q), X), p)
        assert b.exact and b.method == method


def test_weak_ascent_vs_sign_oracle(monkeypatch):
    # SIGN_CUTOFF = 0 forces p = 1 instances past the sign enumeration and
    # onto the power-iteration branch of ball_max (for q = inf the dual
    # l_1 extreme points are exact and come first)
    monkeypatch.setattr(_optim, "SIGN_CUTOFF", 0)
    rng = np.random.default_rng(17)
    for trial in range(200):
        k = int(rng.integers(2, 11))
        d = int(rng.integers(1, 5))
        q = Q_VALUES[rng.integers(len(Q_VALUES))]
        X = rng.standard_normal((k, d))
        exact = oracle_weak_signs(X, q)
        b = norm_weak_p(VecSeq(Space(d, q), X), 1, seed=trial)
        assert b.method == ("dual-l1-extreme-points" if q == INF else "power-iteration")
        assert b.lower == pytest.approx(exact, rel=1e-6, abs=1e-9)


def test_weak_bracket_sandwich_random():
    rng = np.random.default_rng(23)
    for _ in range(60):
        k, d = int(rng.integers(1, 7)), int(rng.integers(1, 5))
        q = Q_VALUES[rng.integers(len(Q_VALUES))]
        p = rng.choice([1.0, 1.5, 2.0, 3.0])
        s = random_seq(rng, k, d, q)
        b = norm_weak_p(s, p, seed=11)
        assert 0 <= b.lower <= b.upper
        assert b.upper <= norm_strong_p(s, p) + 1e-12
        assert norm_sup(s) <= b.upper + 1e-9  # weak-p dominates the sup norm
        lo = oracle_weak_sampled(s.mat, q, p, n=2000, seed=int(rng.integers(1e6)))
        assert lo <= b.upper * (1 + 1e-9)


def test_weak_restarts_lift_a_case_where_the_row_witnesses_stall():
    # from the row witnesses alone (restarts=0) power iteration stops at 2.8587536068200263,
    # and that bracket [2.85875, 2.86161] excludes the value 4 x 256 restarts witness
    X = [[1.8086195539516332, -0.7493268143868669, -0.1305672689664372, 0.063772122087856],
         [0.270958521795724, 1.3073303320580347, -0.864395847488965, 1.092248472805563]]
    s, best = VecSeq(Space(4, Fraction(4, 3)), X), 3.0805206524727127
    for seed in range(10):
        b = norm_weak_p(s, Fraction(3, 2), seed=seed)
        assert b.lower >= best * (1 - 1e-12) and b.upper >= best


def test_weak_rejects_bad_p():
    s = VecSeq(Space(2, 2), [[1, 0]])
    with pytest.raises(ValueError):
        norm_weak_p(s, 0.9)
    with pytest.raises(ValueError):
        norm_weak_p(s, INF)


@pytest.mark.parametrize("tag", SeqClassSpec.PARAMETRIC)
def test_parametric_class_requires_exponent(tag):
    with pytest.raises(ValueError, match=f"'{tag}' requires an exponent"):
        SeqClassSpec(tag)


# --- Rademacher --------------------------------------------------------------

def test_rad_scalar_pair():
    s = VecSeq(Space(1, 2), [[1], [1]])
    assert norm_rad(s) == pytest.approx(math.sqrt(2), rel=1e-12)


def test_rad_linf_example():
    s = VecSeq(Space(2, INF), [[1, 1], [1, -1]])
    assert norm_rad(s) == pytest.approx(2.0, rel=1e-12)


def test_rad_matches_bruteforce():
    rng = np.random.default_rng(31)
    for _ in range(25):
        k, d = int(rng.integers(1, 7)), int(rng.integers(1, 4))
        q = Q_VALUES[rng.integers(len(Q_VALUES))]
        s = random_seq(rng, k, d, q)
        assert norm_rad(s) == pytest.approx(oracle_rad(s.mat, q), rel=1e-12)


def test_rad_hilbert_identity():
    rng = np.random.default_rng(37)
    for _ in range(50):
        s = random_seq(rng, int(rng.integers(1, 13)), int(rng.integers(1, 7)), 2)
        assert abs(norm_rad(s) - norm_strong_p(s, 2)) <= 1e-12 * max(1, norm_rad(s))


EXTREME_SCALES = (2.0**600, 2.0**-600, 1e200, 1e-200)


def test_sign_enumerators_homogeneous_at_extreme_scales():
    # the Rad, weak-1 sign and dual l_inf vertex enumerations must not
    # overflow or underflow wherever the scaled value is a float
    rng = np.random.default_rng(43)
    cases = [("rad", q) for q in (1, Fraction(3, 2), 2, 3, INF)]
    cases += [("sign-enumeration", q) for q in (1, Fraction(3, 2), 2, 3)]
    cases += [("dual-linf-vertices", 1)]
    for method, q in cases:
        s = random_seq(rng, 14, 3, q)

        def value(t):
            if method == "rad":
                return norm_rad(t)
            b = norm_weak_p(t, 1 if method == "sign-enumeration" else Fraction(3, 2))
            assert b.method == method
            return b.upper

        ref = value(s)
        for c in EXTREME_SCALES:
            got = value(VecSeq(s.space, c * s.mat))
            assert abs(got - c * ref) <= 1e-12 * c * ref, (method, q, c)


def test_sup_and_strong_exactly_homogeneous_at_powers_of_two():
    # the weak-p and Cohen searches divide by these, so they scale bit for bit
    rng = np.random.default_rng(53)
    for q in (1, Fraction(4, 3), 2, 3, INF):
        s = random_seq(rng, 5, 3, q)
        for c in (2.0**600, 2.0**-600):
            t = VecSeq(s.space, c * s.mat)
            assert norm_sup(t) == c * norm_sup(s)
            for p in (1, Fraction(3, 2), 2, 3):
                assert norm_strong_p(t, p) == c * norm_strong_p(s, p)


def test_weak_dual_l1_extreme_points_homogeneous_at_extreme_scales():
    rng = np.random.default_rng(59)
    s = random_seq(rng, 4, 3, INF)
    ref = norm_weak_p(s, 2)
    assert ref.method == "dual-l1-extreme-points"
    for c in EXTREME_SCALES:
        got = norm_weak_p(VecSeq(s.space, c * s.mat), 2).upper
        assert abs(got - c * ref.upper) <= 1e-12 * c * ref.upper, c


def test_weak_power_iteration_exactly_homogeneous_at_powers_of_two():
    rng = np.random.default_rng(67)
    for _ in range(60):
        k, d = int(rng.integers(2, 7)), int(rng.integers(1, 5))
        q = [Fraction(4, 3), Fraction(3, 2), 2, 3][rng.integers(4)]
        p = [Fraction(3, 2), 2, 3, 4][rng.integers(4)]
        if p == 2 and q == 2:
            continue
        s = random_seq(rng, k, d, q)
        ref = norm_weak_p(s, p, seed=5)
        assert ref.method == "power-iteration"
        for c in (2.0**600, 2.0**-600):
            b = norm_weak_p(VecSeq(s.space, c * s.mat), p, seed=5)
            assert (b.lower, b.upper) == (c * ref.lower, c * ref.upper), (q, p, c)


def test_rad_mc_exactly_homogeneous_at_powers_of_two():
    rng = np.random.default_rng(61)
    for q in (Fraction(3, 2), 2, INF):
        s = random_seq(rng, 25, 2, q)
        ref = norm_rad_mc(s, samples=200, seed=3)
        for c in (2.0**600, 2.0**-600):
            b = norm_rad_mc(VecSeq(s.space, c * s.mat), samples=200, seed=3)
            assert (b.lower, b.upper) == (c * ref.lower, c * ref.upper), (q, c)


def test_bracket_rejects_nan():
    for lo, up in ((math.nan, 1.0), (0.0, math.nan), (math.nan, math.nan)):
        with pytest.raises(ValueError):
            NormBracket(lo, up, False, "test")


def test_bracket_checks_are_relative_at_every_scale():
    # a 1e-3 wide bracket at 1e-180 is not exact, however small its width
    with pytest.raises(ValueError, match="too wide"):
        NormBracket(1e-180, 1.001e-180, True, "test")
    # an inversion of 1e-3 relative is an error at 2^-600 as at 1
    for c in (1.0, 2.0**-600):
        with pytest.raises(ValueError, match="invalid"):
            NormBracket(1.001 * c, c, False, "test")
    # a bracket is never edited: a last-bit inversion is an error at every scale
    for c in (1.0, 2.0**-600, 2.0**600):
        up = 0.7 * c
        with pytest.raises(ValueError, match="invalid"):
            NormBracket(np.nextafter(up, math.inf), up, True, "test")
    # and so is a negative end, however small
    for lo, up in ((-1e-13, 1.0), (-1e-13, 0.0), (-1.0, -0.5)):
        with pytest.raises(ValueError, match="invalid"):
            NormBracket(lo, up, False, "test")


def test_searched_bracket_takes_the_slack_under_its_cap():
    slack, rounding = 1.0 + seqnorm.ASCENT_SLACK, 1.0 + seqnorm._ROUNDING
    b = NormBracket.searched(2.0, "search", seed=5)
    assert (b.lower, b.upper, b.exact, b.method, b.seed) == (2.0, 2.0 * slack, False, "search", 5)
    # the cap, rounded outward, is the upper end when it is below the slack,
    # and the bracket is exact only when it is within 1e-9 relative of the lower end
    for cap, exact in ((3.0, False), (2.001, False), (2.0 * (1.0 + 2e-9), False),
                       (2.0 * (1.0 + 5e-10), True), (2.0, True)):
        b = NormBracket.searched(2.0, "search", cap=cap)
        assert (b.upper, b.exact) == (min(2.0 * slack, cap * rounding), exact), cap
    # a cap that roundoff put one ulp under the lower end is rounded back over it
    for c in (1.0, 2.0**-600, 2.0**600):
        lower = 0.7 * c
        cap = np.nextafter(lower, 0.0)
        b = NormBracket.searched(lower, "search", cap=cap)
        assert (b.lower, b.upper, b.exact) == (lower, cap * rounding, True), c
    # the same verdicts at any scale
    for c in (2.0**-600, 2.0**600):
        assert not NormBracket.searched(2.0 * c, "search", cap=2.001 * c).exact
        assert NormBracket.searched(2.0 * c, "search", cap=2.0 * c).exact
    # a search with no cap is never exact, not even at 0
    for lower in (0.0, 1e-300, 1.0, 1e300):
        assert not NormBracket.searched(lower, "search").exact
    b = NormBracket.searched(0.0, "search", cap=0.0)
    assert (b.lower, b.upper, b.exact) == (0.0, 0.0, True)


def test_rad_prefix_sup_equals_rad():
    rng = np.random.default_rng(41)
    for _ in range(40):
        s = random_seq(rng, int(rng.integers(0, 9)), 3, rng.choice([1.0, 2.0]))
        assert norm_rad_prefix_sup(s) == pytest.approx(norm_rad(s), abs=1e-12)


def test_rad_cutoff_enforced():
    # the cutoff bounds the enumeration, which only q != 2 needs
    s = VecSeq(Space(2, 3), np.ones((21, 2)))
    with pytest.raises(ValueError):
        norm_rad(s)
    with pytest.raises(ValueError):
        norm_rad_prefix_sup(s)


@pytest.mark.parametrize("k", [1, 7, 21, 40])
def test_rad_on_l2_is_the_strong_2_norm_at_every_k(k):
    rng = np.random.default_rng(42)
    X = rng.standard_normal((k, 3))
    X[k // 2] = 0.0  # a zero row stays in the sum, as in norm_strong_p
    s = VecSeq(Space(3, 2), X)
    assert norm_rad(s) == norm_strong_p(s, 2)
    assert norm_rad_prefix_sup(s) == max(norm_strong_p(truncate(s, m), 2) for m in range(k + 1))
    # exactly homogeneous under powers of two, where squaring unscaled rows would overflow or underflow
    for c in (2.0**600, 2.0**-600):
        assert norm_rad(VecSeq(s.space, c * X)) == c * norm_rad(s)


def test_rad_mc_bracket():
    s = VecSeq(Space(1, 2), [[1], [1]])
    b = norm_rad_mc(s, samples=100_000, seed=5)
    assert b.contains(math.sqrt(2))
    assert not b.exact
    z = norm_rad_mc(VecSeq(Space(2, 2), np.zeros((4, 2))), samples=100, seed=1)
    assert z.exact and z.lower == z.upper == 0.0


def test_rad_mc_hilbert_containment():
    rng = np.random.default_rng(43)
    s = random_seq(rng, 12, 4, 2)
    b = norm_rad_mc(s, samples=200_000, seed=7)
    assert b.contains(norm_strong_p(s, 2))


def test_rad_mc_deterministic():
    rng = np.random.default_rng(47)
    s = random_seq(rng, 25, 3, 2)
    b1 = norm_rad_mc(s, samples=5000, seed=99)
    b2 = norm_rad_mc(s, samples=5000, seed=99)
    assert (b1.lower, b1.upper) == (b2.lower, b2.upper)


# --- Cohen -------------------------------------------------------------------

def test_cohen_scalar_collapse():
    s = VecSeq(Space(1, 2), [[3], [4]])
    b = norm_cohen(s, 2)
    assert b.exact
    assert b.lower == pytest.approx(5.0, rel=1e-12)


def test_cohen_p1_collapse():
    rng = np.random.default_rng(53)
    for q in Q_VALUES:
        s = random_seq(rng, 4, 3, q)
        b = norm_cohen(s, 1)
        assert b.exact
        assert b.lower == pytest.approx(norm_strong_p(s, 1), rel=1e-12)


def test_cohen_singleton():
    s = VecSeq(Space(3, 3), [[1.0, -2.0, 0.5]])
    for p in (1.5, 2, 4):
        b = norm_cohen(s, p)
        assert b.exact
        assert b.lower == pytest.approx(lq_norm(s.mat[0], 3), rel=1e-12)


def test_cohen_nuclear_branch():
    rng = np.random.default_rng(59)
    X = rng.standard_normal((4, 3))
    b = norm_cohen(VecSeq(Space(3, 2), X), 2)
    assert b.exact
    # independent path: singular values from the Gram spectrum
    lam = np.clip(np.linalg.eigvalsh(X.T @ X), 0, None)
    assert b.lower == pytest.approx(np.sqrt(lam).sum(), rel=1e-10)


def test_cohen_l1_space_branch():
    rng = np.random.default_rng(61)
    X = rng.standard_normal((4, 3))
    b = norm_cohen(VecSeq(Space(3, 1), X), 2)
    assert b.exact
    expected = sum(lq_norm(X[:, i], 2) for i in range(3))
    assert b.lower == pytest.approx(expected, rel=1e-12)


def cohen_width_corpus():
    """60 small (sequence, p) pairs, most of them on the heuristic Cohen branch."""
    rng = np.random.default_rng(67)
    for _ in range(60):
        k, d = int(rng.integers(2, 6)), int(rng.integers(2, 4))
        q = [Fraction(3, 2), 2, 3, INF][rng.integers(4)]
        p = [Fraction(4, 3), Fraction(3, 2), 2, 3][rng.integers(4)]
        yield random_seq(rng, k, d, q), p


def test_cohen_sandwich_and_width():
    widths = []
    for s, p in cohen_width_corpus():
        b = norm_cohen(s, p, seed=3)
        assert norm_strong_p(s, float(p)) <= b.upper + 1e-9
        assert b.upper <= norm_strong_p(s, 1) + 1e-12
        assert b.lower <= b.upper
        widths.append(b.width / max(b.upper, 1e-30))
    assert max(widths) <= 0.10


def test_cohen_width_corpus_tight():
    # the width floor is the weak-p* slack ASCENT_SLACK = 1e-3
    brackets = [norm_cohen(s, p, seed=3) for s, p in cohen_width_corpus()]
    assert max(b.width / b.upper for b in brackets) <= 5e-3


def test_cohen_width_guard_on_hard_stratum():
    # 400 draws (d in {2, 3}, k in 2..6, q over 5 and p over 4 exponents),
    # of which the 84 with k >= 4, q in {3/2, 2, 3} and p < 2 are bracketed:
    # the stratum whose widths grow first when the cut search starts from
    # too few of its atoms (seen at up to 2.2e-3, against 1.2e-3 here)
    rng = np.random.default_rng(31)
    qs, ps = [Fraction(4, 3), Fraction(3, 2), 2, 3, INF], [Fraction(4, 3), Fraction(3, 2), 2, 3]
    widths = []
    for i in range(400):
        d, k = int(rng.integers(2, 4)), int(rng.integers(2, 7))
        q, p = qs[rng.integers(5)], ps[rng.integers(4)]
        X = rng.standard_normal((k, d))
        if k >= 4 and q in (Fraction(3, 2), 2, 3) and p < 2:
            b = norm_cohen(VecSeq(Space(d, q), X), p, seed=i)
            widths.append(b.width / b.upper)
    assert len(widths) == 84
    assert max(widths) <= 1.25e-3


def test_cohen_masters_see_a_working_set_not_the_pool(monkeypatch):
    # the widest case of the hard-stratum corpus, draw 256 of default_rng(31): a master
    # over every atom ever found takes up to 113 constraints there
    from scipy import optimize

    rng = np.random.default_rng(31)
    qs, ps = [Fraction(4, 3), Fraction(3, 2), 2, 3, INF], [Fraction(4, 3), Fraction(3, 2), 2, 3]
    for _ in range(257):
        d, k = int(rng.integers(2, 4)), int(rng.integers(2, 7))
        q, p = qs[rng.integers(5)], ps[rng.integers(4)]
        X = rng.standard_normal((k, d))
    assert (X.shape, q, p) == ((6, 3), 2, Fraction(3, 2))
    sizes, minimize = [], optimize.minimize

    def counted(fun, x0, **kw):
        sizes.append(len(kw["constraints"][0]["fun"](x0)))
        return minimize(fun, x0, **kw)

    monkeypatch.setattr(optimize, "minimize", counted)
    s = VecSeq(Space(3, 2), X)
    b = norm_cohen(s, p, seed=256)
    assert sizes and max(sizes) <= 60
    assert norm_strong_p(s, p) <= b.lower <= b.upper <= norm_strong_p(s, 1)
    assert b.width <= 1.25e-3 * b.upper


def assert_cohen_bracket_holds(X, q, p, exact):
    lower, upper = _cohen_bracket(X, q, p, seed=11)
    assert lower <= exact * (1 + 1e-9) and exact <= upper * (1 + 1e-9), (q, p)
    assert upper - lower <= 1e-4 * upper, (q, p)


def test_cohen_bracket_nuclear_norm():
    # p = q = 2: the trace norm, with the weak-p* bracket the exact top singular value
    rng = np.random.default_rng(101)
    for _ in range(40):
        X = rng.standard_normal((int(rng.integers(2, 6)), int(rng.integers(2, 5))))
        assert_cohen_bracket_holds(X, 2, 2, np.linalg.svd(X, compute_uv=False).sum())


def test_cohen_bracket_l1_columns():
    # q = 1: the l_1 factor splits off, leaving the sum of the column l_p norms
    rng = np.random.default_rng(103)
    for _ in range(40):
        X = rng.standard_normal((int(rng.integers(2, 6)), int(rng.integers(2, 5))))
        p = [Fraction(4, 3), Fraction(3, 2), 2, 3][rng.integers(4)]
        assert_cohen_bracket_holds(X, 1, p, sum(lq_norm(col, p) for col in X.T))


def test_cohen_bracket_scalar_lp():
    # d = 1: plain l_p. The weak-p* bracket is exact on the l_1 and l_inf
    # balls only; elsewhere it carries the 1e-3 slack
    rng = np.random.default_rng(107)
    for _ in range(40):
        X = rng.standard_normal((int(rng.integers(2, 8)), 1))
        p = [Fraction(4, 3), Fraction(3, 2), 2, 3][rng.integers(4)]
        assert_cohen_bracket_holds(X, [1, INF][rng.integers(2)], p, lq_norm(X[:, 0], p))


def test_cohen_linf_brackets_tight():
    # every sign vertex is an atom, and the weak-p* bracket on l_1 is exact
    rng = np.random.default_rng(109)
    for i in range(100):
        k, d = int(rng.integers(2, 7)), int(rng.integers(2, 5))
        p = [Fraction(4, 3), Fraction(3, 2), 2, 3][rng.integers(4)]
        b = norm_cohen(random_seq(rng, k, d, INF), p, seed=i)
        assert not b.exact
        assert b.width <= 1e-6 * b.upper, (k, d, p)


def test_cohen_heuristic_exactly_homogeneous_at_powers_of_two():
    rng = np.random.default_rng(113)
    for i in range(60):
        k, d = int(rng.integers(2, 6)), int(rng.integers(2, 4))
        q = [Fraction(3, 2), 2, 3, INF][rng.integers(4)]
        p = [Fraction(4, 3), Fraction(3, 2), 3][rng.integers(3)]
        s = random_seq(rng, k, d, q)
        ref = norm_cohen(s, p, seed=i)
        assert not ref.exact
        for c in (2.0**600, 2.0**-600):
            b = norm_cohen(VecSeq(s.space, c * s.mat), p, seed=i)
            assert (b.lower, b.upper) == (c * ref.lower, c * ref.upper), (i, c)


def test_cohen_deterministic():
    rng = np.random.default_rng(71)
    s = random_seq(rng, 4, 3, 3)
    b1 = norm_cohen(s, 1.5, seed=13)
    b2 = norm_cohen(s, 1.5, seed=13)
    assert (b1.lower, b1.upper) == (b2.lower, b2.upper)


# --- shared invariants -------------------------------------------------------

def test_truncate():
    s = VecSeq(Space(2, 2), [[1, 0], [0, 1], [1, 1]])
    assert len(truncate(s, 2)) == 2
    np.testing.assert_array_equal(truncate(s, 2).mat, s.mat[:2])
    assert len(truncate(s, 0)) == 0
    np.testing.assert_array_equal(truncate(s, 3).mat, s.mat)
    with pytest.raises(ValueError):
        truncate(s, 4)


def test_unit_sequence_property():
    rng = np.random.default_rng(73)
    for spec in ALL_SPECS:
        for _ in range(25):
            d = int(rng.integers(1, 5))
            q = Q_VALUES[rng.integers(len(Q_VALUES))]
            k = int(rng.integers(1, 7))
            pos = int(rng.integers(k))
            x = rng.standard_normal(d)
            mat = np.zeros((k, d))
            mat[pos] = x
            s = VecSeq(Space(d, q), mat)
            b = seq_norm(s, spec, seed=2)
            expect = lq_norm(x, q)
            tol = 1e-12 if b.exact else 1e-9
            assert b.lower <= expect * (1 + tol) + tol
            assert b.upper >= expect * (1 - tol) - tol
            if b.exact:
                assert b.lower == pytest.approx(expect, rel=1e-12, abs=1e-12)


def test_embedding_into_sup():
    rng = np.random.default_rng(79)
    for spec in ALL_SPECS:
        for _ in range(15):
            s = random_seq(
                rng, int(rng.integers(0, 6)), int(rng.integers(1, 4)),
                Q_VALUES[rng.integers(len(Q_VALUES))],
            )
            b = seq_norm(s, spec, seed=4)
            assert norm_sup(s) <= b.upper + 1e-9


def test_ordering_sandwich():
    rng = np.random.default_rng(83)
    for _ in range(40):
        s = random_seq(
            rng, int(rng.integers(1, 6)), int(rng.integers(1, 4)),
            Q_VALUES[rng.integers(len(Q_VALUES))],
        )
        p = [1.0, 1.5, 2.0, 3.0][rng.integers(4)]
        sp = norm_strong_p(s, p)
        assert norm_weak_p(s, p, seed=5).upper <= sp + 1e-12
        assert sp <= norm_cohen(s, p, seed=5).upper + 1e-9


def test_truncation_monotone():
    rng = np.random.default_rng(89)
    for spec in ALL_SPECS:
        for _ in range(10):
            k = int(rng.integers(1, 6))
            s = random_seq(rng, k, 3, [1, 2, INF][rng.integers(3)])
            full = seq_norm(s, spec, seed=6)
            for m in range(k + 1):
                part = seq_norm(truncate(s, m), spec, seed=6)
                assert part.lower <= full.upper + 1e-9


def test_norm_axioms_homogeneity_and_triangle():
    rng = np.random.default_rng(97)
    for spec in ALL_SPECS:
        for _ in range(8):
            k, d = int(rng.integers(1, 5)), int(rng.integers(1, 4))
            q = [1, 2, INF][rng.integers(3)]
            a = random_seq(rng, k, d, q)
            bmat = rng.standard_normal((k, d))
            c = float(rng.uniform(0.1, 3.0))
            na = seq_norm(a, spec, seed=8)
            nca = seq_norm(VecSeq(a.space, c * a.mat), spec, seed=8)
            if na.exact and nca.exact:
                assert nca.lower == pytest.approx(c * na.lower, rel=1e-12, abs=1e-12)
            else:
                # estimated norms compare bracket-consistently
                assert nca.lower <= c * na.upper * (1 + 1e-9) + 1e-12
                assert c * na.lower <= nca.upper * (1 + 1e-9) + 1e-12
            nb = seq_norm(VecSeq(a.space, bmat), spec, seed=8)
            nsum = seq_norm(VecSeq(a.space, a.mat + bmat), spec, seed=8)
            assert nsum.lower <= na.upper + nb.upper + 1e-9


def test_seq_norm_dispatch_rad_fallback():
    # past the sign cutoff on q != 2 the bracket is Monte Carlo: it must contain the
    # value a brute-force pass over the 2^20 patterns with the first sign fixed gives
    rng = np.random.default_rng(101)
    s = random_seq(rng, 21, 2, 3)
    b = seq_norm(s, SeqClassSpec.rad(), seed=3)
    assert not b.exact and b.method.startswith("monte-carlo")
    total, count = 0.0, 0
    for start in range(0, 1 << 20, 1 << 16):
        idx = np.arange(start, start + (1 << 16))
        pm = np.hstack([np.ones((len(idx), 1)), ((idx[:, None] >> np.arange(20)) & 1) * 2.0 - 1.0])
        vals = np.linalg.norm(pm @ s.mat, ord=3, axis=1)
        total, count = total + (vals * vals).sum(), count + len(idx)
    assert b.contains(math.sqrt(total / count))


def test_seq_norm_rad_on_l2_is_exact_past_the_sign_cutoff():
    rng = np.random.default_rng(102)
    s = random_seq(rng, 25, 2, 2)
    b = seq_norm(s, SeqClassSpec.rad(), seed=3)
    assert b.exact and b.method == "rad-l2-closed-form"
    assert b.lower == b.upper == norm_strong_p(s, 2)


def test_empty_sequences_are_zero():
    for mat in ([], (), np.zeros((0, 3))):  # numpy reads [] as shape (0,), yet it is the empty sequence
        s = VecSeq(Space(3, 2), mat)
        assert s.mat.shape == (0, 3)
        for spec in ALL_SPECS:
            b = seq_norm(s, spec, seed=0)
            assert b.exact and b.lower == 0.0 and b.upper == 0.0


def test_linear_stability_of_each_class():
    # applying a linear map u coordinatewise scales any class norm by at
    # most the operator norm of u
    from seqclass.multiop import MultiOp, op_norm

    rng = np.random.default_rng(103)
    for spec in ALL_SPECS:
        for _ in range(8):
            d, d_out = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            q = Q_VALUES[rng.integers(len(Q_VALUES))]
            q_out = Q_VALUES[rng.integers(len(Q_VALUES))]
            s = random_seq(rng, int(rng.integers(1, 6)), d, q)
            U = rng.standard_normal((d, d_out))
            u = MultiOp((Space(d, q),), Space(d_out, q_out), U)
            mapped = VecSeq(u.codomain, s.mat @ U)
            lhs = seq_norm(mapped, spec, seed=9)
            rhs = seq_norm(s, spec, seed=9)
            ceiling = op_norm(u, seed=9).bracket.upper
            assert lhs.lower <= ceiling * rhs.upper + 1e-9


# --- block_kernel --------------------------------------------------------------

BLOCK_SPECS = [
    SeqClassSpec.sup(),
    SeqClassSpec.strong(1),
    SeqClassSpec.strong(Fraction(4, 3)),
    SeqClassSpec.strong(3),
    SeqClassSpec.weak(1),
    SeqClassSpec.weak(Fraction(3, 2)),
    SeqClassSpec.weak(2),
    SeqClassSpec.rad(),
]


def _block_cases(rng, k, d):
    """A (B, k, d) block: random items at mixed scales, a zero row, a zero item, disjoint rows."""
    S = rng.standard_normal((6, k, d)) * np.exp2(rng.integers(-8, 9, size=(6, 1, 1)))
    S[1, k // 2] = 0.0
    S[2] = 0.0
    S[3] = np.eye(d)[np.arange(k) % d] * (1.0 + np.arange(k))[:, None] if k <= d else S[3]
    return S


def _assert_block_matches(space, S, spec, seed=3):
    B, k = S.shape[:2]
    lower, upper = seqnorm.block_kernel(space, spec, k, B, seed=seed)(S)
    assert lower.shape == upper.shape == (len(S),)
    for i, X in enumerate(S):
        b = seq_norm(VecSeq(space, X), spec, seed=seed)
        assert (lower[i], upper[i]) == (b.lower, b.upper), (spec, space, i, b.method)


@pytest.mark.parametrize("spec", BLOCK_SPECS, ids=lambda s: s.describe())
def test_seq_norm_block_matches_seq_norm_bit_for_bit(spec):
    rng = np.random.default_rng(61)
    for q in [1, Fraction(3, 2), 2, 3, INF]:
        for k, d in ((1, 3), (2, 1), (2, 3), (3, 2), (4, 4)):
            _assert_block_matches(Space(d, q), _block_cases(rng, k, d), spec)
        _assert_block_matches(Space(2, q), np.zeros((3, 0, 2)), spec)
        # the dense blocks the hill climb sends: with no zero entry a block goes to its kernel whole
        for k, d in ((2, 1), (2, 3), (3, 2), (3, 4)):
            _assert_block_matches(Space(d, q), rng.standard_normal((6, k, d)), spec)
    # B 2^(k-1) at DEFAULT_BLOCK = 2^L (a one-block enumeration at k = L + 1) and
    # past it (B = 3 and k = L, and a two-block enumeration at k = L + 2, item by item)
    L = _optim.DEFAULT_BLOCK.bit_length() - 1
    for B, k in ((2, L), (3, L), (1, L + 1), (1, L + 2)):
        for q in [1, 2, INF]:
            _assert_block_matches(Space(2, q), rng.standard_normal((B, k, 2)), spec)


def test_weak_sign_oracle_reads_a_one_block_table_as_the_loop_would():
    rng = np.random.default_rng(64)
    L = _optim.DEFAULT_BLOCK.bit_length() - 1  # 2^(k-1) patterns fit one block up to k = L + 1
    for shape in ((2, 3), (3, 2), (6, 3, 2), (L + 1, 3), (2, L, 2)):
        X = rng.standard_normal(shape)
        for q in (1, 1.5, 2.0, 3):
            Y, e = _optim.unit_scaled(X)
            (sums,) = _optim.sign_patterns(Y, fix_first=True)  # one block
            want = np.ldexp(lq_norm(sums, q, axis=-1).max(-1), e)
            assert np.array_equal(seqnorm._weak_sign_oracle(X, q), want), (shape, q)


def weak_sign_loop(X, q):
    """Reference: the weak-1 value as the max over every block of `sign_patterns`."""
    Y, e = _optim.unit_scaled(X)
    best = 0.0
    for sums in _optim.sign_patterns(Y, fix_first=True):
        best = max(best, lq_norm(sums, q, axis=-1).max())
    return np.ldexp(best, e)


def test_weak_sign_branch_and_bound_matches_the_full_loop_bit_for_bit():
    # d = 1..12 on both sides of numpy's pairwise threshold (8 contiguous entries): a gather
    # of the wrong layout, or a lone surviving row, sums some row in another order
    rng = np.random.default_rng(65)
    for t, (d, q) in enumerate(itertools.product(range(1, 13), (1, Fraction(4, 3), Fraction(3, 2), 2, 3, 4))):
        for kind in (("normal", "scaled", "integer")[t % 3],) + ("+-v",) * (1 + 2 * (d >= 8)):
            k = 15 + (t + len(kind)) % 4
            if kind == "+-v":  # every signed sum a multiple of v: near-ties, one row survives
                X = np.outer(rng.choice([-1.0, 1.0], size=k), rng.standard_normal(d))
            elif kind == "integer":
                X = rng.integers(-3, 4, size=(k, d)) * 1.0
                X[0, 0] = 4.0  # no zero matrix
            else:
                X = rng.standard_normal((k, d))
                if kind == "scaled":
                    X *= np.ldexp(1.0, rng.choice([-1000, 1000], size=(k, 1)))
            assert seqnorm._weak_sign_oracle(X, q) == weak_sign_loop(X, q), (d, q, kind, k)
    # a stack goes item by item
    S = rng.standard_normal((2, 15, 3))
    assert np.array_equal(seqnorm._weak_sign_oracle(S, 3), [weak_sign_loop(X, 3) for X in S])


def test_weak_sign_branch_and_bound_prunes(monkeypatch):
    rows = []
    original = seqnorm.lq_norm

    def counted(a, q, axis=None):
        rows.append(np.size(a) // np.shape(a)[axis])  # the slices reduced
        return original(a, q, axis)

    monkeypatch.setattr(seqnorm, "lq_norm", counted)
    X = np.random.default_rng(66).standard_normal((20, 4))
    assert seqnorm._weak_sign_oracle(X, Fraction(3, 2)) == weak_sign_loop(X, Fraction(3, 2))
    # the tables' norms and the rows evaluated, of 2^19 signed sums
    assert sum(rows) < 0.1 * 2**19, sum(rows)


def test_seq_norm_block_fallback_items_bit_for_bit():
    rng = np.random.default_rng(62)
    # the Cohen engine item by item (its exact and its heuristic branches)
    for q, p in ((2, 2), (1, Fraction(3, 2)), (3, Fraction(3, 2))):
        _assert_block_matches(Space(2, q), rng.standard_normal((2, 3, 2)), SeqClassSpec.cohen(p))
    # Rad and weak-1 past the block's enumeration budget, and Rad past the sign cutoff
    for spec in (SeqClassSpec.rad(), SeqClassSpec.weak(1)):
        _assert_block_matches(Space(2, 3), rng.standard_normal((3, 15, 2)), spec)
    _assert_block_matches(Space(2, 2), rng.standard_normal((2, 21, 2)), SeqClassSpec.rad())


def test_rad_block_on_l2_keeps_zero_rows_as_seq_norm_does():
    # from 8 terms on numpy's pairwise sum groups the terms by position, so a
    # path that dropped the zero rows of only some items could move the last bit
    rng = np.random.default_rng(65)
    for B, k in ((1, 8), (3, 9), (6, 17), (2, 25)):
        S = rng.standard_normal((B, k, 3)) * np.exp2(rng.integers(-8, 9, size=(B, 1, 1)))
        S[0, [0, k // 2]] = 0.0
        S[-1, 1::3] = 0.0
        _assert_block_matches(Space(3, 2), S, SeqClassSpec.rad())


def test_seq_norm_block_runs_the_row_wise_branches_as_one_block(monkeypatch):
    calls = []
    original = seqnorm.seq_norm
    monkeypatch.setattr(seqnorm, "seq_norm", lambda s, *a, **kw: calls.append(s) or original(s, *a, **kw))
    rng = np.random.default_rng(63)
    S = rng.standard_normal((6, 3, 2))
    cases = [
        (SeqClassSpec.sup(), 2), (SeqClassSpec.strong(3), 3), (SeqClassSpec.weak(1), 2),
        (SeqClassSpec.weak(1), 1), (SeqClassSpec.weak(3), INF), (SeqClassSpec.rad(), 3),
    ]
    for spec, q in cases:
        seqnorm.block_kernel(Space(2, q), spec, 3, 6)(S)
    assert calls == []
    S[4, 1] = 0.0  # only the item with a zero row leaves the block
    seqnorm.block_kernel(Space(2, 2), SeqClassSpec.weak(1), 3, 6)(S)
    assert len(calls) == 1 and np.array_equal(calls[0].mat, S[4])


def test_seq_norm_block_rejects_a_dimension_mismatch():
    # a wrong dimension, a wrong block size B and a wrong length k
    for spec in (SeqClassSpec.sup(), SeqClassSpec.weak(1), SeqClassSpec.cohen(2)):
        brackets = seqnorm.block_kernel(Space(3, 2), spec, 2, 2)
        for shape in ((2, 2, 2), (3, 2, 3), (2, 3, 3), (2, 2)):
            with pytest.raises(ValueError, match="block shape"):
                brackets(np.ones(shape))
