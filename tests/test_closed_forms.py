"""Arity-1 summing-norm brackets against closed forms and bounds.

For a linear map T the ideal norm with spec (weak p; strong p) is the
p-summing norm π_p(T), and `ideal_norm` brackets it from below by an
explicit witness sequence. Where π_p(T) has a closed form or a classical
upper bound, that lower end must not exceed it (soundness). Where the
search is known to reach the value, the lower end must equal it.

Each `ideal_norm` call here runs with 8 restarts and seed 0. Known gaps
are strict xfails: the reported upper end, the lower end times
`1 + ASCENT_SLACK`, does not always contain the true value (ROADMAP
items 4 and 10).
"""

import math
from itertools import product

import numpy as np
import pytest

from seqclass.idealnorm import IdealSpec, ideal_norm
from seqclass.multiop import MultiOp
from seqclass.seqnorm import SeqClassSpec
from seqclass.spaces import INF, Space

#: Relative room for rounding in every comparison with a closed form.
REL = 1e-12

PI_2 = IdealSpec((SeqClassSpec.weak(2),), SeqClassSpec.strong(2))
PI_1 = IdealSpec((SeqClassSpec.weak(1),), SeqClassSpec.strong(1))


def linear(T: np.ndarray, q_in, q_out) -> MultiOp:
    """x -> x @ T from l_q_in^d to l_q_out^m, for T of shape (d, m)."""
    d, m = T.shape
    return MultiOp((Space(d, q_in),), Space(m, q_out), T)


def identity(d: int, q) -> MultiOp:
    return linear(np.eye(d), q, q)


def _frobenius_cases():
    """π₂(T) = ‖T‖_F for T: l_2^d -> l_2^m (Hilbert–Schmidt)."""
    rng = np.random.default_rng(2)
    for d in (2, 3):
        for m in (2, 3):
            T = rng.standard_normal((d, m))
            yield f"frobenius-{d}x{m}", linear(T, 2, 2), PI_2, d, float(np.linalg.norm(T))


#: (name, operator, spec, k_max, closed form) where the value is known exactly.
VALUES = [
    *_frobenius_cases(),
    *(
        (f"pi2-id-l{'inf' if q == INF else q}-{d}", identity(d, q), PI_2, d, math.sqrt(d))
        for q in (2, INF)
        for d in (2, 3)
    ),
    ("pi2-id-l1-2", identity(2, 1), PI_2, 4, math.sqrt(2)),
    ("pi2-id-l1-3", identity(3, 1), PI_2, 6, math.sqrt(3)),
    ("pi1-id-l2-2", identity(2, 2), PI_1, 8, math.pi / 2),
]

#: Cases whose lower end reaches the closed form.
REACHED = {name for name, *_ in VALUES if name.startswith(("frobenius", "pi2-id-l2", "pi2-id-linf"))}

#: Cases whose bracket misses the closed form: the upper end lies below it.
MISSED = {
    "pi2-id-l1-3": "upper end 1.67247 < sqrt(3); ROADMAP items 4 and 10",
    "pi1-id-l2-2": "upper end 1.53340 < pi/2 (8 sin(pi/16) = 1.56072 at k = 8); ROADMAP items 4 and 10",
}


def _bracket(A, spec, k_max):
    return ideal_norm(A, spec, k_max, restarts=8, seed=0).bracket


@pytest.mark.parametrize("name, A, spec, k_max, value", VALUES, ids=[v[0] for v in VALUES])
def test_lower_end_never_exceeds_closed_form(name, A, spec, k_max, value):
    lower = _bracket(A, spec, k_max).lower
    assert lower <= value * (1 + REL)
    if name in REACHED:
        assert abs(lower - value) <= REL * value


@pytest.mark.parametrize(
    "name, A, spec, k_max, value",
    [
        pytest.param(*v, marks=pytest.mark.xfail(strict=True, reason=MISSED[v[0]]))
        if v[0] in MISSED
        else v
        for v in VALUES
    ],
    ids=[v[0] for v in VALUES],
)
def test_bracket_contains_closed_form(name, A, spec, k_max, value):
    b = _bracket(A, spec, k_max)
    assert b.lower <= value * (1 + REL) and value <= b.upper * (1 + REL)


def _norm(T: np.ndarray, q_in, q_out) -> float:
    """‖T‖ from l_q_in to l_q_out where it is a finite maximum: over vertices, or the spectral norm."""
    if q_in == 1:
        return max(np.linalg.norm(row, q_out) for row in T)
    if q_in == INF:
        return max(np.linalg.norm(np.array(s) @ T, q_out) for s in product((-1.0, 1.0), repeat=len(T)))
    assert q_in == q_out == 2
    return float(np.linalg.norm(T, 2))


SLOTS = [(1, 1), (1, 2), (1, INF), (INF, 1), (INF, 2), (INF, INF), (2, 2)]


@pytest.mark.parametrize("q_in, q_out", SLOTS)
def test_pi2_within_sqrt_rank_times_norm(q_in, q_out):
    """π₂(T) <= sqrt(rank T) ‖T‖, since π₂ of the identity of an n-dimensional space is sqrt(n)."""
    rng = np.random.default_rng(3)
    T = rng.standard_normal((3, 2)) @ rng.standard_normal((2, 3))
    assert np.linalg.matrix_rank(T) == 2
    bound = math.sqrt(2) * _norm(T, q_in, q_out)
    assert _bracket(linear(T, q_in, q_out), PI_2, 3).lower <= bound * (1 + REL)
