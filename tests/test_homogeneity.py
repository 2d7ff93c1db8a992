"""Property tests: the norm engines are homogeneous at extreme scales.

Each engine runs on an input and on that input scaled by 1e200 and by
1e-300. Two exact brackets must agree to 1e-12 relative; otherwise the
scaled bracket must overlap the scaled reference bracket, in the relative
form of the `homogeneity+triangle` suite check.
"""

from types import SimpleNamespace

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from seqclass.idealnorm import IdealSpec, ideal_ratio
from seqclass.multiop import MultiOp, evaluate_batch, op_norm
from seqclass.sampling import DEFAULT_EXPONENTS
from seqclass.seqnorm import VecSeq, seq_norm
from seqclass.spaces import Space
from seqclass.suites import _CLASS_MENU, _EXACT_TOL

SCALES = (1e200, 1e-300)

#: Entries are 0 or of magnitude in [2^-8, 2^8], so no scaled input leaves the normal floats.
ENTRIES = st.one_of(
    st.just(0.0),
    st.builds(lambda s, m: s * m, st.sampled_from((-1.0, 1.0)), st.floats(2.0**-8, 2.0**8)),
)
SPACES = st.builds(Space, st.integers(1, 3), st.sampled_from(DEFAULT_EXPONENTS))


def _matrix(draw, shape) -> np.ndarray:
    return draw(arrays(float, shape, elements=ENTRIES))


@st.composite
def sequences(draw, space, k=None):
    """A sequence in `space` of length k, or of a drawn length k <= 5."""
    return VecSeq(space, _matrix(draw, (draw(st.integers(0, 5)) if k is None else k, space.dim)))


@st.composite
def operators(draw, max_arity=3):
    domain = tuple(draw(SPACES) for _ in range(draw(st.integers(1, max_arity))))
    codomain = draw(SPACES)
    return MultiOp(domain, codomain, _matrix(draw, tuple(s.dim for s in domain) + (codomain.dim,)))


def _assert_homogeneous(scaled, ref, c):
    if scaled.exact and ref.exact:
        for got, want in ((scaled.lower, ref.lower), (scaled.upper, ref.upper)):
            assert abs(got - c * want) <= 1e-12 * c * want, (got, c * want)
    else:
        assert scaled.lower <= c * ref.upper * (1.0 + _EXACT_TOL), (scaled, ref, c)
        assert c * ref.lower <= scaled.upper * (1.0 + _EXACT_TOL), (scaled, ref, c)


@settings(max_examples=60, deadline=None)
@given(spec=st.sampled_from(_CLASS_MENU), s=SPACES.flatmap(sequences))
def test_seq_norm_homogeneous(spec, s):
    ref = seq_norm(s, spec, seed=1)
    for c in SCALES:
        _assert_homogeneous(seq_norm(VecSeq(s.space, c * s.mat), spec, seed=1), ref, c)


@settings(max_examples=60, deadline=None)
@given(A=operators())
def test_op_norm_homogeneous(A):
    ref = op_norm(A, seed=2).bracket
    for c in SCALES:
        _assert_homogeneous(op_norm(MultiOp(A.domain, A.codomain, c * A.coeffs), seed=2).bracket, ref, c)


def _ratio_bracket(A, spec, seqs):
    """`ideal_ratio` as the lower end of [out.lower / prod in.upper, out.upper / prod in.lower]."""
    ins = [seq_norm(s, c, seed=3) for s, c in zip(seqs, spec.inputs)]
    out = seq_norm(VecSeq(A.codomain, evaluate_batch(A, [s.mat for s in seqs])), spec.output, seed=3)
    return SimpleNamespace(
        lower=ideal_ratio(A, spec, seqs, seed=3),
        upper=out.upper / np.prod([b.lower for b in ins]),
        exact=out.exact and all(b.exact for b in ins),
    )


@settings(max_examples=60, deadline=None)
@given(cls=st.sampled_from(_CLASS_MENU), data=st.data())
def test_ideal_ratio_homogeneous(cls, data):
    A = data.draw(operators(max_arity=2))
    k = data.draw(st.integers(1, 5))
    seqs = [data.draw(sequences(s, k)) for s in A.domain]
    assume(all(s.mat.any() for s in seqs))
    spec = IdealSpec.uniform(cls, A.arity)
    ref = _ratio_bracket(A, spec, seqs)
    for c in SCALES:
        _assert_homogeneous(_ratio_bracket(MultiOp(A.domain, A.codomain, c * A.coeffs), spec, seqs), ref, c)
