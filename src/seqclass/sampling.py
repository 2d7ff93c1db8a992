"""Seeded random instances: spaces, sequences, operators.

Shared by the verification suites and the tests; everything is a pure
function of the supplied generator.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence, Union

import numpy as np

from .multiop import MultiOp
from .seqnorm import VecSeq
from .spaces import INF, Space

DEFAULT_EXPONENTS = (1, Fraction(4, 3), Fraction(3, 2), 2, 3, INF)

Dims = Union[int, Sequence[int]]


def random_space(rng: np.random.Generator, dims: Dims = 4, exponents=DEFAULT_EXPONENTS) -> Space:
    """Random space; `dims` is an inclusive upper bound or an explicit list."""
    if isinstance(dims, int):
        dim = int(rng.integers(1, dims + 1))
    else:
        dim = int(dims[rng.integers(len(dims))])
    return Space(dim, exponents[rng.integers(len(exponents))])


def random_vecseq(rng: np.random.Generator, space: Space, k: int) -> VecSeq:
    return VecSeq(space, rng.standard_normal((k, space.dim)))


def random_multiop(rng: np.random.Generator, domain, codomain: Space) -> MultiOp:
    shape = tuple(s.dim for s in domain) + (codomain.dim,)
    return MultiOp(tuple(domain), codomain, rng.standard_normal(shape))


def random_operator(rng: np.random.Generator, arity: int, dims: Dims, exponents) -> MultiOp:
    """Random `arity`-linear operator: domain spaces in slot order, then codomain, then coefficients."""
    domain = [random_space(rng, dims, exponents) for _ in range(arity)]
    return random_multiop(rng, domain, random_space(rng, dims, exponents))
