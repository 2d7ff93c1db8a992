"""Finite-dimensional l_q spaces, duals, pairings and norming functionals.

Everything downstream computes over the l_q^d family: exponents are kept
as exact `Fraction`s (or `math.inf`) so that conjugation is an involution
bit for bit, and norming functionals have closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Union

import numpy as np

__all__ = [
    "INF",
    "Exponent",
    "Space",
    "Vector",
    "as_exponent",
    "conjugate_exponent",
    "vector_norm",
    "pairing",
    "norming_functional",
]

#: Exponent value standing for infinity. Kept as the IEEE infinity so that
#: comparisons like ``q == INF`` are exact and unambiguous.
INF = math.inf

Exponent = Union[Fraction, float]

#: Range of a sum of squares that the unscaled q = 2 path trusts. Inside it
#: no square overflowed, and each square that lost bits below 2^-1022 is
#: under 2^-62 of the sum.
_SS_MIN, _SS_MAX = 2.0**-960, 2.0**960


def as_exponent(q) -> Exponent:
    """Normalize an exponent to an exact representation.

    Accepts ints, floats, Fractions and strings like ``"4/3"`` or ``"inf"``.
    Finite values become `Fraction` (floats convert exactly via their binary
    expansion), infinity stays `math.inf`.
    """
    if isinstance(q, Fraction) and q.numerator >= q.denominator:
        return q  # already normalized; q >= 1 checked exactly
    if isinstance(q, str):
        if q.strip().lower() in ("inf", "infinity", "oo"):
            return INF
        q = Fraction(q)
    if q == INF:
        return INF
    q = Fraction(q)
    if q < 1:
        raise ValueError(f"exponent must satisfy q >= 1, got {q}")
    return q


def conjugate_exponent(q) -> Exponent:
    """Conjugate exponent q* with 1/q + 1/q* = 1.

    conjugate(1) = inf and conjugate(inf) = 1; otherwise q/(q-1) in exact
    rational arithmetic, so conjugation is an exact involution.
    """
    q = as_exponent(q)
    if q == 1:
        return INF
    if q == INF:
        return Fraction(1)
    return q / (q - 1)


@dataclass(frozen=True)
class Space:
    """The real space l_q^d: `dim` coordinates with the l_q norm."""

    dim: int
    q: Exponent

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        object.__setattr__(self, "q", as_exponent(self.q))

    @property
    def dual(self) -> "Space":
        """The dual space l_{q*}^d. `S.dual.dual == S` exactly."""
        return Space(self.dim, conjugate_exponent(self.q))

    def vector(self, coords) -> "Vector":
        return Vector(self, coords)

    def basis_vector(self, i: int) -> "Vector":
        e = np.zeros(self.dim)
        e[i] = 1.0
        return Vector(self, e)

    def __repr__(self):
        q = "inf" if self.q == INF else str(self.q)
        return f"l[{q}]^{self.dim}"


@dataclass(frozen=True, eq=False)
class Vector:
    """A point of a `Space`; coords is an immutable float array."""

    space: Space
    coords: np.ndarray = field(repr=False)

    def __post_init__(self):
        c = np.array(self.coords, dtype=float)
        if c.shape != (self.space.dim,):
            raise ValueError(
                f"coords shape {c.shape} does not match dim {self.space.dim}"
            )
        c.flags.writeable = False
        object.__setattr__(self, "coords", c)

    @property
    def norm(self) -> float:
        return vector_norm(self)

    def __repr__(self):
        return f"Vector({self.space!r}, {self.coords.tolist()})"


def lq_norm(coords: np.ndarray, q) -> float:
    """l_q norm of a coordinate array (array-level workhorse)."""
    a = np.abs(np.asarray(coords, dtype=float))
    if a.size == 0:
        return 0.0
    qf = float(q)
    if qf == math.inf:
        return float(a.max())
    if qf == 1.0:
        return float(a.sum())
    if qf == 2.0:
        ss = (a * a).sum()
        if _SS_MIN <= ss <= _SS_MAX:
            return math.sqrt(ss)
        # the squares over- or underflowed: take the scaled route below
    m = a.max()
    if m == 0.0 or m == math.inf:
        return float(m)
    # scale out the max to avoid overflow for large exponents
    return float(m * (((a / m) ** qf).sum()) ** (1.0 / qf))


def vector_norm(v: Vector) -> float:
    """Norm of `v` in its space."""
    return lq_norm(v.coords, v.space.q)


def pairing(phi: Vector, x: Vector) -> float:
    """Dual pairing phi(x) = sum_i phi_i x_i.

    `phi` lives in the dual of `x.space`; only the dimensions are checked.
    """
    if phi.space.dim != x.space.dim:
        raise ValueError(
            f"dimension mismatch: {phi.space.dim} vs {x.space.dim}"
        )
    return float(phi.coords @ x.coords)


def dual_witness(g: np.ndarray, q) -> np.ndarray:
    """Unit-ball maximizer: argmax of <g, x> over the l_q unit ball.

    Returns x with lq_norm(x, q) <= 1 and <g, x> = lq_norm(g, q*). Closed
    form for every q; for q = 1 the peak coordinate wins with a
    lowest-index tie-break, for q = inf the sign vector.
    """
    g = np.asarray(g, dtype=float)
    if not g.any():
        return np.zeros_like(g)
    qf = float(q)
    if qf == math.inf:
        return np.sign(g)
    if qf == 1.0:
        i0 = int(np.argmax(np.abs(g)))
        x = np.zeros_like(g)
        x[i0] = math.copysign(1.0, g[i0])
        return x
    qstar = qf / (qf - 1.0)
    a = np.abs(g)
    m = a.max()
    w = (a / m) ** (qstar - 1.0)
    x = np.sign(g) * w
    return x / lq_norm(x, q)


def norming_functional(x: Vector) -> Vector:
    """A unit functional phi in the dual space with phi(x) = ||x||.

    Signed-power formula for 1 < q < inf; sign vector for q = 1 viewed in
    l_inf; peak coordinate (lowest index on ties) for q = inf viewed in l_1.
    """
    if not x.coords.any():
        raise ValueError("norming functional of the zero vector is undefined")
    # the witness of <., x> over the dual ball is exactly the functional we want
    phi = dual_witness(x.coords, conjugate_exponent(x.space.q))
    return Vector(x.space.dual, phi)
