"""Finite-dimensional l_q spaces, duals, pairings and norming functionals.

Everything downstream computes over the l_q^d family: exponents are kept
as exact `Fraction`s (or `math.inf`) so that conjugation is an involution
bit for bit, and norming functionals have closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
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

#: Range of a power sum sum_i |a_i|^q that `lq_norm` trusts unscaled. Inside
#: it no power overflowed, and each power that lost bits below 2^-1022 is
#: under 2^-62 of the sum.
_POW_MIN, _POW_MAX = 2.0**-960, 2.0**960

#: The smallest positive float.
_TINY = 5e-324


def as_exponent(q) -> Exponent:
    """Normalize an exponent to an exact representation.

    Accepts ints, floats, Fractions and strings like ``"4/3"`` or ``"inf"``.
    Finite values become `Fraction` (floats convert exactly via their binary
    expansion), infinity stays `math.inf`. Anything else, a zero
    denominator, NaN, a value below 1 or one too large for a float (such as
    ``"1e400"``) included, is a `ValueError`.
    """
    if isinstance(q, Fraction) and q.numerator >= q.denominator:
        return q  # already normalized; q >= 1 checked exactly
    given = q
    if isinstance(q, str):
        if q.strip().lower() in ("inf", "infinity", "oo"):
            return INF
        try:
            q = Fraction(q)
        except ZeroDivisionError:
            raise ValueError(f"exponent {q!r} has a zero denominator") from None
    if q == INF:
        return INF
    if not q >= 1:  # NaN and -inf stop here, before a Fraction conversion they would fail
        raise ValueError(f"exponent must satisfy q >= 1, got {q}")
    try:
        float(q)  # every kernel computes in floats
    except OverflowError:
        raise ValueError(f"exponent {given!r} is too large for a float") from None
    return Fraction(q)


@lru_cache(maxsize=256)
def conjugate_exponent(q) -> Exponent:
    """Conjugate exponent q* with 1/q + 1/q* = 1.

    conjugate(1) = inf and conjugate(inf) = 1; otherwise q/(q-1) in exact
    rational arithmetic, so conjugation is an exact involution. Memoised on
    the argument (equal exponents give equal results, and an invalid one
    raises every time).
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
        if isinstance(self.dim, bool) or not isinstance(self.dim, (int, np.integer)):
            raise TypeError(f"dim must be an integer, got {self.dim!r}")
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        object.__setattr__(self, "q", as_exponent(self.q))

    @property
    def dual(self) -> "Space":
        """The dual space l_{q*}^d. `S.dual.dual == S` exactly."""
        return Space(self.dim, conjugate_exponent(self.q))

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
        if not np.isfinite(c).all():
            raise ValueError("vector has non-finite entries (NaN or inf)")
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


def lq_norm(a, q, axis=None):
    """l_q norm of an array, or the l_q norms of its slices along `axis`.

    Returns a float for ``axis=None`` and an array of slice norms
    otherwise; empty slices have norm 0. The whole-array norm equals the
    norm of the array as one slice bit for bit. For 1 < q < inf the power
    sums are taken unscaled, and a slice whose sum leaves [`_POW_MIN`,
    `_POW_MAX`] is recomputed with its own max scaled out. Where 1/q is
    inexact in floating point the unscaled root is off by up to
    2^-54 |ln sum| relative (under 3.7e-14), half an ulp of 1/q times
    |ln sum|; callers that need exact homogeneity scale by a power of two first.
    """
    a = np.abs(np.asarray(a, dtype=float))
    qf = float(q)
    if qf == math.inf:
        n = a.max(axis, initial=0.0)
    elif qf == 1.0:
        n = a.sum(axis)
    else:
        s = np.add.reduce(a * a if qf == 2.0 else a ** qf, axis)
        # np.power, not **: a numpy scalar's ** takes another pow than the array loop
        if axis is None and _POW_MIN <= s <= _POW_MAX:
            return math.sqrt(s) if qf == 2.0 else float(np.power(s, 1.0 / qf))
        n = np.sqrt(s) if qf == 2.0 else np.power(s, 1.0 / qf)
        # argmin and argmax cost a fraction of a min or max reduction; NaN fails both tests
        if s.size and not (_POW_MIN <= s.flat[s.argmin()] and s.flat[s.argmax()] <= _POW_MAX):
            n = np.where((s >= _POW_MIN) & (s <= _POW_MAX), n, _max_scaled(a, qf, axis))
    return float(n) if axis is None else n


def _max_scaled(a: np.ndarray, qf: float, axis):
    """Slice norms of |entries| `a` with each slice's max scaled out; 0 and inf pass through."""
    m = a.max(axis, keepdims=True, initial=0.0)
    unit = np.where((m > 0.0) & (m < math.inf), m, 1.0)
    n = unit * ((a / unit) ** qf).sum(axis, keepdims=True) ** (1.0 / qf)
    return np.squeeze(np.where(unit == m, n, m), axis)


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


def dual_direction(r: np.ndarray, p) -> np.ndarray:
    """A positive multiple of the gradient of ||.||_p at each row of r.

    Rows run along the last axis, so a 1-D r is one row and a stack of
    rows gives the row-by-row results bit for bit; a zero row gives a zero
    row. The sign vector for p = 1, a signed one-hot at the first peak for
    p = inf, and sign(r) (|r| / max|r|)^(p-1) otherwise.
    """
    r = np.asarray(r, dtype=float)
    pf = float(p)
    if pf == 1.0:
        return np.sign(r)
    a = np.abs(r)
    if pf == math.inf:
        return np.where(np.arange(r.shape[-1]) == a.argmax(-1)[..., None], np.sign(r), 0.0)
    # the smallest subnormal leaves every nonzero peak as it is and keeps 0/0 out of zero rows;
    # ufunc reductions skip the ndarray-method wrappers, a measurable share on rows of 2 to 4
    return np.sign(r) * (a / np.maximum.reduce(a, -1, keepdims=True, initial=_TINY)) ** (pf - 1.0)


def dual_witness(g: np.ndarray, q) -> np.ndarray:
    """Unit-ball maximizer: argmax of <g, x> over the l_q unit ball, row by row.

    Returns x with lq_norm(x, q) <= 1 and <g, x> = lq_norm(g, q*) for each
    row of g along the last axis (a zero row gives a zero row, and a stack
    gives the row-by-row results bit for bit): the normalized
    `dual_direction` of g in l_{q*}, sign(g) (u / sum u)^(1/q) with
    u = (|g| / max|g|)^(q*). For q = 1 the peak coordinate wins with a
    lowest-index tie-break, for q = inf it is the sign vector.
    """
    qf = float(q)
    if qf == 1.0 or qf == math.inf:  # the direction is already a unit vector
        return dual_direction(g, math.inf if qf == 1.0 else 1.0)
    g = np.asarray(g, dtype=float)
    a = np.abs(g)
    u = (a / np.maximum.reduce(a, -1, keepdims=True, initial=_TINY)) ** (qf / (qf - 1.0))
    # the peak of a nonzero row has u = 1, so its sum lies in [1, d]; a zero row stays 0
    return np.sign(g) * (u / np.maximum(np.add.reduce(u, -1, keepdims=True), 1.0)) ** (1.0 / qf)


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
