"""Deterministic JSON emission and config/tensor parsing for the CLI.

Reports must be byte-identical across runs with the same config and seed,
so floats are always rendered with 17 significant digits (lossless
round-trip) and object keys are emitted in sorted order.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Any

import numpy as np

from .multiop import MultiOp
from .spaces import INF, Space, as_exponent


def format_float(x: float) -> str:
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    if x == int(x) and abs(x) < 1e16:
        return f"{x:.1f}"
    return f"{x:.17g}"


def dumps(obj: Any) -> str:
    """Serialize with sorted keys, 17-significant-digit floats and a two-space indent."""

    def emit(o: Any, depth: int) -> str:
        pad = "  " * depth
        pad_in = pad + "  "
        if o is None:
            return "null"
        if isinstance(o, bool):
            return "true" if o else "false"
        if isinstance(o, (int, np.integer)):
            return str(int(o))
        if isinstance(o, (float, np.floating)):
            return format_float(float(o))
        if isinstance(o, Fraction):
            return json.dumps(str(o))
        if isinstance(o, str):
            return json.dumps(o)
        if isinstance(o, np.ndarray):
            return emit(o.tolist(), depth)
        if isinstance(o, (list, tuple)):
            if not o:
                return "[]"
            items = [emit(v, depth + 1) for v in o]
            if all(len(s) < 20 and "\n" not in s for s in items) and len(items) <= 12:
                return "[" + ", ".join(items) + "]"
            return "[\n" + ",\n".join(pad_in + s for s in items) + "\n" + pad + "]"
        if isinstance(o, dict):
            if not o:
                return "{}"
            keys = sorted(o.keys())
            parts = [
                pad_in + json.dumps(str(key)) + ": " + emit(o[key], depth + 1)
                for key in keys
            ]
            return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
        raise TypeError(f"cannot serialize {type(o)!r}")

    return emit(obj, 0) + "\n"


def parse_space(text: str) -> Space:
    """Space literals like l2:3, linf:4, l4/3:2."""
    t = text.strip().lower()
    if not t.startswith("l") or ":" not in t:
        raise ValueError(f"bad space literal {text!r}; expected e.g. l2:3 or linf:4")
    q_part, _, dim_part = t[1:].partition(":")
    return Space(int(dim_part), as_exponent(q_part))


def space_to_dict(s: Space) -> dict:
    return {"dim": s.dim, "q": "inf" if s.q == INF else str(s.q)}


def space_from_dict(d: dict) -> Space:
    return Space(d["dim"], as_exponent(d["q"]))


def number_array(raw: Any, what: str) -> Any:
    """`raw`, JSON numbers nested in lists, unconverted: the constructor it goes to converts it.

    A string, boolean or null entry is a `ValueError` naming `what`: numpy reads "1" and true as 1.0.
    """
    todo = [raw]
    while todo:
        x = todo.pop()
        if isinstance(x, list):
            todo.extend(reversed(x))  # the first bad entry in reading order is named
        elif isinstance(x, bool) or not isinstance(x, (int, float)):
            raise ValueError(f"{what} entry {x!r} is not a number")
    return raw


def multiop_to_dict(A: MultiOp) -> dict:
    return {
        "domain": [space_to_dict(s) for s in A.domain],
        "codomain": space_to_dict(A.codomain),
        "shape": list(A.coeffs.shape),
        "coeffs": A.coeffs.ravel().tolist(),
    }


def multiop_from_dict(d: dict) -> MultiOp:
    domain = tuple(space_from_dict(s) for s in d["domain"])
    codomain = space_from_dict(d["codomain"])
    coeffs = number_array(d["coeffs"], "coeffs")
    if "shape" in d:
        try:
            coeffs = np.reshape(coeffs, d["shape"])
        except TypeError as exc:  # an entry that is not an int
            raise TypeError(f"shape {d['shape']!r}: {exc}") from None
    return MultiOp(domain, codomain, coeffs)


def bracket_to_dict(b) -> dict:
    return {
        "lower": b.lower,
        "upper": b.upper,
        "exact": b.exact,
        "method": b.method,
        "seed": b.seed,
    }
