"""Spans around the library's layer functions, installed from outside the library.

The library imports names across modules (``from .spaces import lq_norm``),
so a wrapper replaces the function in its defining module and in every
loaded ``seqclass`` module that holds the same object. A name that no
longer exists is reported as absent, not as an error.

Each span records the function, its start and end, its parent span and
the benchmark item. Spans stay in memory and are written when the run
ends. A layer's self time is its busy time minus the time its child spans
cover.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from pathlib import Path

import numpy as np

#: (module, function) pairs wrapped by the traced run. The module is a
#: submodule of ``seqclass`` unless it contains a dot.
TARGETS = (
    ("spaces", "lq_norm"),
    ("spaces", "dual_witness"),
    ("spaces", "as_exponent"),
    ("_optim", "sphere_grid"),
    ("_optim", "grid_scores"),
    ("_optim", "weak_p_ascent"),
    ("_optim", "sign_patterns"),
    ("seqnorm", "seq_norm"),
    ("seqnorm", "norm_weak_p"),
    ("seqnorm", "norm_rad"),
    ("seqnorm", "norm_cohen"),
    ("seqnorm", "_cohen_lower"),
    ("seqnorm", "_cohen_upper"),
    ("seqnorm", "lq_norm_rows"),
    ("multiop", "evaluate_batch"),
    ("multiop", "op_norm"),
    ("multiop", "holder_coefficient_bound"),
    ("multiop", "decoupling_check"),
    ("idealnorm", "ideal_ratio"),
    ("idealnorm", "ideal_norm"),
    ("suites", "run_suite"),
    ("_jsonio", "dumps"),
    ("cli", "main"),
    ("scipy.optimize", "minimize"),
)

#: Generators: busy time would only cover the first step, so they count
#: the rows they yield instead.
GENERATORS = {("_optim", "sign_patterns")}

#: Extra per-layer counters beyond calls / busy_s / self_s.
EXTRA = {
    ("multiop", "evaluate_batch"): "rows",
    ("idealnorm", "ideal_ratio"): "errors",
    ("multiop", "op_norm"): "reverify",
    ("scipy.optimize", "minimize"): "nfev",
    ("_optim", "sign_patterns"): "rows",
}

#: Bracket `method` values the engines return today; any other lands in `other`.
METHODS = (
    "zero",
    "singleton",
    "sup",
    "strong-p",
    "dual-l1-extreme-points",
    "disjoint-support",
    "sign-enumeration",
    "dual-linf-vertices",
    "svd-spectral",
    "projected-gradient-ascent",
    "rad-enumeration",
    "monte-carlo",
    "l1-rows",
    "scalar-lp",
    "l1-factor-columns",
    "svd-nuclear",
    "dual-ascent/decomposition-search",
    "other",
)

#: Functions whose returned brackets are counted by method. A bracket that
#: `seq_norm` passes through from an engine is counted once, at `seq_norm`.
BRACKET_SOURCES = {("seqnorm", "seq_norm"), ("seqnorm", "norm_weak_p"), ("seqnorm", "norm_cohen")}


def layer_name(module: str, func: str) -> str:
    """Metric prefix: the module without its leading underscore, then the function."""
    return f"{module.lstrip('_')}.{func}"


def method_name(method: str) -> str:
    base = method.split("[", 1)[0]
    return base if base in METHODS else "other"


def method_metric(method: str) -> str:
    return "seqnorm.method." + method.replace("/", "_")


def per_layer_names() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in output order."""
    out = []
    for target in TARGETS:
        prefix = layer_name(*target)
        stats = ("calls",) if target in GENERATORS else ("calls", "busy_s", "self_s")
        for stat in stats:
            out.append((f"{prefix}.{stat}", "s" if stat.endswith("_s") else "count", "lower"))
        if target in EXTRA:
            out.append((f"{prefix}.{EXTRA[target]}", "count", "lower"))
    for m in METHODS:
        heuristic = m in ("projected-gradient-ascent", "monte-carlo", "dual-ascent/decomposition-search", "other")
        out.append((method_metric(m), "count", "lower" if heuristic else "higher"))
    out.append(("trace_overhead", "ratio", "lower"))
    return out


class Tracer:
    """Installs span-recording wrappers; `uninstall` puts the originals back."""

    ROOT = "bench.item"

    def __init__(self):
        self.names: list[str] = [self.ROOT]
        self.calls: list[int] = [0]
        self.busy: list[float] = [0.0]
        self.self_time: list[float] = [0.0]
        self.extra: dict[int, int] = {}
        self.methods = dict.fromkeys(METHODS, 0)
        self.absent: list[str] = []
        self._patches: list[tuple[object, str, object, object]] | None = None
        self._stack: list[list] = []  # [span index, fid, start, child time, parent fid]
        self._item = -1
        self.span_fid = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_item = array("i")
        self._t0 = time.perf_counter()

    # -- spans --------------------------------------------------------------

    def _open(self, fid: int) -> list:
        idx = len(self.span_fid)
        parent = self._stack[-1][0] if self._stack else -1
        self.span_fid.append(fid)
        self.span_parent.append(parent)
        self.span_item.append(self._item)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        frame = [idx, fid, time.perf_counter(), 0.0, self._stack[-1][1] if self._stack else -1]
        self._stack.append(frame)
        return frame

    def _close(self, frame: list) -> None:
        end = time.perf_counter()
        self._stack.pop()
        idx, fid, start, child, _ = frame
        dur = end - start
        self.span_start[idx] = start - self._t0
        self.span_end[idx] = end - self._t0
        self.calls[fid] += 1
        self.busy[fid] += dur
        self.self_time[fid] += dur - child
        if self._stack:
            self._stack[-1][3] += dur

    def item(self, i: int, fn, *args):
        """Run one benchmark item under a root span tagged with its id."""
        self._item = i
        frame = self._open(0)
        try:
            return fn(*args)
        finally:
            self._close(frame)
            self._item = -1

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, target, fn):
        fid = len(self.names)
        self.names.append(layer_name(*target))
        self.calls.append(0)
        self.busy.append(0.0)
        self.self_time.append(0.0)
        self.extra[fid] = 0
        counts_brackets = target in BRACKET_SOURCES

        if target in GENERATORS:
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                self.calls[fid] += 1
                for block in fn(*args, **kwargs):
                    self.extra[fid] += int(block.shape[0])
                    yield block

            return gen_wrapper

        extra = EXTRA.get(target)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self._open(fid)
            try:
                result = fn(*args, **kwargs)
            except ValueError:
                if extra == "errors":
                    self.extra[fid] += 1
                raise
            finally:
                self._close(frame)
            if extra == "rows":
                mats = args[1] if len(args) > 1 else kwargs["mats"]
                self.extra[fid] += int(np.shape(mats[0])[0])
            elif extra == "reverify" and kwargs.get("restarts", 0) >= 64:
                self.extra[fid] += 1
            elif extra == "nfev":
                self.extra[fid] += int(getattr(result, "nfev", 0))
            parent = frame[4]
            if counts_brackets and (parent < 0 or self.names[parent] != "seqnorm.seq_norm"):
                self.methods[method_name(getattr(result, "method", "other"))] += 1
            return result

        return wrapper

    def _find_patches(self) -> None:
        """Wrap every target once; record each module attribute that holds it."""
        for target in TARGETS:
            module, func = target
            modname = module if "." in module else f"seqclass.{module}"
            try:
                mod = importlib.import_module(modname)
            except ImportError:
                self.absent.append(layer_name(*target))
                continue
            orig = getattr(mod, func, None)
            if orig is None:
                self.absent.append(layer_name(*target))
                continue
            wrapper = self._wrap(target, orig)
            holders = [mod] + [
                m for name, m in list(sys.modules.items())
                if m is not None and (name == "seqclass" or name.startswith("seqclass."))
            ]
            for holder in holders:
                for attr, value in list(vars(holder).items()):
                    if value is orig:
                        self._patches.append((holder, attr, orig, wrapper))

    def install(self) -> None:
        """Put the wrappers in the defining modules and wherever the names were imported."""
        if self._patches is None:
            self._patches = []
            self._find_patches()
        for holder, attr, _, wrapper in self._patches:
            setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, orig, _ in self._patches or ():
            setattr(holder, attr, orig)

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer totals; absent layers read 0."""
        values: dict[str, float] = {}
        by_name = {name: fid for fid, name in enumerate(self.names)}
        for target in TARGETS:
            prefix = layer_name(*target)
            fid = by_name.get(prefix)
            values[f"{prefix}.calls"] = float(self.calls[fid]) if fid is not None else 0.0
            if target not in GENERATORS:
                values[f"{prefix}.busy_s"] = self.busy[fid] if fid is not None else 0.0
                values[f"{prefix}.self_s"] = self.self_time[fid] if fid is not None else 0.0
            if target in EXTRA:
                values[f"{prefix}.{EXTRA[target]}"] = float(self.extra[fid]) if fid is not None else 0.0
        for m, n in self.methods.items():
            values[method_metric(m)] = float(n)
        return values

    def write(self, path: Path) -> int:
        """Write every span as arrays in one .npz file; returns the span count."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            fid=np.frombuffer(self.span_fid, dtype=np.uint16),
            start_s=np.frombuffer(self.span_start, dtype=np.float64),
            end_s=np.frombuffer(self.span_end, dtype=np.float64),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            item=np.frombuffer(self.span_item, dtype=np.int32),
        )
        return len(self.span_fid)
