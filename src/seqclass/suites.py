"""Verification suites: randomized checks of the transport theorems.

Each suite expands a config into independent cases, runs them one after
another in order, and returns a `SuiteReport` whose per-case records carry
the numbers needed to recheck every verdict offline: each holds the number
its verdict was read from under `value` (`max_ratio_over_ceiling` for a
transport case). Most cases are a margin function of a generator and a
trial index, turned into a verdict by `_gated`: the worst margin over the
case's trials, read against a gate. Every pass/fail threshold is a
constant: `_EXACT_TOL`, `TRANSPORT_SLACK`, `_BAND`, `_ATTAINMENT_FLOOR` and
the literal gates in the builders. No config moves one.
"""

from __future__ import annotations

import inspect
import math
import time
from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import partial
from typing import Callable, Sequence

import numpy as np

from . import __version__
from .idealnorm import (
    TRANSPORT_SLACK,
    IdealSpec,
    cohen_holder_stability,
    growth_experiment,
    ideal_norm,
    limit_stability_experiment,
    scalar_compatibility_excess,
    stability_report,
)
from .multiop import (
    MultiOp,
    compose,
    decoupling_check,
    finite_type,
    op_norm,
    scalar_multiplication,
)
from .sampling import random_multiop, random_operator, random_space, random_vecseq
from .seqnorm import (
    SeqClassSpec,
    VecSeq,
    norm_cohen,
    norm_strong_p,
    norm_sup,
    norm_weak_p,
    seq_norm,
    truncate,
)
from .spaces import INF, Vector, as_exponent, vector_norm

#: Gate on values computed exactly (closed forms, enumerations), absolute or relative to max(1, value).
_EXACT_TOL = 1e-9
#: Least ratio of summing norm to operator norm the holder-identity search must reach.
_BAND = 0.95
#: Least ratio of the weak-1 k-sweep's lower end to the operator norm's.
_ATTAINMENT_FLOOR = 0.9

#: Config keys every suite accepts besides its builder's keyword parameters.
_RUN_KEYS = ("suite", "seed", "output_path")

_FULL_MENU = ("1", "4/3", "3/2", "2", "3", "inf")

_CLASS_MENU = [
    SeqClassSpec.sup(),
    SeqClassSpec.strong(1),
    SeqClassSpec.strong(2),
    SeqClassSpec.strong(Fraction(3, 2)),
    SeqClassSpec.weak(1),
    SeqClassSpec.weak(2),
    SeqClassSpec.rad(),
    SeqClassSpec.cohen(1),
    SeqClassSpec.cohen(2),
    SeqClassSpec.cohen(Fraction(3, 2)),
]


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    seed: int
    config: dict
    version: str
    cases: tuple[dict, ...]
    violations: int
    wall_time_s: float

    @property
    def passed(self) -> bool:
        return self.violations == 0

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "seed": self.seed,
            "config": self.config,
            "tool_version": self.version,
            "cases": list(self.cases),
            "summary": {
                "cases": len(self.cases),
                "violations": self.violations,
                "passed": self.passed,
                "wall_time_s": self.wall_time_s,
            },
        }

    def to_text(self) -> str:
        lines = [f"suite {self.suite}  (seed {self.seed}, v{self.version})"]
        width = max((len(c["name"]) for c in self.cases), default=4)
        for c in self.cases:
            status = "ok" if c["passed"] else "FAIL"
            extra = c.get("error") or _case_note(c)
            lines.append(f"  {c['name']:<{width}}  {status:<4}  {extra}")
        verdict = "PASS" if self.passed else "FAIL"
        lines.append(
            f"{verdict}: {len(self.cases) - self.violations}/{len(self.cases)} cases clean"
            f" in {self.wall_time_s:.2f}s"
        )
        return "\n".join(lines)

    def csv_rows(self) -> list[tuple]:
        rows = []
        for c in self.cases:
            for k, ratio in c.get("curve", []):
                rows.append((self.suite, c["name"], k, ratio))
        return rows


def _case_note(c: dict) -> str:
    for key in ("max_ratio_over_ceiling", "value"):
        if key in c:
            v = c[key]
            return f"{key}={v:.6g}" if isinstance(v, float) else f"{key}={v}"
    return ""


def _defaults(name: str) -> dict:
    """Config keys of suite `name` and their defaults: its builder's keyword parameters."""
    params = inspect.signature(_SUITES[name]).parameters.values()
    return {p.name: p.default for p in params if p.default is not p.empty}


def _check(label: str, val, default) -> None:
    """Raise a `ValueError` naming `label` unless `val` is typed like `default`.

    An int default takes an int >= 1 and a string default an exponent. A
    tuple default takes a nonempty list of entries typed like its first, a
    dict default an object with the same keys, each typed like its default.
    """
    scalar = isinstance(val, (int, float, str)) and not isinstance(val, bool)
    if isinstance(default, tuple):
        what, ok = "a nonempty list", isinstance(val, list) and val != []
    elif isinstance(default, dict):
        what = f"an object with keys {sorted(default)}"
        ok = isinstance(val, dict) and val.keys() == default.keys()
    elif isinstance(default, str):
        what, ok = 'an exponent >= 1 such as 2, "4/3" or "inf"', scalar and _is_exponent(val)
    else:
        what, ok = "an int >= 1", scalar and isinstance(val, int) and val >= 1
    if not ok:
        raise ValueError(f"{label} must be {what}, got {val!r}")
    if isinstance(default, tuple):
        for item in val:
            _check(f"{label} entry", item, default[0])
    elif isinstance(default, dict):
        for key, item in val.items():
            _check(f"{label} {key!r}", item, default[key])


def _is_exponent(val) -> bool:
    try:
        as_exponent(val)
    except ValueError:
        return False
    return True


def _share(total: int, parts: int, key: str) -> int:
    """Trials each of `parts` cases runs out of `total`; a `ValueError` naming `key` if none."""
    if total < parts:
        raise ValueError(f"config key {key!r} at {total!r} leaves some case with nothing to check")
    return total // parts


def run_suite(config: dict) -> SuiteReport:
    """Execute one suite from a config dict.

    A suite's config keys and their defaults are its builder's keyword
    parameters. A key outside them and `_RUN_KEYS` is a `KeyError`: the
    report's config block holds only values the suite reads, and no key
    reaches a pass/fail threshold. A value not typed like its default
    (`_check`), a seed that is not an int >= 0, a count that leaves some
    case with no trial (`_share`) or a growth curve outside the theorem's
    range is a `ValueError`, raised before any case runs.
    """
    if "suite" not in config:
        raise KeyError("config must name a suite")
    name = config["suite"]
    if name not in SUITE_NAMES:
        raise KeyError(f"unknown suite {name!r}; see `suite list`")
    cfg = _defaults(name)
    for key, val in config.items():
        if key in cfg:
            _check(f"config key {key!r}", val, cfg[key])
            cfg[key] = val
        elif key not in _RUN_KEYS:
            raise KeyError(f"unknown config key {key!r} for suite {name}")
    seed = config.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ValueError(f"config key 'seed' must be an int >= 0, got {seed!r}")
    if not isinstance(config.get("output_path", ""), str):
        raise ValueError(f"config key 'output_path' must be a string, got {config['output_path']!r}")

    cases = _SUITES[name](seed, **cfg)
    cfg["seed"] = seed
    t0 = time.perf_counter()
    results: list[dict] = []
    for case_name, thunk in cases:
        try:
            data = thunk()
        except Exception as exc:  # recorded per-case, surfaces as exit 1
            data = {"passed": False, "error": f"{type(exc).__name__}: {exc}"}
        data["name"] = case_name
        data.setdefault("passed", False)
        results.append(data)

    wall = time.perf_counter() - t0
    violations = sum(1 for c in results if not c["passed"])
    return SuiteReport(
        suite=name,
        seed=seed,
        config=cfg,
        version=__version__,
        cases=tuple(results),
        violations=violations,
        wall_time_s=wall,
    )


# ---------------------------------------------------------------------------
# suite builders
# ---------------------------------------------------------------------------

CaseList = Sequence[tuple[str, Callable[[], dict]]]


def _gated(seed: int, key: int, trials: int, margin: Callable, gate: float) -> dict:
    """One sampled case: the worst `margin(rng, t)` over t < `trials`, read against `gate`.

    Every draw comes from one generator, `default_rng([seed, key])`. The
    case passes when the worst margin is at most `gate`; the record holds
    that worst margin and the trial count. A NaN margin is the worst of
    all, wherever it falls, so it fails the case and is recorded.
    """
    rng = np.random.default_rng([seed, key])
    worst = -math.inf
    for t in range(trials):
        m = margin(rng, t)
        if m > worst or math.isnan(m):
            worst = m
    return {"passed": worst <= gate, "value": worst, "trials": trials}


def _suite_seqnorm_axioms(
    seed, trials=150, k_max=5, dims=(1, 2, 3), exponents=_FULL_MENU
) -> CaseList:
    exps = tuple(map(as_exponent, exponents))
    third = _share(trials, 3, "trials")

    def draw(rng, least: int = 1) -> tuple:
        """A class, a space and a length in [least, k_max], drawn in that order."""
        spec = _CLASS_MENU[rng.integers(len(_CLASS_MENU))]
        space = random_space(rng, dims, exps)
        return spec, space, int(rng.integers(least, k_max + 1))

    def unit_sequence(rng, t) -> float:
        spec, space, k = draw(rng)
        mat = np.zeros((k, space.dim))
        mat[rng.integers(k)] = rng.standard_normal(space.dim)
        expect = norm_sup(VecSeq(space, mat))
        b = seq_norm(VecSeq(space, mat), spec, seed=seed)
        scale = max(1.0, expect)
        return max(abs(b.lower - expect) / scale, abs(b.upper - expect) / scale)

    def embedding(rng, t) -> float:
        spec, space, k = draw(rng, 0)
        s = random_vecseq(rng, space, k)
        return norm_sup(s) - seq_norm(s, spec, seed=seed).upper

    def ordering(rng, t) -> float:
        space = random_space(rng, dims, exps)
        s = random_vecseq(rng, space, int(rng.integers(1, k_max + 1)))
        p = [1.0, 1.5, 2.0, 3.0][rng.integers(4)]
        sp = norm_strong_p(s, p)
        wk = norm_weak_p(s, p, seed=seed)
        ch = norm_cohen(s, p, seed=seed)
        return max(
            0.0,
            wk.upper - sp - 1e-12 * max(1, sp),
            sp - ch.upper - _EXACT_TOL * max(1, sp),
            ch.upper - norm_strong_p(s, 1) - 1e-12 * max(1, sp),
        )

    def truncation(rng, t) -> float:
        spec, space, k = draw(rng)
        s = random_vecseq(rng, space, k)
        full = seq_norm(s, spec, seed=seed)
        return max(
            seq_norm(truncate(s, m), spec, seed=seed).lower - (full.upper + _EXACT_TOL)
            for m in range(k + 1)
        )

    def axioms(rng, t) -> float:
        spec, space, k = draw(rng)
        a = random_vecseq(rng, space, k)
        bmat = rng.standard_normal((k, space.dim))
        c = float(rng.uniform(0.2, 2.5))
        na = seq_norm(a, spec, seed=seed)
        nca = seq_norm(VecSeq(space, c * a.mat), spec, seed=seed)
        if na.exact and nca.exact:
            homogeneity = abs(nca.lower - c * na.lower) - 1e-12 * max(1, c * na.lower)
        else:
            homogeneity = nca.lower - (c * na.upper * (1 + _EXACT_TOL) + 1e-12)
        nb = seq_norm(VecSeq(space, bmat), spec, seed=seed)
        nsum = seq_norm(VecSeq(space, a.mat + bmat), spec, seed=seed)
        return max(homogeneity, nsum.lower - (na.upper + nb.upper + _EXACT_TOL))

    return [
        ("unit-sequence", partial(_gated, seed, 1, trials, unit_sequence, _EXACT_TOL)),
        ("sup-embedding", partial(_gated, seed, 2, trials, embedding, _EXACT_TOL)),
        ("weak<=strong<=cohen<=l1", partial(_gated, seed, 3, trials, ordering, 0.0)),
        ("truncation-monotone", partial(_gated, seed, 4, third, truncation, 0.0)),
        ("homogeneity+triangle", partial(_gated, seed, 5, third, axioms, 0.0)),
    ]


def _suite_linear_stability(
    seed, trials=120, k_max=5, dims=(1, 2, 3), exponents=_FULL_MENU
) -> CaseList:
    exps = tuple(map(as_exponent, exponents))

    def margin(spec: SeqClassSpec, rng, t) -> float:
        space = random_space(rng, dims, exps)
        out_space = random_space(rng, dims, exps)
        s = random_vecseq(rng, space, int(rng.integers(1, k_max + 1)))
        U = rng.standard_normal((space.dim, out_space.dim))
        u = MultiOp((space,), out_space, U)
        lhs = seq_norm(VecSeq(out_space, s.mat @ U), spec, seed=seed)
        rhs = seq_norm(s, spec, seed=seed)
        return lhs.lower - op_norm(u, seed=seed).bracket.upper * rhs.upper

    share = trials // len(_CLASS_MENU) + 1
    return [
        (f"class-{spec.describe()}", partial(_gated, seed, i, share, partial(margin, spec), _EXACT_TOL))
        for i, spec in enumerate(_CLASS_MENU)
    ]


def _transport_cases(name: str, arities, seed: int, report: Callable) -> CaseList:
    """One case per arity n, the i-th listed: the verdict of `report(arity=n, seed=seed + i)`."""

    def case(n: int, i: int) -> dict:
        rep = report(arity=n, seed=seed + i)
        return {"passed": rep.passed, **asdict(rep)}

    return [(f"{name}-n{n}", partial(case, n, i)) for i, n in enumerate(arities)]


def _suite_weak1_stability(
    seed, trials=500, arities=(2, 3), k_max=8, dims=(1, 2, 3, 4), exponents=_FULL_MENU,
    attainment_ops=12, attainment_k_max=4,
) -> CaseList:
    report = partial(
        stability_report, SeqClassSpec.weak(1), trials=_share(trials, len(arities), "trials"),
        k_max=k_max, dims=dims, exponents=tuple(map(as_exponent, exponents)),
    )

    def attainment() -> dict:
        rng = np.random.default_rng([seed, 99])
        worst = math.inf
        spec2 = IdealSpec.uniform(SeqClassSpec.weak(1), 2)
        for t in range(attainment_ops):
            A = random_operator(rng, 2, dims, (1, 2, INF))
            est = ideal_norm(A, spec2, attainment_k_max, restarts=4, seed=seed + t)
            lo = est.op_estimate.bracket.lower
            if lo > 0:
                worst = min(worst, est.bracket.lower / lo)
        return {"passed": worst >= _ATTAINMENT_FLOOR, "value": worst, "ops": attainment_ops}

    cases = _transport_cases("weak1-transport", arities, seed, report)
    return [*cases, ("k-sweep-attainment", attainment)]


def _suite_rad_stability(
    seed, trials=200, arities=(2,), k_max=6, dims=(1, 2, 3, 4), exponents=_FULL_MENU
) -> CaseList:
    report = partial(
        stability_report, SeqClassSpec.rad(), trials=trials, k_max=k_max, dims=dims,
        exponents=tuple(map(as_exponent, exponents)),
    )
    return _transport_cases("rad-transport", arities, seed, report)


def _suite_cohen_stability(seed, trials=60, arities=(2,), k_max=4, dims=(1, 2, 3)) -> CaseList:
    report = partial(cohen_holder_stability, trials=trials, k_max=k_max, dims=dims)
    return _transport_cases("cohen-holder-transport", arities, seed, report)


_CURVES = (
    {"p": "2", "n": 2, "k_list": (1, 4, 9, 16, 25)},
    {"p": "4/3", "n": 4, "k_list": (1, 16)},
)


def _suite_growth(seed, curves=_CURVES) -> CaseList:
    def one_curve(spec: dict) -> Callable[[], dict]:
        p = as_exponent(spec["p"])
        try:  # the experiment's own range checks, before any case runs
            growth_experiment(p, spec["n"], ())
        except ValueError as exc:
            raise ValueError(f"config key 'curves' entry {spec!r}: {exc}") from None

        def case() -> dict:
            curve = growth_experiment(p, spec["n"], spec["k_list"])
            worst = max(abs(ratio - k ** (1.0 / float(p))) for k, ratio in curve)
            return {
                "passed": worst <= TRANSPORT_SLACK,
                "value": worst,
                "curve": [[k, r] for k, r in curve],
                "law": f"k^(1/{spec['p']})",
            }

        return case

    return [(f"growth-p{spec['p']}-n{spec['n']}", one_curve(spec)) for spec in curves]


def _suite_decoupling(
    seed, trials=500, arities=(2, 3), k_max=6, dims=(1, 2, 3), exponents=_FULL_MENU
) -> CaseList:
    exps = tuple(map(as_exponent, exponents))
    share = _share(trials, len(arities), "trials")

    def residual(n: int, rng, t) -> float:
        k = int(rng.integers(1, k_max + 1))
        A = random_operator(rng, n, dims, exps)
        return decoupling_check(A, [random_vecseq(rng, s, k) for s in A.domain])

    return [
        (f"decoupling-n{n}", partial(_gated, seed, i, share, partial(residual, n), 1e-10))
        for i, n in enumerate(arities)
    ]


def _suite_holder_identity(seed, trials=100, k_max=3, dims=(1, 2, 3)) -> CaseList:
    # (arity, input exponents, output exponent) at which scalar multiplication has ideal norm one
    identities = [(2, (2, 2), 1), (2, (Fraction(3, 2), 3), 1),
                  (2, (2, 2), Fraction(3, 2)), (3, (3, 3, 3), 1)]

    def identity_norm(rng, t) -> float:
        n, ps, p_out = identities[t]
        spec = IdealSpec(tuple(SeqClassSpec.strong(p) for p in ps), SeqClassSpec.strong(p_out))
        est = ideal_norm(scalar_multiplication(n), spec, k_max, restarts=4, seed=seed)
        return abs(est.bracket.lower - 1.0)

    def random_ops() -> dict:
        rng = np.random.default_rng([seed, 7])
        lo_ratio, hi_excess = math.inf, -math.inf
        exps = (Fraction(3, 2), 2, 3)
        for t in range(trials):
            n = 2 if t % 2 == 0 else 3
            spec = IdealSpec.holder("strong", [exps[rng.integers(len(exps))] for _ in range(n)])
            A = random_operator(rng, n, dims, exps)
            est = ideal_norm(A, spec, k_max, restarts=3, seed=seed + t)
            op = est.op_estimate.bracket
            if op.lower == 0:
                continue
            lo_ratio = min(lo_ratio, est.bracket.lower / op.lower)
            hi_excess = max(hi_excess, est.bracket.lower / op.upper - 1.0)
        return {
            "passed": lo_ratio >= _BAND and hi_excess <= TRANSPORT_SLACK,
            "value": lo_ratio,
            "max_excess_over_op": hi_excess,
            "trials": trials,
        }

    identity = partial(_gated, seed, 6, len(identities), identity_norm, _EXACT_TOL)
    return [("identity-norm-one", identity), ("ideal=op-band", random_ops)]


def _suite_ideal_axioms(
    seed, trials=200, k_max=2, dims=(1, 2, 3), exponents=("1", "2", "inf")
) -> CaseList:
    exps = tuple(map(as_exponent, exponents))
    half = _share(trials, 2, "trials")
    specs = [IdealSpec.uniform(SeqClassSpec.weak(1), 2), IdealSpec.holder("strong", (2, 2))]

    def composition(rng, t) -> float:
        spec = specs[t % 2]
        A = random_operator(rng, 2, dims, exps)
        us = [random_multiop(rng, [random_space(rng, dims, exps)], s) for s in A.domain]
        v = random_multiop(rng, [A.codomain], random_space(rng, dims, exps))
        C = compose(v, A, us)
        lhs = ideal_norm(C, spec, k_max, restarts=2, seed=seed + t).bracket.lower
        rhs = (
            op_norm(v, seed=seed + t).bracket.upper
            * ideal_norm(A, spec, k_max, restarts=2, seed=seed + t).bracket.upper
            * math.prod(op_norm(u, seed=seed + t).bracket.upper for u in us)
        )
        return lhs / rhs - 1.0 if rhs > 0 else 0.0

    def finite_type_bound(rng, t) -> float:
        spec = specs[t % 2]
        s1 = random_space(rng, dims, exps)
        s2 = random_space(rng, dims, exps)
        out = random_space(rng, dims, exps)
        phi1 = Vector(s1.dual, rng.standard_normal(s1.dim))
        phi2 = Vector(s2.dual, rng.standard_normal(s2.dim))
        b = Vector(out, rng.standard_normal(out.dim))
        expected = vector_norm(phi1) * vector_norm(phi2) * vector_norm(b)
        if expected == 0:
            return -math.inf
        est = ideal_norm(finite_type([phi1, phi2], b), spec, k_max, restarts=2, seed=seed + t)
        return est.bracket.lower / expected - 1.0

    def scalar_compat(rng, t) -> float:
        return scalar_compatibility_excess(specs[t], trials=50, seed=seed)

    return [
        ("composition-inequality", partial(_gated, seed, 11, half, composition, TRANSPORT_SLACK)),
        ("finite-type-bound", partial(_gated, seed, 12, half, finite_type_bound, TRANSPORT_SLACK)),
        ("scalar-product-embedding", partial(_gated, seed, 13, len(specs), scalar_compat, 1e-9)),
    ]


def _suite_limit_stability(
    seed, families=50, k_max=3, dims=(1, 2), exponents=("1", "2", "inf"), restarts=2
) -> CaseList:
    exps = tuple(map(as_exponent, exponents))
    half = _share(families, 2, "families")
    ms = (1, 10, 1000, 1_000_000)

    def margin(spec: IdealSpec, members: Callable, rng, t) -> float:
        A = random_operator(rng, 2, dims, exps)
        return limit_stability_experiment(
            members(rng, A), A, spec, k_max, seed=seed + t, restarts=restarts
        ).margin

    def scaled(rng, A: MultiOp) -> list[MultiOp]:
        return [MultiOp(A.domain, A.codomain, (1 - 1 / m) * A.coeffs) for m in ms]

    def perturbed(rng, A: MultiOp) -> list[MultiOp]:
        B = random_multiop(rng, A.domain, A.codomain)
        return [MultiOp(A.domain, A.codomain, A.coeffs + B.coeffs / m) for m in ms]

    weak1, strong = IdealSpec.uniform(SeqClassSpec.weak(1), 2), IdealSpec.holder("strong", (2, 2))
    return [
        ("scaled-families", partial(_gated, seed, 21, half, partial(margin, weak1, scaled), 0.0)),
        ("perturbation-families",
         partial(_gated, seed, 22, families - half, partial(margin, strong, perturbed), 0.0)),
    ]


#: The suites, in `suite list` order; each builder's keyword parameters are its config.
_SUITES: dict[str, Callable[..., CaseList]] = {
    "seqnorm-axioms": _suite_seqnorm_axioms,
    "linear-stability": _suite_linear_stability,
    "weak1-stability": _suite_weak1_stability,
    "rad-stability": _suite_rad_stability,
    "cohen-stability": _suite_cohen_stability,
    "growth": _suite_growth,
    "decoupling": _suite_decoupling,
    "holder-identity": _suite_holder_identity,
    "ideal-axioms": _suite_ideal_axioms,
    "limit-stability": _suite_limit_stability,
}

SUITE_NAMES = tuple(_SUITES)
