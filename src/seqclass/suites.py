"""Verification suites: randomized checks of the transport theorems.

Each suite expands a config into independent cases, runs them one after
another in order, and returns a `SuiteReport` whose per-case records carry
the numbers needed to recheck every verdict offline.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from . import __version__
from .idealnorm import (
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
from .sampling import random_multiop, random_space, random_vecseq
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

SUITE_NAMES = (
    "seqnorm-axioms",
    "linear-stability",
    "weak1-stability",
    "rad-stability",
    "cohen-stability",
    "growth",
    "decoupling",
    "holder-identity",
    "ideal-axioms",
    "limit-stability",
)

DEFAULT_TOLERANCES = {"exact": 1e-9, "slack": 1e-6}

#: Config keys every suite accepts besides its own `_DEFAULTS` entry.
_RUN_KEYS = ("suite", "seed", "tolerances", "output_path")

_FULL_MENU = ["1", "4/3", "3/2", "2", "3", "inf"]

#: Cases a suite splits `trials` over; the other suites run all of them in every case.
_TRIAL_PARTS = {"seqnorm-axioms": 3, "ideal-axioms": 2, "weak1-stability": "arities", "decoupling": "arities"}

_DEFAULTS: dict[str, dict] = {
    "seqnorm-axioms": {"trials": 150, "k_max": 5, "dims": [1, 2, 3], "exponents": _FULL_MENU},
    "linear-stability": {"trials": 120, "k_max": 5, "dims": [1, 2, 3], "exponents": _FULL_MENU},
    "weak1-stability": {
        "trials": 500,
        "arities": [2, 3],
        "k_max": 8,
        "dims": [1, 2, 3, 4],
        "exponents": _FULL_MENU,
        "attainment_ops": 12,
        "attainment_k_max": 4,
        "attainment_floor": 0.9,
    },
    "rad-stability": {
        "trials": 200, "arities": [2], "k_max": 6,
        "dims": [1, 2, 3, 4], "exponents": _FULL_MENU,
    },
    "cohen-stability": {
        "trials": 60, "arities": [2], "k_max": 4, "dims": [1, 2, 3],
    },
    "growth": {
        "curves": [
            {"p": "2", "n": 2, "k_list": [1, 4, 9, 16, 25]},
            {"p": "4/3", "n": 4, "k_list": [1, 16]},
        ]
    },
    "decoupling": {
        "trials": 500, "arities": [2, 3], "k_max": 6,
        "dims": [1, 2, 3], "exponents": _FULL_MENU,
    },
    "holder-identity": {
        "trials": 100, "k_max": 3, "dims": [1, 2, 3],
        "exponents": _FULL_MENU, "band": 0.95,
    },
    "ideal-axioms": {
        "trials": 200, "k_max": 2, "dims": [1, 2, 3], "exponents": ["1", "2", "inf"],
    },
    "limit-stability": {
        "families": 50, "k_max": 3, "dims": [1, 2],
        "exponents": ["1", "2", "inf"], "restarts": 2,
    },
}

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


def _sampler_args(cfg: dict):
    dims = cfg["dims"]
    dims = dims if isinstance(dims, int) else [int(d) for d in dims]
    exps = tuple(as_exponent(e) for e in cfg.get("exponents", _FULL_MENU))
    return dims, exps


def _case_note(c: dict) -> str:
    for key in ("max_ratio_over_ceiling", "ratio", "residual", "excess", "value"):
        if key in c:
            v = c[key]
            return f"{key}={v:.6g}" if isinstance(v, float) else f"{key}={v}"
    return ""


def run_suite(config: dict) -> SuiteReport:
    """Execute one suite from a config dict.

    A key outside the suite's `_DEFAULTS` entry and `_RUN_KEYS`, or a
    tolerance other than those of `DEFAULT_TOLERANCES`, is a `KeyError`:
    the report's config block holds only values the suite reads. An empty
    list, or a count that leaves some case with no trial, is a `ValueError`.
    """
    if "suite" not in config:
        raise KeyError("config must name a suite")
    name = config["suite"]
    if name not in SUITE_NAMES:
        raise KeyError(f"unknown suite {name!r}; see `suite list`")
    cfg = dict(_DEFAULTS[name])
    for key in config:
        if key not in cfg and key not in _RUN_KEYS:
            raise KeyError(f"unknown config key {key!r} for suite {name}")
    given = config.get("tolerances", {})
    if not isinstance(given, dict):
        raise ValueError(f"tolerances must be an object, got {given!r}")
    tolerances = dict(DEFAULT_TOLERANCES)
    for key, val in given.items():
        if key not in tolerances:
            raise KeyError(f"unknown tolerance {key!r}; expected one of {sorted(tolerances)}")
        tolerances[key] = val
    cfg.update((key, val) for key, val in config.items() if key not in _RUN_KEYS)
    parts = _TRIAL_PARTS.get(name, 1)
    least = {"trials": len(cfg[parts]) if parts == "arities" else parts, "families": 2}
    for key, val in cfg.items():  # every int is a count, and an empty list leaves a case nothing to do
        if isinstance(val, list) and not val or isinstance(val, int) and val < least.get(key, 1):
            raise ValueError(f"config key {key!r} at {val!r} leaves some case with nothing to check")
    cfg["seed"] = int(config.get("seed", 0))
    cfg["tolerances"] = tolerances

    builder = _BUILDERS[name]
    cases = builder(cfg)
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
        seed=int(cfg["seed"]),
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


def _suite_seqnorm_axioms(cfg: dict) -> CaseList:
    seed, trials = int(cfg["seed"]), int(cfg["trials"])
    k_max = int(cfg["k_max"])
    dims, exps = _sampler_args(cfg)
    tol_exact = float(cfg["tolerances"]["exact"])

    def unit_sequence() -> dict:
        rng = np.random.default_rng([seed, 1])
        worst = 0.0
        for _ in range(trials):
            spec = _CLASS_MENU[rng.integers(len(_CLASS_MENU))]
            space = random_space(rng, dims, exps)
            k = int(rng.integers(1, k_max + 1))
            mat = np.zeros((k, space.dim))
            mat[rng.integers(k)] = rng.standard_normal(space.dim)
            expect = norm_sup(VecSeq(space, mat))
            b = seq_norm(VecSeq(space, mat), spec, seed=seed)
            scale = max(1.0, expect)
            worst = max(worst, abs(b.lower - expect) / scale, abs(b.upper - expect) / scale)
        return {"passed": worst <= tol_exact, "value": worst, "trials": trials}

    def embedding() -> dict:
        rng = np.random.default_rng([seed, 2])
        worst = -math.inf
        for _ in range(trials):
            spec = _CLASS_MENU[rng.integers(len(_CLASS_MENU))]
            space = random_space(rng, dims, exps)
            s = random_vecseq(rng, space, int(rng.integers(0, k_max + 1)))
            b = seq_norm(s, spec, seed=seed)
            worst = max(worst, norm_sup(s) - b.upper)
        return {"passed": worst <= tol_exact, "value": worst, "trials": trials}

    def ordering() -> dict:
        rng = np.random.default_rng([seed, 3])
        ok = True
        worst = 0.0
        for _ in range(trials):
            space = random_space(rng, dims, exps)
            s = random_vecseq(rng, space, int(rng.integers(1, k_max + 1)))
            p = [1.0, 1.5, 2.0, 3.0][rng.integers(4)]
            sp = norm_strong_p(s, p)
            wk = norm_weak_p(s, p, seed=seed)
            ch = norm_cohen(s, p, seed=seed)
            gaps = (
                wk.upper - sp - 1e-12 * max(1, sp),
                sp - ch.upper - tol_exact * max(1, sp),
                ch.upper - norm_strong_p(s, 1) - 1e-12 * max(1, sp),
            )
            worst = max(worst, *gaps)
            ok = ok and all(g <= 0 for g in gaps)
        return {"passed": ok, "value": worst, "trials": trials}

    def truncation() -> dict:
        rng = np.random.default_rng([seed, 4])
        ok = True
        for _ in range(trials // 3):
            spec = _CLASS_MENU[rng.integers(len(_CLASS_MENU))]
            space = random_space(rng, dims, exps)
            k = int(rng.integers(1, k_max + 1))
            s = random_vecseq(rng, space, k)
            full = seq_norm(s, spec, seed=seed)
            for m in range(k + 1):
                part = seq_norm(truncate(s, m), spec, seed=seed)
                ok = ok and part.lower <= full.upper + tol_exact
        return {"passed": ok, "trials": trials // 3}

    def axioms() -> dict:
        rng = np.random.default_rng([seed, 5])
        ok = True
        for _ in range(trials // 3):
            spec = _CLASS_MENU[rng.integers(len(_CLASS_MENU))]
            space = random_space(rng, dims, exps)
            k = int(rng.integers(1, k_max + 1))
            a = random_vecseq(rng, space, k)
            bmat = rng.standard_normal((k, space.dim))
            c = float(rng.uniform(0.2, 2.5))
            na = seq_norm(a, spec, seed=seed)
            nca = seq_norm(VecSeq(space, c * a.mat), spec, seed=seed)
            if na.exact and nca.exact:
                ok = ok and abs(nca.lower - c * na.lower) <= 1e-12 * max(1, c * na.lower)
            else:
                ok = ok and nca.lower <= c * na.upper * (1 + tol_exact) + 1e-12
            nb = seq_norm(VecSeq(space, bmat), spec, seed=seed)
            nsum = seq_norm(VecSeq(space, a.mat + bmat), spec, seed=seed)
            ok = ok and nsum.lower <= na.upper + nb.upper + tol_exact
        return {"passed": ok, "trials": trials // 3}

    return [
        ("unit-sequence", unit_sequence),
        ("sup-embedding", embedding),
        ("weak<=strong<=cohen<=l1", ordering),
        ("truncation-monotone", truncation),
        ("homogeneity+triangle", axioms),
    ]


def _suite_linear_stability(cfg: dict) -> CaseList:
    seed, trials = int(cfg["seed"]), int(cfg["trials"])
    k_max = int(cfg["k_max"])
    dims, exps = _sampler_args(cfg)
    tol = float(cfg["tolerances"]["exact"])

    def one_class(spec: SeqClassSpec, tag: int) -> Callable[[], dict]:
        def case() -> dict:
            rng = np.random.default_rng([seed, tag])
            worst = -math.inf
            for _ in range(trials // len(_CLASS_MENU) + 1):
                space = random_space(rng, dims, exps)
                out_space = random_space(rng, dims, exps)
                s = random_vecseq(rng, space, int(rng.integers(1, k_max + 1)))
                U = rng.standard_normal((space.dim, out_space.dim))
                u = MultiOp((space,), out_space, U)
                mapped = VecSeq(out_space, s.mat @ U)
                lhs = seq_norm(mapped, spec, seed=seed)
                rhs = seq_norm(s, spec, seed=seed)
                ceiling = op_norm(u, seed=seed).bracket.upper
                worst = max(worst, lhs.lower - ceiling * rhs.upper)
            return {"passed": worst <= tol, "value": worst}

        return case

    return [
        (f"class-{spec.describe()}", one_class(spec, i))
        for i, spec in enumerate(_CLASS_MENU)
    ]


def _transport_cases(cfg: dict, name: str, trials: int, spec: SeqClassSpec | None) -> CaseList:
    """One case per arity: the stability report of `spec`'s transport inequality.

    `spec=None` runs the Cohen-Hoelder experiment instead.
    """
    seed, k_max = int(cfg["seed"]), int(cfg["k_max"])
    dims, exps = _sampler_args(cfg)
    tol = float(cfg["tolerances"]["slack"])

    def one_arity(n: int, i: int) -> Callable[[], dict]:
        def case() -> dict:
            if spec is None:
                rep = cohen_holder_stability(
                    trials, seed=seed + i, arity=n, k_max=k_max, dims=dims, tolerance=tol
                )
            else:
                rep = stability_report(
                    spec, n, trials, seed=seed + i,
                    k_max=k_max, dims=dims, exponents=exps, tolerance=tol,
                )
            return {
                "passed": rep.passed,
                "trials": rep.trials,
                "max_ratio_over_ceiling": rep.max_ratio_over_ceiling,
                "violations": rep.violations,
            }

        return case

    arities = [int(a) for a in cfg["arities"]]
    return [(f"{name}-n{n}", one_arity(n, i)) for i, n in enumerate(arities)]


def _suite_weak1_stability(cfg: dict) -> CaseList:
    seed = int(cfg["seed"])
    dims, _ = _sampler_args(cfg)
    share = int(cfg["trials"]) // len(cfg["arities"])
    cases = _transport_cases(cfg, "weak1-transport", share, SeqClassSpec.weak(1))

    def attainment() -> dict:
        rng = np.random.default_rng([seed, 99])
        n_ops = int(cfg["attainment_ops"])
        floor = float(cfg["attainment_floor"])
        worst = math.inf
        spec2 = IdealSpec.uniform(SeqClassSpec.weak(1), 2)
        for t in range(n_ops):
            domain = [random_space(rng, dims, (1, 2, INF)) for _ in range(2)]
            A = random_multiop(rng, domain, random_space(rng, dims, (1, 2, INF)))
            est = ideal_norm(A, spec2, int(cfg["attainment_k_max"]), restarts=4, seed=seed + t)
            lo = est.op_estimate.bracket.lower
            if lo > 0:
                worst = min(worst, est.bracket.lower / lo)
        return {"passed": worst >= floor, "value": worst, "ops": n_ops}

    return [*cases, ("k-sweep-attainment", attainment)]


def _suite_rad_stability(cfg: dict) -> CaseList:
    return _transport_cases(cfg, "rad-transport", int(cfg["trials"]), SeqClassSpec.rad())


def _suite_cohen_stability(cfg: dict) -> CaseList:
    return _transport_cases(cfg, "cohen-holder-transport", int(cfg["trials"]), None)


def _suite_growth(cfg: dict) -> CaseList:
    tol = float(cfg["tolerances"]["slack"])

    def one_curve(spec: dict) -> Callable[[], dict]:
        def case() -> dict:
            p = Fraction(str(spec["p"]))
            n = int(spec["n"])
            ks = [int(k) for k in spec["k_list"]]
            curve = growth_experiment(p, n, ks)
            worst = max(
                abs(ratio - k ** (1.0 / float(p))) for k, ratio in curve
            )
            return {
                "passed": worst <= tol,
                "value": worst,
                "curve": [[k, r] for k, r in curve],
                "law": f"k^(1/{spec['p']})",
            }

        return case

    return [
        (f"growth-p{spec['p']}-n{spec['n']}", one_curve(spec))
        for spec in cfg["curves"]
    ]


def _suite_decoupling(cfg: dict) -> CaseList:
    seed = int(cfg["seed"])
    trials = int(cfg["trials"])
    k_max = int(cfg["k_max"])
    dims, exps = _sampler_args(cfg)
    arities = [int(a) for a in cfg["arities"]]
    share = trials // len(arities)

    def one_arity(n: int, i: int) -> Callable[[], dict]:
        def case() -> dict:
            rng = np.random.default_rng([seed, i])
            worst = 0.0
            for _ in range(share):
                k = int(rng.integers(1, k_max + 1))
                domain = [random_space(rng, dims, exps) for _ in range(n)]
                A = random_multiop(rng, domain, random_space(rng, dims, exps))
                seqs = [random_vecseq(rng, s, k) for s in domain]
                worst = max(worst, decoupling_check(A, seqs))
            return {"passed": worst <= 1e-10, "residual": worst, "trials": share}

        return case

    return [(f"decoupling-n{n}", one_arity(n, i)) for i, n in enumerate(arities)]


def _suite_holder_identity(cfg: dict) -> CaseList:
    seed = int(cfg["seed"])
    trials = int(cfg["trials"])
    k_max = int(cfg["k_max"])
    dims, exps = _sampler_args(cfg)
    tol = float(cfg["tolerances"]["exact"])
    slack = float(cfg["tolerances"]["slack"])
    band = float(cfg["band"])

    def identity_norms() -> dict:
        worst = 0.0
        for n, ps, p_out in [
            (2, (2, 2), 1),
            (2, (Fraction(3, 2), 3), 1),
            (2, (2, 2), Fraction(3, 2)),
            (3, (3, 3, 3), 1),
        ]:
            spec = IdealSpec(
                tuple(SeqClassSpec.strong(p) for p in ps), SeqClassSpec.strong(p_out)
            )
            est = ideal_norm(scalar_multiplication(n), spec, k_max, restarts=4, seed=seed)
            worst = max(worst, abs(est.bracket.lower - 1.0))
        return {"passed": worst <= tol, "value": worst}

    def random_ops() -> dict:
        rng = np.random.default_rng([seed, 7])
        lo_ratio, hi_excess = math.inf, -math.inf
        exps = (Fraction(3, 2), 2, 3)
        for t in range(trials):
            n = 2 if t % 2 == 0 else 3
            ps = [exps[rng.integers(len(exps))] for _ in range(n)]
            budget = sum(Fraction(1) / Fraction(p) for p in ps)
            p_out = max(Fraction(1), 1 / budget)
            spec = IdealSpec(
                tuple(SeqClassSpec.strong(p) for p in ps), SeqClassSpec.strong(p_out)
            )
            domain = [random_space(rng, dims, exps) for _ in range(n)]
            A = random_multiop(rng, domain, random_space(rng, dims, exps))
            est = ideal_norm(A, spec, k_max, restarts=3, seed=seed + t)
            op = est.op_estimate.bracket
            if op.lower == 0:
                continue
            lo_ratio = min(lo_ratio, est.bracket.lower / op.lower)
            hi_excess = max(hi_excess, est.bracket.lower / op.upper - 1.0)
        return {
            "passed": lo_ratio >= band and hi_excess <= slack,
            "value": lo_ratio,
            "max_excess_over_op": hi_excess,
            "trials": trials,
        }

    return [("identity-norm-one", identity_norms), ("ideal=op-band", random_ops)]


def _suite_ideal_axioms(cfg: dict) -> CaseList:
    seed = int(cfg["seed"])
    trials = int(cfg["trials"])
    k_max = int(cfg["k_max"])
    dims, exps = _sampler_args(cfg)
    slack = float(cfg["tolerances"]["slack"])
    specs = [
        IdealSpec.uniform(SeqClassSpec.weak(1), 2),
        IdealSpec((SeqClassSpec.strong(2), SeqClassSpec.strong(2)), SeqClassSpec.strong(1)),
    ]

    def composition() -> dict:
        rng = np.random.default_rng([seed, 11])
        worst = -math.inf
        for t in range(trials // 2):
            spec = specs[t % 2]
            domain = [random_space(rng, dims, exps) for _ in range(2)]
            cod = random_space(rng, dims, exps)
            A = random_multiop(rng, domain, cod)
            us = [
                random_multiop(rng, [random_space(rng, dims, exps)], s)
                for s in domain
            ]
            v = random_multiop(rng, [cod], random_space(rng, dims, exps))
            C = compose(v, A, us)
            lhs = ideal_norm(C, spec, k_max, restarts=2, seed=seed + t).bracket.lower
            rhs = (
                op_norm(v, seed=seed + t).bracket.upper
                * ideal_norm(A, spec, k_max, restarts=2, seed=seed + t).bracket.upper
                * math.prod(op_norm(u, seed=seed + t).bracket.upper for u in us)
            )
            worst = max(worst, lhs / rhs - 1.0 if rhs > 0 else 0.0)
        return {"passed": worst <= slack, "value": worst, "trials": trials // 2}

    def finite_type_bound() -> dict:
        rng = np.random.default_rng([seed, 12])
        worst = -math.inf
        for t in range(trials // 2):
            spec = specs[t % 2]
            s1 = random_space(rng, dims, exps)
            s2 = random_space(rng, dims, exps)
            out = random_space(rng, dims, exps)
            phi1 = Vector(s1.dual, rng.standard_normal(s1.dim))
            phi2 = Vector(s2.dual, rng.standard_normal(s2.dim))
            b = Vector(out, rng.standard_normal(out.dim))
            expected = vector_norm(phi1) * vector_norm(phi2) * vector_norm(b)
            if expected == 0:
                continue
            A = finite_type([phi1, phi2], b)
            est = ideal_norm(A, spec, k_max, restarts=2, seed=seed + t)
            worst = max(worst, est.bracket.lower / expected - 1.0)
        return {"passed": worst <= slack, "value": worst, "trials": trials // 2}

    def scalar_compat() -> dict:
        worst = max(
            scalar_compatibility_excess(spec, trials=50, seed=seed) for spec in specs
        )
        return {"passed": worst <= 1e-9, "excess": worst}

    return [
        ("composition-inequality", composition),
        ("finite-type-bound", finite_type_bound),
        ("scalar-product-embedding", scalar_compat),
    ]


def _suite_limit_stability(cfg: dict) -> CaseList:
    seed = int(cfg["seed"])
    families = int(cfg["families"])
    k_max = int(cfg["k_max"])
    dims, exps = _sampler_args(cfg)
    restarts = int(cfg["restarts"])
    ms = (1, 10, 1000, 1_000_000)

    def scaled() -> dict:
        rng = np.random.default_rng([seed, 21])
        spec = IdealSpec.uniform(SeqClassSpec.weak(1), 2)
        bad = 0
        for t in range(families // 2):
            domain = [random_space(rng, dims, exps) for _ in range(2)]
            A = random_multiop(rng, domain, random_space(rng, dims, exps))
            fam = [
                MultiOp(A.domain, A.codomain, (1 - 1 / m) * A.coeffs) for m in ms
            ]
            rep = limit_stability_experiment(
                fam, A, spec, k_max, seed=seed + t, restarts=restarts
            )
            bad += 0 if rep.passed else 1
        return {"passed": bad == 0, "violations": bad, "families": families // 2}

    def perturbed() -> dict:
        rng = np.random.default_rng([seed, 22])
        spec = IdealSpec((SeqClassSpec.strong(2), SeqClassSpec.strong(2)), SeqClassSpec.strong(1))
        bad = 0
        for t in range(families - families // 2):
            domain = [random_space(rng, dims, exps) for _ in range(2)]
            A = random_multiop(rng, domain, random_space(rng, dims, exps))
            B = random_multiop(rng, domain, A.codomain)
            fam = [
                MultiOp(A.domain, A.codomain, A.coeffs + B.coeffs / m) for m in ms
            ]
            rep = limit_stability_experiment(
                fam, A, spec, k_max, seed=seed + t, restarts=restarts
            )
            bad += 0 if rep.passed else 1
        return {
            "passed": bad == 0,
            "violations": bad,
            "families": families - families // 2,
        }

    return [("scaled-families", scaled), ("perturbation-families", perturbed)]


_BUILDERS: dict[str, Callable[[dict], CaseList]] = {
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
