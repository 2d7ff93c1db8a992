"""The four benchmark workloads: seeded corpora, the timed call, output checks, scale probes.

Every corpus is generated here from the workload seed with numpy alone, so
the inputs do not change when the library's own samplers change. Item ``i``
draws from ``np.random.default_rng([seed, i])`` and passes ``seed=i`` to
the engine, so a fixed seed replays the same corpus and the same engine
seeds. Items are laid out in blocks that cover every stratum of the
workload once (or twice), which keeps the cost mix of a run the same from
seed to seed.

The timed call always goes through a module attribute looked up at call
time (``seqclass.norm_cohen``, ``cli.main``), so the traced run sees the
wrapped functions.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
from fractions import Fraction
from pathlib import Path

import numpy as np

import seqclass
from seqclass import cli

INF = math.inf

#: Exact binary scale factors of the scale probes.
PROBE_SCALES = (2.0**600, 2.0**-600)

#: Relative tolerance of a probe against c times the unscaled result.
PROBE_RTOL = 1e-9

#: Residual bound of the sign-decoupling identity (as in the decoupling suite).
DECOUPLING_TOL = 1e-10


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def lq_rows(X: np.ndarray, q) -> np.ndarray:
    """Row-wise l_q norms, scaled by the row max so no power overflows.

    An independent reference for the checks; it never calls the library.
    """
    a = np.abs(np.asarray(X, dtype=float))
    m = a.max(axis=1)
    if q == INF:
        return m
    safe = np.where(m > 0.0, m, 1.0)
    qf = float(q)
    return m * ((a / safe[:, None]) ** qf).sum(axis=1) ** (1.0 / qf)


def lq(v: np.ndarray, q) -> float:
    return float(lq_rows(np.asarray(v, dtype=float)[None, :], q)[0])


def bracket_faults(b, label: str) -> list[str]:
    """NaN ends, lower > upper, or an `exact` bracket wider than 1e-9 relative."""
    lo, up = float(b.lower), float(b.upper)
    if math.isnan(lo) or math.isnan(up):
        return [f"{label}: NaN bracket [{lo}, {up}]"]
    if lo > up:
        return [f"{label}: lower {lo!r} > upper {up!r}"]
    if b.exact and up - lo > 1e-9 * abs(up):
        return [f"{label}: exact bracket [{lo!r}, {up!r}] wider than 1e-9 relative"]
    return []


def rel_gap(x: float, ref: float) -> float:
    if x == ref:
        return 0.0
    if not (math.isfinite(x) and math.isfinite(ref)):
        return math.inf
    return abs(x - ref) / max(abs(ref), 1e-300)


def scaled_faults(b, ref, c: float, label: str) -> list[str]:
    """A probe bracket must equal c times the unscaled bracket to PROBE_RTOL."""
    faults = bracket_faults(b, label)
    for end in ("lower", "upper"):
        got, want = float(getattr(b, end)), c * float(getattr(ref, end))
        if rel_gap(got, want) > PROBE_RTOL:
            faults.append(f"{label}: {end} {got!r} != c * {want / c!r}")
    return faults


def block_order(seed: int, i: int, size: int) -> int:
    """Stratum of item i: each block of `size` items is a seeded permutation."""
    block, pos = divmod(i, size)
    return int(np.random.default_rng([seed, 1_000_003, block]).permutation(size)[pos])


class Workload:
    """One closed-loop workload; subclasses fill in the corpus and the checks."""

    name = ""
    #: Items per second of a run's loop on the 2-vCPU box the benchmark was
    #: defined on. Only sizes the fixed quality and trace slices, never a timing.
    nominal_rate = 1.0
    #: End-to-end metrics that have no meaning on this workload.
    not_applicable: tuple[str, ...] = ()
    #: Kind of run.reference_kernel that tracks this workload's host speed.
    reference = "small"

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.out_dir = out_dir

    def make_input(self, i: int):
        raise NotImplementedError

    def warmup_input(self):
        """The untimed warm-up item: fixed, so set-up time does not depend on the seed."""
        raise NotImplementedError

    def call(self, inp, i: int):
        raise NotImplementedError

    def check(self, inp, out) -> list[str]:
        raise NotImplementedError

    def probe(self, inp, out, i: int) -> list[list[str]]:
        """Re-run item i at each probe scale; one fault list per probe."""
        raise NotImplementedError

    def brackets(self, out) -> list:
        """Brackets the item returned, for heuristic_share and the widths."""
        return []

    def attain(self, out) -> float | None:
        return None


# ---------------------------------------------------------------------------
# ideal-sweep
# ---------------------------------------------------------------------------

class IdealSweep(Workload):
    """ideal_norm at k_max=3 on bilinear/trilinear operators over l_{1,2,inf}^{<=4}.

    Items alternate the weak-1 spec and a Hoelder strong-p spec, and in
    blocks of four cover both arities with both specs.
    """

    name = "ideal-sweep"
    nominal_rate = 5.0
    not_applicable = ("width_rel_p50",)
    EXPS = (1, 2, INF)
    HOLDER = (Fraction(3, 2), 2, 3)
    K_MAX = 3
    RESTARTS = 3

    def make_input(self, i):
        rng = np.random.default_rng([self.seed, i])
        stratum = block_order(self.seed, i // 2, 2) * 2 + i % 2
        n = 2 + stratum // 2
        domain = [seqclass.Space(int(rng.integers(1, 5)), self.EXPS[rng.integers(3)]) for _ in range(n)]
        codomain = seqclass.Space(int(rng.integers(1, 5)), self.EXPS[rng.integers(3)])
        shape = tuple(s.dim for s in domain) + (codomain.dim,)
        coeffs = rng.standard_normal(shape)
        if stratum % 2 == 0:
            spec = seqclass.IdealSpec.uniform(seqclass.SeqClassSpec.weak(1), n)
        else:
            ps = [self.HOLDER[rng.integers(3)] for _ in range(n)]
            p_out = max(Fraction(1), 1 / sum(Fraction(1) / Fraction(p) for p in ps))
            spec = seqclass.IdealSpec(
                tuple(seqclass.SeqClassSpec.strong(p) for p in ps), seqclass.SeqClassSpec.strong(p_out)
            )
        return seqclass.MultiOp(tuple(domain), codomain, coeffs), spec

    def warmup_input(self):
        rng = np.random.default_rng(0)
        domain = (seqclass.Space(3, 2), seqclass.Space(2, 1))
        A = seqclass.MultiOp(domain, seqclass.Space(3, INF), rng.standard_normal((3, 2, 3)))
        return A, seqclass.IdealSpec.uniform(seqclass.SeqClassSpec.weak(1), 2)

    def _run(self, A, spec, i):
        return seqclass.ideal_norm(A, spec, self.K_MAX, restarts=self.RESTARTS, seed=i)

    def call(self, inp, i):
        return self._run(*inp, i)

    def check(self, inp, out):
        op = out.op_estimate.bracket
        faults = bracket_faults(out.bracket, "ideal_norm") + bracket_faults(op, "op_norm")
        if out.bracket.lower > (1.0 + 1e-6) * op.upper:
            faults.append(f"ideal_norm.lower {out.bracket.lower!r} > (1+1e-6) op_norm.upper {op.upper!r}")
        return faults

    def probe(self, inp, out, i):
        A, spec = inp
        probes = []
        for c in PROBE_SCALES:
            Ac = seqclass.MultiOp(A.domain, A.codomain, c * A.coeffs)
            probes.append(_guard(lambda: scaled_faults(self._run(Ac, spec, i).bracket, out.bracket, c, "ideal_norm")))
        return probes

    def brackets(self, out):
        return [out.bracket, out.op_estimate.bracket]

    def attain(self, out):
        lo = out.op_estimate.bracket.lower
        return out.bracket.lower / lo if lo > 0 else None


# ---------------------------------------------------------------------------
# cohen-bracket
# ---------------------------------------------------------------------------

class CohenBracket(Workload):
    """norm_cohen on the criterion-7 width corpus.

    d in {2,3}, k in 2..5, q in {3/2, 2, 3, inf}, p in {4/3, 3/2, 2, 3}.
    Each block of 16 items covers every (q, p) pair once and every (d, k)
    pair twice.
    """

    name = "cohen-bracket"
    nominal_rate = 4.0
    not_applicable = ("attain_min",)
    QS = (Fraction(3, 2), 2, 3, INF)
    PS = (Fraction(4, 3), Fraction(3, 2), 2, 3)
    DK = tuple((d, k) for d in (2, 3) for k in (2, 3, 4, 5))

    def make_input(self, i):
        rng = np.random.default_rng([self.seed, i])
        qp = block_order(self.seed, i, 16)
        d, k = self.DK[block_order(self.seed + 1, i, 8)]
        q, p = self.QS[qp // 4], self.PS[qp % 4]
        return seqclass.VecSeq(seqclass.Space(d, q), rng.standard_normal((k, d))), p

    def warmup_input(self):
        # a heuristic-branch item: it imports scipy.optimize and fills the sphere grid cache
        X = np.random.default_rng(0).standard_normal((4, 3))
        return seqclass.VecSeq(seqclass.Space(3, Fraction(3, 2)), X), Fraction(3, 2)

    def call(self, inp, i):
        s, p = inp
        return seqclass.norm_cohen(s, p, seed=i)

    def check(self, inp, out):
        s, p = inp
        faults = bracket_faults(out, "norm_cohen")
        norms = lq_rows(s.mat, s.space.q)
        strong_p, strong_1 = lq(norms, p), float(norms.sum())
        if strong_p > out.upper * (1.0 + 1e-9):
            faults.append(f"strong-p {strong_p!r} > upper {out.upper!r}")
        if out.upper > strong_1 * (1.0 + 1e-12):
            faults.append(f"upper {out.upper!r} > strong-1 {strong_1!r}")
        return faults

    def probe(self, inp, out, i):
        s, p = inp
        return [
            _guard(lambda: scaled_faults(
                seqclass.norm_cohen(seqclass.VecSeq(s.space, c * s.mat), p, seed=i), out, c, "norm_cohen"))
            for c in PROBE_SCALES
        ]

    def brackets(self, out):
        return [out]


# ---------------------------------------------------------------------------
# sign-enum
# ---------------------------------------------------------------------------

class SignEnum(Workload):
    """The exact sign enumerators on 2^12 to 2^19 sign patterns per item.

    Each block of 75 items covers three kinds at five sizes and five
    dimensions: exact `norm_rad` and weak-1 enumeration at k = 16..20 in
    l_q^d with d = 2..6, and `decoupling_check` with k(n-1) in 12..16 (its
    dimensions are drawn). The cost of an item is set by its shape, so
    whole blocks give every run the same cost mix.
    """

    name = "sign-enum"
    nominal_rate = 20.0
    reference = "block"
    not_applicable = ("width_rel_p50", "heuristic_share", "attain_min")
    RAD_QS = (2, Fraction(3, 2), 3, INF)
    WEAK_QS = (1, Fraction(3, 2), 2, 3)
    DEC_NK = ((2, 12), (2, 14), (2, 16), (3, 7), (3, 8))
    DEC_QS = (1, Fraction(3, 2), 2, 3, INF)

    def make_input(self, i):
        rng = np.random.default_rng([self.seed, i])
        kind, rest = divmod(block_order(self.seed, i, 75), 25)
        level, dim = divmod(rest, 5)
        if kind < 2:
            qs = self.RAD_QS if kind == 0 else self.WEAK_QS
            space = seqclass.Space(2 + dim, qs[rng.integers(4)])
            return kind, seqclass.VecSeq(space, rng.standard_normal((16 + level, space.dim)))
        n, k = self.DEC_NK[level]
        spaces = [seqclass.Space(int(rng.integers(1, 4)), self.DEC_QS[rng.integers(5)]) for _ in range(n + 1)]
        domain, codomain = spaces[:n], spaces[n]
        A = seqclass.MultiOp(tuple(domain), codomain,
                             rng.standard_normal(tuple(s.dim for s in domain) + (codomain.dim,)))
        return kind, (A, [seqclass.VecSeq(s, rng.standard_normal((k, s.dim))) for s in domain])

    def warmup_input(self):
        X = np.random.default_rng(0).standard_normal((16, 3))
        return 0, seqclass.VecSeq(seqclass.Space(3, 2), X)

    def _run(self, kind, data, i):
        if kind == 0:
            return seqclass.norm_rad(data)
        if kind == 1:
            return seqclass.norm_weak_p(data, 1, seed=i)
        A, seqs = data
        return seqclass.decoupling_check(A, seqs)

    def call(self, inp, i):
        return self._run(*inp, i)

    def check(self, inp, out):
        kind, data = inp
        if kind == 2:
            if not out <= DECOUPLING_TOL:
                return [f"decoupling residual {out!r} > {DECOUPLING_TOL}"]
            return []
        norms = lq_rows(data.mat, data.space.q)
        if kind == 0:
            faults = [] if math.isfinite(out) else [f"norm_rad {out!r} not finite"]
            value, label = out, "norm_rad"
            if data.space.q == 2:
                hilbert = math.sqrt(float((norms * norms).sum()))
                if rel_gap(out, hilbert) > 1e-9:
                    faults.append(f"Rad {out!r} != strong-2 {hilbert!r} on l_2")
        else:
            faults = bracket_faults(out, "norm_weak_p")
            if not out.exact:
                faults.append(f"weak-1 enumeration returned a heuristic bracket ({out.method})")
            value, label = out.upper, "weak-1"
        if not norms.max() * (1.0 - 1e-12) <= value <= norms.sum() * (1.0 + 1e-12):
            faults.append(f"{label} {value!r} outside [sup, strong-1]")
        return faults

    def probe(self, inp, out, i):
        kind, data = inp
        return [_guard(lambda: self._probe_faults(kind, data, out, c, i)) for c in PROBE_SCALES]

    @staticmethod
    def _probe_faults(kind, data, out, c, i):
        if kind == 0:
            r = seqclass.norm_rad(seqclass.VecSeq(data.space, c * data.mat))
            return [] if rel_gap(r, c * out) <= PROBE_RTOL else [f"norm_rad {r!r} != c * {out!r}"]
        if kind == 1:
            b = seqclass.norm_weak_p(seqclass.VecSeq(data.space, c * data.mat), 1, seed=i)
            return scaled_faults(b, out, c, "norm_weak_p")
        # the identity is linear in each slot: scaling the first sequence scales the residual
        A, seqs = data
        r = seqclass.decoupling_check(A, [seqclass.VecSeq(seqs[0].space, c * seqs[0].mat), *seqs[1:]])
        return [] if r <= DECOUPLING_TOL * c else [f"decoupling residual {r!r} > {DECOUPLING_TOL} * c"]


# ---------------------------------------------------------------------------
# suite-cli
# ---------------------------------------------------------------------------

class SuiteCli(Workload):
    """`seqclass suite run <cfg.json> --out <report>` through `cli.main`.

    Each block of ten items runs every suite once, in a seeded order, on a
    small config. The run uses neither --serial nor
    SEQCLASS_THREADS. Its probes re-run a config and require a
    byte-identical report apart from wall_time_s, since a suite config has
    no numeric input to scale.
    """

    name = "suite-cli"
    nominal_rate = 3.6
    reference = "mixed"
    not_applicable = ("width_rel_p50", "heuristic_share", "attain_min")
    WALL_TIME = re.compile(rb'"wall_time_s": [^,\n}]*')

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        self.dir = out_dir / "suite-cli"
        self.dir.mkdir(parents=True, exist_ok=True)

    #: Suites whose cost is a handful of heuristic Cohen brackets: one more or
    #: one fewer such case changes an item's time tenfold, and a run holds
    #: only about nine items per suite. Their config seed is the block index,
    #: the same for every workload seed, so the cost mix of a run does not
    #: move with the seed. The other suites take their config seed from it.
    FIXED_SEED = ("seqnorm-axioms", "linear-stability", "cohen-stability")

    #: Small configs; each suite takes roughly 0.05 to 0.6 s per run.
    SMALL = {
        "seqnorm-axioms": {"trials": 3, "k_max": 2, "dims": [1, 2]},
        "linear-stability": {"trials": 1, "k_max": 2, "dims": [1, 2]},
        "weak1-stability": {"trials": 2, "k_max": 3, "attainment_ops": 1, "attainment_k_max": 2},
        "rad-stability": {"trials": 12, "k_max": 3},
        "cohen-stability": {"trials": 1, "k_max": 2, "dims": [1, 2]},
        "decoupling": {"trials": 120, "k_max": 4},
        "holder-identity": {"trials": 1, "k_max": 2},
        "ideal-axioms": {"trials": 2, "k_max": 2},
        "limit-stability": {"families": 2, "k_max": 2, "restarts": 1},
    }

    def make_input(self, i):
        block = i // 10
        suite = seqclass.suites.SUITE_NAMES[block_order(self.seed, i, 10)]
        rng = np.random.default_rng([self.seed, i])
        seed = block if suite in self.FIXED_SEED else int(rng.integers(1 << 30))
        return self._write(f"cfg-{i}.json", suite, seed, rng)

    def warmup_input(self):
        # seqnorm-axioms touches every engine, Cohen (and so scipy.optimize) included
        return self._write("cfg-warmup.json", "seqnorm-axioms", 0, np.random.default_rng(0))

    def _write(self, filename: str, suite: str, seed: int, rng):
        if suite == "growth":
            ks = sorted(int(k) for k in rng.choice(np.arange(2, 37), size=4, replace=False))
            cfg = {"curves": [{"p": "2", "n": 2, "k_list": [1] + ks},
                              {"p": "4/3", "n": 4, "k_list": [1, int(rng.integers(2, 5))]}]}
        else:
            cfg = dict(self.SMALL[suite])
        cfg["suite"] = suite
        cfg["seed"] = seed
        path = self.dir / filename
        path.write_text(json.dumps(cfg, sort_keys=True))
        return str(path), cfg

    def _run(self, cfg_path: str, report: Path):
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["suite", "run", cfg_path, "--out", str(report)])
        return rc, report.read_bytes()

    def call(self, inp, i):
        return self._run(inp[0], self.dir / f"report-{i}.json")

    def check(self, inp, out):
        rc, report = out
        faults = [] if rc == 0 else [f"exit code {rc}"]
        if json.loads(report).get("suite") != inp[1]["suite"]:
            faults.append("report names another suite")
        return faults

    def probe(self, inp, out, i):
        def faults():
            rc, again = self._run(inp[0], self.dir / f"report-{i}-again.json")
            if self.WALL_TIME.sub(b"", again) != self.WALL_TIME.sub(b"", out[1]):
                return [f"repeated config gave a different report (exit {rc})"]
            return []

        return [_guard(faults)]


def _guard(faults_fn) -> list[str]:
    """Run a probe; an exception is a probe failure, not a crash of the run."""
    try:
        return faults_fn()
    except Exception as exc:  # the probe reports any engine error as its fault
        return [f"{type(exc).__name__}: {exc}"]


WORKLOADS = {w.name: w for w in (IdealSweep, CohenBracket, SignEnum, SuiteCli)}
