"""Run one seqclass benchmark workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]

Run it from the root of a checkout; it imports the library from ``src/``.
One client calls the public API in a closed loop, in one process and one
Python thread, with BLAS pinned to one thread. With ``--trace 0`` each
item is timed with tracing off and the end-to-end metrics are printed;
with ``--trace 1`` a fixed slice of items runs untraced and then traced,
and the per-layer metrics are printed. Every output is checked either way.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--out`` appends
the full run record (machine record included) as one JSON line, which
``bench/compare.py`` reads. See ``bench/README.md`` for the workloads and
the definition of every metric.
"""

import os
import time

_PROCESS_T0 = time.perf_counter()

# Pin BLAS to one thread (at most nproc) before numpy loads, and keep the
# suite runner on its default path.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("SEQCLASS_THREADS", None)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

#: Value printed for an end-to-end metric that has no meaning on a workload
#: (marked n/a in bench/README.md), so that every workload prints every metric.
NOT_APPLICABLE = 1.0

#: End-to-end metrics: (name, unit). Bounds and directions live in BENCHMARK.json.
END_TO_END = (
    ("setup_s", "s"),
    ("items_per_s", "1/s"),
    ("item_ms_p50", "ms"),
    ("item_ms_p90", "ms"),
    ("ok_frac", "ratio"),
    ("peak_rss_mb", "MB"),
    ("width_rel_p50", "ratio"),
    ("heuristic_share", "ratio"),
    ("attain_min", "ratio"),
)

#: Extra child processes that repeat the set-up, so setup_s is a median of three.
SETUP_REPEATS = 2

#: Time of each kind of `reference_kernel` on the box the benchmark was
#: defined on (2-vCPU Xeon VM at 2.0 GHz). Timings are reported at that speed.
REFERENCE_S = {"small": 1.8e-3, "block": 3.5e-3, "mixed": 5.3e-3}

#: Items on each side of an item whose reference times are pooled (median).
REFERENCE_WINDOW = 4

_REF_DATA: dict = {}


def reference_kernel(kind: str) -> float:
    """Fixed work of the library's kinds, timed between items; returns its wall time.

    The host's speed for this process swings by tens of percent within
    seconds, and CPU time swings with it. Dividing each item's time by the
    time of this kernel, run right after it, removes most of the swing. The
    kernel never touches the library, so a change to the library cannot
    move it. "small" is small-array numpy calls with Fraction and float
    arithmetic in Python (ideal-sweep, cohen-bracket); "block" expands 2^14
    sign patterns and takes row norms of a matmul (sign-enum); "mixed" runs
    both (suite-cli, which runs every engine). Different kinds of work slow
    down by different amounts on a busy host, so each workload uses the
    kind that matches its own work.
    """
    import numpy as np
    from fractions import Fraction

    if not _REF_DATA:
        _REF_DATA["small"] = np.random.default_rng(12345).standard_normal((4, 3))
        _REF_DATA["signs"] = np.random.default_rng(6789).standard_normal((20, 4))
        _REF_DATA["shifts"] = np.arange(20, dtype=np.uint64)
    t0 = time.perf_counter()
    acc = 0.0
    if kind in ("small", "mixed"):
        X = _REF_DATA["small"]
        for j in range(200):
            a = np.abs(X @ X.T)
            acc += float((a ** 1.5).sum() ** (1 / 1.5))
            acc += float(Fraction(j, 7) + Fraction(1, 3))
            acc += sum(x * 0.5 for x in range(10))
    if kind in ("block", "mixed"):
        idx = np.arange(1 << 14, dtype=np.uint64)
        bits = ((idx[:, None] >> _REF_DATA["shifts"]) & 1).astype(float) * 2.0 - 1.0
        acc += float(((np.abs(bits @ _REF_DATA["signs"]) ** 1.5).sum(axis=1) ** (1 / 1.5)).max())
    return time.perf_counter() - t0


def calibrated(raw: list[float], refs: list[float], kind: str) -> list[float]:
    """Item times at reference speed: raw time scaled by REFERENCE_S over the local reference time."""
    w = REFERENCE_WINDOW
    return [
        t * REFERENCE_S[kind] / statistics.median(refs[max(0, i - w): i + w + 1])
        for i, t in enumerate(raw)
    ]


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="append the full run record to this JSON-lines file")
    ap.add_argument("--setup-only", action="store_true",
                    help="do the set-up alone and print its time (used for the setup_s repeats)")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def machine_record() -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "loadavg_start": list(os.getloadavg()),
        "platform": platform.platform(),
    }


class Corpus:
    """Item inputs by index; the first `pregen` are generated during set-up."""

    def __init__(self, workload, pregen: int):
        self.workload = workload
        self.items = [workload.make_input(i) for i in range(pregen)]

    def __getitem__(self, i: int):
        while len(self.items) <= i:
            self.items.append(self.workload.make_input(len(self.items)))
        return self.items[i]


def set_up(name: str, seed: int, seconds: float):
    """Import, corpus generation and one untimed warm-up item; returns (workload, corpus, setup_s)."""
    import workloads

    wl = workloads.WORKLOADS[name](seed, OUT_DIR)
    corpus = Corpus(wl, math.ceil(wl.nominal_rate * seconds * 1.5) + 1)
    wl.call(wl.warmup_input(), 0)
    raw = time.perf_counter() - _PROCESS_T0
    ref = statistics.median(reference_kernel(wl.reference) for _ in range(5))
    return wl, corpus, raw * REFERENCE_S[wl.reference] / ref


def slice_size(wl, seconds: float) -> int:
    """Items in the fixed quality slice: about 80% of a run at the nominal rate."""
    return max(4, int(seconds * wl.nominal_rate * 0.8))


class Tally:
    """Failures and outputs of checked items."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.faults: list[str] = []

    def run(self, wl, corpus, i, call=None):
        """Run and check item i; returns (latency, output or None)."""
        inp = corpus[i]
        t0 = time.perf_counter()
        try:
            out = (call or wl.call)(inp, i)
        except Exception as exc:  # an engine error is a failed item, not a crash
            latency = time.perf_counter() - t0
            self._fail(i, [f"{type(exc).__name__}: {exc}"])
            return latency, None
        latency = time.perf_counter() - t0
        self.attempted += 1
        faults = wl.check(inp, out)
        if faults:
            self._fail(i, faults, counted=True)
            return latency, None
        return latency, out

    def _fail(self, i, faults, counted=False):
        if not counted:
            self.attempted += 1
        self.failed += 1
        if len(self.faults) < 20:
            self.faults.append(f"item {i}: " + "; ".join(faults))


def quantile(values, q: float) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def run_untraced(wl, corpus, seed: int, seconds: float, own_setup: float, args) -> dict:
    import numpy as np

    tally = Tally()
    q_slice = slice_size(wl, seconds)
    outputs = {}
    raw, refs = [], []
    start = time.perf_counter()
    i = 0
    while time.perf_counter() - start < seconds:
        latency, out = tally.run(wl, corpus, i)
        raw.append(latency)
        refs.append(reference_kernel(wl.reference))
        if i < q_slice:
            outputs[i] = out
        i += 1
    timed = i
    latencies = calibrated(raw, refs, wl.reference)
    for j in range(timed, q_slice):  # finish the quality slice untimed
        outputs[j] = tally.run(wl, corpus, j)[1]

    # scale probes on a seeded part of the quality slice (outside all timings)
    probe_ids = sorted(np.random.default_rng([seed, 99]).choice(
        q_slice, size=max(1, q_slice // 20), replace=False).tolist())
    probes = probe_failed = 0
    probe_faults = []
    for j in probe_ids:
        if outputs[j] is None:
            continue  # the item itself failed; it is already counted
        for faults in wl.probe(corpus[j], outputs[j], j):
            probes += 1
            if faults:
                probe_failed += 1
                probe_faults.append(f"probe {j}: " + "; ".join(faults))

    setups = [own_setup] + [child_setup(args) for _ in range(SETUP_REPEATS)]

    values = {
        "setup_s": statistics.median(setups),
        "items_per_s": timed / sum(latencies),
        "item_ms_p50": 1e3 * statistics.median(latencies),
        "item_ms_p90": 1e3 * quantile(latencies, 0.9),
        "ok_frac": 1.0 - (tally.failed + probe_failed) / (tally.attempted + probes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    good = [out for j, out in sorted(outputs.items()) if out is not None]
    brackets = [b for out in good for b in wl.brackets(out)]
    widths = [(b.upper - b.lower) / b.upper for b in brackets if not b.exact and b.upper > 0]
    attains = [a for a in map(wl.attain, good) if a is not None]
    values["width_rel_p50"] = statistics.median(widths) if widths else None
    values["heuristic_share"] = (
        sum(not b.exact for b in brackets) / len(brackets) if brackets else None)
    values["attain_min"] = min(attains) if attains else None
    not_applicable = [m for m, _ in END_TO_END if m in wl.not_applicable or values[m] is None]
    for m in not_applicable:
        values[m] = NOT_APPLICABLE

    return {
        "tally": tally,
        "metrics": {m: {"value": float(values[m]), "unit": unit} for m, unit in END_TO_END},
        "details": {
            "items_timed": timed,
            "quality_slice": q_slice,
            "probes": probes,
            "probe_failed": probe_failed,
            "probe_faults": probe_faults[:20],
            "setup_runs_s": setups,
            "not_applicable": not_applicable,
            "width_rel_max": max(widths, default=None),
            "raw_items_per_s": timed / sum(raw),
            "raw_item_ms_p50": 1e3 * statistics.median(raw),
            "raw_item_ms_p90": 1e3 * quantile(raw, 0.9),
            "reference_ms_p50": 1e3 * statistics.median(refs),
        },
    }


def child_setup(args) -> float:
    """Repeat the set-up in a fresh process and return its set-up time."""
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def run_traced(wl, corpus, seed: int, seconds: float) -> dict:
    """Untraced then traced over the same fixed slice; per-layer totals of the traced pass."""
    from tracing import Tracer, per_layer_names

    tally = Tally()
    n = max(2, slice_size(wl, seconds) // 2)
    tracer = Tracer()
    untraced = traced = 0.0
    for i in range(n):  # each item untraced, then traced, so both see the same host speed
        untraced += tally.run(wl, corpus, i)[0]
        tracer.install()
        try:
            traced += tally.run(wl, corpus, i, call=lambda inp, j: tracer.item(j, wl.call, inp, j))[0]
        finally:
            tracer.uninstall()
    values = tracer.metrics()
    values["trace_overhead"] = traced / untraced - 1.0
    span_file = OUT_DIR / "trace" / f"{wl.name}-seed{seed}.npz"
    spans = tracer.write(span_file)
    return {
        "tally": tally,
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit, _ in per_layer_names()},
        "details": {
            "items_traced": n,
            "untraced_s": untraced,
            "traced_s": traced,
            "spans": spans,
            "span_file": str(span_file.relative_to(ROOT)),
            "absent_layers": tracer.absent,
        },
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "seqclass" / "__init__.py").is_file():
        print(f"error: no library source at {SRC / 'seqclass'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import seqclass

    if Path(seqclass.__file__).resolve().parent != SRC / "seqclass":
        print(f"error: imported seqclass from {seqclass.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    machine = machine_record()
    wl, corpus, own_setup = set_up(args.workload, args.seed, args.seconds)
    if args.setup_only:
        print(json.dumps({"setup_s": own_setup}))
        return 0

    if args.trace:
        res = run_traced(wl, corpus, args.seed, args.seconds)
    else:
        res = run_untraced(wl, corpus, args.seed, args.seconds, own_setup, args)
    tally = res["tally"]
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": res["metrics"],
    }

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print("machine " + json.dumps(machine, sort_keys=True))
    print("details " + json.dumps(res["details"], sort_keys=True))
    for fault in tally.faults:
        print(f"FAILED {fault}")
    na = set(res["details"].get("not_applicable", ()))
    for name, m in res["metrics"].items():
        note = "  (n/a)" if name in na else ""
        print(f"  {name:<44} {m['value']:>16.6g} {m['unit']}{note}")
    if args.out:
        record = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "started_unix": time.time() - (time.perf_counter() - _PROCESS_T0),
            "machine": machine, "details": res["details"], "result": result,
        }
        with open(args.out, "a") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
