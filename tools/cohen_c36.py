"""Bracket the C36 set of Cohen norms: each bracket's width, time and bits.

    python3 tools/cohen_c36.py [D ...] [--out OUT.json]

The C36 set is 36 `norm_cohen` brackets: d in {4, 6, 8}, k in {3, 6}
and (q, p) in {3/2, 3, inf} x {4/3, 3}, with case the index of (q, p) in
that order; the sequence is X = `default_rng([d, k, case])` drawn as a
standard normal (k, d) matrix in l_q^d, bracketed by
`norm_cohen(VecSeq(Space(d, q), X), p, seed=0)`. This is the set of
BENCH_25.json. (BENCH_12.json's set is another one: q in {3/2, 3},
p in {4/3, 3/2, 3}, X from `default_rng([d, k, int(2q), int(3p)])` at
seed 1.) Positional arguments pick the dimensions, all three by default.

One line per bracket: its relative width (upper - lower) / upper, its
time in seconds and the first 16 hex digits of the SHA-256 of its two
ends as float64 bytes; then each dimension's total time and median
width, and one hash of every bracket's bits. BLAS runs on the threads
the environment sets, so two runs under `OPENBLAS_NUM_THREADS=1` and
`=2` show whether the bits depend on the thread count; time comparisons
should pin one thread. `--out` also writes the records as JSON. It
imports the library from the `src/` beside it.
"""

import argparse
import hashlib
import json
import os
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src")]
sys.dont_write_bytecode = True

import numpy as np  # noqa: E402

from seqclass.seqnorm import VecSeq, norm_cohen  # noqa: E402
from seqclass.spaces import INF, Space  # noqa: E402

DIMS = (4, 6, 8)
LENGTHS = (3, 6)
QP = tuple((q, p) for q in (Fraction(3, 2), Fraction(3), INF) for p in (Fraction(4, 3), Fraction(3)))


def bits(lower: float, upper: float) -> str:
    """The first 16 hex digits of the SHA-256 of the two ends as float64 bytes."""
    return hashlib.sha256(np.array([lower, upper], dtype=np.float64).tobytes()).hexdigest()[:16]


def bracket(d: int, k: int, case: int) -> dict:
    """One bracket of the set, timed."""
    q, p = QP[case]
    X = np.random.default_rng([d, k, case]).standard_normal((k, d))
    t0 = time.perf_counter()
    b = norm_cohen(VecSeq(Space(d, q), X), p, seed=0)
    seconds = time.perf_counter() - t0
    return {"d": d, "k": k, "q": str(q), "p": str(p), "lower": b.lower, "upper": b.upper,
            "width_rel": (b.upper - b.lower) / b.upper, "time_s": seconds, "bits": bits(b.lower, b.upper)}


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("dims", nargs="*", type=int, default=list(DIMS), help="dimensions of the set to run")
    ap.add_argument("--out", help="write the records to this JSON file")
    args = ap.parse_args(argv)
    if not set(args.dims) <= set(DIMS):
        ap.error(f"dimensions must be among {DIMS}")
    print(f"OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS', 'unset')}")
    records = []
    for d in args.dims:
        for k in LENGTHS:
            for case in range(len(QP)):
                r = bracket(d, k, case)
                records.append(r)
                print(f"d={d} k={k} q={r['q']:3s} p={r['p']:3s} width {r['width_rel']:.4e}"
                      f"  {r['time_s']:8.3f} s  {r['bits']}", flush=True)
    per_d = {}
    for d in args.dims:
        rs = [r for r in records if r["d"] == d]
        per_d[d] = {"total_s": sum(r["time_s"] for r in rs),
                    "median_width_rel": statistics.median(r["width_rel"] for r in rs)}
        print(f"d={d}: total {per_d[d]['total_s']:.3f} s, median width {per_d[d]['median_width_rel']:.4e}")
    all_bits = hashlib.sha256("".join(r["bits"] for r in records).encode()).hexdigest()[:16]
    print(f"all brackets: {all_bits}")
    if args.out:
        Path(args.out).write_text(json.dumps({"brackets": records, "per_d": per_d, "bits": all_bits}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
