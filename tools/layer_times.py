"""Time the layers under the summing-norm climb, one small fixed input each.

    python3 tools/layer_times.py [OUT.json]

Times, with `timeit` and BLAS on one thread:

* `idealnorm._ratio_map(...)(mats)`, resolved and applied in each call,
  for each spec kind of the benchmark's `ideal-sweep` workload (weak-1
  throughout, Hoelder strong-p), arity 2 and 3, k = 1, 2, 3, at B = 6
  and B = 1 tuples, and `ideal_ratio` on one tuple;
* `seqnorm.block_kernel(...)(S)`, resolved and applied in each call, on
  a (6, 3, 3) block for each of its branches;
* one `ideal_norm` k-step, as the difference of the medians at k_max and
  k_max - 1 (restarts 3, as in `ideal-sweep`);
* `op_norm` on linear maps, with exact slots and with a searched one;
* the exact sign enumerators: `norm_rad` and `norm_weak_p(s, 1)` on 16 x 4
  and 20 x 4 sequences in l_{3/2} (2^15 and 2^19 sign patterns), `norm_rad`
  on a 20 x 4 sequence in l_2 (its closed form), the weak-1 branch and
  bound where it has the least room to prune (15 x 4 in l_{3/2}, two
  blocks; 20 dense orthogonal rows of l_2^20, whose signed sums all tie)
  and on 20 x 4 sequences in l_1 and l_3, and `decoupling_check`
  at (n, k) = (2, 16) and (3, 8) (2^16 sign tuples) and at the decoupling
  suite's sizes (n, k) = (2, 2), (2, 4), (3, 2) and (3, 4);
* `norm_cohen` on three fixed inputs of its cutting-plane branch, in
  l_{3/2} at p = 4/3: k x d = 5 x 3, 3 x 4 and 3 x 6, each drawn from
  `default_rng([22, d, k])`, at seed 1.

Each layer is timed in 21 repeats of a loop sized to about 10 ms (at
least one call), and reported per call as the median and the quartiles,
in microseconds. Only
functions with the same signature on every commit since the
once-per-shape kernels are called, so the tool can be copied into an
older checkout and run there. It imports the library from the `src/`
beside it.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import timeit  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src")]
sys.dont_write_bytecode = True

import numpy as np  # noqa: E402

from seqclass import idealnorm, seqnorm  # noqa: E402
from seqclass.idealnorm import IdealSpec, ideal_norm, ideal_ratio  # noqa: E402
from seqclass.multiop import MultiOp, decoupling_check, op_norm  # noqa: E402
from seqclass.seqnorm import SeqClassSpec, VecSeq, norm_cohen, norm_rad, norm_weak_p  # noqa: E402
from seqclass.spaces import INF, Space  # noqa: E402

REPEATS = 21
TARGET_S = 0.01

#: Slot spaces of the timed operators (an arity-n operator takes the first n) and their codomain.
SLOTS = (Space(3, 2), Space(3, 1), Space(3, INF))
CODOMAIN = Space(3, 2)


def per_call_us(fn) -> dict:
    """Median and quartiles of the per-call time of fn() in microseconds."""
    timer = timeit.Timer(fn)
    t1 = min(timer.repeat(repeat=3, number=1))
    number = max(1, int(TARGET_S / max(t1, 1e-7)))
    runs = [t / number * 1e6 for t in timer.repeat(repeat=REPEATS, number=number)]
    q1, med, q3 = statistics.quantiles(runs, n=4)
    return {"median_us": round(med, 2), "q1_us": round(q1, 2), "q3_us": round(q3, 2), "calls": number}


def specs(n: int) -> dict[str, IdealSpec]:
    return {
        "weak-1": IdealSpec.uniform(SeqClassSpec.weak(1), n),
        "holder-strong": IdealSpec.holder("strong", (Fraction(3, 2), 2, 3)[:n]),
    }


def operator(n: int) -> MultiOp:
    rng = np.random.default_rng([16, n])
    return MultiOp(SLOTS[:n], CODOMAIN, rng.standard_normal((3,) * n + (CODOMAIN.dim,)))


def ratio_layers() -> dict:
    out = {}
    for n in (2, 3):
        A = operator(n)
        for kind, spec in specs(n).items():
            for k in (1, 2, 3):
                for B in (6, 1):
                    rng = np.random.default_rng([16, n, k, B])
                    mats = [rng.standard_normal((B, k, s.dim)) for s in A.domain]
                    out[f"_ratio_map {kind} n={n} k={k} B={B}"] = per_call_us(
                        lambda: idealnorm._ratio_map(A, spec, k, B, 0)(mats))
    A, spec = operator(2), specs(2)["weak-1"]
    rng = np.random.default_rng(17)
    seqs = [VecSeq(s, rng.standard_normal((3, s.dim))) for s in A.domain]
    out["ideal_ratio weak-1 n=2 k=3"] = per_call_us(lambda: ideal_ratio(A, spec, seqs))
    return out


def block_layers() -> dict:
    rng = np.random.default_rng(18)
    S = rng.standard_normal((6, 3, 3))
    Z = S.copy()
    Z[2, 1] = 0.0  # one item with a zero row leaves the block
    cases = {
        "sup": (Space(3, 2), S, SeqClassSpec.sup()),
        "strong-p": (Space(3, 2), S, SeqClassSpec.strong(Fraction(3, 2))),
        "weak-p l_inf": (Space(3, INF), S, SeqClassSpec.weak(Fraction(3, 2))),
        "weak-1 sign-enumeration": (Space(3, 2), S, SeqClassSpec.weak(1)),
        "rad-enumeration": (Space(3, 2), S, SeqClassSpec.rad()),
        "weak-1 one zero row": (Space(3, 2), Z, SeqClassSpec.weak(1)),
        "weak-p item by item": (Space(3, 2), S, SeqClassSpec.weak(Fraction(3, 2))),
    }
    return {
        f"block_kernel {name}": per_call_us(lambda: seqnorm.block_kernel(space, spec, 3, 6)(X))
        for name, (space, X, spec) in cases.items()
    }


def climb_layers() -> dict:
    out = {}
    for n in (2, 3):
        A = operator(n)
        for kind, spec in specs(n).items():
            t = {k: per_call_us(lambda: ideal_norm(A, spec, k, restarts=3, seed=1)) for k in (1, 2, 3)}
            for k in (1, 2, 3):
                out[f"ideal_norm {kind} n={n} k_max={k}"] = t[k]
            for k in (2, 3):
                out[f"ideal_norm k-step {kind} n={n} k={k}"] = {
                    "median_us": round(t[k]["median_us"] - t[k - 1]["median_us"], 2)}
    return out


def op_norm_layers() -> dict:
    maps = {
        "l2^3 -> l2^3 (svd-spectral)": (Space(3, 2), Space(3, 2)),
        "linf^3 -> l3^3 (linf-ball-vertices)": (Space(3, INF), Space(3, 3)),
        "l1^3 -> l3/2^2 (l1-ball-vertices)": (Space(3, 1), Space(2, Fraction(3, 2))),
        "l2^3 -> l3^3 (power-iteration)": (Space(3, 2), Space(3, 3)),
    }
    out = {}
    for i, (name, (dom, cod)) in enumerate(maps.items()):
        A = MultiOp((dom,), cod, np.random.default_rng([19, i]).standard_normal((dom.dim, cod.dim)))
        out[f"op_norm {name}"] = per_call_us(lambda: op_norm(A, seed=1))
    return out


def enum_layers() -> dict:
    out = {}
    for k in (16, 20):
        s = VecSeq(Space(4, Fraction(3, 2)), np.random.default_rng([20, k]).standard_normal((k, 4)))
        out[f"norm_rad l3/2^4 k={k}"] = per_call_us(lambda: norm_rad(s))
        out[f"norm_weak_p weak-1 l3/2^4 k={k}"] = per_call_us(lambda: norm_weak_p(s, 1))
    s = VecSeq(Space(4, 2), np.random.default_rng([20, 20]).standard_normal((20, 4)))
    out["norm_rad l2^4 k=20"] = per_call_us(lambda: norm_rad(s))
    weak = {
        "l3/2^4 k=15": VecSeq(Space(4, Fraction(3, 2)), np.random.default_rng([20, 15]).standard_normal((15, 4))),
        "l1^4 k=20": VecSeq(Space(4, 1), np.random.default_rng([20, 20]).standard_normal((20, 4))),
        "l3^4 k=20": VecSeq(Space(4, 3), np.random.default_rng([20, 20]).standard_normal((20, 4))),
        "l2^20 orthogonal k=20": VecSeq(Space(20, 2), np.linalg.qr(np.random.default_rng(26).standard_normal((20, 20)))[0]),
    }
    for name, s in weak.items():
        out[f"norm_weak_p weak-1 {name}"] = per_call_us(lambda: norm_weak_p(s, 1))
    for n, k in ((2, 16), (3, 8), (2, 2), (2, 4), (3, 2), (3, 4)):
        A = operator(n)
        rng = np.random.default_rng([21, n])
        seqs = [VecSeq(sp, rng.standard_normal((k, sp.dim))) for sp in A.domain]
        out[f"decoupling_check n={n} k={k}"] = per_call_us(lambda: decoupling_check(A, seqs))
    return out


def cohen_layers() -> dict:
    out = {}
    for k, d in ((5, 3), (3, 4), (3, 6)):
        s = VecSeq(Space(d, Fraction(3, 2)), np.random.default_rng([22, d, k]).standard_normal((k, d)))
        out[f"norm_cohen l3/2^{d} k={k} p=4/3"] = per_call_us(lambda: norm_cohen(s, Fraction(4, 3), seed=1))
    return out


def main(argv: list[str]) -> int:
    if len(argv) > 1:
        print("usage: python3 tools/layer_times.py [OUT.json]", file=sys.stderr)
        return 2
    layers = {}
    for group in (ratio_layers, block_layers, climb_layers, op_norm_layers, enum_layers, cohen_layers):
        for name, t in group().items():
            layers[name] = t
            spread = f"  [{t['q1_us']:.1f}, {t['q3_us']:.1f}]" if "q1_us" in t else ""
            print(f"{name:48s} {t['median_us']:10.1f} us{spread}", flush=True)
    if argv:
        Path(argv[0]).write_text(json.dumps(layers, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
