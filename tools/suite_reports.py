"""Write the suite reports whose bytes a refactor must not change.

    python3 tools/suite_reports.py OUT_DIR

Writes 40 JSON reports into OUT_DIR: every small config of the
benchmark's `suite-cli` workload (`SuiteCli.SMALL` in bench/workloads.py,
nine suites) and `growth` at its defaults, each at seeds 0, 1 and 2
(`small-<suite>-<seed>.json`), then the ten suites at their defaults
and seed 0 (`default-<suite>.json`). Each report is rendered as
`seqclass suite run` writes it, with the `wall_time_s` entry removed, so
`diff -r` of the directories written by two checkouts shows every change
in a verdict, a count or a number. BLAS runs on one thread, since some
Cohen brackets depend on the thread count. `tests/test_reports.py` pins
the SHA-256 of the ten small seed-0 reports.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
sys.dont_write_bytecode = True  # leave bench/ as checked out

from seqclass._jsonio import dumps  # noqa: E402
from seqclass.suites import SUITE_NAMES, run_suite  # noqa: E402
from workloads import SuiteCli  # noqa: E402


def configs() -> dict[str, dict]:
    """The 40 configs by report name."""
    small = {**SuiteCli.SMALL, "growth": {}}
    out = {
        f"small-{suite}-{seed}": {**cfg, "suite": suite, "seed": seed}
        for suite, cfg in small.items()
        for seed in (0, 1, 2)
    }
    out.update({f"default-{suite}": {"suite": suite, "seed": 0} for suite in SUITE_NAMES})
    return out


def render(cfg: dict) -> str:
    """The report of one config as `seqclass suite run` writes it, without `wall_time_s`."""
    report = run_suite(cfg).to_dict()
    del report["summary"]["wall_time_s"]
    return dumps(report)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 tools/suite_reports.py OUT_DIR", file=sys.stderr)
        return 2
    out_dir = Path(argv[0])
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, cfg in configs().items():
        text = render(cfg)
        (out_dir / f"{name}.json").write_text(text)
        print(name, "PASS" if json.loads(text)["summary"]["passed"] else "FAIL", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
