"""The measurement scripts under tools/ run, on their smallest inputs."""

import json
import os
import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def test_cohen_c36_runs_its_smallest_dimension(tmp_path):
    out = tmp_path / "c36.json"
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}  # the thread count BENCH_25.json ran the set under
    run = subprocess.run([sys.executable, str(TOOLS / "cohen_c36.py"), "4", "--out", str(out)],
                         env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    rec = json.loads(out.read_text())
    brackets = rec["brackets"]
    qp = [(q, p) for q in ("3/2", "3", "inf") for p in ("4/3", "3")]
    assert [(b["d"], b["k"], b["q"], b["p"]) for b in brackets] == [(4, k, q, p) for k in (3, 6) for q, p in qp]
    for b in brackets:
        assert 0.0 < b["lower"] <= b["upper"] and b["width_rel"] == (b["upper"] - b["lower"]) / b["upper"]
        assert b["bits"] in run.stdout
    assert rec["bits"] in run.stdout and list(rec["per_d"]) == ["4"]
    # BENCH_25.json's widths of the l_inf brackets at k = 3, which the sign vertices fix
    assert [f"{b['width_rel']:.4e}" for b in brackets[4:6]] == ["3.0138e-08", "4.4915e-08"]
    usage = subprocess.run([sys.executable, str(TOOLS / "cohen_c36.py"), "5"], capture_output=True, text=True, timeout=60)
    assert usage.returncode == 2 and "dimensions must be among" in usage.stderr
