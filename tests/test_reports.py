"""Byte-identity of suite reports across refactors.

The ten small seed-0 configs of `tools/suite_reports.py` are rendered in a
subprocess with BLAS on one thread (some Cohen brackets depend on the
thread count), without `wall_time_s`, and each report's SHA-256 is
compared with the recorded value. A change that moves a report on purpose
updates its hash here and explains the move in CHANGES.md. A second render
runs BLAS on two threads: none of these configs reaches a Cohen bracket
that depends on the thread count, so the hashes must not move.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"

REPORT_SHA256 = {
    "small-cohen-stability-0": "c2fc0817ae57942c3a64f4be1e3a83c4403802810358a1c8f1ddcaef29758e36",
    "small-decoupling-0": "435d9ab75a00b2a983272184ff4a2354a1d2f8df6ed85e647923bfe7fd758138",
    "small-growth-0": "1c4ba527e79d2e4df89a706ca2c3aa7769e6a670d1f08466987c98c86b64c36e",
    "small-holder-identity-0": "72982484d25f79839f09f365baf2d1bdc89ea53af3ba3ac421c9210338361d1c",
    "small-ideal-axioms-0": "722840354d372ff5c495be3a2997faf440aeab11eda8692869deb03ff636bc36",
    "small-limit-stability-0": "74005aa03828cade94ec0f66d7299cca4ef4aabdd042a50ec346a1d60d5d3418",
    "small-linear-stability-0": "82374a4d856a7c683252f58b14c548b78c951d4aa4d5cc4f25d168c206268b79",
    "small-rad-stability-0": "a30c2fe6bd1222272fbd26c724edf955bdf6b5cfd09b5eb2603752b2336f37f5",
    "small-seqnorm-axioms-0": "fd76b891499872067648f1768259d9b65c13d7e23c0edfc01845ba946f8b1046",
    "small-weak1-stability-0": "2fbe597b307c62bce8a331993a771ff025bf6d10fd4e323aa5b449f9e783d1a0",
}

# numpy is loaded before the tool, so the tool's own one-thread setting
# cannot override the thread count given in the environment
_RENDER = """
import hashlib, json, sys
import numpy
sys.path.insert(0, sys.argv[1])
import suite_reports
print(json.dumps({
    name: hashlib.sha256(suite_reports.render(cfg).encode()).hexdigest()
    for name, cfg in suite_reports.configs().items()
    if name.startswith("small-") and name.endswith("-0")
}))
"""


def _render_hashes(threads: str) -> dict:
    env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads}
    run = subprocess.run(
        [sys.executable, "-c", _RENDER, str(TOOLS)], env=env, capture_output=True, text=True, timeout=300
    )
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout)


def test_small_seed0_reports_are_byte_identical():
    assert _render_hashes("1") == REPORT_SHA256


def test_small_seed0_reports_do_not_depend_on_blas_threads():
    assert _render_hashes("2") == REPORT_SHA256
