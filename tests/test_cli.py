"""End-to-end tests of the command-line interface and report contracts."""

import json
import math
import re
import subprocess
import sys

import numpy as np
import pytest

from seqclass.cli import main
from seqclass._jsonio import dumps, multiop_to_dict, parse_space
from seqclass.multiop import diag_operator
from seqclass.spaces import INF
from seqclass.suites import SUITE_NAMES, _case_note, _defaults, _gated, run_suite


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def strip_wall_time(text: str) -> str:
    return re.sub(r'"wall_time_s": [^,\n]+', '"wall_time_s": X', text)


def test_suite_list_names(capsys):
    code, out, _ = run_cli(["suite", "list"], capsys)
    names = out.split()
    assert code == 0
    assert len(names) == 10
    assert "weak1-stability" in names and "holder-identity" in names


def test_suite_list_json(capsys):
    code, out, _ = run_cli(["suite", "list", "--json"], capsys)
    assert code == 0
    assert len(json.loads(out)) == 10


def test_unknown_flag_exits_2():
    proc = subprocess.run(
        [sys.executable, "-m", "seqclass.cli", "suite", "list", "--bogus"],
        capture_output=True,
    )
    assert proc.returncode == 2


def test_unknown_suite_exits_2(capsys):
    code, _, err = run_cli(["suite", "run", "no-such-suite"], capsys)
    assert code == 2
    assert "unknown suite" in err


def test_norm_command_weak1(capsys):
    code, out, _ = run_cli(
        ["norm", "--class", "weak", "--p", "1", "--space", "l2:2",
         "--seq", "[[1,0],[0,1]]"],
        capsys,
    )
    assert code == 0
    assert f"{math.sqrt(2):.12g}" in out


def test_norm_command_json(capsys):
    code, out, _ = run_cli(
        ["norm", "--class", "rad", "--space", "l2:2", "--seq", "[[1,0],[0,1]]",
         "--json"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["bracket"]["exact"] is True
    assert doc["bracket"]["lower"] == pytest.approx(math.sqrt(2), rel=1e-12)


def test_norm_command_cohen_p1(capsys):
    code, out, _ = run_cli(
        ["norm", "--class", "cohen", "--p", "1", "--space", "l2:2",
         "--seq", "[[1,0],[0,1]]", "--json"],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["bracket"]["lower"] == pytest.approx(2.0, rel=1e-12)


def test_norm_malformed_input_exits_2(capsys):
    code, _, err = run_cli(
        ["norm", "--class", "weak", "--p", "1", "--space", "l2:2",
         "--seq", "not json"],
        capsys,
    )
    assert code == 2
    assert "error" in err


def test_norm_non_finite_sequence_exits_2(capsys):
    for seq in ("[[NaN,1],[1,2]]", "[[1,Infinity],[1,2]]", "[[1,2],[-Infinity,0]]"):
        code, out, err = run_cli(
            ["norm", "--class", "weak", "--p", "3/2", "--space", "l3:2", "--seq", seq],
            capsys,
        )
        assert code == 2
        assert "non-finite" in err
        assert out == ""


@pytest.mark.parametrize("seq, named", [
    ('[["1","2"],[true,0]]', "sequence entry '1' is not a number"),
    ("[[1,2],[true,0]]", "sequence entry True is not a number"),
    ("[[1,2],[null,0]]", "sequence entry None is not a number"),
    ("[[1,2],[1" + "0" * 400 + ",0]]", "sequence has an integer entry too large for a float"),
])
@pytest.mark.parametrize("source", ["--seq", "--seq-file"])
def test_norm_entry_that_is_not_a_number_exits_2(seq, named, source, tmp_path, capsys):
    # numpy would read "1" and true as 1.0, null as NaN, and overflow on the integer
    if source == "--seq-file":
        (tmp_path / "seq.json").write_text(seq)
        seq = str(tmp_path / "seq.json")
    code, out, err = run_cli(["norm", "--class", "sup", "--space", "l2:2", source, seq], capsys)
    assert code == 2 and out == ""
    assert named in err


@pytest.mark.parametrize("seq, shape", [
    ("[[]]", "(1, 0)"), ("[[],[]]", "(2, 0)"), ("[[1,2,3]]", "(1, 3)"), ("[1,2]", "(2,)"),
], ids=["one-empty-row", "two-empty-rows", "long-row", "a-bare-vector"])
def test_norm_rows_of_the_wrong_length_exit_2(seq, shape, capsys):
    code, out, err = run_cli(["norm", "--class", "sup", "--space", "l2:2", "--seq", seq], capsys)
    assert code == 2 and out == ""
    assert f"sequence shape {shape} does not match (k, 2)" in err


def test_norm_empty_sequence_exits_0(capsys):
    code, out, _ = run_cli(["norm", "--class", "sup", "--space", "l2:2", "--seq", "[]"], capsys)
    assert code == 0 and "0 vectors" in out


def test_norm_unreadable_seq_file_exits_2(tmp_path, capsys):
    for path in (tmp_path / "missing.json", tmp_path):
        code, out, err = run_cli(
            ["norm", "--class", "sup", "--space", "l2:2", "--seq-file", str(path)],
            capsys,
        )
        assert code == 2
        assert "cannot read sequence file" in err
        assert out == ""


def test_ideal_non_finite_operator_exits_2(tmp_path, capsys):
    for bad in (math.nan, math.inf, -math.inf):
        doc = multiop_to_dict(diag_operator(2, 2, 2))
        doc["coeffs"][1] = bad
        op_path = tmp_path / "bad.json"
        op_path.write_text(json.dumps(doc))
        code, out, err = run_cli(
            ["ideal", "--op-file", str(op_path), "--in-class", "strong", "--in-p", "1"],
            capsys,
        )
        assert code == 2
        assert "non-finite" in err
        assert out == ""


def test_ideal_negative_restarts_exits_2(tmp_path, capsys):
    op_path = tmp_path / "op.json"
    op_path.write_text(dumps(multiop_to_dict(diag_operator(2, 2, 2))))
    args = ["ideal", "--op-file", str(op_path), "--in-class", "weak", "--in-p", "1"]
    code, out, err = run_cli(args + ["--restarts", "-3"], capsys)
    assert code == 2 and out == ""
    assert "restarts must be >= 0" in err
    code, out, _ = run_cli(args + ["--restarts", "0"], capsys)
    assert code == 0 and out


@pytest.mark.parametrize("seed", ["-1", "-7", "2.5", "x"])
@pytest.mark.parametrize("seq", ["[[1,0],[0,1]]", "[[1,0.5],[0.3,1]]"], ids=["exact", "searched"])
def test_seed_must_be_non_negative_integer(seed, seq, tmp_path, capsys):
    # rejected while parsing, before any branch is chosen, naming the option
    op_path = tmp_path / "op.json"
    op_path.write_text(dumps(multiop_to_dict(diag_operator(2, 2, 2))))
    for args in (["norm", "--class", "weak", "--p", "2", "--space", "l3:2", "--seq", seq],
                 ["ideal", "--op-file", str(op_path), "--in-class", "weak", "--in-p", "2", "--k-max", "1"],
                 ["suite", "run", "decoupling"]):
        code, out, err = run_cli(args + ["--seed", seed], capsys)
        assert code == 2 and out == "", args
        assert "argument --seed: expected a non-negative integer" in err, args
    code, out, _ = run_cli(["norm", "--class", "weak", "--p", "2", "--space", "l3:2", "--seq", seq, "--seed", "0"], capsys)
    assert code == 0 and "seed=0" in out


def test_norm_requires_exponent(capsys):
    code, _, err = run_cli(
        ["norm", "--class", "weak", "--space", "l2:2", "--seq", "[[1,0]]"], capsys
    )
    assert code == 2


def test_ideal_command(tmp_path, capsys):
    D = diag_operator(2, 4, 2)
    op_path = tmp_path / "op.json"
    op_path.write_text(dumps(multiop_to_dict(D)))
    out_path = tmp_path / "est.json"
    csv_path = tmp_path / "curve.csv"
    code, out, _ = run_cli(
        ["ideal", "--op-file", str(op_path), "--in-class", "weak", "--in-p", "2",
         "--k-max", "4", "--seed", "3", "--json",
         "--out", str(out_path), "--csv", str(csv_path)],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["bracket"]["lower"] >= 2.0 - 1e-6  # sqrt(4) via the basis witness
    saved = json.loads(out_path.read_text())
    assert saved["best_k"] == doc["best_k"]
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "suite,case,k,ratio"
    assert len(lines) == 1 + 4


def test_ideal_command_identity_holder(tmp_path, capsys):
    from seqclass.multiop import scalar_multiplication

    op_path = tmp_path / "id.json"
    op_path.write_text(dumps(multiop_to_dict(scalar_multiplication(2))))
    code, out, _ = run_cli(
        ["ideal", "--op-file", str(op_path), "--in-class", "strong", "--in-p", "2",
         "--out-class", "strong", "--out-p", "1", "--k-max", "3", "--json"],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["bracket"]["lower"] == pytest.approx(1.0, abs=1e-9)


def test_ideal_zero_operator(tmp_path, capsys):
    D = diag_operator(2, 2, 2)
    doc = multiop_to_dict(D)
    doc["coeffs"] = [0.0] * len(doc["coeffs"])
    op_path = tmp_path / "zero.json"
    op_path.write_text(dumps(doc))
    code, out, _ = run_cli(
        ["ideal", "--op-file", str(op_path), "--in-class", "strong", "--in-p", "1",
         "--json"],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["bracket"]["lower"] == 0.0


def test_ideal_bad_shape_exits_2(tmp_path, capsys):
    doc = multiop_to_dict(diag_operator(2, 2, 2))
    doc["shape"] = [2, 2, 3]
    op_path = tmp_path / "bad.json"
    op_path.write_text(dumps(doc))
    code, _, err = run_cli(
        ["ideal", "--op-file", str(op_path), "--in-class", "strong", "--in-p", "1"],
        capsys,
    )
    assert code == 2


@pytest.mark.parametrize("text", [
    '{"domain":[{"dim":null,"q":"2"}],"codomain":{"dim":1,"q":"2"},"coeffs":[1.0]}',
    '[1, 2]',
    '{"domain":5,"codomain":{"dim":1,"q":"2"},"coeffs":[1.0]}',
    '{"domain":[{"dim":1,"q":null}],"codomain":{"dim":1,"q":"2"},"coeffs":[[1.0]]}',
    '{"domain":[{"dim":2.9,"q":"2"}],"codomain":{"dim":1,"q":"2"},"coeffs":[[1.0],[2.0]]}',
    '{"domain":[{"dim":true,"q":"2"}],"codomain":{"dim":1,"q":"2"},"coeffs":[[1.0]]}',
    '{"domain":[{"dim":1,"q":"2"}],"codomain":{"dim":1,"q":"2"},"shape":[1.7,1],"coeffs":[1.0]}',
    '{"domain":[{"dim":1,"q":"2"}],"codomain":{"dim":2,"q":"2"},"coeffs":[["1",true]]}',
], ids=["null-dim", "not-an-object", "domain-not-a-list", "null-exponent", "float-dim",
        "bool-dim", "float-shape", "string-and-bool-coeffs"])
def test_ideal_malformed_operator_document_exits_2(tmp_path, capsys, text):
    op_path = tmp_path / "bad.json"
    op_path.write_text(text)
    code, out, err = run_cli(
        ["ideal", "--op-file", str(op_path), "--in-class", "weak", "--in-p", "1", "--k-max", "2"],
        capsys,
    )
    assert code == 2
    assert "cannot load operator" in err
    assert out == ""


def test_suite_run_growth_and_exit_zero(tmp_path, capsys):
    out_path = tmp_path / "growth.json"
    csv_path = tmp_path / "growth.csv"
    code, out, _ = run_cli(
        ["suite", "run", "growth", "--out", str(out_path),
         "--csv", str(csv_path)],
        capsys,
    )
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["summary"]["violations"] == 0
    rows = csv_path.read_text().strip().splitlines()
    assert rows[0] == "suite,case,k,ratio"
    got = {}
    for line in rows[1:]:
        suite, case, k, ratio = line.split(",")
        if case == "growth-p2-n2":
            got[int(k)] = float(ratio)
    assert got[16] == pytest.approx(4.0, abs=1e-6)


def test_suite_report_determinism(tmp_path, capsys):
    texts = []
    for i in range(2):
        path = tmp_path / f"r{i}.json"
        code, _, _ = run_cli(
            ["suite", "run", "decoupling", "--seed", "5",
             "--out", str(path)],
            capsys,
        )
        assert code == 0
        texts.append(strip_wall_time(path.read_text()))
    assert texts[0] == texts[1]


@pytest.mark.parametrize("command, bad", [
    ("suite", "--out"), ("suite", "--csv"), ("suite", "output_path"), ("ideal", "--out"), ("ideal", "--csv"),
])
@pytest.mark.parametrize("path", ["missing/x.json", "."], ids=["missing-directory", "a-directory"])
def test_unwritable_output_path_exits_2(command, bad, path, tmp_path, capsys):
    # exit 1 would read as a violation; the command runs, then its write fails
    target = str(tmp_path / path)
    if command == "ideal":
        op_path = tmp_path / "op.json"
        op_path.write_text(dumps(multiop_to_dict(diag_operator(2, 2, 2))))
        args = ["ideal", "--op-file", str(op_path), "--in-class", "weak", "--in-p", "1", "--k-max", "2"]
    elif bad == "output_path":
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"suite": "growth", "output_path": target}))
        args = ["suite", "run", str(cfg_path)]
    else:
        args = ["suite", "run", "growth"]
    if bad != "output_path":
        args += [bad, target]
    code, out, err = run_cli(args, capsys)
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot write {target}: ")
    assert "Traceback" not in err


def test_suite_config_file_round_trip(tmp_path, capsys):
    cfg = {"suite": "growth", "seed": 9,
           "curves": [{"p": "2", "n": 2, "k_list": [1, 4]}]}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out_path = tmp_path / "rep.json"
    code, _, _ = run_cli(
        ["suite", "run", str(cfg_path), "--out", str(out_path)], capsys
    )
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["seed"] == 9
    assert doc["config"]["curves"][0]["k_list"] == [1, 4]


@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_suite_config_unknown_key_exits_2(suite, tmp_path, capsys):
    # every key of another suite's defaults that this suite does not read,
    # an unknown key, and the keys that once moved a pass/fail threshold;
    # every threshold is a constant, so no default is a float
    defaults = {name: _defaults(name) for name in SUITE_NAMES}
    assert not any(isinstance(v, float) for v in defaults[suite].values())
    foreign = sorted(set().union(*defaults.values()) - set(defaults[suite]))
    assert foreign
    bad = [({key: 1}, key) for key in foreign + ["bogus"]]
    bad += [({"tolerances": {"slack": 1}}, "tolerances"), ({"band": 0.5}, "band")]
    bad += [({"attainment_floor": 0}, "attainment_floor")]
    cfg_path = tmp_path / "cfg.json"
    for extra, key in bad:
        cfg_path.write_text(json.dumps({"suite": suite, **extra}))
        code, out, err = run_cli(["suite", "run", str(cfg_path)], capsys)
        assert code == 2, (suite, key)
        assert key in err and out == ""


@pytest.mark.parametrize(
    "suite, values, key",
    [
        ("decoupling", {"arities": []}, "arities"),
        ("rad-stability", {"arities": [], "trials": 1}, "arities"),
        ("growth", {"curves": []}, "curves"),
        ("linear-stability", {"dims": [], "trials": 1}, "dims"),
        ("weak1-stability", {"trials": 1, "attainment_ops": 1}, "trials"),
        ("decoupling", {"trials": 1, "arities": [2, 3]}, "trials"),
        ("seqnorm-axioms", {"trials": 0}, "trials"),
        ("seqnorm-axioms", {"trials": 2, "k_max": 2}, "trials"),
        ("ideal-axioms", {"trials": 1}, "trials"),
        ("cohen-stability", {"trials": 0}, "trials"),
        ("holder-identity", {"trials": 1, "k_max": 0}, "k_max"),
        ("weak1-stability", {"trials": 2, "k_max": 2, "attainment_ops": 0}, "attainment_ops"),
        ("limit-stability", {"families": 1, "k_max": 2}, "families"),
        ("limit-stability", {"families": 2, "k_max": 2, "restarts": 0}, "restarts"),
    ],
)
def test_suite_config_checking_nothing_exits_2(suite, values, key, tmp_path, capsys):
    # each config would run a case with no trial in it, or crash while its cases are made
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"suite": suite, **values}))
    code, out, err = run_cli(["suite", "run", str(cfg_path)], capsys)
    assert code == 2 and out == ""
    assert repr(key) in err


@pytest.mark.parametrize(
    "suite, values, key",
    [
        ("decoupling", {"trials": "0"}, "trials"),
        ("holder-identity", {"trials": "0"}, "trials"),
        ("decoupling", {"trials": True, "arities": [2]}, "trials"),
        ("decoupling", {"trials": 2.5}, "trials"),
        ("seqnorm-axioms", {"exponents": [-math.inf]}, "exponents"),
        ("decoupling", {"k_max": 0.5}, "k_max"),
        ("decoupling", {"dims": [0, 2]}, "dims"),
        ("decoupling", {"dims": 3}, "dims"),
        ("decoupling", {"arities": [2.0]}, "arities"),
        ("growth", {"curves": [5]}, "curves"),
        ("seqnorm-axioms", {"exponents": [[1]]}, "exponents"),
        ("seqnorm-axioms", {"exponents": ["1/0"]}, "exponents"),
        ("seqnorm-axioms", {"exponents": [True]}, "exponents"),
        ("growth", {"curves": [{"p": "1/2", "n": 2, "k_list": [1]}]}, "curves"),
        ("growth", {"curves": [{"p": "2", "n": 2, "k_list": []}]}, "k_list"),
        ("growth", {"curves": [{"p": "2", "n": 2}]}, "curves"),
        ("holder-identity", {"band": "0.95"}, "band"),
        ("decoupling", {"seed": "5"}, "seed"),
        ("decoupling", {"seed": -1}, "seed"),
        ("decoupling", {"output_path": 5}, "output_path"),
        ("growth", {"curves": [{"p": "2", "n": 1, "k_list": [1, 4]}]}, "curves"),
        ("growth", {"curves": [{"p": "inf", "n": 2, "k_list": [1, 4]}]}, "curves"),
        ("growth", {"curves": [{"p": "1", "n": 2, "k_list": [1, 4]}]}, "curves"),
        ("seqnorm-axioms", {"exponents": ["1e400"]}, "exponents"),
        ("growth", {"curves": [{"p": "1e400", "n": 2, "k_list": [1, 4]}]}, "curves"),
    ],
)
def test_suite_config_mistyped_value_exits_2(suite, values, key, tmp_path, capsys):
    # each value is typed against its default, and each growth curve checked
    # against the theorem's range, before any case runs; an uncaught
    # exception (a traceback from the command line) fails the test
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"suite": suite, **values}))
    code, out, err = run_cli(["suite", "run", str(cfg_path)], capsys)
    assert code == 2 and out == ""
    assert repr(key) in err


def test_suite_report_config_is_builder_defaults_plus_given_values():
    report = run_suite({"suite": "decoupling", "trials": 4, "dims": [2], "seed": 2})
    expected = {**_defaults("decoupling"), "trials": 4, "dims": [2]}
    assert report.config == {**expected, "seed": 2}


@pytest.mark.parametrize(
    "args",
    [
        ["norm", "--class", "weak", "--p", "1/0", "--space", "l2:2", "--seq", "[[1,0]]"],
        ["norm", "--class", "sup", "--space", "l1/0:2", "--seq", "[[1,0]]"],
        ["ideal", "--in-class", "weak", "--in-p", "1/0"],
        ["ideal", "--in-class", "weak", "--in-p", "2", "--out-p", "1/0"],
    ],
)
def test_zero_denominator_exponent_exits_2(args, tmp_path, capsys):
    op_path = tmp_path / "op.json"
    op_path.write_text(dumps(multiop_to_dict(diag_operator(2, 2, 2))))
    if args[0] == "ideal":
        args = args + ["--op-file", str(op_path), "--k-max", "1"]
    code, out, err = run_cli(args, capsys)
    assert code == 2 and out == ""
    assert "zero denominator" in err


@pytest.mark.parametrize(
    "args",
    [
        ["--class", "strong", "--p", "1e400", "--space", "l2:2"],
        ["--class", "sup", "--space", "l1e400:2"],
    ],
)
def test_exponent_too_large_for_a_float_exits_2(args, capsys):
    code, out, err = run_cli(["norm", *args, "--seq", "[[1,2],[3,4]]"], capsys)
    assert code == 2 and out == ""
    assert "'1e400' is too large for a float" in err


def test_case_records_recompute_verdict(tmp_path, capsys):
    out_path = tmp_path / "rep.json"
    code, _, _ = run_cli(
        ["suite", "run", "growth", "--out", str(out_path)], capsys
    )
    assert code == 0
    doc = json.loads(out_path.read_text())
    for case in doc["cases"]:
        law = case["law"]
        p = law.split("1/")[1].rstrip(")")
        num, _, den = p.partition("/")
        pf = float(num) / float(den or 1)
        worst = max(abs(r - k ** (1 / pf)) for k, r in case["curve"])
        assert (worst <= 1e-6) == case["passed"]


#: A config per suite small enough to run every suite in a few seconds.
_TINY = {
    "seqnorm-axioms": {"trials": 3, "k_max": 2, "dims": [1, 2]},
    "linear-stability": {"trials": 1, "k_max": 2, "dims": [1, 2]},
    "weak1-stability": {"trials": 2, "k_max": 3, "attainment_ops": 1, "attainment_k_max": 2},
    "rad-stability": {"trials": 4, "k_max": 3},
    "cohen-stability": {"trials": 1, "k_max": 2, "dims": [1, 2]},
    "growth": {"curves": [{"p": "2", "n": 2, "k_list": [1, 4]}]},
    "decoupling": {"trials": 8, "k_max": 3},
    "holder-identity": {"trials": 1, "k_max": 2},
    "ideal-axioms": {"trials": 2, "k_max": 2},
    "limit-stability": {"families": 2, "k_max": 2, "restarts": 1},
}


@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_every_case_records_the_number_of_its_verdict(suite):
    # `_case_note` names the first of its keys a record holds, "" if none
    report = run_suite({"suite": suite, **_TINY[suite]})
    notes = {c["name"]: _case_note(c).partition("=") for c in report.cases}
    unread = [
        name for name, (key, _, x) in notes.items()
        if key not in ("max_ratio_over_ceiling", "value") or not math.isfinite(float(x))
    ]
    assert unread == []


def test_gated_reads_the_worst_scripted_margin_against_its_gate():
    seen = []

    def margin(rng, t):
        seen.append((t, rng.random()))
        return [-1.0, 2.0, 0.5][t]

    assert _gated(4, 7, 3, margin, 1.0) == {"passed": False, "value": 2.0, "trials": 3}
    # one generator, seeded [seed, key], serves every trial in turn
    assert seen == list(zip([0, 1, 2], np.random.default_rng([4, 7]).random(3)))
    seen.clear()
    assert _gated(4, 7, 3, margin, 2.0) == {"passed": True, "value": 2.0, "trials": 3}  # equality passes
    # a NaN margin, first or in the middle, is the worst: `max(worst, nan)` keeps `worst`
    for margins in ([math.nan, -1.0, 0.5], [-1.0, math.nan, 0.5]):
        case = _gated(4, 7, 3, lambda rng, t: margins[t], 1.0)
        assert case["passed"] is False and math.isnan(case["value"]) and case["trials"] == 3, margins


def test_parse_space_literals():
    s = parse_space("l2:3")
    assert s.dim == 3 and float(s.q) == 2.0
    assert parse_space("linf:4").q == INF
    from fractions import Fraction

    assert parse_space("l4/3:2").q == Fraction(4, 3)
    with pytest.raises(ValueError):
        parse_space("x2:3")


def test_float_formatting_17_digits():
    text = dumps({"x": 1 / 3})
    assert "0.33333333333333331" in text
    assert json.loads(text)["x"] == 1 / 3  # lossless round-trip


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "seqclass.cli", "--version"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "seqclass" in proc.stdout
