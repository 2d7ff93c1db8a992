"""Command-line front end.

Subcommands:
    norm        one sequence-class norm of an inline or file-provided sequence
    ideal       summing-norm sweep for an operator tensor read from JSON
    suite run   execute a verification suite by name or from a config file
    suite list  enumerate the available suites

Exit codes: 0 all checks passed, 1 violations or numeric failures were
recorded, 2 usage, input or config errors, an unwritable output path
included.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import __version__
from ._jsonio import (
    bracket_to_dict,
    dumps,
    multiop_from_dict,
    number_array,
    parse_space,
)
from .idealnorm import IdealSpec, ideal_norm
from .seqnorm import SeqClassSpec, VecSeq, seq_norm
from .suites import SUITE_NAMES, run_suite

USAGE_ERROR, VIOLATION, OK = 2, 1, 0


class _CliError(Exception):
    pass


def _seed(text: str) -> int:
    """A `--seed` value: numpy's generators take non-negative integers only."""
    if text.isascii() and text.isdigit():
        return int(text)
    raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")


@functools.cache  # parse_args leaves the parser as it was, so one per process serves every call
def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="seqclass",
        description="sequence-class norms and multilinear summing norms",
    )
    ap.add_argument("--version", action="version", version=f"seqclass {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    norm = sub.add_parser("norm", help="compute one sequence-class norm")
    norm.add_argument("--class", dest="cls", required=True, choices=SeqClassSpec.TAGS)
    norm.add_argument("--p", help="exponent for strong/weak/cohen, e.g. 2 or 4/3")
    norm.add_argument("--space", required=True, help="space literal, e.g. l2:3 or linf:4")
    norm.add_argument("--seq", help="inline JSON rows, e.g. [[1,0],[0,1]]")
    norm.add_argument("--seq-file", help="JSON file with the rows")
    norm.add_argument("--seed", type=_seed, default=0)
    norm.add_argument("--json", action="store_true", help="emit JSON instead of text")

    ideal = sub.add_parser("ideal", help="summing-norm sweep for an operator")
    ideal.add_argument("--op-file", required=True, help="operator tensor JSON")
    ideal.add_argument("--in-class", required=True, choices=SeqClassSpec.TAGS)
    ideal.add_argument("--in-p", help="input exponent")
    ideal.add_argument("--out-class", choices=SeqClassSpec.TAGS,
                       help="output class (defaults to the input class)")
    ideal.add_argument("--out-p", help="output exponent")
    ideal.add_argument("--k-max", type=int, default=4)
    ideal.add_argument("--restarts", type=int, default=8)
    ideal.add_argument("--seed", type=_seed, default=0)
    ideal.add_argument("--json", action="store_true")
    ideal.add_argument("--out", help="write the full JSON report (with witness) here")
    ideal.add_argument("--csv", help="write the ratio-by-k curve as CSV here")

    suite = sub.add_parser("suite", help="verification suites")
    ssub = suite.add_subparsers(dest="suite_command", required=True)
    run = ssub.add_parser("run", help="run a suite by name or config path")
    run.add_argument("target", help="suite name or config.json path")
    run.add_argument("--seed", type=_seed, help="override the config seed")
    run.add_argument("--out", help="write the JSON report here")
    run.add_argument("--csv", help="write ratio curves as CSV here")
    run.add_argument("--json", action="store_true", help="print JSON instead of the table")
    lst = ssub.add_parser("list", help="list available suites")
    lst.add_argument("--json", action="store_true")
    return ap


def _load_sequence(args) -> VecSeq:
    if (args.seq is None) == (args.seq_file is None):
        raise _CliError("provide exactly one of --seq or --seq-file")
    try:
        raw = args.seq if args.seq is not None else Path(args.seq_file).read_text()
    except OSError as exc:
        raise _CliError(f"cannot read sequence file: {exc}") from exc
    try:
        rows = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise _CliError(f"sequence is not valid JSON: {exc}") from exc
    return VecSeq(parse_space(args.space), number_array(rows, "sequence"))


def _cmd_norm(args) -> int:
    spec = SeqClassSpec(args.cls, args.p)
    s = _load_sequence(args)
    b = seq_norm(s, spec, seed=args.seed)
    if args.json:
        sys.stdout.write(dumps({"class": spec.describe(), "bracket": bracket_to_dict(b)}))
    else:
        kind = "exact" if b.exact else "estimate"
        print(f"{spec.describe()} norm of {len(s)} vectors in {s.space}:")
        print(f"  [{b.lower:.12g}, {b.upper:.12g}]  ({kind}, method={b.method}, seed={b.seed})")
    return OK


def _cmd_ideal(args) -> int:
    try:
        doc = json.loads(Path(args.op_file).read_text())
        A = multiop_from_dict(doc)
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise _CliError(f"cannot load operator: {exc}") from exc
    in_spec = SeqClassSpec(args.in_class, args.in_p)
    out_cls = args.out_class or args.in_class
    out_p = args.out_p if args.out_p is not None else (
        args.in_p if out_cls in SeqClassSpec.PARAMETRIC else None
    )
    out_spec = SeqClassSpec(out_cls, out_p)
    spec = IdealSpec((in_spec,) * A.arity, out_spec)
    est = ideal_norm(A, spec, k_max=args.k_max, restarts=args.restarts, seed=args.seed)

    doc = {
        "spec": spec.describe(),
        "bracket": bracket_to_dict(est.bracket),
        "best_k": est.best_k,
        "ratio_by_k": [[k, r] for k, r in est.ratio_by_k],
        "op_norm": bracket_to_dict(est.op_estimate.bracket),
        "witness": [w.mat.tolist() for w in est.witness],
    }
    if args.out:
        _write(args.out, dumps(doc))
    if args.csv:
        _write_csv(args.csv, [("ideal", spec.describe(), k, r) for k, r in est.ratio_by_k])
    if args.json:
        sys.stdout.write(dumps(doc))
    else:
        b = est.bracket
        print(f"summing norm {spec.describe()} of {A!r}:")
        print(f"  bracket [{b.lower:.12g}, {b.upper:.12g}]  best_k={est.best_k}")
        print(f"  op norm [{est.op_estimate.bracket.lower:.12g}, "
              f"{est.op_estimate.bracket.upper:.12g}]")
        for k, r in est.ratio_by_k:
            print(f"  k={k:<3d} ratio {r:.12g}")
        if args.out:
            print(f"  witness written to {args.out}")
    return OK


def _write(path: str, text: str) -> None:
    """Write an output file; a path that cannot be written is a usage error, not a violation."""
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise _CliError(f"cannot write {path}: {exc}") from exc


def _write_csv(path: str, rows) -> None:
    lines = ["suite,case,k,ratio"]
    for suite, case, k, ratio in rows:
        lines.append(f"{suite},{case},{k},{ratio!r}")
    _write(path, "\n".join(lines) + "\n")


def _cmd_suite_run(args) -> int:
    target = args.target
    if target.endswith(".json") or "/" in target:
        try:
            config = json.loads(Path(target).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise _CliError(f"cannot load config: {exc}") from exc
        if not isinstance(config, dict):
            raise _CliError("config must be a JSON object")
    else:
        config = {"suite": target}
    if args.seed is not None:
        config["seed"] = args.seed
    try:
        report = run_suite(config)
    except KeyError as exc:
        raise _CliError(str(exc)) from exc

    out_path = args.out or config.get("output_path")
    if out_path:
        _write(out_path, dumps(report.to_dict()))
    if args.csv:
        _write_csv(args.csv, report.csv_rows())
    if args.json:
        sys.stdout.write(dumps(report.to_dict()))
    else:
        print(report.to_text())
        if out_path:
            print(f"report written to {out_path}")
    return OK if report.passed else VIOLATION


def _cmd_suite_list(args) -> int:
    if args.json:
        sys.stdout.write(dumps(list(SUITE_NAMES)))
    else:
        for n in SUITE_NAMES:
            print(n)
    return OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code or 0)
    try:
        if args.command == "norm":
            return _cmd_norm(args)
        if args.command == "ideal":
            return _cmd_ideal(args)
        if args.command == "suite":
            if args.suite_command == "run":
                return _cmd_suite_run(args)
            return _cmd_suite_list(args)
        return USAGE_ERROR
    except (_CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
