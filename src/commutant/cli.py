"""Command-line front end.

Loads matrices and algebras from JSON (or builds stock algebras from
shorthand like ``full:3``), runs any single operation or a whole suite,
and writes one JSON report.  Exit codes: 0 success, 1 a mathematical
claim failed (an ``--expect`` mismatch, a failing gallery or suite),
2 bad input or a size beyond a cap (``ResourceLimitError``), 3 an
uncertified result: a structure that could not be certified
(``StructureError``), a ``gen`` report, still written, whose algebra
fails its own closure check, or a ``dist`` or ``dn`` report, still
written, whose certified bracket did not close to 1e-6 relative.
``dn`` exits 3 on most masa inputs at n >= 5, where the ascent's value
stays below twice the distance to the double commutant.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import re
import sys
from pathlib import Path
from typing import Callable, NamedTuple

from .algebra import (
    center,
    diagonal_algebra,
    double_commutant,
    full_matrix_algebra,
    generate_algebra,
    is_normal,
    relative_commutant,
    scalar_algebra,
    verify_algebra,
)
from .blocks import twirl_expectation, wedderburn
from .config import InvalidInputError, NumericConfig, ResourceLimitError, StructureError
from .gallery import run_gallery
from .linalg import op_norm
from .seminorms import (
    derivation_seminorm,
    dist_opnorm,
    kn_lower_estimate,
)
from .serialize import (
    algebra_from_json,
    algebra_to_json,
    canonical_dumps,
    jsonable,
    matrices_from_json,
    matrix_from_json,
    matrix_to_json,
    report_to_json,
    structure_to_json,
)
from .suites import run_suite

_SHORTHAND = re.compile(r"^(full|diag|scalars):([0-9]+)$")
_BUILDERS = {
    "full": full_matrix_algebra,
    "diag": diagonal_algebra,
    "scalars": scalar_algebra,
}


def _read_json(path: str):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise InvalidInputError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"{path} is not valid JSON: {exc}") from exc


def _load_algebra(spec: str, cfg: NumericConfig):
    """Algebra from ``full:n`` / ``diag:n`` / ``scalars:n`` or a JSON file."""
    m = _SHORTHAND.match(spec)
    if m:
        n = int(m.group(2))
        if n < 1:
            raise InvalidInputError(f"shorthand dimension must be >= 1, got {spec!r}")
        return _BUILDERS[m.group(1)](n)
    return algebra_from_json(_read_json(spec), cfg)


def _cfg_from(args) -> NumericConfig:
    tol = args.tol
    # rank decisions stay two orders sharper than equality decisions
    rank_tol = 1e-9 if tol >= 1e-7 else tol / 100.0
    return NumericConfig(
        rank_tol=rank_tol,
        eq_tol=tol,
        opt_restarts=args.restarts,
        rng_seed=args.seed,
    )


# how each input flag's value becomes an argument of the run function
_LOADERS = {
    "t": lambda path, cfg: matrix_from_json(_read_json(path)),
    "generators": lambda path, cfg: matrices_from_json(_read_json(path)),
    "algebra": _load_algebra,
    "ambient": _load_algebra,
    "space": _load_algebra,
}


def _arg(*flags, **kwargs):
    return flags, kwargs


class _Command(NamedTuple):
    """A subcommand: its input flags, in load order, feed its run function.

    run(args, cfg, *loaded) returns (result, exit code).  With envelope
    the output is {command, cfg, inputs, result}, where inputs echoes the
    input flags; without it the output is the result alone.
    """

    help: str
    inputs: tuple
    run: Callable
    extra: tuple = ()
    envelope: bool = True


def _algebra_result(C):
    return {"algebra": algebra_to_json(C), "dim": C.dim}, 0


def _bracket_result(rep):
    """dist and dn: the report is written, with exit 3 while its bracket is open."""
    return {"report": report_to_json(rep), "details": jsonable(rep.details)}, 0 if rep.converged else 3


def _gen(args, cfg, mats):
    """The algebra and its closure check, with exit 3 when the check fails."""
    A = generate_algebra(mats, cfg, unital=not args.non_unital, star=args.star)
    check = verify_algebra(A, cfg)
    return {"algebra": algebra_to_json(A), "check": jsonable(check)}, 0 if check["passed"] else 3


def _bicommutant(args, cfg, A, B):
    D = double_commutant(A, B, cfg)
    return {"algebra": algebra_to_json(D), "dim": A.dim, "bicommutant_dim": D.dim}, 0


def _normal(args, cfg, A, B):
    flag, witness = is_normal(A, B, cfg)
    result = {"normal": bool(flag), "witness": None if witness is None else matrix_to_json(witness)}
    if args.expect is None:
        return result, 0
    result["expected"] = args.expect
    return result, 0 if flag is (args.expect == "normal") else 1


def _wedderburn(args, cfg, A):
    st = wedderburn(A, cfg)
    return {"structure": structure_to_json(st), "algebra_dim": st.algebra_dim}, 0


def _expect(args, cfg, T, A):
    E = twirl_expectation(T, A, cfg)
    D = double_commutant(A, full_matrix_algebra(A.ambient_dim), cfg)
    result = {
        "expectation": matrix_to_json(E),
        "moved": op_norm(T - E),
        "bicommutant_residual": D.space.residual(E),
    }
    return result, 0


def _kn(args, cfg, A, B):
    value = kn_lower_estimate(A, B, args.samples, cfg)
    return {"kn_lower_estimate": jsonable(value), "samples": args.samples}, 0


def _gallery(args, cfg):
    report = run_gallery(cfg, args.items.split(",") if args.items else None)
    return jsonable(report), 0 if report["passed"] else 1


def _suite(args, cfg):
    report, timings = run_suite(args.name, args.seed, jobs=args.jobs)
    if args.timings is not None:
        Path(args.timings).write_text(json.dumps(timings, sort_keys=True, indent=2) + "\n")
    # the report alone is the output: a pure function of (name, seed)
    return report, 0 if report["passed"] else 1


# the order here is the order of `commutant --help`
COMMANDS = {
    "gen": _Command(
        "algebra generated by matrices from a JSON file", ("generators",), _gen, (
            _arg("--star", action="store_true", help="close under adjoints"),
            _arg("--non-unital", action="store_true", help="do not adjoin the identity"),
        )),
    "commutant": _Command(
        "relative commutant of an algebra inside an ambient algebra", ("algebra", "ambient"),
        lambda args, cfg, A, B: _algebra_result(relative_commutant(A, B, cfg))),
    "bicommutant": _Command(
        "double commutant relative to an ambient algebra", ("algebra", "ambient"), _bicommutant),
    "normal": _Command(
        "test whether an algebra equals its double commutant", ("algebra", "ambient"), _normal,
        (_arg("--expect", choices=("normal", "nonnormal")),)),
    "center": _Command(
        "center of an algebra", ("algebra",),
        lambda args, cfg, A: _algebra_result(center(A, cfg))),
    "wedderburn": _Command(
        "block decomposition of a selfadjoint algebra", ("algebra",), _wedderburn),
    "expect": _Command(
        "averaging projection onto the double commutant", ("t", "algebra"), _expect),
    "dist": _Command(
        "operator-norm distance from a matrix to an algebra", ("t", "space"),
        lambda args, cfg, T, V: _bracket_result(dist_opnorm(T, V.space, cfg))),
    "dn": _Command(
        "commutant derivation seminorm", ("t", "algebra", "ambient"),
        lambda args, cfg, T, A, B: _bracket_result(derivation_seminorm(T, A, B, cfg))),
    "kn": _Command(
        "empirical lower bound for the metric constant", ("algebra", "ambient"), _kn,
        (_arg("--samples", type=int, default=200),)),
    "gallery": _Command(
        "run the worked-example catalog", (), _gallery,
        (_arg("--items", help="comma-separated item names (default: all)"),)),
    "suite": _Command(
        "run a whole verification suite", (), _suite, (
            _arg("name", choices=("acceptance", "invariants")),
            _arg("--jobs", type=int, default=1, help="worker processes (at most one per task)"),
            _arg("--timings", help="write wall-clock timings JSON here"),
        ), envelope=False),
}

_COMMON = (
    _arg("--tol", type=float, default=1e-7, help="equality tolerance"),
    _arg("--seed", type=int, default=0, help="RNG seed"),
    _arg("--restarts", type=int, default=20, help="ascent restarts"),
    _arg("--output", default="-", help="report path, - for stdout"),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="commutant",
        description="Finite-dimensional commutant and seminorm toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, cmd in COMMANDS.items():
        p = sub.add_parser(name, help=cmd.help)
        for flag in cmd.inputs:
            p.add_argument(f"--{flag}", required=True)
        for flags, kwargs in cmd.extra + _COMMON:
            p.add_argument(*flags, **kwargs)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    cmd = COMMANDS[args.command]
    try:
        cfg = _cfg_from(args)
        loaded = [_LOADERS[flag](getattr(args, flag), cfg) for flag in cmd.inputs]
        payload, code = cmd.run(args, cfg, *loaded)
        if cmd.envelope:
            payload = {
                "command": args.command,
                "cfg": dataclasses.asdict(cfg),
                "inputs": {flag: getattr(args, flag) for flag in cmd.inputs},
                "result": payload,
            }
        text = canonical_dumps(payload) + "\n"
        if args.output == "-":
            sys.stdout.write(text)
        else:
            Path(args.output).write_text(text)
    except (InvalidInputError, ResourceLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except StructureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return code


if __name__ == "__main__":
    sys.exit(main())
