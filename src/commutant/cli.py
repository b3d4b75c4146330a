"""Command-line front end.

Loads matrices and algebras from JSON (or builds stock algebras from
shorthand like ``full:3``), runs any single operation or a whole suite,
and writes one JSON report.  Exit codes: 0 success, 1 a mathematical
claim failed (an ``--expect`` mismatch, a failing gallery or suite),
2 bad input or a size beyond a cap (``ResourceLimitError``), 3 an
uncertified result: a structure that could not be certified
(``StructureError``), or a ``dist`` or ``dn`` report, still written,
whose certified bracket did not close to 1e-6 relative.  ``dn`` exits 3
on most masa inputs at n >= 5, where the ascent's value stays below
twice the distance to the double commutant.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import re
import sys
from pathlib import Path

import numpy as np

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


def _load_matrix(path: str) -> np.ndarray:
    return matrix_from_json(_read_json(path))


def _emit(payload: dict, path: str) -> None:
    text = canonical_dumps(payload) + "\n"
    if path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


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


def _envelope(args, cfg: NumericConfig, inputs: dict, result: dict) -> dict:
    return {
        "command": args.command,
        "cfg": dataclasses.asdict(cfg),
        "inputs": inputs,
        "result": result,
    }


def _cmd_gen(args, cfg):
    mats = matrices_from_json(_read_json(args.generators))
    A = generate_algebra(mats, cfg, unital=not args.non_unital, star=args.star)
    result = {"algebra": algebra_to_json(A), "check": jsonable(verify_algebra(A, cfg))}
    return _envelope(args, cfg, {"generators": args.generators}, result), 0


def _cmd_commutant(args, cfg):
    A = _load_algebra(args.algebra, cfg)
    B = _load_algebra(args.ambient, cfg)
    C = relative_commutant(A, B, cfg)
    result = {"algebra": algebra_to_json(C), "dim": C.dim}
    return _envelope(args, cfg, {"algebra": args.algebra, "ambient": args.ambient}, result), 0


def _cmd_bicommutant(args, cfg):
    A = _load_algebra(args.algebra, cfg)
    B = _load_algebra(args.ambient, cfg)
    D = double_commutant(A, B, cfg)
    result = {"algebra": algebra_to_json(D), "dim": A.dim, "bicommutant_dim": D.dim}
    return _envelope(args, cfg, {"algebra": args.algebra, "ambient": args.ambient}, result), 0


def _cmd_center(args, cfg):
    A = _load_algebra(args.algebra, cfg)
    Z = center(A, cfg)
    result = {"algebra": algebra_to_json(Z), "dim": Z.dim}
    return _envelope(args, cfg, {"algebra": args.algebra}, result), 0


def _cmd_normal(args, cfg):
    A = _load_algebra(args.algebra, cfg)
    B = _load_algebra(args.ambient, cfg)
    flag, witness = is_normal(A, B, cfg)
    result = {
        "normal": bool(flag),
        "witness": None if witness is None else matrix_to_json(witness),
    }
    code = 0
    if args.expect is not None:
        wanted = args.expect == "normal"
        result["expected"] = args.expect
        if flag is not wanted:
            code = 1
    return _envelope(args, cfg, {"algebra": args.algebra, "ambient": args.ambient}, result), code


def _cmd_wedderburn(args, cfg):
    A = _load_algebra(args.algebra, cfg)
    st = wedderburn(A, cfg)
    result = {"structure": structure_to_json(st), "algebra_dim": st.algebra_dim}
    return _envelope(args, cfg, {"algebra": args.algebra}, result), 0


def _cmd_expect(args, cfg):
    T = _load_matrix(args.t)
    A = _load_algebra(args.algebra, cfg)
    E = twirl_expectation(T, A, cfg)
    D = double_commutant(A, full_matrix_algebra(A.ambient_dim), cfg)
    result = {
        "expectation": matrix_to_json(E),
        "moved": op_norm(T - E),
        "bicommutant_residual": D.space.residual(E),
    }
    return _envelope(args, cfg, {"t": args.t, "algebra": args.algebra}, result), 0


def _cmd_dist(args, cfg):
    T = _load_matrix(args.t)
    V = _load_algebra(args.space, cfg)
    rep = dist_opnorm(T, V.space, cfg)
    result = {"report": report_to_json(rep), "details": jsonable(rep.details)}
    code = 0 if rep.converged else 3
    return _envelope(args, cfg, {"t": args.t, "space": args.space}, result), code


def _cmd_dn(args, cfg):
    T = _load_matrix(args.t)
    A = _load_algebra(args.algebra, cfg)
    B = _load_algebra(args.ambient, cfg)
    rep = derivation_seminorm(T, A, B, cfg)
    result = {"report": report_to_json(rep), "details": jsonable(rep.details)}
    code = 0 if rep.converged else 3
    return _envelope(args, cfg, {"t": args.t, "algebra": args.algebra, "ambient": args.ambient}, result), code


def _cmd_kn(args, cfg):
    A = _load_algebra(args.algebra, cfg)
    B = _load_algebra(args.ambient, cfg)
    value = kn_lower_estimate(A, B, args.samples, cfg)
    result = {"kn_lower_estimate": jsonable(value), "samples": args.samples}
    return _envelope(args, cfg, {"algebra": args.algebra, "ambient": args.ambient}, result), 0


def _cmd_gallery(args, cfg):
    names = args.items.split(",") if args.items else None
    report = run_gallery(cfg, names)
    result = jsonable(report)
    code = 0 if report["passed"] else 1
    return _envelope(args, cfg, {}, result), code


def _cmd_suite(args, cfg):
    report, timings = run_suite(args.name, args.seed, jobs=args.jobs)
    if args.timings is not None:
        Path(args.timings).write_text(json.dumps(timings, sort_keys=True, indent=2) + "\n")
    # the report alone is the output: a pure function of (name, seed)
    return report, 0 if report["passed"] else 1


_HANDLERS = {
    "gen": _cmd_gen,
    "commutant": _cmd_commutant,
    "bicommutant": _cmd_bicommutant,
    "center": _cmd_center,
    "normal": _cmd_normal,
    "wedderburn": _cmd_wedderburn,
    "expect": _cmd_expect,
    "dist": _cmd_dist,
    "dn": _cmd_dn,
    "kn": _cmd_kn,
    "gallery": _cmd_gallery,
    "suite": _cmd_suite,
}


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tol", type=float, default=1e-7, help="equality tolerance")
    p.add_argument("--seed", type=int, default=0, help="RNG seed")
    p.add_argument("--restarts", type=int, default=20, help="ascent restarts")
    p.add_argument("--output", default="-", help="report path, - for stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="commutant",
        description="Finite-dimensional commutant and seminorm toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="algebra generated by matrices from a JSON file")
    p.add_argument("--generators", required=True)
    p.add_argument("--star", action="store_true", help="close under adjoints")
    p.add_argument("--non-unital", action="store_true", help="do not adjoin the identity")
    _add_common(p)

    for name, helptext in (
        ("commutant", "relative commutant of an algebra inside an ambient algebra"),
        ("bicommutant", "double commutant relative to an ambient algebra"),
        ("normal", "test whether an algebra equals its double commutant"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--algebra", required=True)
        p.add_argument("--ambient", required=True)
        if name == "normal":
            p.add_argument("--expect", choices=("normal", "nonnormal"))
        _add_common(p)

    for name, helptext in (
        ("center", "center of an algebra"),
        ("wedderburn", "block decomposition of a selfadjoint algebra"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--algebra", required=True)
        _add_common(p)

    p = sub.add_parser("expect", help="averaging projection onto the double commutant")
    p.add_argument("--t", required=True)
    p.add_argument("--algebra", required=True)
    _add_common(p)

    p = sub.add_parser("dist", help="operator-norm distance from a matrix to an algebra")
    p.add_argument("--t", required=True)
    p.add_argument("--space", required=True)
    _add_common(p)

    p = sub.add_parser("dn", help="commutant derivation seminorm")
    p.add_argument("--t", required=True)
    p.add_argument("--algebra", required=True)
    p.add_argument("--ambient", required=True)
    _add_common(p)

    p = sub.add_parser("kn", help="empirical lower bound for the metric constant")
    p.add_argument("--algebra", required=True)
    p.add_argument("--ambient", required=True)
    p.add_argument("--samples", type=int, default=200)
    _add_common(p)

    p = sub.add_parser("gallery", help="run the worked-example catalog")
    p.add_argument("--items", help="comma-separated item names (default: all)")
    _add_common(p)

    p = sub.add_parser("suite", help="run a whole verification suite")
    p.add_argument("name", choices=("acceptance", "invariants"))
    p.add_argument("--jobs", type=int, default=1, help="worker processes (at most one per task)")
    p.add_argument("--timings", help="write wall-clock timings JSON here")
    _add_common(p)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _cfg_from(args)
        payload, code = _HANDLERS[args.command](args, cfg)
        _emit(payload, args.output)
    except (InvalidInputError, ResourceLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except StructureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return code


if __name__ == "__main__":
    sys.exit(main())
