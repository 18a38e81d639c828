"""Command-line front end: construct, validate, simulate, sweep, search.

Exit codes: 0 success, 1 validation/simulation failure, 2 usage error.
--format takes only the formats a subcommand writes. The default output
format can be set via the PDMM_FORMAT environment variable (json, csv, or
pretty); any other value is a usage error. A subcommand that does not write
it writes its own default: pretty, or CSV for `sweep`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .degrees import (
    DegreeVectors,
    ParameterError,
    addition_table,
    construct_cat_x,
    construct_dog_rs,
    construct_gasp_r,
    construct_gasp_rs,
    quadrants,
    table_from_dict,
    table_to_dict,
    validate_degree_table,
)
from .field import FieldError
from .scheme import (
    SchemeError,
    SplitMix64,
    instantiate_degree_table,
    multiply_via_scheme,
    verify_privacy_rank,
)
from .search import SweepRecord, best_scheme, sweep

FAMILIES = ("catx", "gasp-r", "gasp-rs", "dog-rs", "gasp-small", "gasp-big")

FORMATS = ("json", "csv", "pretty")

CSV_HEADER = (
    "K,L,T,N_catx,N_gaspr,r_gaspr,N_gasprs,r_gasprs,s_gasprs,"
    "N_dogrs,r_dogrs,s_dogrs,winner,margin"
)


def build_degree_vectors(family: str, k: int, l: int, t: int, r=None, s=None, x=1):
    """Construct the degree table for a family token; returns (dv, params)."""
    if family == "catx":
        return construct_cat_x(k, l, t, x), {"x": x}
    if family == "gasp-small":
        return construct_gasp_r(k, l, t, 1), {"r": 1}
    if family == "gasp-big":
        r_big = min(k, t)
        return construct_gasp_r(k, l, t, r_big), {"r": r_big}
    if family == "gasp-r":
        if r is None:
            raise ParameterError("gasp-r requires -r")
        return construct_gasp_r(k, l, t, r), {"r": r}
    if family == "gasp-rs":
        if r is None or s is None:
            raise ParameterError("gasp-rs requires -r and -s")
        return construct_gasp_rs(k, l, t, r, s), {"r": r, "s": s}
    if family == "dog-rs":
        if r is None or s is None:
            raise ParameterError("dog-rs requires -r and -s")
        return construct_dog_rs(k, l, t, r, s), {"r": r, "s": s}
    raise ParameterError(f"unknown family: {family}")


def render_table(dv: DegreeVectors) -> str:
    """The (K+T) x (L+T) addition table with the beta vector as the header
    row and the alpha vector as the header column, integer-aligned."""
    grid = [[""] + [str(b) for b in dv.beta_p + dv.beta_s]]
    for a, row in zip(dv.alpha_p + dv.alpha_s, addition_table(dv).tolist()):
        grid.append([str(a)] + [str(v) for v in row])
    widths = [max(len(row[j]) for row in grid) for j in range(len(grid[0]))]
    return "\n".join(
        "  ".join(v.rjust(w) for v, w in zip(row, widths)) for row in grid
    )


def _emit(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _require_klt(args):
    if args.K is None or args.L is None or args.T is None:
        raise ParameterError("-K, -L and -T are required")


def cmd_construct(args) -> int:
    _require_klt(args)
    if not args.family:
        raise ParameterError("construct requires --family")
    dv, params = build_degree_vectors(
        args.family, args.K, args.L, args.T, args.r, args.s, args.x
    )
    n = quadrants(dv).n_unique
    if args.format == "json":
        _emit(json.dumps(table_to_dict(args.family, dv, params), indent=2), args.output)
    else:
        lines = [render_table(dv)]
        if dv.modulus is not None:
            lines.append(f"q = {dv.modulus}")
        lines.append(f"N = {n}")
        _emit("\n".join(lines), args.output)
    return 0


def _report_to_dict(report) -> dict:
    return {
        "valid": report.valid,
        "flags": report.flags,
        "n_unique": report.n_unique,
        "witnesses": [list(w) for w in report.witnesses],
    }


def cmd_validate(args) -> int:
    if args.table:
        with open(args.table) as fh:
            dv = table_from_dict(json.load(fh))
    else:
        if not args.family:
            raise ParameterError("validate requires --family or --table")
        _require_klt(args)
        dv, _ = build_degree_vectors(
            args.family, args.K, args.L, args.T, args.r, args.s, args.x
        )
    report = validate_degree_table(dv)
    if args.format == "json":
        _emit(json.dumps(_report_to_dict(report), indent=2), args.output)
    else:
        lines = [
            f"{cond}: {'pass' if ok else 'FAIL'}" for cond, ok in sorted(report.flags.items())
        ]
        lines.append(f"N = {report.n_unique}")
        for label, value in report.witnesses:
            lines.append(f"collision witness: {label} {value}")
        _emit("\n".join(lines), args.output)
    return 0 if report.valid else 1


def _exact_product(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a·b mod p in Python ints (object dtype): it cannot wrap at any p and
    shares no arithmetic with the scheme it checks."""
    return (a.astype(object) @ b.astype(object)) % p


def cmd_simulate(args) -> int:
    try:
        r_a, c_a, c_b = (int(v) for v in args.dims.lower().split("x"))
    except ValueError:
        raise ParameterError(f"--dims must look like 4x4x4, got {args.dims}")
    if min(r_a, c_a, c_b) < 1:
        raise ParameterError("matrix dimensions must be positive")
    _require_klt(args)
    if not args.family:
        raise ParameterError("simulate requires --family")
    dv, params = build_degree_vectors(
        args.family, args.K, args.L, args.T, args.r, args.s, args.x
    )
    scheme = instantiate_degree_table(dv, min_p=args.min_p, family=args.family, params=params)
    p = scheme.field.p
    rng = SplitMix64(args.seed)
    a = rng.matrix(r_a, c_a, p)
    b = rng.matrix(c_a, c_b, p)
    product = multiply_via_scheme(scheme, a, b, seed=args.seed)
    exact = bool(np.array_equal(product, _exact_product(a, b, p)))
    privacy = verify_privacy_rank(scheme)

    pad_rows = (-r_a) % dv.k
    pad_cols = (-c_b) % dv.l
    task_a = ((r_a + pad_rows) // dv.k, c_a)
    task_b = (c_a, (c_b + pad_cols) // dv.l)
    lines = [
        f"p = {p}",
        f"q = {dv.modulus if dv.modulus is not None else scheme.params.get('q', '-')}",
        f"N = {scheme.n_workers}",
        f"task shapes: A share {task_a[0]}x{task_a[1]}, B share {task_b[0]}x{task_b[1]}",
    ]
    if pad_rows or pad_cols:
        lines.append(f"padding: {pad_rows} rows, {pad_cols} cols")
    lines.append("decode: exact match" if exact else "decode: MISMATCH")
    lines.append(f"privacy rank: {'pass' if privacy.ok else 'FAIL'}")
    lines.append(f"privacy certificate: {privacy.level}")
    _emit("\n".join(lines), args.output)
    return 0 if exact and privacy.ok else 1


def _csv_row(rec: SweepRecord) -> str:
    def opt(choice, attr):
        if choice is None:
            return ""
        v = getattr(choice, attr)
        return "" if v is None else str(v)

    fields = [
        str(rec.k), str(rec.l), str(rec.t),
        opt(rec.catx, "n_workers"),
        str(rec.gasp_r.n_workers), opt(rec.gasp_r, "r"),
        str(rec.gasp_rs.n_workers), opt(rec.gasp_rs, "r"), opt(rec.gasp_rs, "s"),
        str(rec.dog_rs.n_workers), opt(rec.dog_rs, "r"), opt(rec.dog_rs, "s"),
        rec.winner, str(rec.margin),
    ]
    return ",".join(fields)


def _record_to_dict(rec: SweepRecord) -> dict:
    def choice(c):
        if c is None:
            return None
        return {k: v for k, v in (("family", c.family), ("N", c.n_workers),
                                  ("r", c.r), ("s", c.s), ("x", c.x)) if v is not None}

    return {
        "K": rec.k, "L": rec.l, "T": rec.t,
        "catx": choice(rec.catx),
        "gasp_r": choice(rec.gasp_r),
        "gasp_rs": choice(rec.gasp_rs),
        "dog_rs": choice(rec.dog_rs),
        "winner": rec.winner,
        "margin": rec.margin,
        "polegap": rec.polegap,
        "dog_saving": float(rec.dog_saving),
        "gasp_rs_saving": float(rec.gasp_rs_saving),
    }


def _parse_range(spec: str) -> list[int]:
    """'2..5' inclusive, or a comma list '2,4,6', or a single value."""
    if ".." in spec:
        lo, hi = spec.split("..")
        return list(range(int(lo), int(hi) + 1))
    return [int(v) for v in spec.split(",")]


def cmd_sweep(args) -> int:
    if args.mode == "KequalsL" and args.L_range is not None:
        raise ParameterError("--L-range is not read in KequalsL mode, where L = K")
    records = sweep(
        _parse_range(args.K_range),
        _parse_range(args.L_range) if args.L_range else _parse_range(args.K_range),
        _parse_range(args.T_range),
        mode=args.mode,
    )
    if args.format == "json":
        _emit(json.dumps([_record_to_dict(r) for r in records], indent=2), args.output)
    else:
        _emit("\n".join([CSV_HEADER] + [_csv_row(r) for r in records]), args.output)
    return 0


def cmd_search(args) -> int:
    _require_klt(args)
    rec = best_scheme(args.K, args.L, args.T)
    if args.format == "json":
        _emit(json.dumps(_record_to_dict(rec), indent=2), args.output)
    elif args.format == "csv":
        _emit("\n".join([CSV_HEADER, _csv_row(rec)]), args.output)
    else:
        lines = []
        for name, choice in rec.choices.items():
            if choice is None:
                lines.append(f"{name:8s} -")
                continue
            extras = " ".join(
                f"{k}={v}" for k, v in (("r", choice.r), ("s", choice.s), ("x", choice.x))
                if v is not None
            )
            lines.append(f"{name:8s} N={choice.n_workers}" + (f"  {extras}" if extras else ""))
        lines.append(f"winner: {rec.winner} (margin {rec.margin}, PoleGap {rec.polegap})")
        _emit("\n".join(lines), args.output)
    return 0


def _env_format() -> str | None:
    """PDMM_FORMAT, or None when it is unset or empty."""
    value = os.environ.get("PDMM_FORMAT") or None
    if value is not None and value not in FORMATS:
        raise ParameterError(
            f"PDMM_FORMAT must be one of {', '.join(FORMATS)}, got {value!r}"
        )
    return value


def _add_output(sub, formats, env_format):
    """--format, choosing from the formats the subcommand writes, its
    default first, with PDMM_FORMAT as the default when it is one, and -o."""
    sub.add_argument(
        "--format", choices=formats, default=env_format if env_format in formats else formats[0]
    )
    sub.add_argument("-o", "--output", default=None)


def _add_common(sub, formats, env_format, with_family=True, with_seed=False):
    """-K -L -T, --format and -o; with_family adds the table flags --family,
    -r, -s and -x, with_seed the simulation flags --seed and --min-p."""
    if with_family:
        sub.add_argument("--family", choices=FAMILIES)
    sub.add_argument("-K", type=int)
    sub.add_argument("-L", type=int)
    sub.add_argument("-T", type=int)
    if with_family:
        sub.add_argument("-r", type=int)
        sub.add_argument("-s", type=int)
        sub.add_argument("-x", type=int, default=1)
    if with_seed:
        sub.add_argument("--seed", type=int, default=0)
        sub.add_argument("--min-p", dest="min_p", type=int, default=0)
    _add_output(sub, formats, env_format)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pdmm",
        description="Polynomial-code schemes for private distributed matrix multiplication",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    env_format = _env_format()

    p_construct = subs.add_parser("construct", help="print a degree table and its N")
    _add_common(p_construct, ("pretty", "json"), env_format)

    p_validate = subs.add_parser("validate", help="check the scheme conditions")
    _add_common(p_validate, ("pretty", "json"), env_format)
    p_validate.add_argument("--table", help="JSON file holding a degree table")

    p_simulate = subs.add_parser("simulate", help="run the full pipeline on random inputs")
    _add_common(p_simulate, ("pretty",), env_format, with_seed=True)
    p_simulate.add_argument("--dims", required=True, help="rAxcAxcB, e.g. 4x4x4")

    p_sweep = subs.add_parser("sweep", help="compare families over a grid")
    p_sweep.add_argument("--K-range", dest="K_range", required=True)
    p_sweep.add_argument("--L-range", dest="L_range")
    p_sweep.add_argument("--T-range", dest="T_range", required=True)
    p_sweep.add_argument("--mode", choices=("KequalsL", "full"), default="full")
    _add_output(p_sweep, ("csv", "json"), env_format)

    p_search = subs.add_parser("search", help="best parameters at one grid point")
    _add_common(p_search, ("pretty", "json", "csv"), env_format, with_family=False)

    return parser


def main(argv=None) -> int:
    try:
        parser = build_parser()
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    handlers = {
        "construct": cmd_construct,
        "validate": cmd_validate,
        "simulate": cmd_simulate,
        "sweep": cmd_sweep,
        "search": cmd_search,
    }
    try:
        return handlers[args.command](args)
    except (ParameterError, SchemeError, FieldError, OSError, ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint():
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
