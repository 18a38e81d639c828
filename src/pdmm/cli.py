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
from dataclasses import asdict

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
    partition_a,
    partition_b,
    verify_privacy_rank,
)
from .search import SweepRecord, best_scheme, sweep

FAMILIES = ("catx", "gasp-r", "gasp-rs", "dog-rs", "gasp-small", "gasp-big")

FORMATS = ("json", "csv", "pretty")

# Each family's SweepRecord attribute, which upper-cased is its name in
# `search`'s text, and the SchemeChoice fields of its CSV columns. A column
# is named field_attribute without underscores, n_workers as N: N_gaspr.
_COLUMNS = (
    ("catx", ("n_workers",)),
    ("gasp_r", ("n_workers", "r")),
    ("gasp_rs", ("n_workers", "r", "s")),
    ("dog_rs", ("n_workers", "r", "s")),
)

CSV_HEADER = ",".join(
    ["K", "L", "T"]
    + [f"{'N' if f == 'n_workers' else f}_{key.replace('_', '')}"
       for key, fields in _COLUMNS for f in fields]
    + ["winner", "margin"]
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


def _table(args):
    """The degree table and params that the table flags name."""
    return build_degree_vectors(args.family, args.K, args.L, args.T, args.r, args.s, args.x)


def cmd_construct(args) -> int:
    dv, params = _table(args)
    if args.format == "json":
        _emit(json.dumps(table_to_dict(args.family, dv, params), indent=2), args.output)
    else:
        lines = [render_table(dv)]
        if dv.modulus is not None:
            lines.append(f"q = {dv.modulus}")
        lines.append(f"N = {quadrants(dv).n_unique}")
        _emit("\n".join(lines), args.output)
    return 0


def cmd_validate(args) -> int:
    if args.table:
        with open(args.table) as fh:
            dv = table_from_dict(json.load(fh))
    elif not args.family:
        raise ParameterError("validate requires --family or --table")
    elif None in (args.K, args.L, args.T):
        raise ParameterError("-K, -L and -T are required")
    else:
        dv, _ = _table(args)
    report = validate_degree_table(dv)
    if args.format == "json":
        _emit(json.dumps({"valid": report.valid, **asdict(report)}, indent=2), args.output)
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
    dv, params = _table(args)
    scheme = instantiate_degree_table(dv, min_p=args.min_p, family=args.family, params=params)
    p = scheme.field.p
    rng = SplitMix64(args.seed)
    a = rng.matrix(r_a, c_a, p)
    b = rng.matrix(c_a, c_b, p)
    product = multiply_via_scheme(scheme, a, b, seed=args.seed)
    exact = bool(np.array_equal(product, _exact_product(a, b, p)))
    privacy = verify_privacy_rank(scheme)

    a_parts, b_parts = partition_a(a, dv.k), partition_b(b, dv.l)
    (ar, ac), (br, bc) = a_parts.blocks[0].shape, b_parts.blocks[0].shape
    lines = [
        f"p = {p}",
        f"q = {scheme.params['q']}",
        f"N = {scheme.n_workers}",
        f"task shapes: A share {ar}x{ac}, B share {br}x{bc}",
    ]
    if a_parts.padding or b_parts.padding:
        lines.append(f"padding: {a_parts.padding} rows, {b_parts.padding} cols")
    lines.append("decode: exact match" if exact else "decode: MISMATCH")
    lines.append(f"privacy rank: {'pass' if privacy.ok else 'FAIL'}")
    lines.append(f"privacy certificate: {privacy.level}")
    _emit("\n".join(lines), args.output)
    return 0 if exact and privacy.ok else 1


def _choice_to_dict(choice) -> dict | None:
    if choice is None:
        return None
    fields = (("family", choice.family), ("N", choice.n_workers),
              ("r", choice.r), ("s", choice.s), ("x", choice.x))
    return {k: v for k, v in fields if v is not None}


def _record_to_dict(rec: SweepRecord) -> dict:
    return {
        "K": rec.k, "L": rec.l, "T": rec.t,
        **{key: _choice_to_dict(getattr(rec, key)) for key, _ in _COLUMNS},
        "winner": rec.winner,
        "margin": rec.margin,
        "polegap": rec.polegap,
        "dog_saving": float(rec.dog_saving),
        "gasp_rs_saving": float(rec.gasp_rs_saving),
    }


def _csv_row(rec: SweepRecord) -> str:
    """One CSV line; a family without a construction, or a parameter it
    lacks, is an empty cell. It reads the record itself: the dict that
    `_record_to_dict` builds, with its two exact savings, costs more per
    grid point than the rest of a sweep's rendering."""
    cells = [str(rec.k), str(rec.l), str(rec.t)]
    for key, fields in _COLUMNS:
        choice = getattr(rec, key)
        for f in fields:
            v = getattr(choice, f, None)  # None also for a family without one
            cells.append("" if v is None else str(v))
    return ",".join(cells + [rec.winner, str(rec.margin)])


def _parse_range(spec: str) -> list[int]:
    """'2..5' inclusive, or a comma list '2,4,6', or a single value."""
    if ".." in spec:
        lo, hi = spec.split("..")
        return list(range(int(lo), int(hi) + 1))
    return [int(v) for v in spec.split(",")]


def cmd_sweep(args) -> int:
    if args.mode == "KequalsL" and args.L_range is not None:
        raise ParameterError("--L-range is not read in KequalsL mode, where L = K")
    l_spec = None if args.mode == "KequalsL" else args.L_range or args.K_range
    records = sweep(
        _parse_range(args.K_range),
        None if l_spec is None else _parse_range(l_spec),
        _parse_range(args.T_range),
    )
    if args.format == "json":
        _emit(json.dumps([_record_to_dict(r) for r in records], indent=2), args.output)
    else:
        _emit("\n".join([CSV_HEADER] + [_csv_row(r) for r in records]), args.output)
    return 0


def cmd_search(args) -> int:
    rec = best_scheme(args.K, args.L, args.T)
    doc = _record_to_dict(rec)
    if args.format == "json":
        _emit(json.dumps(doc, indent=2), args.output)
    elif args.format == "csv":
        _emit("\n".join([CSV_HEADER, _csv_row(rec)]), args.output)
    else:
        lines = []
        for key, _ in _COLUMNS:
            c = doc[key]
            extras = c and " ".join(f"{k}={c[k]}" for k in "rsx" if k in c)
            lines.append(f"{key.upper():8s} " + (f"N={c['N']}  {extras}" if c else "-"))
        lines.append(f"winner: {doc['winner']} (margin {doc['margin']}, PoleGap {doc['polegap']})")
        _emit("\n".join(lines), args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    env_format = os.environ.get("PDMM_FORMAT") or None
    if env_format not in (None, *FORMATS):
        raise ParameterError(
            f"PDMM_FORMAT must be one of {', '.join(FORMATS)}, got {env_format!r}"
        )
    parser = argparse.ArgumentParser(
        prog="pdmm",
        description="Polynomial-code schemes for private distributed matrix multiplication",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    def command(name, run, formats, help, table=True, klt=True, required=True):
        """Subcommand `name`, run by `run`: the table flags --family, -r, -s
        and -x where `table`, -K -L -T where `klt`, --family and -K -L -T
        required where `required`; --format, from the formats it writes, its
        default first, with PDMM_FORMAT as the default when it is one; -o."""
        sub = subs.add_parser(name, help=help)
        sub.set_defaults(run=run)
        if table:
            sub.add_argument("--family", choices=FAMILIES, required=required)
        for flag in ("-K", "-L", "-T") if klt else ():
            sub.add_argument(flag, type=int, required=required)
        if table:
            sub.add_argument("-r", type=int)
            sub.add_argument("-s", type=int)
            sub.add_argument("-x", type=int, default=1)
        default = env_format if env_format in formats else formats[0]
        sub.add_argument("--format", choices=formats, default=default)
        sub.add_argument("-o", "--output", default=None)
        return sub

    command("construct", cmd_construct, ("pretty", "json"), "print a degree table and its N")
    validate = command("validate", cmd_validate, ("pretty", "json"),
                       "check the scheme conditions", required=False)
    validate.add_argument("--table", help="JSON file holding a degree table")
    simulate = command("simulate", cmd_simulate, ("pretty",),
                       "run the full pipeline on random inputs")
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument("--min-p", dest="min_p", type=int, default=0)
    simulate.add_argument("--dims", required=True, help="rAxcAxcB, e.g. 4x4x4")
    sweep_cmd = command("sweep", cmd_sweep, ("csv", "json"), "compare families over a grid",
                        table=False, klt=False)
    sweep_cmd.add_argument("--K-range", dest="K_range", required=True)
    sweep_cmd.add_argument("--L-range", dest="L_range")
    sweep_cmd.add_argument("--T-range", dest="T_range", required=True)
    sweep_cmd.add_argument("--mode", choices=("KequalsL", "full"), default="full")
    command("search", cmd_search, ("pretty", "json", "csv"), "best parameters at one grid point",
            table=False)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.run(args)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    except (ParameterError, SchemeError, FieldError, OSError, ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint():
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
