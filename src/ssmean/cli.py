"""Command-line front end.

Subcommands: estimate (one method, JSON report), compare (every applicable
method, CSV), simulate (Monte Carlo grid, CSV), bootstrap (refitting
bootstrap, JSON). Exit codes: 0 success, 2 user/config/data error, 1
internal error. ``--trace`` on estimate, compare and bootstrap prints the
wall time of each stage (ingest, design, fit+report) and n, N as one JSON
line on stderr; stdout and ``--output`` do not change.

Input CSV files are UTF-8 (a byte-order mark is allowed) with a header row,
comma-delimited, with RFC-4180 double-quote quoting. Blank lines are
skipped, and every field of a used column must parse as a float (``nan``
and ``inf`` parse; estimation then refuses non-finite values). Columns are
found by name; other columns are ignored, and of two columns with one name
the last is read. A pipe (``--unlabeled /dev/stdin``) is read once, row by
row.
"""
from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys
import time
import traceback
import warnings
from typing import List, Optional, Tuple

import numpy as np

from .design import TwoSampleDesign, design_from_arrays
from .estimators import METHOD_NAMES, estimate, method_name
from .exceptions import ConfigError, DataError, SsmeanError
from .inference import bootstrap
from .simulate import run_grid, summaries_to_csv


_ENCODING = "utf-8-sig"  # a byte-order mark, as Excel writes, is not part of the header
_WRITE_CHUNK_ROWS = 65536


def _read_csv_columns(path: str, required: List[str], optional: List[str]) -> dict:
    """Read named numeric columns as float64 vectors.

    The body of a regular file is parsed in one ``np.loadtxt`` pass. Wherever
    that pass might differ from the row loop, or whenever it raises or warns,
    the row loop reads the file instead: its values and its error messages
    (which cite the file, line and column) are the only ones there are. A
    pipe or other stream goes straight to the row loop, which reads it once:
    the header read and ``loadtxt`` would each open it, and the bytes the
    first one buffered would be lost to the second.
    """
    try:
        columns = _read_columns_at_once(path, required, optional)
    except Exception:  # the row loop names what is wrong
        columns = None
    return _read_columns_by_row(path, required, optional) if columns is None else columns


def _read_columns_at_once(path: str, required: List[str], optional: List[str]) -> Optional[dict]:
    if not os.path.isfile(path):
        return None
    with open(path, newline="", encoding=_ENCODING) as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or reader.line_num != 1:  # skiprows=1 counts physical lines
            return None
    index = {name: i for i, name in enumerate(header)}  # the last of a repeated name, as DictReader keeps
    names = required + [name for name in optional if name in index]
    if len(set(names)) < len(names) or not all(name in index for name in required):
        return None
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # loadtxt warns on a body with no rows
        table = np.loadtxt(
            path,
            dtype=np.float64,
            delimiter=",",
            skiprows=1,
            usecols=[index[name] for name in names],
            ndmin=2,
            comments=None,
            quotechar='"',
            encoding=_ENCODING,
        )
    return {name: np.ascontiguousarray(table[:, j]) for j, name in enumerate(names)}


def _read_columns_by_row(path: str, required: List[str], optional: List[str]) -> dict:
    """Read named numeric columns; errors cite the file, line, and column."""
    columns = {name: [] for name in required + optional}
    try:
        handle = open(path, newline="", encoding=_ENCODING)
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc.strerror}") from exc
    with handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None:
            raise DataError(f"{path}: empty file, expected a header row")
        for name in required:
            if name not in reader.fieldnames:
                raise DataError(f"{path}: missing column '{name}'")
        present_optional = [name for name in optional if name in reader.fieldnames]
        for name in optional:
            if name not in reader.fieldnames:
                del columns[name]
        for row in reader:
            for name in required + present_optional:
                raw = row.get(name)
                if raw is None or raw == "":
                    raise DataError(f"{path} line {reader.line_num}: empty value in column '{name}'")
                try:
                    columns[name].append(float(raw))
                except ValueError:
                    raise DataError(
                        f"{path} line {reader.line_num}: could not parse {raw!r} in column '{name}'"
                    ) from None
    return {name: np.array(vals, dtype=np.float64) for name, vals in columns.items()}


def _load_design(
    labeled_path: str, unlabeled_path: str, covariate_columns: Optional[List[str]]
) -> Tuple[TwoSampleDesign, Tuple[float, float]]:
    """The design the two files give, and the wall times of reading them and
    of building the design from their columns."""
    start = time.perf_counter()
    covs = covariate_columns or []
    lab = _read_csv_columns(labeled_path, required=["y", "score"], optional=covs)
    unl = _read_csv_columns(unlabeled_path, required=["score"], optional=covs)
    ingested = time.perf_counter()
    if covs:
        for name in covs:
            if name not in lab:
                raise DataError(f"{labeled_path}: missing column '{name}'")
        lab_cov = np.column_stack([lab[name] for name in covs])
        unl_cov = (
            np.column_stack([unl[name] for name in covs]) if all(name in unl for name in covs) else None
        )
    else:
        lab_cov = None
        unl_cov = None
    if len(lab["y"]) == 0:
        raise DataError(f"{labeled_path}: no data rows")
    if len(unl["score"]) == 0:
        raise DataError(f"{unlabeled_path}: no data rows")
    design = design_from_arrays(lab["score"], lab["y"], unl["score"], lab_cov, unl_cov)
    return design, (ingested - start, time.perf_counter() - ingested)


def _data_command(run):
    """Make ``run(args, design)`` a subcommand on the --labeled and --unlabeled
    files. With --trace it also prints the wall time of each stage (ingest,
    design, fit+report), n and N as one JSON line on stderr."""

    @functools.wraps(run)
    def command(args) -> int:
        design, (ingest_s, design_s) = _load_design(args.labeled, args.unlabeled, args.covariates)
        start = time.perf_counter()
        status = run(args, design)
        if args.trace:
            record = {
                "command": args.command,
                "n": design.n,
                "N": design.N,
                "ingest_s": ingest_s,
                "design_s": design_s,
                "fit_report_s": time.perf_counter() - start,
            }
            print(json.dumps(record), file=sys.stderr)
        return status

    return command


def _write_float_csv(path: str, header: List[str], columns) -> None:
    """Write float columns as csv.writer writes their shortest round-trip
    reprs, one joined string per chunk of rows."""
    table = np.column_stack([np.asarray(col, dtype=np.float64) for col in columns])
    with open(path, "w", newline="", encoding="utf-8") as handle:
        csv.writer(handle).writerow(header)
        for start in range(0, len(table), _WRITE_CHUNK_ROWS):
            cells = [map(repr, col) for col in table[start : start + _WRITE_CHUNK_ROWS].T.tolist()]
            handle.write("\r\n".join(map(",".join, zip(*cells))) + "\r\n")


def write_labeled_csv(path: str, scores, outcomes, covariates=None, covariate_names=None) -> None:
    """Write a labeled dataset; floats use shortest round-trip decimals."""
    names = list(covariate_names or [])
    columns = [outcomes, scores] + ([covariates] if names else [])
    _write_float_csv(path, ["y", "score"] + names, columns)


def write_unlabeled_csv(path: str, scores, covariates=None, covariate_names=None) -> None:
    names = list(covariate_names or [])
    columns = [scores] + ([covariates] if names else [])
    _write_float_csv(path, ["score"] + names, columns)


def _json_default(obj):
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _emit(text: str, output: Optional[str]) -> None:
    if output is None or output == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)


@_data_command
def cmd_estimate(args, design: TwoSampleDesign) -> int:
    report = estimate(design, args.method.strip(), alpha=args.alpha, seed=args.seed)
    _emit(json.dumps(report.to_dict(), indent=2, default=_json_default), args.output)
    return 0


def _applicable_methods(design: TwoSampleDesign) -> List[str]:
    y = design.labeled.outcomes
    binary = bool(np.all((y == 0.0) | (y == 1.0)))
    has_cov = design.labeled.covariates is not None and design.unlabeled.covariates is not None
    methods = []
    for name in METHOD_NAMES:
        if name == "linear-cov-cal" and not has_cov:
            continue
        if name == "platt-cal" and not binary:
            continue
        if name == "auto-cal" and design.n < 4:
            continue
        methods.append(name)
    return methods


@_data_command
def cmd_compare(args, design: TwoSampleDesign) -> int:
    lines = ["method,estimate,std_error,ci_lo,ci_hi"]
    for name in _applicable_methods(design):
        report = estimate(design, name, alpha=args.alpha, seed=args.seed)
        lines.append(
            ",".join(
                [
                    name,
                    repr(report.estimate),
                    repr(report.std_error),
                    repr(report.ci_lower),
                    repr(report.ci_upper),
                ]
            )
        )
    _emit("\n".join(lines) + "\n", args.output)
    return 0


def _parse_int_list(text: str, flag: str) -> List[int]:
    try:
        values = [int(v) for v in text.split(",") if v.strip() != ""]
    except ValueError:
        raise ConfigError(f"{flag} expects a comma-separated integer list, got {text!r}") from None
    if not values:
        raise ConfigError(f"{flag} is empty")
    return values


def cmd_simulate(args) -> int:
    methods = [method_name(m.strip()) for m in args.method.split(",") if m.strip()]
    rows = run_grid(
        ns=_parse_int_list(args.ns, "--ns"),
        ratios=_parse_int_list(args.ratios, "--ratios"),
        methods=methods,
        reps=args.reps,
        alpha=args.alpha,
        seed=args.seed,
        miscalibrated=not args.well_calibrated,
    )
    _emit(summaries_to_csv(rows), args.output)
    return 0


@_data_command
def cmd_bootstrap(args, design: TwoSampleDesign) -> int:
    name = method_name(args.method.strip())
    result = bootstrap(design, name, b=args.b, seed=args.seed, alpha=args.alpha)
    payload = {
        "method": name,
        "estimate": result.estimate,
        "se_boot": result.se_boot,
        "percentile_ci": list(result.percentile_ci),
        "normal_ci": list(result.normal_ci),
        "alpha": args.alpha,
        "b": result.b,
        "seed": result.seed,
        "n": design.n,
        "N": design.N,
    }
    _emit(json.dumps(payload, indent=2, default=_json_default), args.output)
    return 0


def _add_io_args(parser, need_data: bool = True) -> None:
    if need_data:
        parser.add_argument("--labeled", required=True, help="labeled CSV with columns y,score[,covariates]")
        parser.add_argument("--unlabeled", required=True, help="unlabeled CSV with column score[,covariates]")
        parser.add_argument(
            "--covariates",
            type=lambda s: [c.strip() for c in s.split(",") if c.strip()],
            default=None,
            help="comma-separated covariate column names",
        )
        parser.add_argument(
            "--trace",
            action="store_true",
            help="print per-stage wall times (ingest, design, fit+report) as one JSON line on stderr",
        )
    parser.add_argument("--alpha", type=float, default=0.05, help="confidence level is 1 - alpha")
    parser.add_argument("--seed", type=int, default=0, help="seed for all randomized steps")
    parser.add_argument("--output", default=None, help="output path (default: stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ssmean",
        description="Semisupervised mean estimation with calibrated prediction scores",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_est = sub.add_parser("estimate", help="one method on a CSV dataset, JSON report")
    _add_io_args(p_est)
    p_est.add_argument("--method", default="aipw", help=f"one of: {', '.join(METHOD_NAMES)}")
    p_est.set_defaults(func=cmd_estimate)

    p_cmp = sub.add_parser("compare", help="every applicable method on one dataset, CSV")
    _add_io_args(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)

    p_sim = sub.add_parser("simulate", help="Monte Carlo grid on the synthetic study, CSV")
    _add_io_args(p_sim, need_data=False)
    p_sim.add_argument("--ns", default="50", help="comma-separated labeled sample sizes")
    p_sim.add_argument("--ratios", default="1", help="comma-separated unlabeled/labeled ratios")
    p_sim.add_argument("--reps", type=int, default=100, help="Monte Carlo repetitions")
    p_sim.add_argument(
        "--method",
        default="labeled-only,ppi,aipw,ppi-pp,aipw-em,linear-cal,iso-cal",
        help="comma-separated method list",
    )
    p_sim.add_argument(
        "--well-calibrated",
        action="store_true",
        help="use the undistorted score (default is the miscalibrated design)",
    )
    p_sim.set_defaults(func=cmd_simulate)

    p_boot = sub.add_parser("bootstrap", help="refitting bootstrap for one method, JSON")
    _add_io_args(p_boot)
    p_boot.add_argument("--method", default="aipw", help=f"one of: {', '.join(METHOD_NAMES)}")
    p_boot.add_argument("--b", type=int, default=1000, help="bootstrap replicates")
    p_boot.set_defaults(func=cmd_bootstrap)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SsmeanError as exc:
        print(f"ssmean: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"ssmean: error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
