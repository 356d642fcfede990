"""Command-line front end.

Subcommands: estimate (one method, JSON report), compare (every applicable
method, CSV), simulate (Monte Carlo grid, CSV), bootstrap (refitting
bootstrap, JSON). Exit codes: 0 success, 2 user/config/data error, 1
internal error.
"""
from __future__ import annotations

import argparse
import csv
import json
import sys
import traceback
from typing import List, Optional, Tuple

import numpy as np

from .design import TwoSampleDesign, design_from_arrays
from .estimators import METHOD_NAMES, estimate, method_name
from .exceptions import ConfigError, DataError, SsmeanError
from .inference import bootstrap
from .simulate import run_grid, summaries_to_csv


def _read_csv_columns(path: str, required: List[str], optional: List[str]) -> dict:
    """Read named numeric columns; errors cite the file, line, and column."""
    columns = {name: [] for name in required + optional}
    try:
        handle = open(path, newline="", encoding="utf-8")
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


def _load_design(labeled_path: str, unlabeled_path: str, covariate_columns: Optional[List[str]]) -> TwoSampleDesign:
    covs = covariate_columns or []
    lab = _read_csv_columns(labeled_path, required=["y", "score"], optional=covs)
    unl = _read_csv_columns(unlabeled_path, required=["score"], optional=covs)
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
    return design_from_arrays(lab["score"], lab["y"], unl["score"], lab_cov, unl_cov)


def write_labeled_csv(path: str, scores, outcomes, covariates=None, covariate_names=None) -> None:
    """Write a labeled dataset; floats use shortest round-trip decimals."""
    names = list(covariate_names or [])
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["y", "score"] + names)
        for i in range(len(scores)):
            row = [repr(float(outcomes[i])), repr(float(scores[i]))]
            if names:
                row += [repr(float(v)) for v in covariates[i]]
            writer.writerow(row)


def write_unlabeled_csv(path: str, scores, covariates=None, covariate_names=None) -> None:
    names = list(covariate_names or [])
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["score"] + names)
        for i in range(len(scores)):
            row = [repr(float(scores[i]))]
            if names:
                row += [repr(float(v)) for v in covariates[i]]
            writer.writerow(row)


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


def cmd_estimate(args) -> int:
    design = _load_design(args.labeled, args.unlabeled, args.covariates)
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


def cmd_compare(args) -> int:
    design = _load_design(args.labeled, args.unlabeled, args.covariates)
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


def cmd_bootstrap(args) -> int:
    design = _load_design(args.labeled, args.unlabeled, args.covariates)
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
