"""The small-n coverage table: a Monte Carlo grid at n = 50 and 100, as CSV.

    PYTHONPATH=src python tools/coverage.py [--reps R] [--slice]

prints a version header, then summaries_to_csv(run_grid([50, 100], [16],
METHODS, reps, seed=7)) on the paper's design: bias, sd, RMSE, coverage of
the nominal 95% interval and efficiency relative to ppi of each method at
each n. --reps sets the replicates per cell (default 1000). --slice prints
the cheaper table tier-1 recomputes instead: every method but auto-cal, at
300 replicates unless --reps is given.

The full table is committed as tests/data/coverage_small_n.csv and the slice
as tests/data/coverage_small_n_slice.csv; tests/test_coverage.py recomputes
the slice and compares it byte for byte. A change that moves the table on
purpose regenerates both files,

    PYTHONPATH=src python tools/coverage.py > tests/data/coverage_small_n.csv
    PYTHONPATH=src python tools/coverage.py --slice > tests/data/coverage_small_n_slice.csv

and quotes the rows that moved. As in tools/parity.py, PYTHONPATH chooses
the ssmean that runs, and the tool falls back to its own checkout's src.
"""
from __future__ import annotations

import platform
import sys
from pathlib import Path

import numpy as np
import scipy

# appended, so an ssmean earlier on the path (PYTHONPATH=<checkout>/src) is the code run
sys.path.append(str(Path(__file__).resolve().parents[1] / "src"))

from ssmean import run_grid, summaries_to_csv  # noqa: E402

METHODS = ("iso-cal", "hist-cal", "auto-cal", "venn-abers", "platt-cal", "linear-cal", "aipw-em", "aipw",
           "labeled-only")
SLICE_METHODS = tuple(m for m in METHODS if m != "auto-cal")
NS, RATIOS, SEED = (50, 100), (16,), 7
REPS, SLICE_REPS = 1000, 300


def header() -> str:
    """The first line: the Python, numpy and SciPy versions the table was computed under."""
    return f"# python {platform.python_version()} numpy {np.__version__} scipy {scipy.__version__}"


def table(methods=METHODS, reps: int = REPS) -> str:
    """The grid's CSV for methods at reps replicates per cell, without the header."""
    return summaries_to_csv(run_grid(NS, RATIOS, methods, reps, seed=SEED))


def main(argv) -> None:
    methods, reps = (SLICE_METHODS, SLICE_REPS) if "--slice" in argv else (METHODS, REPS)
    if "--reps" in argv:
        reps = int(argv[argv.index("--reps") + 1])
    print(header())
    print(table(methods, reps), end="")


if __name__ == "__main__":
    main(sys.argv[1:])
