"""Command-line interface.

Subcommands wrap the decomposition variants and the experiment runner.
Matrices travel as whitespace-separated text files with a ``rows cols``
header line; results are emitted as JSON.

Exit codes: 0 on success, 1 when an experiment self-check fails or an
input is invalid, 2 for usage errors.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .dmd import centered_dmd, companion_dmd, exact_dmd, frequency_subtracted_dmd, split_snapshots
from .exceptions import InvalidInput, ParseError, RankTooHigh
from .experiments import EXPERIMENTS, ExperimentConfig, run_experiment
from .linalg import EXACT_TOL


def load_matrix(path) -> np.ndarray:
    """Read a matrix from a text file with a ``rows cols`` header line.

    The header is read first and ``np.loadtxt`` then parses the rest of the
    open file, so the text is never held whole. Blank lines are skipped.
    Entries are parsed by ``np.loadtxt``: decimal and exponent notation,
    ``inf`` and ``nan``. Tokens only Python's ``float`` accepts, such as
    ``1_0`` or non-ASCII digits, raise ``ParseError``.
    """
    try:
        with open(path) as f:
            lines = (line for line in f if line.strip())
            header = next(lines, None)
            if header is None:
                raise ParseError(f"{path}: empty matrix file")
            rows, cols = _parse_header(path, header.rstrip("\n"))
            first = next(lines, None)
            if first is None:
                raise ParseError(f"{path}: header promises {rows} rows but file has 0")
            try:
                data = np.loadtxt(itertools.chain([first], f), dtype=float, comments=None, ndmin=2)
            except ValueError:
                data = None
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    if data is None or data.shape != (rows, cols):
        _raise_row_error(path, rows, cols)
    return data


def _parse_header(path, header):
    fields = header.split()
    if len(fields) != 2:
        raise ParseError(f"{path}: header must be 'rows cols', got {header!r}")
    try:
        rows, cols = int(fields[0]), int(fields[1])
    except ValueError as exc:
        raise ParseError(f"{path}: non-integer header {header!r}") from exc
    if rows < 1 or cols < 1:
        raise ParseError(f"{path}: header dimensions must be positive, got {rows} x {cols}")
    return rows, cols


def _raise_row_error(path, rows, cols):
    """Read again a file whose body failed to parse as a whole and name its first bad row."""
    try:
        with open(path) as f:
            body = [line for line in f if line.strip()][1:]
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    if len(body) != rows:
        raise ParseError(f"{path}: header promises {rows} rows but file has {len(body)}")
    for i, line in enumerate(body):
        fields = line.split()
        if len(fields) != cols:
            raise ParseError(f"{path}: row {i + 1} has {len(fields)} entries, expected {cols}")
        try:
            np.loadtxt([line], dtype=float, comments=None)
        except ValueError as exc:
            raise ParseError(f"{path}: row {i + 1} contains a non-numeric entry") from exc
    raise ParseError(f"{path}: the matrix body does not parse as {rows} x {cols} numbers")


def save_matrix(M, path) -> None:
    """Write a real matrix in the ``rows cols`` header text format, one row at a time.

    A complex matrix is written as its real part when every imaginary part is
    zero; any nonzero imaginary part raises ``InvalidInput``, and so does an
    array of more than two dimensions.
    """
    M = np.atleast_2d(np.asarray(M))
    if M.ndim != 2:
        raise InvalidInput(f"cannot write a {M.ndim}-dimensional array as a matrix")
    if np.iscomplexobj(M):
        if np.any(M.imag != 0):
            raise InvalidInput("cannot write a matrix with nonzero imaginary parts as real text")
        M = M.real
    M = M.astype(float, copy=False)
    row_fmt = " ".join(["%.17g"] * M.shape[1]) + "\n"
    with open(path, "w") as f:
        f.write(f"{M.shape[0]} {M.shape[1]}\n")
        for row in M:
            f.write(row_fmt % tuple(row.tolist()))


def _complex_list(values) -> list:
    return [{"re": float(np.real(v)), "im": float(np.imag(v))} for v in np.atleast_1d(values)]


def _emit(payload: dict, out: str | None) -> None:
    payload["version"] = __version__
    text = json.dumps(payload, indent=2)
    if out:
        Path(out).write_text(text + "\n")
    else:
        print(text)


def _parse_lambda(text: str) -> complex:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected 're,im', got {text!r}")
    try:
        return complex(float(parts[0]), float(parts[1]))
    except ValueError:
        raise argparse.ArgumentTypeError(f"non-numeric lambda component in {text!r}")


def _parse_override(text: str) -> tuple:
    if "=" not in text:
        raise argparse.ArgumentTypeError(f"expected 'key=value', got {text!r}")
    key, value = text.split("=", 1)
    return key, value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cdmd", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"cdmd {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--input", required=True, help="trajectory matrix file (rows cols header)")
        p.add_argument("--rank", type=int, default=None, help="truncation rank (default: numerical rank)")
        p.add_argument("--tol", type=float, default=EXACT_TOL, help="relative singular-value cutoff")
        p.add_argument("--out", default=None, help="write the JSON result here instead of stdout")

    add_common(sub.add_parser("dmd", help="SVD-based decomposition of the raw data"))
    add_common(sub.add_parser("centered-dmd", help="decomposition of the column-centered data"))

    p = sub.add_parser("companion", help="companion-matrix decomposition")
    p.add_argument("--input", required=True)
    p.add_argument("--out", default=None)

    p = sub.add_parser("freq-sub", help="decomposition after removing fixed frequencies")
    add_common(p)
    p.add_argument(
        "--lambda",
        dest="lambdas",
        type=_parse_lambda,
        action="append",
        required=True,
        metavar="RE,IM",
        help="fixed frequency to remove; repeatable",
    )

    p = sub.add_parser("experiment", help="run a canned study and write summary + CSV data")
    p.add_argument("name", choices=EXPERIMENTS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=".", help="output directory for summary and CSV files")
    p.add_argument(
        "--set",
        dest="overrides",
        type=_parse_override,
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override an experiment parameter; repeatable",
    )
    p.add_argument("--input", default=None, help="matrix file for the 'custom' experiment")
    p.add_argument("--rank", type=int, default=None, help="truncation rank for the 'custom' experiment")
    return parser


def _run_decomposition(args) -> dict:
    pair = split_snapshots(load_matrix(args.input))  # the pair's copy is the only one left during the fit
    if args.command == "dmd":
        model = exact_dmd(pair, r=args.rank, rel_tol=args.tol)
        return {
            "method": "dmd",
            "rank_used": model.rank_used,
            "eigenvalues": _complex_list(model.eigenvalues),
            "amplitudes": _complex_list(model.amplitudes),
        }
    model = centered_dmd(pair, r=args.rank, rel_tol=args.tol)
    return {
        "method": "centered-dmd",
        "rank_used": model.base.rank_used,
        "eigenvalues": _complex_list(model.base.eigenvalues),
        "amplitudes": _complex_list(model.base.amplitudes),
        "bias": [float(v) for v in np.real(model.bias)],
        "fixed_point": None if model.fixed_point is None else [float(v) for v in np.real(model.fixed_point)],
    }


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command in ("dmd", "centered-dmd"):
            _emit(_run_decomposition(args), args.out)
        elif args.command == "companion":
            model = companion_dmd(load_matrix(args.input))
            _emit(
                {
                    "method": "companion",
                    "coefficients": [float(v) for v in np.real(model.c_coeffs)],
                    "eigenvalues": _complex_list(model.companion_eigenvalues),
                    "residual_norm": model.residual_norm,
                },
                args.out,
            )
        elif args.command == "freq-sub":
            pair = split_snapshots(load_matrix(args.input))
            model = frequency_subtracted_dmd(pair, args.lambdas, r=args.rank, rel_tol=args.tol)
            _emit(
                {
                    "method": "freq-sub",
                    "rank_used": model.base.rank_used,
                    "fixed_lambdas": _complex_list(model.fixed_lambdas),
                    "eigenvalues": _complex_list(model.base.eigenvalues),
                    "forcing_norm": float(np.linalg.norm(model.B)),
                },
                args.out,
            )
        else:  # experiment
            overrides = dict(args.overrides)
            if args.input is not None:
                overrides["input"] = args.input
            if args.rank is not None:
                overrides["rank"] = args.rank
            summary = run_experiment(
                ExperimentConfig(experiment=args.name, seed=args.seed, overrides=overrides, output_dir=args.out)
            )
            failed = [a["name"] for a in summary["assertions"] if not a["passed"]]
            for a in summary["assertions"]:
                status = "PASS" if a["passed"] else "FAIL"
                print(f"{status} {a['name']}: value={a['value']:.3g} threshold={a['threshold']:.3g}")
            if failed:
                print(f"{len(failed)} self-check(s) failed", file=sys.stderr)
                return 1
    except (InvalidInput, ParseError, RankTooHigh) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
