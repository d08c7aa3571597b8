"""Command-line front end for the ring-chain spectral engine.

Subcommands: ``bands`` (band spectrum of the straight chain),
``eigenvalues`` (gap eigenvalues of the bent chain over bend angles),
``resonances`` (complex pole trajectories seeded at singular points) and
``verify`` (the acceptance-criteria report).  Artifacts are CSV or JSON,
UTF-8 with LF line endings and 17 significant digits, and identical
configurations produce byte-identical files.  Exit codes: 0 success,
1 verification failure, 2 usage error, 3 numeric failure.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from dataclasses import dataclass

from .bands import compute_bands
from .dispersion import ContinuationError
# ``gap_intervals`` is no longer called here, but perfbench/tracer.py
# patches ``ringchain.cli.gap_intervals``, so the name stays importable.
from .gaps import gap_eigenvalues, gap_intervals, is_singular_angle  # noqa: F401
from .resonance import enumerate_singular_points, trace_complex_branch
from .verify import CRITERION_LABELS, run_all, summarize

__all__ = ["main", "build_parser", "RunConfig"]

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3

# One schema serves eigenvalue and resonance artifacts.
CURVE_COLUMNS = (
    "theta",
    "k_re",
    "k_im",
    "energy",
    "parity",
    "gap_index",
    "branch",
    "multiplicity",
    "residual_abs",
)
BAND_COLUMNS = ("band_index", "e_lo", "e_hi", "k_lo", "k_hi", "closed_lo", "closed_hi")

# Solvers bisect to machine exhaustion (~1e-16), so any permitted
# tolerance override is attained automatically; the floor rejects
# requests below double precision.
MIN_TOLERANCE = 1e-14


@dataclass(frozen=True)
class RunConfig:
    """Validated run parameters shared by the subcommands."""

    command: str
    alpha: float = 0.0
    theta: float | None = None
    theta_range: tuple[float, float, int] | None = None
    e_max: float = 30.0
    n_max: int = 5
    parity: str = "both"
    branch: str = "both"
    output_format: str = "csv"
    output_path: str | None = None
    tol_residual: float = 1e-9
    criteria: tuple[str, ...] | None = None


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _thread_count() -> int:
    """Validate ``CHAIN_SPECTRUM_THREADS``; sweeps always run in one thread."""
    raw = os.environ.get("CHAIN_SPECTRUM_THREADS")
    if raw is None:
        return 1
    try:
        n = int(raw)
    except ValueError as exc:
        raise ValueError(f"CHAIN_SPECTRUM_THREADS must be an integer: {raw!r}") from exc
    if n < 1:
        raise ValueError("CHAIN_SPECTRUM_THREADS must be positive")
    return 1


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, complex):
        return {"re": float(value.real), "im": float(value.imag)}
    return float(value)


def _emit(cfg: RunConfig, text: str) -> None:
    if cfg.output_path is None:
        sys.stdout.write(text)
        return
    with open(cfg.output_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _json_text(obj) -> str:
    return json.dumps(_jsonable(obj), indent=2) + "\n"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ringchain",
        description=(
            "Spectra of a chain of unit rings with delta couplings: bands "
            "of the straight chain, gap eigenvalues and resonance poles of "
            "the bent chain."
        ),
        epilog=(
            "exit codes: 0 success, 1 verification failure, 2 usage error, "
            "3 numeric failure"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_emax=True):
        p.add_argument("--alpha", type=float, required=True, help="coupling strength")
        if with_emax:
            p.add_argument("--emax", type=float, default=30.0, help="energy ceiling (> 1)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        p.add_argument("--tol-root", type=float, default=1e-12)
        p.add_argument("--tol-residual", type=float, default=1e-9)

    p_bands = sub.add_parser("bands", help="band spectrum of the straight chain")
    add_common(p_bands)

    p_eig = sub.add_parser("eigenvalues", help="gap eigenvalues of the bent chain")
    add_common(p_eig)
    p_eig.add_argument("--theta", type=float, default=None, help="single bend angle")
    p_eig.add_argument("--theta-start", type=float, default=None)
    p_eig.add_argument("--theta-stop", type=float, default=None)
    p_eig.add_argument("--theta-count", type=int, default=None)
    p_eig.add_argument("--nmax", type=int, default=None, help="highest gap index")
    p_eig.add_argument("--parity", choices=("+", "-", "both"), default="both")

    p_res = sub.add_parser("resonances", help="complex pole trajectories")
    add_common(p_res, with_emax=False)
    p_res.add_argument("--theta-start", type=float, default=0.0)
    p_res.add_argument("--theta-stop", type=float, default=math.pi - 1e-2)
    p_res.add_argument("--theta-count", type=int, default=200)
    p_res.add_argument("--nmax", type=int, default=5)
    p_res.add_argument("--parity", choices=("+", "-", "both"), default="both")
    p_res.add_argument("--branch", choices=("lower", "upper", "both"), default="both")

    p_ver = sub.add_parser("verify", help="acceptance-criteria report")
    p_ver.add_argument(
        "--criteria",
        default=None,
        help="comma-separated criterion labels (e.g. 1,3,6); default all",
    )
    p_ver.add_argument("--format", choices=("json", "text"), default="json")
    p_ver.add_argument("--out", default=None)
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    cmd = args.command
    if cmd == "verify":
        criteria: tuple[str, ...] | None = None
        if args.criteria is not None:
            tokens = tuple(t.strip() for t in args.criteria.split(",") if t.strip())
            known = set(CRITERION_LABELS) | {
                lab.split("-")[0] for lab in CRITERION_LABELS
            }
            bad = [t for t in tokens if t not in known]
            if bad:
                raise ValueError(f"unknown criteria: {', '.join(bad)}")
            if not tokens:
                raise ValueError("empty criteria selection")
            criteria = tokens
        return RunConfig(
            command=cmd,
            output_format=args.format,
            output_path=args.out,
            criteria=criteria,
        )

    tol_residual = args.tol_residual
    if args.tol_root < MIN_TOLERANCE or tol_residual < MIN_TOLERANCE:
        raise ValueError(f"tolerances must be >= {MIN_TOLERANCE}")
    e_max = getattr(args, "emax", 30.0)
    if e_max <= 1.0:
        raise ValueError("--emax must exceed 1")
    _thread_count()

    if cmd == "bands":
        return RunConfig(
            command=cmd,
            alpha=args.alpha,
            e_max=e_max,
            output_format=args.format,
            output_path=args.out,
            tol_residual=tol_residual,
        )

    if args.alpha == 0.0:
        raise ValueError("the uncoupled chain has no gaps: --alpha must be nonzero")

    if cmd == "eigenvalues":
        n_max = args.nmax if args.nmax is not None else max(1, int(math.floor(math.sqrt(e_max))))
        if n_max < 1:
            raise ValueError("--nmax must be at least 1")
        have_range = any(
            v is not None for v in (args.theta_start, args.theta_stop, args.theta_count)
        )
        if (args.theta is None) == (not have_range):
            raise ValueError("give either --theta or a full --theta-start/stop/count range")
        theta = None
        theta_range = None
        if args.theta is not None:
            theta = args.theta
            if not 0.0 < theta < math.pi:
                raise ValueError("--theta must lie strictly between 0 and pi")
        else:
            if None in (args.theta_start, args.theta_stop, args.theta_count):
                raise ValueError("a range needs --theta-start, --theta-stop and --theta-count")
            start, stop, count = args.theta_start, args.theta_stop, args.theta_count
            if count < 2:
                raise ValueError("--theta-count must be at least 2")
            if not 0.0 <= start < stop <= math.pi:
                raise ValueError("the range must satisfy 0 <= start < stop <= pi")
            theta_range = (start, stop, count)
        return RunConfig(
            command=cmd,
            alpha=args.alpha,
            theta=theta,
            theta_range=theta_range,
            e_max=e_max,
            n_max=n_max,
            parity=args.parity,
            output_format=args.format,
            output_path=args.out,
            tol_residual=tol_residual,
        )

    # resonances
    start, stop, count = args.theta_start, args.theta_stop, args.theta_count
    if count < 2:
        raise ValueError("--theta-count must be at least 2")
    if not 0.0 <= start < stop <= math.pi:
        raise ValueError("the range must satisfy 0 <= start < stop <= pi")
    if args.nmax < 1:
        raise ValueError("--nmax must be at least 1")
    return RunConfig(
        command=cmd,
        alpha=args.alpha,
        theta_range=(start, stop, count),
        n_max=args.nmax,
        parity=args.parity,
        branch=args.branch,
        output_format=args.format,
        output_path=args.out,
        tol_residual=tol_residual,
    )


def _theta_grid(cfg: RunConfig) -> list[float]:
    """Half-step-offset grid: nodes never land on range endpoints.

    The offset keeps bulk runs away from the singular bend angles (which
    are rational multiples of pi, like typical range endpoints).
    """
    start, stop, count = cfg.theta_range
    step = (stop - start) / count
    return [start + (i + 0.5) * step for i in range(count)]


def cmd_bands(cfg: RunConfig) -> int:
    spectrum = compute_bands(cfg.alpha, cfg.e_max)
    if cfg.output_format == "json":
        _emit(cfg, _json_text(spectrum.as_dict()))
        return EXIT_OK
    rows = [
        (
            str(i),
            _fmt(b.e_lo),
            _fmt(b.e_hi),
            _fmt(b.k_lo),
            _fmt(b.k_hi),
            str(int(b.closed_lo)),
            str(int(b.closed_hi)),
        )
        for i, b in enumerate(spectrum.bands)
    ]
    _emit(cfg, _csv_text(BAND_COLUMNS, rows))
    return EXIT_OK


def _eigenvalue_rows(cfg: RunConfig, theta: float) -> list[tuple[str, ...]]:
    records = gap_eigenvalues(cfg.alpha, theta, cfg.n_max, cfg.parity)
    if any(r.residual > cfg.tol_residual for r in records):
        worst = max(r.residual for r in records)
        raise ContinuationError(
            f"eigenvalue residual {worst:.3g} above --tol-residual at theta={theta:.6g}"
        )
    rows = []
    for r in records:
        positive = r.energy > 0.0
        # Real-momentum rows leave k_im empty; negative-energy rows carry
        # the decay rate in k_im (the momentum is purely imaginary there).
        rows.append(
            (
                _fmt(r.theta),
                _fmt(r.k) if positive else _fmt(0.0),
                "" if positive else _fmt(r.k),
                _fmt(r.energy),
                r.parity,
                str(r.gap_index),
                "real",
                str(r.multiplicity),
                _fmt(r.residual),
            )
        )
    # Mark eigenvalues suppressed by an exactly singular angle; gaps
    # 1..n_max hold an integer for either sign of alpha.
    parities = ("+", "-") if cfg.parity == "both" else (cfg.parity,)
    seen = {(row[5], row[4]) for row in rows}
    for n in range(1, cfg.n_max + 1):
        for p in parities:
            if is_singular_angle(theta, n, p) and (str(n), p) not in seen:
                rows.append((_fmt(theta), "", "", "", p, str(n), "real", "", ""))
    return rows


def cmd_eigenvalues(cfg: RunConfig) -> int:
    thetas = [cfg.theta] if cfg.theta is not None else _theta_grid(cfg)
    rows = [row for theta in thetas for row in _eigenvalue_rows(cfg, theta)]
    if cfg.output_format == "json":
        payload = {
            "alpha": cfg.alpha,
            "n_max": cfg.n_max,
            "parity": cfg.parity,
            "columns": list(CURVE_COLUMNS),
            "rows": [[cell if cell != "" else None for cell in row] for row in rows],
        }
        _emit(cfg, _json_text(payload))
    else:
        _emit(cfg, _csv_text(CURVE_COLUMNS, rows))
    return EXIT_OK


def _trace_one(cfg: RunConfig, sp, branch: str):
    start, stop, count = cfg.theta_range
    delta0 = 1e-2
    if sp.theta0 + delta0 >= stop:
        return None
    return trace_complex_branch(
        cfg.alpha,
        sp,
        branch,
        delta0=delta0,
        theta_stop=stop,
        n_nodes=count,
    )


def cmd_resonances(cfg: RunConfig) -> int:
    parities = ("+", "-") if cfg.parity == "both" else (cfg.parity,)
    branches = ("lower", "upper") if cfg.branch == "both" else (cfg.branch,)
    start, stop, _ = cfg.theta_range
    curves = []
    partial = []
    for p in parities:
        for sp in enumerate_singular_points(cfg.n_max, p):
            if not start <= sp.theta0 < stop:
                continue
            for br in branches:
                try:
                    curve = _trace_one(cfg, sp, br)
                except (ContinuationError, ValueError) as exc:
                    partial.append(f"({sp.n},{sp.ell},{sp.parity},{br}): {exc}")
                    continue
                if curve is not None:
                    curves.append(curve)
    for note in partial:
        print(f"warning: curve abandoned {note}", file=sys.stderr)
    if cfg.output_format == "json":
        payload = {
            "alpha": cfg.alpha,
            "curves": [
                {
                    "parity": c.parity,
                    "branch": c.branch,
                    "seed": {
                        "n": c.seed.n,
                        "ell": c.seed.ell,
                        "theta0": c.seed.theta0,
                    },
                    "termination": c.termination,
                    "samples": [
                        [t, k.real, k.imag] for t, k in c.samples
                    ],
                }
                for c in curves
            ],
            "abandoned": partial,
        }
        _emit(cfg, _json_text(payload))
        return EXIT_OK
    rows = []
    for c in curves:
        residuals = c.residuals()
        for (t, k), res in zip(c.samples, residuals):
            rows.append(
                (
                    _fmt(t),
                    _fmt(k.real),
                    _fmt(k.imag),
                    "",
                    c.parity,
                    str(c.seed.n),
                    c.branch,
                    "",
                    _fmt(res),
                )
            )
    _emit(cfg, _csv_text(CURVE_COLUMNS, rows))
    return EXIT_OK


def cmd_verify(cfg: RunConfig) -> int:
    results = run_all(cfg.criteria)
    if cfg.output_format == "text":
        _emit(cfg, summarize(results) + "\n")
    else:
        payload = {
            "criteria": [
                {
                    "label": r.label,
                    "description": r.description,
                    "passed": r.passed,
                    "expected_to_fail": r.expected_to_fail,
                    "runtime_seconds": r.runtime_seconds,
                    "detail": r.detail,
                    "measured": r.measured,
                }
                for r in results
            ],
            "overall_pass": all(r.passed for r in results),
        }
        _emit(cfg, _json_text(payload))
    return EXIT_OK if all(r.passed for r in results) else EXIT_VERIFY_FAIL


_HANDLERS = {
    "bands": cmd_bands,
    "eigenvalues": cmd_eigenvalues,
    "resonances": cmd_resonances,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else EXIT_USAGE
        return EXIT_OK if code == 0 else EXIT_USAGE
    try:
        cfg = _config_from_args(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return _HANDLERS[cfg.command](cfg)
    except (RuntimeError, ArithmeticError, ValueError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
