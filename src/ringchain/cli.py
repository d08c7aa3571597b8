"""Command-line front end for the ring-chain spectral engine.

Subcommands: ``bands`` (band spectrum of the straight chain),
``eigenvalues`` (gap eigenvalues of the bent chain over bend angles),
``resonances`` (complex pole trajectories seeded at singular points) and
``verify`` (the acceptance-criteria report).  Artifacts are CSV or JSON,
UTF-8 with LF line endings and 17 significant digits, and identical
configurations produce byte-identical files.  Exit codes: 0 success,
1 verification failure, 2 usage error, 3 numeric failure.

Only the standard library is imported here, and not ``dataclasses``,
which loads ``inspect``: each command imports what it runs, so
``--help`` and usage errors never load numpy.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import os
import re
import sys

__all__ = ["main", "build_parser"]

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

# The floor of --tol-residual: requests below double precision are rejected.
MIN_TOLERANCE = 1e-14
# Artifacts reach their destination in blocks of about this many characters.
BLOCK_CHARS = 64 * 1024


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


def _json_default(value):
    """What ``json`` cannot write: a complex number as ``{"re", "im"}``, a numpy scalar as a float."""
    if isinstance(value, complex):
        return {"re": float(value.real), "im": float(value.imag)}
    return float(value)


class _Blocks:
    """Text passed on to ``fh`` in blocks of about ``BLOCK_CHARS`` characters."""

    def __init__(self, fh):
        self.fh, self.parts, self.size = fh, [], 0

    def write(self, text: str) -> None:
        self.parts.append(text)
        self.size += len(text)
        if self.size >= BLOCK_CHARS:
            self.flush()

    def flush(self) -> None:
        self.fh.write("".join(self.parts))
        self.parts, self.size = [], 0


def _write(args: argparse.Namespace, obj, header=None) -> int:
    """Write ``obj`` as CSV rows under ``header``, as text, or else as JSON, to
    ``--out`` or to ``sys.stdout`` as it is at call time.  Commands call this
    only after their gates pass, so a numeric failure writes nothing.  Returns
    the exit code: 2 if the destination cannot be opened or written."""
    try:
        with (contextlib.nullcontext(sys.stdout) if args.out is None
              else open(args.out, "w", encoding="utf-8", newline="")) as fh:
            dest = _Blocks(fh)
            if header is not None:
                writer = csv.writer(dest, lineterminator="\n")
                writer.writerow(header)
                writer.writerows(obj)
            elif isinstance(obj, str):
                dest.write(obj)
            else:
                json.dump(obj, dest, indent=2, default=_json_default)
                dest.write("\n")
            dest.flush()
    except OSError as exc:
        where = "stdout" if args.out is None else args.out
        print(f"error: cannot write {where}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


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
        # argparse takes only "-0.5"-style strings for negative numbers; read
        # "-1e-6" as one too, not as an option.
        p._negative_number_matcher = re.compile(r"^-\.?\d")
        p.add_argument("--alpha", type=float, required=True, help="coupling strength")
        if with_emax:
            p.add_argument("--emax", type=float, default=30.0, help="energy ceiling (> 1)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", default=None, help="output path (default: stdout)")
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


def _check_theta_range(args: argparse.Namespace) -> None:
    """Check the ``--theta-start/stop/count`` range of a sweep."""
    if args.theta_count < 2:
        raise ValueError("--theta-count must be at least 2")
    if not 0.0 <= args.theta_start < args.theta_stop <= math.pi:
        raise ValueError("the range must satisfy 0 <= start < stop <= pi")


def _check_args(args: argparse.Namespace) -> None:
    """Reject bad arguments with a usage message; resolve the derived ones in place.

    ``eigenvalues`` gets its default ``--nmax`` from ``--emax`` and ``verify``
    its ``--criteria`` as a tuple of labels.  The comparisons are written so
    that NaN fails them.
    """
    if args.command == "verify":
        if args.criteria is not None:
            from .verify import select_criteria

            tokens = [t.strip() for t in args.criteria.split(",")]
            args.criteria = select_criteria([t for t in tokens if t])
        return

    if not args.tol_residual >= MIN_TOLERANCE:
        raise ValueError(f"--tol-residual must be >= {MIN_TOLERANCE}")
    e_max = getattr(args, "emax", 30.0)
    if not e_max > 1.0:
        raise ValueError("--emax must exceed 1")
    if math.isinf(e_max):
        raise ValueError("--emax must be finite")
    _thread_count()
    if not math.isfinite(args.alpha):
        raise ValueError("--alpha must be finite")
    if args.command == "bands":
        return

    if args.alpha == 0.0:
        raise ValueError("the uncoupled chain has no gaps: --alpha must be nonzero")

    if args.command == "eigenvalues":
        if args.nmax is None:
            args.nmax = max(1, int(math.floor(math.sqrt(e_max))))
        if args.nmax < 1:
            raise ValueError("--nmax must be at least 1")
        theta_range = (args.theta_start, args.theta_stop, args.theta_count)
        if (args.theta is None) == all(v is None for v in theta_range):
            raise ValueError("give either --theta or a full --theta-start/stop/count range")
        if args.theta is not None:
            if not 0.0 < args.theta < math.pi:
                raise ValueError("--theta must lie strictly between 0 and pi")
        elif None in theta_range:
            raise ValueError("a range needs --theta-start, --theta-stop and --theta-count")
        else:
            _check_theta_range(args)
        return

    # resonances
    _check_theta_range(args)
    if args.nmax < 1:
        raise ValueError("--nmax must be at least 1")


def _theta_grid(args: argparse.Namespace) -> list[float]:
    """Half-step-offset grid: nodes never land on range endpoints.

    The offset keeps bulk runs away from the singular bend angles (which
    are rational multiples of pi, like typical range endpoints).
    """
    start, stop, count = args.theta_start, args.theta_stop, args.theta_count
    step = (stop - start) / count
    return [start + (i + 0.5) * step for i in range(count)]


def cmd_bands(args: argparse.Namespace) -> int:
    from dataclasses import asdict, astuple, fields

    from .bands import Band, compute_bands

    spectrum = compute_bands(args.alpha, args.emax)
    if args.format == "json":
        return _write(args, asdict(spectrum))
    # A CSV row is the band's index, then its fields in declaration order (flags as 0/1).
    rows = [
        (str(i), *(str(int(v)) if isinstance(v, bool) else _fmt(v) for v in astuple(b)))
        for i, b in enumerate(spectrum.bands)
    ]
    return _write(args, rows, ("band_index", *(f.name for f in fields(Band))))


def _eigenvalue_rows(args: argparse.Namespace, theta: float, records, singular) -> list[tuple]:
    if any(r.residual > args.tol_residual for r in records):
        from .dispersion import ContinuationError

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
    # Mark eigenvalues suppressed by an exactly singular angle: ``singular``
    # holds the (gap, parity) pairs for which ``theta`` is one.
    seen = {(row[5], row[4]) for row in rows}
    for n, p in singular:
        if (str(n), p) not in seen:
            rows.append((_fmt(theta), "", "", "", p, str(n), "real", "", ""))
    return rows


def cmd_eigenvalues(args: argparse.Namespace) -> int:
    from .gaps import gap_eigenvalues_grid, is_singular_angle

    thetas = [args.theta] if args.theta is not None else _theta_grid(args)
    per_angle = gap_eigenvalues_grid(args.alpha, thetas, args.nmax, args.parity)
    # Gaps 1..n_max hold an integer for either sign of alpha; each one's
    # singular angles are checked once over the whole grid.
    parities = ("+", "-") if args.parity == "both" else (args.parity,)
    singular = [[] for _ in thetas]
    for n in range(1, args.nmax + 1):
        for p in parities:
            for i in is_singular_angle(thetas, n, p).nonzero()[0]:
                singular[i].append((n, p))
    rows = [
        row
        for theta, records, marks in zip(thetas, per_angle, singular)
        for row in _eigenvalue_rows(args, theta, records, marks)
    ]
    if args.format == "json":
        payload = {
            "alpha": args.alpha,
            "n_max": args.nmax,
            "parity": args.parity,
            "columns": list(CURVE_COLUMNS),
            "rows": [[cell if cell != "" else None for cell in row] for row in rows],
        }
        return _write(args, payload)
    return _write(args, rows, CURVE_COLUMNS)


def cmd_resonances(args: argparse.Namespace) -> int:
    from .resonance import (
        SEED_OFFSET, ContinuationError, enumerate_singular_points, on_branch, trace_complex_branch,
    )

    parities = ("+", "-") if args.parity == "both" else (args.parity,)
    branches = ("lower", "upper") if args.branch == "both" else (args.branch,)
    # Lower traces only: an upper row is its lower twin moved by on_branch.
    curves = []
    partial = []
    for p in parities:
        for sp in enumerate_singular_points(args.nmax, p):
            if not args.theta_start <= sp.theta0 < args.theta_stop:
                continue
            if sp.theta0 + SEED_OFFSET >= args.theta_stop:  # seeded at or past the stop
                continue
            try:
                curve = trace_complex_branch(
                    args.alpha, sp, theta_stop=args.theta_stop, n_nodes=args.theta_count
                )
            except (ContinuationError, ValueError) as exc:
                partial += [f"({sp.n},{sp.ell},{sp.parity},{br}): {exc} (branch {br})"
                            for br in branches]
                continue
            curves.append(curve)
    for note in partial:
        print(f"warning: curve abandoned {note}", file=sys.stderr)
    worst = max((r for c in curves for r in c.residuals), default=0.0)
    if worst > args.tol_residual:
        raise ContinuationError(f"resonance residual {worst:.3g} above --tol-residual")
    if args.format == "json":
        payload = {
            "alpha": args.alpha,
            "curves": [
                {
                    "parity": c.parity,
                    "branch": br,
                    "seed": {
                        "n": c.seed.n,
                        "ell": c.seed.ell,
                        "theta0": c.seed.theta0,
                    },
                    "termination": c.termination,
                    "samples": [
                        [t, k.real, on_branch(k, br).imag] for t, k in c.samples
                    ],
                }
                for c in curves
                for br in branches
            ],
            "abandoned": partial,
        }
        return _write(args, payload)

    def rows():
        # Theta, Re k and the residual are formatted once for every branch.
        for c in curves:
            n = str(c.seed.n)
            shared = [(_fmt(t), _fmt(k.real), _fmt(r), k)
                      for (t, k), r in zip(c.samples, c.residuals)]
            for br in branches:
                for t, k_re, r, k in shared:
                    yield t, k_re, _fmt(on_branch(k, br).imag), "", c.parity, n, br, "", r

    return _write(args, rows(), CURVE_COLUMNS)


def cmd_verify(args: argparse.Namespace) -> int:
    from dataclasses import asdict

    from .verify import run_all, summarize

    results = run_all(args.criteria)
    passed = all(r.passed for r in results)
    if args.format == "text":
        code = _write(args, summarize(results) + "\n")
    else:
        code = _write(args, {"criteria": [asdict(r) for r in results], "overall_pass": passed})
    return code or (EXIT_OK if passed else EXIT_VERIFY_FAIL)


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
        _check_args(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return _HANDLERS[args.command](args)
    except (RuntimeError, ArithmeticError, ValueError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
