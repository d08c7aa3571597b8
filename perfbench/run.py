"""Benchmark of the ``ringchain`` command line, end to end or per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all        # every workload, one table

Run from the root of a checkout; the package is imported from its
``src``.  Every timed call is a fresh interpreter running
``ringchain.cli.main(argv)`` with the caller's environment, as a user's
``ringchain`` command would be.  With ``--trace 0`` the run repeats the
workload's call for ``--seconds`` and reports the median wall time, CPU
time over all threads and peak resident memory of the calls, and the
median set-up time (interpreter start to ``import ringchain.cli``),
sampled between the calls.  With ``--trace 1`` it makes one untraced
and one traced call (``traced_cli.py``) and reports the per-layer
metrics, with the tracing overhead as the difference of their wall times.

Every call's artifact goes through the workload's correctness gate
(``workloads.py``).  Artifact digests and traced counts are stored under
``.perfbench/`` per source fingerprint, workload and seed; a later run
of the same source that disagrees is marked incorrect.  The last line of
standard output is the JSON result.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from workloads import WORKLOADS, GateResult, Workload

ROOT = Path(__file__).resolve().parent.parent
STATE = ROOT / ".perfbench"
# Set-up is sampled twice before every call and topped up to at least
# SETUP_SAMPLES after the last one, so that its median spans the run
# rather than one moment of a shared machine.
SETUP_SAMPLES = 7
# Every call is killed once the run has lasted this long, so that a run
# ends within three minutes even when the program hangs.
RUN_DEADLINE_S = 170.0
CLI_CALL = "import sys; from ringchain.cli import main; sys.exit(main(sys.argv[1:]))"
PROBE = """
import json, sys, numpy, ringchain.cli as cli
try:
    threads = cli._thread_count()
except (AttributeError, ValueError):
    threads = None
print(json.dumps({"ringchain": cli.__file__, "python": sys.version.split()[0],
                  "numpy": numpy.__version__, "cli_threads": threads}))
"""


@dataclass
class Call:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int
    stderr: str


class Run:
    """One benchmark run: its work directory, child environment and deadline."""

    def __init__(self, workload: Workload, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.alpha = workload.alpha(seed)
        self.started = perf_counter()
        self.work = STATE / "work" / f"{workload.name}-{seed}-{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + old if old else "")
        self.wrong: list[str] = []

    def spawn(self, args: list[str], tag: str) -> Call:
        """Run ``python3 args`` to completion; wall, CPU and peak RSS of that process."""
        limit = max(1.0, RUN_DEADLINE_S - (perf_counter() - self.started))
        out_path, err_path = self.work / f"{tag}.stdout", self.work / f"{tag}.stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *args], cwd=self.work, env=self.env, stdout=out, stderr=err
            )
            timer = threading.Timer(limit, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode < 0:
            self.wrong.append(f"{tag} killed after {wall:.1f} s")
        return Call(
            wall,
            usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024.0,
            proc.returncode,
            err_path.read_text(encoding="utf-8", errors="replace"),
        )

    def cli_argv(self, artifact: Path) -> list[str]:
        return self.workload.argv(self.alpha) + ["--out", str(artifact)]

    def gate(self, call: Call, artifact: Path) -> GateResult:
        result = self.workload.gate(self.alpha, call.exit_code, artifact, call.stderr)
        self.wrong.extend(result.wrong)
        artifact.unlink(missing_ok=True)
        return result

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


def source_fingerprint() -> str:
    """Digest of the package source, so stored digests are per version."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def check_stored(store_name: str, key: str, value) -> str | None:
    """Compare ``value`` with the one an earlier run stored under ``key``."""
    path = STATE / store_name
    store = json.loads(path.read_text()) if path.is_file() else {}
    if key not in store:
        store[key] = value
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(store, indent=1, sort_keys=True))
        os.replace(tmp, path)
        return None
    old = store[key]
    if old == value:
        return None
    if isinstance(old, dict):
        diff = sorted(k for k in set(old) | set(value) if old.get(k) != value.get(k))
        return f"{store_name}: {key} differs from an earlier run in {diff}"
    return f"{store_name}: {key} differs from an earlier run"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    import platform

    return platform.processor() or "unknown"


def probe(run: Run) -> dict:
    """Environment record; also checks that the package comes from this checkout."""
    call = run.spawn(["-c", PROBE], "probe")
    out = (run.work / "probe.stdout").read_text(encoding="utf-8").strip()
    if call.exit_code != 0 or not out:
        raise SystemExit(f"cannot import ringchain from {ROOT / 'src'}:\n{call.stderr}")
    info = json.loads(out.splitlines()[-1])
    if not Path(info["ringchain"]).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"ringchain imported from {info['ringchain']}, not from {ROOT / 'src'}")
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": info["python"],
        "numpy": info["numpy"],
        "cli_threads": info["cli_threads"],
        "CHAIN_SPECTRUM_THREADS": os.environ.get("CHAIN_SPECTRUM_THREADS"),
        "loadavg_start": list(os.getloadavg()),
    }


def tail(samples: list[float]) -> tuple[float, float] | None:
    """Highest percentile with ten samples above it, as (percentile, value)."""
    n = len(samples)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(samples)[n - 11]


def measure(run: Run, seconds: float) -> tuple[dict, GateResult, dict]:
    """End-to-end metrics: the workload's call for ``seconds``, set-up around it."""
    setup: list[float] = []

    def sample_setup(n: int) -> None:
        setup.extend(run.spawn(["-c", "import ringchain.cli"], "setup").wall_s for _ in range(n))

    calls: list[Call] = []
    gates: list[GateResult] = []
    start = perf_counter()
    while not calls or perf_counter() - start < seconds:
        sample_setup(2)
        artifact = run.work / "artifact"
        call = run.spawn(["-c", CLI_CALL, *run.cli_argv(artifact)], "call")
        calls.append(call)
        gates.append(run.gate(call, artifact))
        if call.exit_code < 0:
            break
    sample_setup(max(2, SETUP_SAMPLES - len(setup)))
    if len({g.digest for g in gates}) > 1:
        run.wrong.append("artifacts differ between calls with the same seed")
    walls = [c.wall_s for c in calls]
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(c.cpu_s for c in calls),
        "peak_rss_mb": statistics.median(c.peak_rss_mb for c in calls),
    }
    detail = {
        "setup_samples_s": setup,
        "wall_samples_s": walls,
        "wall_tail": tail(walls),
        "cpu_samples_s": [c.cpu_s for c in calls],
        "peak_rss_samples_mb": [c.peak_rss_mb for c in calls],
        "exit_codes": sorted({c.exit_code for c in calls}),
    }
    return metrics, max(gates, key=lambda g: g.failed), detail


def trace(run: Run) -> tuple[dict, GateResult, dict]:
    """Per-layer metrics from one traced call, next to one untraced call."""
    artifact = run.work / "artifact"
    plain = run.spawn(["-c", CLI_CALL, *run.cli_argv(artifact)], "call")
    plain_gate = run.gate(plain, artifact)
    summary_path, spans_path = run.work / "summary.json", STATE / "spans" / f"{run.workload.name}.jsonl"
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    script = str(Path(__file__).with_name("traced_cli.py"))
    traced = run.spawn(
        [script, str(summary_path), str(spans_path), "--", *run.cli_argv(artifact)], "traced"
    )
    traced_gate = run.gate(traced, artifact)
    if traced_gate.digest != plain_gate.digest:
        run.wrong.append("the traced call's artifact differs from the untraced one")
    if not summary_path.is_file():
        raise SystemExit(f"traced call wrote no summary:\n{traced.stderr}")
    summary = json.loads(summary_path.read_text())
    metrics = summary["metrics"]
    metrics["trace.overhead_s"] = traced.wall_s - plain.wall_s
    detail = {
        "untraced_wall_s": plain.wall_s,
        "traced_wall_s": traced.wall_s,
        "missing_patch_points": summary["missing"],
        "spans_file": str(spans_path.relative_to(ROOT)),
    }
    return metrics, max(plain_gate, traced_gate, key=lambda g: g.failed), detail


def run_one(spec: dict, workload: Workload, seed: int, seconds: float, traced: bool) -> dict:
    run = Run(workload, seed)
    try:
        env = probe(run)
        metrics, gate, detail = trace(run) if traced else measure(run, seconds)
        env["loadavg_end"] = list(os.getloadavg())
    finally:
        run.close()
    key = f"{source_fingerprint()}:{workload.name}:{seed}"
    problems = [check_stored("digests.json", key, gate.digest)]
    wanted = spec["per_layer"] if traced else spec["end_to_end"]
    if traced:
        exact = {m["name"]: metrics[m["name"]] for m in wanted
                 if m["unit"] == "count" and m["name"] != "cli.threads"}
        problems.append(check_stored("counts.json", key, exact))
    run.wrong.extend(p for p in problems if p)
    result = {
        "correct": not run.wrong,
        "attempted": gate.ops,
        "failed": gate.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    record = {
        "workload": workload.name,
        "seed": seed,
        "alpha": run.alpha,
        "argv": ["ringchain", *workload.argv(run.alpha)],
        "trace": traced,
        "env": env,
        "detail": detail,
        "digest": gate.digest,
        "failures": gate.failures,
        "wrong": run.wrong,
        "result": result,
    }
    results = STATE / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{workload.name}-seed{seed}-trace{int(traced)}.json").write_text(
        json.dumps(record, indent=1)
    )
    report(record)
    return result


def report(record: dict) -> None:
    """Human-readable lines: environment, every metric with its unit, failures."""
    print("env " + json.dumps(record["env"]))
    print(f"workload {record['workload']} seed {record['seed']}: {' '.join(record['argv'])}")
    res = record["result"]
    for name, m in res["metrics"].items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    detail = record["detail"]
    if "wall_samples_s" in detail:
        t = detail["wall_tail"]
        print(
            f"  wall_s samples: {len(detail['wall_samples_s'])}; "
            + (f"p{t[0]:.1f} {t[1]:.6g} s" if t else "tail percentile needs 11 or more")
        )
    print(f"  ops {res['attempted']} count, ops_failed {res['failed']} count, correct {res['correct']}")
    for line in record["failures"][:8]:
        print(f"  failed: {line}")
    for line in record["wrong"][:8]:
        print(f"  WRONG: {line}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # Turn a termination request into an exception, so that the call in
    # flight is killed and reaped before the run exits.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "ringchain" / "cli.py").is_file() or not spec_path.is_file():
        print(f"no ringchain source or BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if not (seconds > 0 and math.isfinite(seconds)):
        parser.error("--seconds must be positive")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {
        name: run_one(spec, WORKLOADS[name], args.seed, seconds, bool(args.trace))
        for name in names
    }
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
