"""Per-layer spans and counts for one CLI call, recorded from outside the package.

Every ``ringchain`` module imports what it calls in another module by
name, so each call across a layer boundary goes through a module
attribute.  ``install`` replaces those attributes (for example
``ringchain.gaps.brackets_from_samples`` or ``ringchain.cli.gap_eigenvalues``)
with wrappers; the package itself is not edited.  Boundaries crossed a few
thousand times record a span (name, start, end, parent, thread); the hot
scalar kernels only count calls.  Spans and counts are kept per thread in
memory and summarised once the call has returned.

A patch point that a later version of the package no longer has is
skipped and listed in the summary, and the metrics it fed read zero.
"""
from __future__ import annotations

import importlib
import itertools
import threading
from collections import Counter, defaultdict
from time import perf_counter

# Layers that record spans; dispersion kernels are only counted, so their
# time is part of their callers' self time.
SPAN_LAYERS = ("cli", "gaps", "bands", "rootfind", "resonance", "transfer", "verify")


class Recorder:
    """Spans and counts of one traced call, one buffer per thread."""

    def __init__(self) -> None:
        self._ids = itertools.count(1)
        self.root = next(self._ids)
        self.threads: list[tuple[list, Counter]] = []
        self.missing: list[str] = []
        recorder = self

        class _PerThread(threading.local):
            def __init__(self) -> None:
                self.tid = threading.get_ident()
                self.stack: list[int] = []
                self.spans: list[tuple] = []
                self.counts: Counter = Counter()
                # The buffers themselves: attributes of a thread-local read
                # from another thread would show that thread's values.
                recorder.threads.append((self.spans, self.counts))

        self._local = _PerThread()

    def span(self, name, fn, *, before=None, after=None):
        """Wrap ``fn`` so each call records a span; ``name`` may be a function of the args."""
        local, ids, root = self._local, self._ids, self.root

        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            if before is not None:
                args, kwargs = before(local.counts, args, kwargs)
            sid = next(ids)
            stack = local.stack
            # A worker thread's outermost span belongs to the root call.
            parent = stack[-1] if stack else root
            stack.append(sid)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                local.spans.append((sid, label, t0, t1, parent, local.tid))
            if after is not None:
                after(local.counts, args, kwargs, out)
            return out

        return wrapper

    def count(self, key, fn, size=None):
        """Wrap ``fn`` so each call adds 1 (or ``size(args)``) to count ``key``."""
        local = self._local

        if size is None:
            def wrapper(*args, **kwargs):
                local.counts[key] += 1
                return fn(*args, **kwargs)
        else:
            def wrapper(*args, **kwargs):
                local.counts[key] += size(args)
                return fn(*args, **kwargs)

        return wrapper

    def run_root(self, name, fn, *args):
        """Call ``fn`` as the root span that every other span descends from."""
        local = self._local
        local.stack.append(self.root)
        t0 = perf_counter()
        try:
            return fn(*args)
        finally:
            t1 = perf_counter()
            local.stack.pop()
            local.spans.append((self.root, name, t0, t1, 0, local.tid))

    def spans(self) -> list[tuple]:
        return [s for spans, _ in self.threads for s in spans]

    def counts(self) -> Counter:
        total: Counter = Counter()
        for _, counts in self.threads:
            total.update(counts)
        return total


def _count_bisect_evals(counts, args, kwargs):
    fn = args[0]

    def counted(x):
        counts["rootfind.bisect_evals"] += 1
        return fn(x)

    return (counted,) + tuple(args[1:]), kwargs


def _scan_points(counts, args, kwargs, out):
    counts["rootfind.scan_points"] += len(args[0])


def _newton_outcome(counts, args, kwargs, out):
    counts["rootfind.newton_iters"] += int(getattr(out, "iterations", 0))
    counts["rootfind.newton_converged"] += bool(getattr(out, "converged", False))


def _solve_gap_found(counts, args, kwargs, out):
    counts["gaps.solve_gap_found"] += out is not None


def _branch_nodes(counts, args, kwargs, out):
    counts["resonance.nodes"] += len(getattr(out, "samples", ()))


def _criterion_name(args, kwargs):
    label = args[0] if args else kwargs.get("label")
    return f"verify.criterion_{label}"


def _grid_size(args):
    return int(getattr(args[0], "size", 1))


# (span name, defining module, function, modules whose name is patched, hooks)
SPANS = (
    ("rootfind.brackets_from_samples", "_rootfind", "brackets_from_samples", ("gaps", "bands"), {"after": _scan_points}),
    ("rootfind.bisect", "_rootfind", "bisect", ("gaps", "bands", "verify"), {"before": _count_bisect_evals}),
    ("rootfind.newton_complex", "_rootfind", "newton_complex", ("resonance",), {"after": _newton_outcome}),
    ("gaps.gap_eigenvalues", "gaps", "gap_eigenvalues", ("cli", "verify"), {}),
    ("gaps.gap_intervals", "gaps", "gap_intervals", ("gaps", "cli", "verify", "resonance"), {}),
    ("gaps.solve_gap", "gaps", "solve_gap", ("gaps", "verify"), {"after": _solve_gap_found}),
    ("gaps.solve_negative", "gaps", "solve_negative", ("gaps", "verify"), {}),
    ("gaps.solve_gap_near_edge", "gaps", "solve_gap_near_edge", ("resonance",), {}),
    ("gaps.double_points_in_gap", "gaps", "double_points_in_gap", ("verify",), {}),
    ("gaps.kappa_cutoff", "gaps", "kappa_cutoff", ("verify",), {}),
    ("gaps.odd_zero_crossing_angle", "gaps", "odd_zero_crossing_angle", ("verify",), {}),
    ("gaps.recover_double_angle", "gaps", "recover_double_angle", ("verify",), {}),
    ("gaps.trace_eigenvalue_curve", "gaps", "trace_eigenvalue_curve", ("verify",), {}),
    ("bands._edge_roots", "bands", "_edge_roots", ("gaps",), {}),
    ("bands.compute_bands", "bands", "compute_bands", ("cli", "verify"), {}),
    ("bands.in_spectrum", "bands", "in_spectrum", ("verify",), {}),
    ("bands.lowest_band_threshold", "bands", "lowest_band_threshold", ("verify",), {}),
    ("resonance.enumerate_singular_points", "resonance", "enumerate_singular_points", ("cli",), {}),
    ("resonance.trace_complex_branch", "resonance", "trace_complex_branch", ("cli",), {"after": _branch_nodes}),
    ("resonance.count_zeros_box", "resonance", "count_zeros_box", ("verify",), {}),
    ("resonance.fit_branch_exponent", "resonance", "fit_branch_exponent", ("verify",), {}),
    ("resonance.fit_gentle_coefficient", "resonance", "fit_gentle_coefficient", ("verify",), {}),
    ("resonance.gentle_bend_coefficient", "resonance", "gentle_bend_coefficient", ("verify",), {}),
    ("transfer.transfer_matrix", "transfer", "transfer_matrix", ("verify",), {}),
    ("transfer.transfer_eigen", "transfer", "transfer_eigen", ("verify",), {}),
    ("transfer.boundary_vector_even", "transfer", "boundary_vector_even", ("verify",), {}),
    ("transfer.coefficient_sequence", "transfer", "coefficient_sequence", ("verify",), {}),
    ("transfer.measured_decay_rate", "transfer", "measured_decay_rate", ("verify",), {}),
    ("verify.run_all", "verify", "run_all", ("cli",), {}),
    (_criterion_name, "verify", "run_criterion", ("verify",), {}),
    # The CLI's per-angle and per-branch work runs in its worker threads.
    ("cli._eigenvalue_rows", "cli", "_eigenvalue_rows", ("cli",), {}),
    ("cli._trace_one", "cli", "_trace_one", ("cli",), {}),
)

# (count key, defining module, function, modules whose name is patched, size of one call)
COUNTS = (
    ("dispersion.scalar_evals", "dispersion", "discriminant", ("gaps", "bands"), None),
    ("dispersion.scalar_evals", "dispersion", "discriminant_negative", ("bands",), None),
    ("dispersion.scalar_evals", "dispersion", "gap_function", ("gaps",), None),
    ("dispersion.scalar_evals", "dispersion", "gap_function_negative", ("gaps",), None),
    ("resonance.residual_evals", "resonance", "resonance_residual", ("resonance", "verify"), None),
    ("resonance.grid_points", "resonance", "resonance_residual_grid", ("resonance", "verify"), _grid_size),
    ("resonance.refine_calls", "resonance", "refine_resonance", ("resonance",), None),
)


def install(recorder: Recorder) -> None:
    """Patch every listed name; each original function gets one wrapper."""
    def module(short):
        return importlib.import_module(f"ringchain.{short}")

    def patch(defining, func, sites, make):
        original = getattr(module(defining), func, None)
        if original is None:
            recorder.missing.append(f"ringchain.{defining}.{func}")
            return
        wrapper = make(original)
        for site in sites:
            mod = module(site)
            if getattr(mod, func, None) is original:
                setattr(mod, func, wrapper)
            else:
                recorder.missing.append(f"ringchain.{site}.{func}")

    for name, defining, func, sites, hooks in SPANS:
        patch(defining, func, sites, lambda fn, name=name, hooks=hooks: recorder.span(name, fn, **hooks))
    for key, defining, func, sites, size in COUNTS:
        patch(defining, func, sites, lambda fn, key=key, size=size: recorder.count(key, fn, size))


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def _covered(parent: tuple, children: list[tuple]) -> float:
    """Length of the part of ``parent``'s interval that its children cover."""
    lo, hi = parent[2], parent[3]
    total, end = 0.0, lo
    for _, _, c0, c1, _, _ in sorted(children, key=lambda s: s[2]):
        c0, c1 = max(c0, end), min(c1, hi)
        if c1 > c0:
            total += c1 - c0
            end = c1
    return total


def summarize(recorder: Recorder) -> dict:
    """Per-layer metrics of the traced call (names as in BENCHMARK.json)."""
    spans = recorder.spans()
    counts = recorder.counts()
    children: dict[int, list[tuple]] = defaultdict(list)
    for s in spans:
        children[s[4]].append(s)
    self_s: Counter = Counter()
    calls: Counter = Counter()
    busy: Counter = Counter()
    durations: dict[str, list[float]] = defaultdict(list)
    for s in spans:
        name, dur = s[1], s[3] - s[2]
        calls[name] += 1
        busy[name] += dur
        durations[name].append(dur)
        self_s[name.split(".")[0]] += dur - _covered(s, children.get(s[0], []))

    def ms(name, q):
        return 1e3 * _percentile(durations.get(name, []), q)

    def ratio(num, den):
        return num / den if den else 0.0

    m = {
        "rootfind.scan_calls": calls["rootfind.brackets_from_samples"],
        "rootfind.scan_points": counts["rootfind.scan_points"],
        "rootfind.scan_s": busy["rootfind.brackets_from_samples"],
        "rootfind.bisect_calls": calls["rootfind.bisect"],
        "rootfind.bisect_evals": counts["rootfind.bisect_evals"],
        "rootfind.bisect_s": busy["rootfind.bisect"],
        "rootfind.newton_calls": calls["rootfind.newton_complex"],
        "rootfind.newton_iters": counts["rootfind.newton_iters"],
        "rootfind.newton_converged_ratio": ratio(
            counts["rootfind.newton_converged"], calls["rootfind.newton_complex"]
        ),
        "rootfind.newton_s": busy["rootfind.newton_complex"],
        "dispersion.scalar_evals": counts["dispersion.scalar_evals"],
        "gaps.spectrum_calls": calls["gaps.gap_eigenvalues"],
        "gaps.spectrum_ms_p50": ms("gaps.gap_eigenvalues", 50),
        "gaps.spectrum_ms_p90": ms("gaps.gap_eigenvalues", 90),
        "gaps.gap_intervals_calls": calls["gaps.gap_intervals"],
        "gaps.gap_intervals_s": busy["gaps.gap_intervals"],
        "gaps.solve_gap_calls": calls["gaps.solve_gap"],
        "gaps.solve_gap_s": busy["gaps.solve_gap"],
        "gaps.solve_gap_found_ratio": ratio(counts["gaps.solve_gap_found"], calls["gaps.solve_gap"]),
        "gaps.solve_negative_calls": calls["gaps.solve_negative"],
        "gaps.solve_negative_s": busy["gaps.solve_negative"],
        "bands.edge_scan_calls": calls["bands._edge_roots"],
        "bands.edge_scan_s": busy["bands._edge_roots"],
        "resonance.branches": calls["resonance.trace_complex_branch"],
        "resonance.branch_ms_p50": ms("resonance.trace_complex_branch", 50),
        "resonance.branch_ms_p85": ms("resonance.trace_complex_branch", 85),
        "resonance.refine_calls": counts["resonance.refine_calls"],
        "resonance.nodes_per_refine": ratio(counts["resonance.nodes"], counts["resonance.refine_calls"]),
        "resonance.residual_evals": counts["resonance.residual_evals"],
        "resonance.grid_points": counts["resonance.grid_points"],
        "transfer.calls": sum(n for k, n in calls.items() if k.startswith("transfer.")),
        "transfer.s": sum(t for k, t in busy.items() if k.startswith("transfer.")),
    }
    for label in ("4", "5", "10", "11"):
        m[f"verify.criterion_{label}_s"] = busy[f"verify.criterion_{label}"]
    for layer in SPAN_LAYERS:
        m[f"{layer}.self_s"] = self_s[layer]
    m["cli.threads"] = len({s[5] for s in spans if s[0] != recorder.root})
    m["trace.spans"] = len(spans)
    return m
