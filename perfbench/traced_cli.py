"""Run one ``ringchain`` CLI call with per-layer tracing and save the trace.

Usage: ``python3 traced_cli.py SUMMARY.json SPANS.jsonl -- <cli argv>``.
The package must be importable (``PYTHONPATH`` pointing at ``src``).  The
exit code is the CLI's; the summary and spans are written after the call.
"""
from __future__ import annotations

import json
import sys

import tracer


def main() -> int:
    summary_path, spans_path, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: traced_cli.py SUMMARY.json SPANS.jsonl -- <cli argv>")
    recorder = tracer.Recorder()
    tracer.install(recorder)
    from ringchain import cli

    code = recorder.run_root("cli.main", cli.main, argv)
    with open(spans_path, "w", encoding="utf-8") as fh:
        for sid, name, t0, t1, parent, tid in recorder.spans():
            fh.write(json.dumps([sid, name, t0, t1, parent, tid]) + "\n")
    summary = {"metrics": tracer.summarize(recorder), "missing": recorder.missing}
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
    return code


if __name__ == "__main__":
    sys.exit(main())
