"""One benchmark child process: starts like a fresh CLI invocation, runs the
op list it reads from standard input and prints one JSON line of results.

Each op is ``silkcheck.cli.main(argv)`` called in this process with stdout
and stderr captured, so it parses its inputs and loads its theory exactly as
``silkcheck ARGS`` would.  Ops run one at a time with ``gc.collect()``
between them (outside the timed region); gc stays enabled.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def inference_total(out: str) -> int:
    """Inference total from ``--json`` counts or an ``inferences:`` line."""
    if out.startswith("{"):
        payload, _ = json.JSONDecoder().raw_decode(out)
        return sum(payload["counts"].values())
    for line in reversed(out.splitlines()):
        if line.startswith("inferences:"):
            return sum(int(item.rsplit("=", 1)[1]) for item in line.split(":", 1)[1].split(", "))
    raise ValueError("no inference counts in output")


def stats_rows(out: str) -> list:
    """(alpha, expanded total, normal total) rows of a ``stats`` table."""
    return [[int(cell) for cell in line.split()[:3]] for line in out.splitlines()[1:]]


def check_output(expect: dict, code, out: str):
    """Compare one op's exit code and stdout with its expected answers.

    Returns (error or None, the totals read from the output or None).
    """
    if code != expect["exit"]:
        return f"exit code {code}, expected {expect['exit']}", None
    lines = out.splitlines()
    for line in expect.get("lines", ()):
        if line not in lines:
            return f"no line {line!r} in output", None
    try:
        if "total" in expect:
            seen = inference_total(out)
            if seen != expect["total"]:
                return f"{seen} inferences, expected {expect['total']}", seen
            return None, seen
        if "rows" in expect:
            seen = stats_rows(out)
            if seen != expect["rows"]:
                return f"stats rows {seen}, expected {expect['rows']}", seen
            return None, seen
        if "row_count" in expect:
            seen = len(stats_rows(out))
            if seen != expect["row_count"]:
                return f"stats printed {seen} rows, expected {expect['row_count']}", seen
    except (ValueError, KeyError, IndexError) as exc:
        return f"unreadable output: {exc}", None
    return None, None


def run_op(op: dict, cli_main, tracer=None) -> dict:
    """Run one CLI op; time it, check it, and with a tracer collect its layers."""
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    code = error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if tracer is None:
                code = cli_main(op["argv"])
            else:
                with tracer.op(op["id"]):
                    code = cli_main(op["argv"])
    except Exception as exc:
        error = "raised " + "".join(traceback.format_exception_only(exc)).strip()
    elapsed = time.perf_counter() - start
    seen = None
    if error is None:
        error, seen = check_output(op["expect"], code, out.getvalue())
    record = {"id": op["id"], "ms": elapsed * 1e3, "error": error, "seen": seen}
    if tracer is not None:
        record["layers"] = tracer.finish_op()
    return record


# Input files a child reads during set-up.
INPUTS = (".sch", ".slk", ".lkp", ".thy")
# Longest gap between two reference timings, in seconds.
REF_EVERY_S = 0.25


def reference_seconds() -> float:
    """How fast the host runs Python right now: the best of three timings of
    a fixed loop, so that one preemption does not count as a slow host."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        table = {}
        for i in range(10000):
            table[i & 1023] = (i, str(i & 255))
        best = min(best, time.perf_counter() - start)
    return best


def main() -> int:
    job = json.load(sys.stdin)
    src = (Path(job["root"]) / "src").resolve()
    sys.path.insert(0, str(src))
    import silkcheck.cli

    if not Path(silkcheck.cli.__file__).resolve().is_relative_to(src):
        print(f"silkcheck imported from {silkcheck.cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    for name in sorted({a for op in job["ops"] for a in op["argv"] if a.endswith(INPUTS)}):
        Path(name).read_bytes()
    ready = time.monotonic()

    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer().install()
    refs = [reference_seconds()]
    last = time.perf_counter()
    records = []
    for op in job["ops"]:
        if time.perf_counter() - last > REF_EVERY_S:
            refs.append(reference_seconds())
            last = time.perf_counter()
        record = run_op(op, silkcheck.cli.main, tracer)
        record["ref"] = len(refs) - 1
        records.append(record)
    refs.append(reference_seconds())
    if tracer is not None and job["spans"]:
        tracer.write_spans(job["spans"])
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"ready": ready, "maxrss_kb": maxrss_kb, "ops": records, "refs": refs}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
