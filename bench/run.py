#!/usr/bin/env python3
"""Benchmark of the silkcheck command line: run one workload and print its
metrics, the last line as one JSON object.

    python3 bench/run.py --workload exp_unroll --seed 1 --seconds 20 --trace 0

The seed sets only the generated op list.  Every op is a real CLI operation
(``silkcheck.cli.main(argv)``) in a fresh child process, checked against the
hand-written answers in ``expected.json``.  The load is a closed loop with
one client: one op at a time, because a CLI caller waits for its verdict.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the same
passes again in traced children (see ``tracer.py``) and prints the per-layer
metrics.  See ``USAGE.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CORPUS = ROOT / "src" / "silkcheck" / "corpus"
EXPECTED = json.loads((BENCH / "expected.json").read_text())

# Fewest passes in a run; each pass runs in a fresh child process and
# reports one set-up time.
MIN_PASSES = 4
# A whole run, children included, must end within this many seconds.
RUN_LIMIT_S = 170
# Times are reported for a host that runs the child's reference loop in this
# many seconds: see ``calibrate``.
REF_NOMINAL_S = 0.002

SCRIPTS = (
    "silk_fhat.slk",
    "silk_exp.slk",
    "silk_conj_comm.slk",
    "silk_excluded_middle.slk",
    "silk_wedge.slk",
    "silk_wedge_var.slk",
    "silk_interleaved.slk",
    "silk_contract.slk",
)
SCHEMATA = ("schema_exp.sch", "schema_fhat.sch", "schema_shat.sch", "schema_svar.sch")
PROOFS = ("lk_exists_rename.lkp", "lk_forall_rename.lkp", "lk_nu_shat.lkp", "lk_or_contract.lkp", "lk_pi_shat.lkp")

# One pass of a workload is a fixed multiset of ops; the seed draws the
# order of every pass.  Op cost grows as 2^alpha (exp_unroll) or about as
# A^2 (tower_stats), so a free draw of sizes would let the seed, not the
# program, set the times.  Instead smaller sizes come more often, so the
# median and the tail fall on different sizes.  alpha = 12 is left out: one
# ``unroll --check`` at 12 takes about 30 s at the baseline.
EXP_MIX = {6: 4, 7: 2, 8: 1, 9: 2, 10: 1}
TOWER_MIX = {
    ("schema_fhat.sch", 20): 3,
    ("schema_shat.sch", 20): 2,
    ("schema_fhat.sch", 30): 1,
    ("schema_shat.sch", 30): 2,
    ("schema_shat.sch", 40): 1,
    ("schema_fhat.sch", 70): 1,
}
SWEEP_COPIES = 4


class HarnessError(Exception):
    """The benchmark could not run; no result is printed."""


def inference_total(schema: str, alpha: int, form: str) -> int:
    """Hand-written closed form for the unrolled proof's inference count."""
    spec = EXPECTED["inference_totals"][schema]
    if alpha < spec["from_alpha"]:
        return spec["below"][str(alpha)][form]
    slope, offset = spec[form]
    return slope * (2**alpha if spec["growth"] == "2^alpha" else alpha) + offset


def _path(name: str) -> str:
    return str(CORPUS / name)


def exp_unroll_op(alpha: int) -> dict:
    return {
        "id": f"unroll schema_exp.sch a={alpha}",
        "argv": ["unroll", _path("schema_exp.sch"), "--alpha", str(alpha), "--lk", "--check", "--quiet", "--json"],
        "expect": {"exit": 0, "lines": ["check: accepted"], "total": inference_total("schema_exp.sch", alpha, "normal")},
    }


def stats_op(schema: str, top: int) -> dict:
    rows = [
        [a, inference_total(schema, a, "expanded"), inference_total(schema, a, "normal")] for a in range(top + 1)
    ]
    return {
        "id": f"stats {schema} 0..{top}",
        "argv": ["stats", _path(schema), "--alpha-range", f"0..{top}"],
        "expect": {"exit": 0, "rows": rows},
    }


def sweep_ops() -> list:
    """Every command on every corpus file it accepts."""
    codes = EXPECTED["exit_codes"]
    ops = []
    for script in SCRIPTS:
        for command, extra, expect in (
            ("check-silk", [], {"lines": ["verdict: proof"]}),
            ("ppsnf", [], {}),
            ("translate", [], {}),
            ("interpret", [], {}),
            ("stats", ["--alpha-range", "0..4"], {"row_count": 5}),
        ):
            op_id = f"{command} {script}" + (" 0..4" if extra else "")
            ops.append({"id": op_id, "argv": [command, _path(script), *extra], "expect": {"exit": codes[op_id], **expect}})
    for schema in SCHEMATA:
        op_id = f"check-schema {schema}"
        ops.append({"id": op_id, "argv": ["check-schema", _path(schema)], "expect": {"exit": codes[op_id], "lines": ["accepted"]}})
        op_id = f"unroll {schema} a=3"
        ops.append(
            {
                "id": op_id,
                "argv": ["unroll", _path(schema), "--alpha", "3"],
                "expect": {"exit": codes[op_id], "total": inference_total(schema, 3, "expanded")},
            }
        )
    for proof in PROOFS:
        want = EXPECTED["check_lk"][proof]
        extra = ["--mode", "lks", "--env", _path("schema_shat.sch")] if proof == "lk_nu_shat.lkp" else []
        ops.append(
            {
                "id": f"check-lk {proof}",
                "argv": ["check-lk", _path(proof), *extra],
                "expect": {"exit": want["exit"], "lines": ["accepted"], "total": want["inferences"]},
            }
        )
    return ops


# name -> (one pass of ops, nominal seconds per pass at the baseline)
WORKLOADS = {
    "exp_unroll": (lambda: [exp_unroll_op(a) for a, n in EXP_MIX.items() for _ in range(n)], 7.5),
    "tower_stats": (lambda: [stats_op(s, top) for (s, top), n in TOWER_MIX.items() for _ in range(n)], 8.0),
    "corpus_sweep": (lambda: sweep_ops() * SWEEP_COPIES, 2.4),
}


def plan(workload: str, seed: int, seconds: float) -> list:
    """The run's passes: the same multiset of ops each, in seeded order.

    The pass count follows from ``seconds`` and the nominal pass cost, so two
    commits measured with the same arguments do identical work.
    """
    make_pass, nominal = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    passes = []
    for _ in range(max(MIN_PASSES, round(seconds / nominal))):
        ops = make_pass()
        rng.shuffle(ops)
        passes.append(ops)
    return passes


def run_child(ops: list, trace: bool, deadline: float, spans: Path | None = None, env_extra: dict | None = None) -> dict:
    """Run one child to completion; its set-up time is measured from spawn."""
    job = json.dumps({"root": str(ROOT), "ops": ops, "trace": trace, "spans": str(spans) if spans else None})
    env = {k: v for k, v in os.environ.items() if k != "SILK_FUEL"}
    env.update(env_extra or {})
    started = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py")],
            input=job,
            capture_output=True,
            text=True,
            cwd=ROOT,
            env=env,
            timeout=max(1.0, deadline - started),
        )
    except subprocess.TimeoutExpired:
        raise HarnessError("child did not finish within the run's time limit") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise HarnessError(f"child exited with code {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["raw_setup_s"] = result["ready"] - started
    return calibrate(result)


def calibrate(child: dict) -> dict:
    """Scale a child's times to a host of fixed speed.

    The shared host this runs on changes speed by up to 2x within seconds, so
    raw times say more about the neighbours than about the program.  The
    child times a fixed reference loop after set-up, every quarter second
    between ops, and at the end; each op's latency is scaled by
    ``REF_NOMINAL_S`` over the mean of the reference times just before and
    after it, and set-up by the first reference time.  The reference loop
    does not touch silkcheck, so a change to the program moves the scaled
    times as much as the raw ones.
    """
    refs = child["refs"]
    for rec in child["ops"]:
        rec["factor"] = REF_NOMINAL_S / ((refs[rec["ref"]] + refs[rec["ref"] + 1]) / 2)
        rec["cal_ms"] = rec["ms"] * rec["factor"]
    child["setup_s"] = child["raw_setup_s"] * REF_NOMINAL_S / refs[0]
    return child


def pass_seconds(child: dict, key: str = "cal_ms") -> float:
    """Time for one pass of the op list: op time only, harness work excluded."""
    return sum(rec[key] for rec in child["ops"]) / 1e3


def tail(latencies: list) -> tuple:
    """(value, percentile): the highest percentile with at least 10 ops beyond it."""
    ordered = sorted(latencies)
    rank = len(ordered) - 10
    if rank < 1:
        return ordered[-1], 100.0
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def end_to_end(children: list) -> tuple:
    records = [rec for child in children for rec in child["ops"]]
    latencies = [rec["cal_ms"] for rec in records]
    ok = sum(rec["error"] is None for rec in records)
    tail_ms, tail_pct = tail(latencies)
    metrics = {
        "setup_s": (statistics.median(c["setup_s"] for c in children), "s"),
        "wall_s": (statistics.median(pass_seconds(c) for c in children), "s"),
        "ops_per_s": (ok / sum(pass_seconds(c) for c in children), "1/s"),
        "op_p50_ms": (statistics.median(latencies), "ms"),
        "op_tail_ms": (tail_ms, "ms"),
        "peak_rss_mb": (max(c["maxrss_kb"] for c in children) / 1024, "MB"),
        "success_rate": (ok / len(records), "ratio"),
    }
    notes = [
        f"op_tail_ms is p{tail_pct:.1f} of {len(latencies)} ops",
        f"times scaled to a {REF_NOMINAL_S * 1e3:g} ms reference loop; unscaled: "
        f"setup_s {statistics.median(c['raw_setup_s'] for c in children):.4g} s, "
        f"wall_s {statistics.median(pass_seconds(c, 'ms') for c in children):.4g} s, "
        f"op_p50_ms {statistics.median(rec['ms'] for rec in records):.4g} ms, "
        f"reference loop median {1e3 * statistics.median(r for c in children for r in c['refs']):.3g} ms",
        f"error_rate {1 - ok / len(records):.4f} ({len(records) - ok} of {len(records)} ops)",
    ]
    return metrics, notes


LAYER_METRICS = (
    ("parser.calls", "count"),
    ("parser.self_ms", "ms"),
    ("parser.bytes", "bytes"),
    ("parser.arity_ms", "ms"),
    ("rewrite.calls", "count"),
    ("rewrite.self_ms", "ms"),
    ("rewrite.steps", "count"),
    ("rewrite.cache_entries", "count"),
    ("rewrite.validate_ms", "ms"),
    ("schema.self_ms", "ms"),
    ("schema.evaluate_calls", "count"),
    ("schema.evaluate_self_ms", "ms"),
    ("schema.expansions", "count"),
    ("schema.expanded_nodes", "count"),
    ("schema.normal_nodes", "count"),
    ("schema.us_per_expansion", "us"),
    ("schema.check_ms", "ms"),
    ("kernel.calls", "count"),
    ("kernel.self_ms", "ms"),
    ("kernel.inferences", "count"),
    ("kernel.check_ms", "ms"),
    ("kernel.us_per_inference", "us"),
    ("silk.calls", "count"),
    ("silk.self_ms", "ms"),
    ("silk.steps", "count"),
    ("translate.self_ms", "ms"),
    ("translate.ppsnf_self_ms", "ms"),
    ("translate.schema_self_ms", "ms"),
    ("translate.interpret_ms", "ms"),
    ("printer.self_ms", "ms"),
    ("printer.bytes", "bytes"),
    ("cli.self_ms", "ms"),
    ("trace.overhead_pct", "%"),
)


def per_layer(plain: list, traced: list) -> tuple:
    """Per-layer totals of the traced passes, per pass; ``rewrite.cache_entries``
    is the largest cache seen after any op."""
    sums: dict = {}
    for child in traced:
        for rec in child["ops"]:
            for key, value in rec["layers"].items():
                if key == "rewrite.cache_entries":
                    sums[key] = max(sums.get(key, 0), value)
                else:
                    sums[key] = sums.get(key, 0) + (value * rec["factor"] if key.endswith("_ms") else value)
    sums = {k: v if k == "rewrite.cache_entries" else v / len(traced) for k, v in sums.items()}
    sums["schema.us_per_expansion"] = 1e3 * sums.get("schema.evaluate_self_ms", 0) / max(sums.get("schema.expansions", 0), 1)
    sums["kernel.us_per_inference"] = 1e3 * sums.get("kernel.check_ms", 0) / max(sums.get("kernel.inferences", 0), 1)
    untraced = statistics.median(pass_seconds(c) for c in plain)
    with_spans = statistics.median(pass_seconds(c) for c in traced)
    sums["trace.overhead_pct"] = 100.0 * (with_spans / untraced - 1)
    drift = max(abs(rec["layers"]["self_sum_ms"] - rec["layers"]["wall_ms"]) for c in traced for rec in c["ops"])
    if drift > 1e-3:
        raise HarnessError(f"layer self times miss an op's traced wall time by {drift:.6f} ms")
    metrics = {name: (sums.get(name, 0), unit) for name, unit in LAYER_METRICS}
    notes = [
        f"values per pass of the op list, over {len(traced)} traced passes",
        f"layer self times plus cli.self_ms equal each op's traced wall time (largest gap {drift:.2e} ms)",
        f"traced pass {with_spans:.3f} s against untraced {untraced:.3f} s (medians)",
    ]
    return metrics, notes


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run the workload; with ``trace`` the same op lists run again traced."""
    if not (ROOT / "src" / "silkcheck" / "cli.py").is_file():
        raise HarnessError(f"no silkcheck sources under {ROOT / 'src'}")
    deadline = time.monotonic() + RUN_LIMIT_S
    passes = plan(workload, seed, seconds)
    plain = [run_child(ops, False, deadline) for ops in passes]
    children = plain
    if trace:
        out = BENCH / "out"
        out.mkdir(exist_ok=True)
        traced = [
            run_child(ops, True, deadline, out / f"spans-{workload}-seed{seed}-pass{i}.tsv")
            for i, ops in enumerate(passes)
        ]
        children = plain + traced
        metrics, notes = per_layer(plain, traced)
    else:
        metrics, notes = end_to_end(plain)
    records = [rec for child in children for rec in child["ops"]]
    failed = [rec for rec in records if rec["error"] is not None]
    notes += [f"FAILED {rec['id']}: {rec['error'][:300]}" for rec in failed[:20]]
    return {
        "lines": [f"{workload} seed={seed}: {len(passes)} passes of {len(passes[0])} ops, one child each"]
        + [f"{name} = {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
        + notes,
        "result": {
            "correct": not failed,
            "attempted": len(records),
            "failed": len(failed),
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        },
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        outcome = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except HarnessError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for line in outcome["lines"]:
        print(line)
    print(json.dumps(outcome["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
