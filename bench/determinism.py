#!/usr/bin/env python3
"""Determinism check: two traced runs of one seed's first pass, under
different ``PYTHONHASHSEED`` values, must count the same work op by op.

    python3 bench/determinism.py --workload exp_unroll --seed 1

The compared counters are ``tracer.COUNTERS``: rewrite steps, link
expansions, proof node counts, the largest rewrite cache, SiLK steps and
the call and byte counts.  A mismatch is printed and the exit code is 1;
it is a finding about the program, not something to tune away.
"""

from __future__ import annotations

import argparse
import sys
import time

import run
from tracer import COUNTERS

HASH_SEEDS = ("0", "4242")


def counters(ops: list, hash_seed: str) -> list:
    """Per-op counters of one traced run of ``ops``, in op order."""
    deadline = time.monotonic() + run.RUN_LIMIT_S
    result = run.run_child(ops, True, deadline, env_extra={"PYTHONHASHSEED": hash_seed})
    return [(rec["id"], rec["error"], {k: rec["layers"].get(k, 0) for k in COUNTERS}) for rec in result["ops"]]


def compare(ops: list) -> list:
    """Differences between runs of ``ops`` under each hash seed, as text."""
    first, second = (counters(ops, h) for h in HASH_SEEDS)
    found = []
    for (op_id, err_a, a), (_, err_b, b) in zip(first, second):
        if err_a or err_b:
            found.append(f"{op_id}: failed ({err_a or err_b})")
        for key in COUNTERS:
            if a[key] != b[key]:
                found.append(f"{op_id}: {key} {a[key]} under PYTHONHASHSEED={HASH_SEEDS[0]}, {b[key]} under {HASH_SEEDS[1]}")
    return found


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(run.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)
    ops = run.plan(args.workload, args.seed, 0)[0]
    try:
        found = compare(ops)
    except run.HarnessError as exc:
        print(f"determinism check failed to run: {exc}", file=sys.stderr)
        return 2
    for line in found:
        print(line)
    print(f"{args.workload} seed={args.seed}: {len(ops)} ops, {len(found)} counter mismatches")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
