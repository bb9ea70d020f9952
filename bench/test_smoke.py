"""Smoke test of the benchmark harness on a tiny grid; no wall-clock gate.

    python3 -m pytest bench/test_smoke.py -q

The harness counters must equal what the CLI itself reports through
``stats --json`` and ``unroll --json``.
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import child  # noqa: E402
import determinism  # noqa: E402
import run  # noqa: E402
import silkcheck.cli  # noqa: E402
import silkcheck.schema  # noqa: E402
from tracer import Tracer  # noqa: E402

SWEEP_IDS = (
    "check-silk silk_fhat.slk",
    "ppsnf silk_interleaved.slk",
    "check-schema schema_svar.sch",
    "unroll schema_shat.sch a=3",
    "check-lk lk_nu_shat.lkp",
)
TINY = (
    [run.exp_unroll_op(a) for a in range(4)]
    + [run.stats_op("schema_fhat.sch", 3)]
    + [op for op in run.sweep_ops() if op["id"] in SWEEP_IDS]
)


def cli_json(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert silkcheck.cli.main([str(a) for a in argv]) == 0
    payload, _ = json.JSONDecoder().raw_decode(out.getvalue())
    return payload


@pytest.fixture(scope="module")
def records():
    tracer = Tracer().install()
    try:
        return {op["id"]: child.run_op(op, silkcheck.cli.main, tracer) for op in TINY}
    finally:
        tracer.uninstall()


def test_tiny_grid_matches_expected_answers(records):
    assert len(records) == 10
    assert {op_id: rec["error"] for op_id, rec in records.items() if rec["error"]} == {}


def test_counters_match_cli_stats(records):
    exp = run.CORPUS / "schema_exp.sch"
    rows = cli_json("stats", exp, "--alpha-range", "0..3", "--json")["rows"]
    for row in rows:
        a = row["alpha"]
        layers = records[f"unroll schema_exp.sch a={a}"]["layers"]
        unrolled = cli_json("unroll", exp, "--alpha", a, "--lk", "--quiet", "--json")
        assert layers["kernel.inferences"] == sum(row["normal"].values()) == records[f"unroll schema_exp.sch a={a}"]["seen"]
        assert layers["schema.evaluate_calls"] == 2
        assert layers["schema.expansions"] == 2 * unrolled["expansions"]

    fhat = cli_json("stats", run.CORPUS / "schema_fhat.sch", "--alpha-range", "0..3", "--json")["rows"]
    rec = records["stats schema_fhat.sch 0..3"]
    assert rec["seen"] == [[r["alpha"], sum(r["expanded"].values()), sum(r["normal"].values())] for r in fhat]
    assert rec["layers"]["schema.evaluate_calls"] == len(fhat)


def test_layer_self_times_add_up_to_op_wall(records):
    for rec in records.values():
        layers = rec["layers"]
        assert layers["self_sum_ms"] == pytest.approx(layers["wall_ms"], abs=1e-6)
        assert layers["wall_ms"] <= rec["ms"]


def test_every_layer_is_traced(records):
    seen = {key.split(".")[0] for rec in records.values() for key in rec["layers"] if key.endswith(".calls")}
    assert seen == {"parser", "rewrite", "schema", "kernel", "silk", "translate", "printer"}


def test_uninstall_restores_every_import_site(records):
    assert silkcheck.cli.evaluate is silkcheck.schema.evaluate
    assert not hasattr(silkcheck.schema.evaluate, "__wrapped__")


def test_counters_repeat_under_another_hash_seed():
    assert determinism.compare(TINY) == []


def test_results_carry_every_benchmark_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    deadline = time.monotonic() + run.RUN_LIMIT_S
    plain = [run.run_child(TINY, False, deadline)]
    traced = [run.run_child(TINY, True, deadline)]
    for section, (metrics, _) in (("end_to_end", run.end_to_end(plain)), ("per_layer", run.per_layer(plain, traced))):
        assert {m["name"]: m["unit"] for m in spec[section]} == {k: unit for k, (_, unit) in metrics.items()}
    assert run.end_to_end(plain)[0]["success_rate"][0] == 1.0


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in json.loads((ROOT / "BENCHMARK.json").read_text())["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "corpus_sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
