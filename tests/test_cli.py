"""The command line surface: exit codes, output shapes, determinism."""

import json

import pytest

from silkcheck import corpus_path
from silkcheck.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def p(name):
    return str(corpus_path(name))


def test_check_silk_proof_exits_zero(capsys):
    code, out, _ = run(capsys, "check-silk", p("silk_fhat.slk"))
    assert code == 0
    assert "verdict: proof" in out
    assert "P(f^(s(n))(0))" in out


def test_check_silk_derivation_exits_one(capsys, tmp_path):
    text = corpus_path("silk_fhat.slk").read_text()
    trimmed = tmp_path / "partial.slk"
    trimmed.write_text("\n".join(text.splitlines()[:-1]).replace(
        'theory "theory_fhat.thy"', f'theory "{p("theory_fhat.thy")}"'
    ))
    code, out, _ = run(capsys, "check-silk", str(trimmed))
    assert code == 1 and "derivation" in out


def test_check_lk_pi(capsys):
    code, out, _ = run(capsys, "check-lk", p("lk_pi_shat.lkp"))
    assert code == 0 and "accepted" in out


def test_check_lk_mode_flag(capsys):
    code, out, _ = run(capsys, "check-lk", p("lk_pi_shat.lkp"), "--mode", "lk")
    assert code == 1 and "rejected" in out


def test_check_schema(capsys):
    code, out, _ = run(capsys, "check-schema", p("schema_shat.sch"))
    assert code == 0 and "accepted" in out


def test_unroll_prints_the_figure(capsys):
    code, out, _ = run(capsys, "unroll", p("schema_shat.sch"), "--alpha", "1")
    assert code == 0
    assert "P(alpha + S^1)" in out
    assert out.count("E  ") == 4
    assert "w:l" in out and "->:l" in out and "forall:l" in out and "c:l" in out


def test_unroll_check_flag(capsys):
    code, out, _ = run(capsys, "unroll", p("schema_shat.sch"), "--alpha", "3", "--check")
    assert code == 0 and "check: accepted" in out


def test_stats_counts_roughly_double(capsys):
    code, out, _ = run(capsys, "stats", p("schema_exp.sch"), "--alpha-range", "0..6")
    assert code == 0
    rows = [line.split() for line in out.strip().splitlines()[1:]]
    totals = [int(r[1]) for r in rows]
    assert all(b > a for a, b in zip(totals, totals[1:]))
    lk = [int(r[2]) for r in rows]
    assert all(b >= 1.8 * a for a, b in zip(lk[1:], lk[2:]))


def test_translate_and_interpret(capsys, tmp_path):
    out_file = tmp_path / "out.sch"
    code, _, _ = run(capsys, "translate", p("silk_fhat.slk"), "-o", str(out_file))
    assert code == 0
    assert "component g1" in out_file.read_text()
    code, out, _ = run(capsys, "interpret", p("silk_fhat.slk"))
    assert code == 0
    assert "forall x:omega." in out


def test_interpret_requires_proof(capsys, tmp_path):
    partial = tmp_path / "part.slk"
    text = corpus_path("silk_conj_comm.slk").read_text()
    partial.write_text("\n".join(text.splitlines()[:-1]))
    code, _, err = run(capsys, "interpret", str(partial))
    assert code == 1 and "not a proof" in err


def test_ppsnf_output_is_a_script(capsys):
    code, out, _ = run(capsys, "ppsnf", p("silk_interleaved.slk"))
    assert code == 0
    assert out.splitlines()[0].startswith("theory")


def test_json_output_is_byte_identical(capsys):
    _, first, _ = run(capsys, "check-silk", p("silk_exp.slk"), "--json")
    _, second, _ = run(capsys, "check-silk", p("silk_exp.slk"), "--json")
    assert first == second
    payload = json.loads(first)
    assert payload["format_version"] == 1
    assert payload["verdict"] == "proof"
    assert payload["status"] == "accepted"


def test_parse_error_exits_two(capsys, tmp_path):
    bad = tmp_path / "bad.slk"
    bad.write_text('ax1r "A |- |- B"\n')
    code, _, err = run(capsys, "check-silk", str(bad))
    assert code == 2 and "parse error" in err


def test_missing_file_exits_two(capsys):
    code, _, err = run(capsys, "check-silk", "/nonexistent/x.slk")
    assert code == 2


def test_usage_error_exits_two(capsys):
    assert main(["unroll"]) == 2


def test_fuel_env_variable(capsys, monkeypatch):
    monkeypatch.setenv("SILK_FUEL", "17")
    code, out, _ = run(capsys, "check-lk", p("lk_pi_shat.lkp"), "--json")
    assert code == 0
    assert json.loads(out)["params"]["fuel"] == 17


def test_report_echoes_strategy(capsys):
    _, out, _ = run(capsys, "check-lk", p("lk_pi_shat.lkp"), "--json")
    params = json.loads(out)["params"]
    assert params["strategy"] == "leftmost-innermost"
    assert params["lenient_erule"] is False


def test_check_lk_with_link_environment(capsys):
    code, out, _ = run(
        capsys, "check-lk", p("lk_nu_shat.lkp"), "--mode", "lks", "--env", p("schema_shat.sch")
    )
    assert code == 0 and "accepted" in out


def test_lenient_flag_gates_whole_sequent_steps(capsys, tmp_path):
    proof = tmp_path / "bridge.lkp"
    proof.write_text(
        f'theory "{p("theory_shat.thy")}"\n\n'
        'E "A |- P(f(0))" whole {\n  ax "A |- P(S^1)"\n}\n'
    )
    code, out, _ = run(capsys, "check-lk", str(proof))
    assert code == 1 and "lenient" in out
    code, out, _ = run(capsys, "check-lk", str(proof), "--lenient-erule")
    assert code == 1  # the axiom itself is wrong, so still rejected
    good = tmp_path / "bridge2.lkp"
    good.write_text(
        f'theory "{p("theory_shat.thy")}"\n\n'
        'E "P(S^1) |- P(f(0))" whole {\n  ax "P(S^1) |- P(S^1)"\n}\n'
    )
    assert run(capsys, "check-lk", str(good))[0] == 1
    assert run(capsys, "check-lk", str(good), "--lenient-erule")[0] == 0


@pytest.mark.parametrize(
    "argv",
    [
        ("unroll", "schema_shat.sch", "--alpha", "-1", "--lk", "--json"),
        ("unroll", "schema_shat.sch", "--alpha", "1.5"),
        ("unroll", "schema_shat.sch", "--alpha", "x"),
        ("stats", "schema_shat.sch", "--alpha-range", "0.."),
        ("stats", "schema_shat.sch", "--alpha-range", "..3"),
        ("stats", "schema_shat.sch", "--alpha-range", "3"),
        ("stats", "schema_shat.sch", "--alpha-range", "0..-1"),
        ("stats", "schema_shat.sch", "--alpha-range", "0..2.5"),
    ],
)
def test_negative_or_malformed_alpha_exits_two(capsys, argv):
    command, name, *rest = argv
    code, out, err = run(capsys, command, p(name), *rest)
    assert code == 2 and not out
    assert "non-negative integer" in err


def test_step_parameter_mismatch_reports_error(capsys, tmp_path):
    schema = tmp_path / "shat2.sch"
    schema.write_text(
        corpus_path("schema_shat.sch")
        .read_text()
        .replace('step-param "n + 1"', 'step-param "n + 2"')
        .replace('theory "theory_shat.thy"', f'theory "{p("theory_shat.thy")}"')
    )
    for argv in (("unroll", "--alpha", "1"), ("stats", "--alpha-range", "0..1")):
        code, _, err = run(capsys, argv[0], str(schema), *argv[1:])
        assert code == 1
        assert err == "error: link to phi at 1 cannot match step parameter n + 2\n"
