"""The command line surface: exit codes, output shapes, determinism."""

import gc
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import silkcheck
from silkcheck import cli, corpus_path, load_schema, load_script, to_ppsnf
from silkcheck.cli import main
from silkcheck.kernel import check_proof, count_inferences
from silkcheck.parser import ParseError, load_file, parse_schema, parse_script
from silkcheck.printer import print_script
from silkcheck.rewrite import DEFAULT_FUEL, FuelExhausted, StuckTerm
from silkcheck.schema import MatchFailure, evaluate, replace

import gen
import transcript


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


# The end sequent is false (P true at one individual and false at
# another); exists:r accepted it while substitution renamed the inner binder
# to y1, a key of the very substitution it was applying.
CAPTURED_BY_THE_FRESH_NAME = (
    'forall:r "|- forall y. (P(y) -> exists y1. forall y. P(y))" a=0 '
    'formula="forall y. (P(y) -> exists y1. forall y. P(y))" eigen=y {\n'
    '  ->:r "|- P(y) -> exists y1. forall y. P(y)" a=0 b=0 {\n'
    '    exists:r "P(y) |- exists y1. forall y. P(y)" a=0 formula="exists y1. forall y. P(y)" term="y" {\n'
    '      forall:r "P(y) |- forall y1. P(y)" a=0 formula="forall y1. P(y)" eigen=y1 {\n'
    '        ax "P(y) |- P(y)"\n'
    "      }\n"
    "    }\n"
    "  }\n"
    "}\n"
)


def test_a_fresh_binder_name_never_captures_the_substitution(capsys, tmp_path):
    path = tmp_path / "captured.lkp"
    path.write_text(CAPTURED_BY_THE_FRESH_NAME)
    code, out, _ = run(capsys, "check-lk", str(path), "--mode", "lk")
    assert code == 1
    assert out.startswith("rejected\n")
    assert "exists:r: premise formula forall y1. P(y) is not exists y1. forall y. P(y) instantiated with y" in out


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


# A script that is not a proof once had its verdict stated twice, the
# second time as the replay report's status: "got derivation: accepted".
@pytest.mark.parametrize("command", ["ppsnf", "translate", "stats"])
def test_not_a_proof_states_the_verdict_once(capsys, tmp_path, command):
    extra = ("--alpha-range", "0..1") if command == "stats" else ()
    head = "not a proof: normal form is defined for proofs only, got "
    last = corpus_path("silk_fhat.slk").read_text().splitlines()[-1]
    derivation = _corpus_copy(tmp_path, "silk_fhat.slk", last, "")
    assert run(capsys, command, derivation, *extra) == (1, "", head + "derivation\n")
    line = "rho sc 2 ->:l group=1 pair=2 pair2=1 a=0 b=0"
    rejected = _corpus_copy(tmp_path, "silk_fhat.slk", line, line.replace("a=0", "a=5"))
    failure = "  [7] rho_sc: index 5 out of range for antecedent of implication\n"
    assert run(capsys, command, rejected, *extra) == (1, "", head + "rejected\n" + failure)


# A rejected check once printed no reason; its failures follow in the form
# check-lk prints them.
def test_unroll_check_says_why_it_rejects(capsys, tmp_path):
    schema = _corpus_copy(tmp_path, "schema_fhat.sch", "a=0 b=2", "a=0 b=1")
    code, out, err = run(capsys, "unroll", schema, "--alpha", "2", "--lk", "--check", "--quiet")
    message = "c:l: contracted formulas differ: forall x. P(x) -> P(f(x)) vs P(0)"
    assert (code, err) == (1, "")
    assert out.splitlines()[-3:] == ["check: rejected", f"  [root] {message}", f"  [0.0.0] {message}"]


# Rewriting starts only once expansion has ended: P(f^9(a)) needs more than
# 8 rewrite steps, yet the undeclared target, met after the self-link beside
# it has expanded whole, is what unroll reports.
def test_an_expansion_error_comes_before_a_rewrite_error(capsys, tmp_path):
    schema = tmp_path / "precedence.sch"
    text = (
        f'theory "{p("theory_fhat.thy")}"\n'
        'component g1\n  pattern "P(f^9(a)), Q(n) |- P(f^9(a))"\n  vars ()\n  step-param "s(n)"\n{\n'
        '  base {\n    w:l "P(f^9(a)), Q(0) |- P(f^9(a))" formula="Q(0)" {\n'
        '      ax "P(f^9(a)) |- P(f^9(a))"\n    }\n  }\n'
        '  step {\n    cut "P(f^9(a)), Q(s(n)) |- P(f^9(a))" a=0 b=0 {\n'
        '      link "Q(s(n)) |- P(f^9(a))" target=nosuch param="n"\n'
        '      link "P(f^9(a)), Q(n) |- P(f^9(a))" target=g1 param="n"\n'
        "    }\n  }\n}\n"
    )
    for target, message in [
        ("nosuch", "link target nosuch is not declared"),
        ("g1", "no normal form within 8 rewrite steps"),
    ]:
        schema.write_text(text.replace("target=nosuch", f"target={target}"))
        assert run(capsys, "unroll", str(schema), "--alpha", "2", "--fuel", "8") == (1, "", f"error: {message}\n")


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


CONJ_SCRIPT = corpus_path("silk_conj_comm.slk").read_text()


def test_parse_error_exits_two(capsys, tmp_path):
    bad = tmp_path / "bad.slk"
    bad.write_text('ax1r "A |- |- B"\n')
    code, _, err = run(capsys, "check-silk", str(bad))
    assert code == 2 and "parse error" in err


# A superscript two once ended in a ValueError from int(); an Arabic-Indic
# three once read as the numeral 3, so that axiom was accepted.
@pytest.mark.parametrize(
    "text, char", [("P(\u00b2) |- P(\u00b2)", "\u00b2"), ("P(\u0663) |- P(3)", "\u0663")], ids=["sup2", "arabic3"]
)
def test_non_ascii_digit_is_a_parse_error(capsys, tmp_path, text, char):
    path = tmp_path / "digit.lkp"
    path.write_text(f'ax "{text}"\n', encoding="utf-8")
    code, out, err = run(capsys, "check-lk", str(path))
    assert code == 2 and not out
    assert err == f"parse error: stray character {char!r} at 1:7\n"


def test_missing_file_exits_two(capsys):
    code, _, err = run(capsys, "check-silk", "/nonexistent/x.slk")
    assert code == 2


def test_usage_error_exits_two(capsys):
    assert main(["unroll"]) == 2


@pytest.mark.parametrize(
    "argv, code, checks",
    [
        (["check-lk", p("lk_pi_shat.lkp")], 0, 1),
        (["check-lk", p("lk_pi_shat.lkp"), "--mode", "lk"], 1, 1),
        (["check-lk", "/nonexistent/x.lkp"], 2, 0),
        (["--help"], 0, 0),
    ],
)
def test_main_raises_the_collector_thresholds_for_its_run_only(capsys, monkeypatch, argv, code, checks):
    # The bench child and these tests call main many times in one process.
    during = []
    monkeypatch.setattr(cli, "check_proof", lambda *a, **k: during.append(gc.get_threshold()) or check_proof(*a, **k))
    before = gc.get_threshold()
    gc.set_threshold(321, 7, 9)
    try:
        assert main(argv) == code
        assert gc.get_threshold() == (321, 7, 9)
    finally:
        gc.set_threshold(*before)
    assert during == [cli.GC_THRESHOLD] * checks


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


def test_a_parse_error_in_the_env_file_names_that_file(capsys, tmp_path):
    env = tmp_path / "bad.sch"
    env.write_text("component phi\n")
    code, out, err = run(capsys, "check-lk", p("lk_nu_shat.lkp"), "--mode", "lks", "--env", str(env))
    assert (code, out) == (2, "")
    assert err.startswith(f"parse error: in --env file {env}: ") and err.endswith(" at 2:1\n")


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


NOT_DECIMAL = ["1_0", "+2", " 3", "3 ", "\u0663", "\uff13", "\u00b2"]  # int() takes all but the superscript


@pytest.mark.parametrize("text", NOT_DECIMAL)
@pytest.mark.parametrize(
    "argv",
    [
        ("unroll", "schema_shat.sch", "--alpha", "{}"),
        ("check-lk", "lk_pi_shat.lkp", "--fuel", "{}"),
        ("stats", "schema_shat.sch", "--alpha-range", "{}..3"),
        ("stats", "schema_shat.sch", "--alpha-range", "0..{}"),
    ],
    ids=["alpha", "fuel", "range-start", "range-end"],
)
def test_a_number_is_written_in_ascii_decimal_digits(capsys, text, argv):
    command, name, *rest = argv
    code, out, err = run(capsys, command, p(name), *[arg.format(text) for arg in rest])
    assert code == 2 and not out
    assert "non-negative integer" in err


@pytest.mark.parametrize("spec", ["3", "3..", "..5", "3...5", "0..-1", "x..1", "1..2..3", ""])
def test_malformed_alpha_range_names_the_whole_spec(capsys, spec):
    code, out, err = run(capsys, "stats", p("schema_shat.sch"), "--alpha-range", spec)
    assert code == 2 and not out
    assert err.splitlines()[-1].endswith(f"--alpha-range: {spec!r} is not a range A..B of non-negative integers")


@pytest.mark.parametrize("spec", ["5..2", "1..0"])
def test_reversed_alpha_range_exits_two(capsys, spec):
    code, out, err = run(capsys, "stats", p("schema_shat.sch"), "--alpha-range", spec)
    assert code == 2 and not out
    assert f"{spec!r} is an empty range" in err


def _corpus_copy(tmp_path, name, old, new, count=-1):
    """A corpus file with one edit, made at the first ``count`` places, or at
    all, and its theory directive made absolute."""
    text = corpus_path(name).read_text()
    assert old in text
    theory = text.split('"')[1]
    edited = tmp_path / name
    edited.write_text(text.replace(old, new, count).replace(f'theory "{theory}"', f'theory "{p(theory)}"', 1))
    return str(edited)


# An expression that sits only in a witness is arity-checked at load with
# the rest of the file, not found out later by replay or the kernel.
@pytest.mark.parametrize(
    "name, old, new, clash",
    [
        ("silk_wedge_var.slk", "terms (f(c))", "terms (f(c, c))", "function f used with 2 arguments and with 1"),
        ("silk_exp.slk", 'term="f^n(0)"', 'term="f(f^n(0), 0)"', "function f used with 2 arguments and with 1"),
        ("lk_pi_shat.lkp", 'to="S^0"', 'to="f(S^0, S^0)"', "function f used with 2 arguments and with 1"),
    ],
)
def test_an_arity_clash_in_a_witness_is_a_parse_error(capsys, tmp_path, name, old, new, clash):
    command = "check-lk" if name.endswith(".lkp") else "check-silk"
    code, out, err = run(capsys, command, _corpus_copy(tmp_path, name, old, new))
    assert (code, out, err) == (2, "", f"parse error: {clash}\n")


def test_an_arity_clash_is_reported_once_however_often_its_node_occurs(capsys, tmp_path):
    # P(0, 0) stands on both sides of one axiom: one node, one clash.
    schema = _corpus_copy(tmp_path, "schema_exp.sch", 'ax "P(0) |- P(0)"', 'ax "P(0, 0) |- P(0, 0)"', 1)
    code, out, err = run(capsys, "check-schema", schema)
    assert (code, out, err) == (2, "", "parse error: predicate P used with 2 arguments and with 1\n")


def test_an_arity_clash_is_reported_once_however_many_nodes_show_it(capsys, tmp_path):
    # f^0() clashes with every distinct f^(n, x) of the schema and its theory.
    theory = tmp_path / "theory_exp.thy"
    theory.write_text(corpus_path("theory_exp.thy").read_text().replace("f^0(x) == x;", "f^0() == x;"))
    code, out, err = run(capsys, "check-schema", p("schema_exp.sch"), "--theory", str(theory))
    clash = "function f^ used with 2 arguments and with 1"
    unbound = "theory rule 1: right side uses variables not bound on the left: x"
    assert (code, out, err) == (2, "", f"parse error: {clash}; {unbound}\n")


def _shat_copy(tmp_path, old, new):
    return _corpus_copy(tmp_path, "schema_shat.sch", old, new)


def test_step_parameter_mismatch_reports_error(capsys, tmp_path):
    schema = _shat_copy(tmp_path, 'step-param "n + 1"', 'step-param "n + 2"')
    for argv in (("unroll", "--alpha", "1"), ("stats", "--alpha-range", "0..1")):
        code, _, err = run(capsys, argv[0], schema, *argv[1:])
        assert code == 1
        assert err == "error: link to phi at 1 cannot match step parameter n + 2\n"


@pytest.mark.parametrize("case", ["directory", "env directory", "not utf-8"])
def test_unreadable_input_exits_two(capsys, tmp_path, case):
    if case == "directory":
        argv = ("check-schema", str(tmp_path))
    elif case == "env directory":
        argv = ("check-lk", p("lk_nu_shat.lkp"), "--mode", "lks", "--env", str(tmp_path))
    else:
        bad = tmp_path / "latin1.sch"
        bad.write_bytes(corpus_path("schema_shat.sch").read_bytes().replace(b"phi", b"\xe9"))
        argv = ("check-schema", str(bad))
    code, out, err = run(capsys, *argv)
    assert code == 2 and not out
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ("unroll", "schema_shat.sch", "--alpha", "1", "--fuel", "-1"),
        ("stats", "schema_shat.sch", "--alpha-range", "0..2", "--fuel", "-3"),
        ("check-lk", "lk_pi_shat.lkp", "--fuel", "-1"),
        ("check-silk", "silk_fhat.slk", "--fuel", "1.5"),
    ],
)
def test_negative_or_malformed_fuel_exits_two(capsys, argv):
    command, name, *rest = argv
    code, out, err = run(capsys, command, p(name), *rest)
    assert code == 2 and not out
    assert "non-negative integer" in err


@pytest.mark.parametrize("value", ["-3", "-1", "x", *NOT_DECIMAL])
def test_negative_or_malformed_fuel_env_falls_back(capsys, monkeypatch, value):
    monkeypatch.setenv("SILK_FUEL", value)
    code, out, _ = run(capsys, "check-lk", p("lk_pi_shat.lkp"), "--json")
    assert code == 0
    assert json.loads(out)["params"]["fuel"] == DEFAULT_FUEL


@pytest.mark.parametrize(
    "name, top",
    [
        ("schema_shat.sch", 12),
        ("schema_svar.sch", 12),
        ("schema_fhat.sch", 12),
        ("schema_exp.sch", 9),
        ("silk_fhat.slk", 12),
        ("silk_exp.slk", 9),
    ],
)
def test_stats_range_rows_match_single_instances(capsys, name, top):
    def rows(spec):
        code, out, _ = run(capsys, "stats", p(name), "--alpha-range", spec, "--json")
        assert code == 0
        return [json.dumps(row, sort_keys=True) for row in json.loads(out)["rows"]]

    assert rows(f"0..{top}") == [rows(f"{a}..{a}")[0] for a in range(top + 1)]


@pytest.mark.parametrize("name", ["schema_exp.sch", "schema_fhat.sch", "schema_shat.sch", "schema_svar.sch"])
def test_stats_range_prints_the_plain_walk_counts(capsys, name):
    # Each row against a walk of both proofs of an evaluation of its own.
    rows = []
    for alpha in range(10):
        schema, theory = load_schema(corpus_path(name))
        trace = evaluate(schema, alpha, theory)
        expanded, normal = count_inferences(trace.expanded), count_inferences(trace.proof)
        rows.append({"alpha": alpha, "expanded": expanded, "normal": normal, "total": sum(expanded.values())})
    code, out, err = run(capsys, "stats", p(name), "--alpha-range", "0..9", "--json")
    assert (code, err, json.loads(out)["rows"]) == (0, "", rows)


def _fresh_evaluations(fuel, top):
    """The verdict of evaluating every alpha up to top, each on a theory
    loaded for it alone."""
    try:
        for alpha in range(top + 1):
            schema, theory = load_schema(corpus_path("schema_shat.sch"), fuel=fuel)
            evaluate(schema, alpha, theory)
    except (MatchFailure, FuelExhausted, StuckTerm) as exc:
        return 1, f"error: {exc}\n"
    return 0, ""


@pytest.mark.parametrize("fuel", range(45))
def test_stats_range_fuel_verdict_matches_fresh_evaluations(capsys, fuel):
    code, _, err = run(capsys, "stats", p("schema_shat.sch"), "--alpha-range", "0..30", "--fuel", str(fuel))
    assert (code, err) == _fresh_evaluations(fuel, 30)


# A stats range once passed at a fuel that its last alpha alone exceeds,
# because the alphas before it had filled the rewrite cache.
@pytest.mark.parametrize(
    "argv",
    [
        ("stats", "--alpha-range", "0..6"),
        ("stats", "--alpha-range", "6..6"),
        ("unroll", "--alpha", "6"),
    ],
)
def test_a_fuel_verdict_does_not_depend_on_earlier_alphas(capsys, argv):
    code, _, err = run(capsys, argv[0], p("schema_exp.sch"), *argv[1:], "--fuel", "100")
    assert (code, err) == (1, "error: no normal form within 100 rewrite steps\n")


# stats unrolls its top numeral first; the error it prints is still that of
# the smallest numeral that fails, whichever failed first.
@pytest.mark.parametrize(
    "name, spec, fuel, message",
    [
        ("schema_fhat.sch", "0..30", "20", "no normal form within 20 rewrite steps"),
        ("schema_fhat.sch", "30..30", "20", "instance 30 is larger than the fuel 20"),
        ("schema_svar.sch", "0..200", "100", "instance 101 is larger than the fuel 100"),
        ("schema_fhat.sch", "0..20", "20", "no normal form within 20 rewrite steps"),
    ],
)
def test_a_stats_range_reports_its_first_failing_numeral(capsys, name, spec, fuel, message):
    assert run(capsys, "stats", p(name), "--alpha-range", spec, "--fuel", fuel) == (1, "", f"error: {message}\n")


def test_a_stats_range_below_its_first_failing_numeral_passes(capsys):
    code, out, err = run(capsys, "stats", p("schema_fhat.sch"), "--alpha-range", "0..19", "--fuel", "20")
    assert (code, len(out.splitlines()), err) == (0, 21, "")


TRACED_STATS = """
import contextlib, io, sys, tracemalloc
from silkcheck import corpus_path
from silkcheck.cli import main
tracemalloc.start()
with contextlib.redirect_stdout(io.StringIO()):
    code = main(["stats", str(corpus_path("schema_fhat.sch")), "--alpha-range", sys.argv[1]])
print(code, tracemalloc.get_traced_memory()[1])
"""


# Each numeral's root once kept the record list of the call that built it,
# as long as the numeral, so the peak grew with the square of the range:
# 3.2 times from 0..2000 to 0..4000.
def test_a_stats_range_peaks_in_memory_linear_in_its_length():
    env = {**os.environ, "PYTHONPATH": str(Path(silkcheck.__file__).parent.parent)}
    peaks = []
    for spec in ("0..2000", "0..4000"):
        done = subprocess.run([sys.executable, "-c", TRACED_STATS, spec], env=env, capture_output=True, text=True, timeout=120)
        code, peak = map(int, done.stdout.split())
        assert (code, done.stderr) == (0, "")
        peaks.append(peak)
    assert peaks[1] <= 2.2 * peaks[0], peaks


@settings(max_examples=60, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    gen.schema_variants(),
    st.integers(0, 12).flatmap(lambda top: st.tuples(st.integers(0, top), st.just(top))),
    st.none() | st.integers(5, 200),
    st.booleans(),
)
def test_stats_on_schema_variants_matches_per_numeral_evaluations(capsys, fuzz_dir, case, ends, fuel, as_json):
    _, text = case
    path = fuzz_dir / "variant.sch"
    path.write_text(text, encoding="utf-8")
    alphas = range(ends[0], ends[1] + 1)
    argv = ["stats", str(path), "--alpha-range", f"{alphas[0]}..{alphas[-1]}"]
    argv += ([] if fuel is None else ["--fuel", str(fuel)]) + (["--json"] if as_json else [])
    assert run(capsys, *argv) == gen.reference_stats(path, alphas, fuel, as_json), text


def test_most_schema_variants_load(fuzz_dir):
    loaded = []

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(gen.schema_variants())
    def load(case):
        path = fuzz_dir / "loaded.sch"
        path.write_text(case[1], encoding="utf-8")
        try:
            load_file(path, parse_schema)
        except ParseError:
            loaded.append(False)
        else:
            loaded.append(True)

    load()
    assert sum(loaded) >= len(loaded) / 2, (sum(loaded), len(loaded))


def test_undeclared_link_target_reports_error(capsys, tmp_path):
    schema = _shat_copy(tmp_path, "target=phi", "target=psi")
    for argv in (("unroll", "--alpha", "1"), ("unroll", "--alpha", "1", "--check"), ("stats", "--alpha-range", "0..1")):
        code, _, err = run(capsys, argv[0], schema, *argv[1:])
        assert (code, err) == (1, "error: link target psi is not declared\n")


# The kernel owns both link faults below; check-schema once repeated them
# at the same path.
def test_check_schema_reports_an_undeclared_target_once(capsys, tmp_path):
    schema = _corpus_copy(tmp_path, "schema_fhat.sch", "target=g1", "target=g9")
    code, out, _ = run(capsys, "check-schema", schema)
    assert (code, out) == (1, "rejected\n  [0.0.0.0.0] link: step of g1: link target g9 is not declared\n")


def test_check_schema_reports_a_foreign_link_parameter_once(capsys, tmp_path):
    link = 'P(f^(2^(s(n)))(0))" target=g1 param="2^(s(n))"'
    schema = _corpus_copy(tmp_path, "schema_exp.sch", link, link.replace("s(n)", "s(m)"))
    code, out, _ = run(capsys, "check-schema", schema)
    pattern = "P(0), forall x. P(x) -> P(f(x)) |- P(f^(2^(s({})))(0))"
    assert (code, out.splitlines()) == (
        1,
        [
            "rejected",
            f"  [0] component: step of g2 concludes {pattern.format('m')}, expected {pattern.format('n')}",
            "  [0] link: step of g2: link parameter 2^(s(m)) uses parameters ['m'] outside ['n']",
        ],
    )


# A step that links twice to the instance below unrolls into 2^17 link
# leaves at 17, one expansion for each, though each instance is built once;
# the error once blamed rewrite steps, though no rewriting ran out.
@pytest.mark.parametrize("fuel", [None, "50"])
def test_link_expansion_fuel_names_the_expansions(capsys, tmp_path, fuel):
    schema = tmp_path / "double.sch"
    link = '      link "P |- P" target=g1 param="n"\n'
    schema.write_text(
        'component g1\n  pattern "P |- P"\n  step-param "n + 1"\n{\n  base {\n    ax "P |- P"\n  }\n'
        f'  step {{\n    cut "P |- P" a=0 b=0 {{\n{link}{link}    }}\n  }}\n}}\n'
    )
    assert run(capsys, "check-schema", str(schema)) == (0, "accepted\n", "")
    argv = ["unroll", str(schema), "--alpha", "17"] + (["--fuel", fuel] if fuel else [])
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (1, "", f"error: no unrolling within {fuel or DEFAULT_FUEL} link expansions\n")


# A link parameter naming something other than n stays unevaluable after
# the step substitutes n; it once escaped unroll and stats as a ValueError.
def test_link_parameter_that_is_not_ground_reports_error(capsys, tmp_path):
    schema = _shat_copy(tmp_path, 'param="n"', 'param="f"')
    for argv in (("unroll", "--alpha", "1"), ("unroll", "--alpha", "1", "--check"), ("stats", "--alpha-range", "0..1")):
        code, out, err = run(capsys, argv[0], schema, *argv[1:])
        assert (code, out, err) == (1, "", "error: link to phi: numeric expression f is not ground: ['f']\n")


# A link without param= once escaped unroll and stats as an AttributeError,
# and check-schema reported it twice, the second time as a self-link
# parameter None.
def test_link_without_a_parameter_reports_error_once(capsys, tmp_path):
    schema = _shat_copy(tmp_path, ' param="n"', "")
    for argv in (("unroll", "--alpha", "1"), ("unroll", "--alpha", "1", "--check"), ("stats", "--alpha-range", "0..1")):
        code, out, err = run(capsys, argv[0], schema, *argv[1:])
        assert (code, out, err) == (1, "", "error: link to phi has no parameter expression\n")
    code, out, err = run(capsys, "check-schema", schema)
    assert (code, out, err) == (1, "rejected\n  [0.0.0.0.0.0] link: step of phi: link without a parameter expression\n", "")


# A self-link at the step parameter, n + 1, or a base that links to
# itself, recurs inside its own expansion; unroll once expanded it until the
# fuel ran out, 20 s at the default fuel.  The low fuel keeps a regression
# fast.
def test_link_that_recurs_inside_its_own_expansion_reports_error(capsys, tmp_path):
    schema = _shat_copy(tmp_path, 'target=phi param="n"', 'target=phi param="n + 1"')
    for argv, value in [
        (("unroll", "--alpha", "1"), 1),
        (("unroll", "--alpha", "3", "--check"), 3),
        (("stats", "--alpha-range", "0..2"), 1),
    ]:
        code, out, err = run(capsys, argv[0], schema, *argv[1:], "--fuel", "50")
        assert (code, out, err) == (1, "", f"error: link to phi at {value} recurs inside its own expansion\n")
    loop = tmp_path / "loop.sch"
    loop.write_text('component g1\n  pattern "P |- P"\n{\n  base {\n    link "P |- P" target=g1 param="0"\n  }\n}\n')
    for argv in (("unroll", "--alpha", "0"), ("stats", "--alpha-range", "0..0")):
        code, out, err = run(capsys, argv[0], str(loop), *argv[1:], "--fuel", "50")
        assert (code, out, err) == (1, "", "error: link to g1 at 0 recurs inside its own expansion\n")


def _long_script() -> str:
    """A valid script of 1,203 steps whose basecase proof is 1,201 inferences tall."""
    lines = ['ax1r "P |- P"']
    for _ in range(600):
        lines.append('rho bc 1 w:r group=1 pair=1 formula="P"')
        lines.append("rho bc 1 c:r group=1 pair=1 a=0 b=1")
    lines += ['clbc group=1 pair=1 pattern="P |- P" vars ()', "cllke group=1"]
    return "\n".join(lines) + "\n"


def test_tall_translation_prints_and_parses_back(capsys, tmp_path):
    script = tmp_path / "long.slk"
    script.write_text(_long_script())
    schema = tmp_path / "long.sch"
    code, out, err = run(capsys, "translate", str(script), "-o", str(schema))
    assert (code, out, err) == (0, f"wrote {schema}\n", "")
    code, out, _ = run(capsys, "check-schema", str(schema))
    assert (code, out) == (0, "accepted\n")
    code, out, _ = run(capsys, "unroll", str(schema), "--alpha", "0", "--lk", "--quiet", "--json")
    assert code == 0
    assert json.loads(out)["counts"] == {"c:r": 600, "w:r": 600}


def _formula_input(tmp_path, where, formula) -> tuple:
    """(argv, file) of a command that reads ``formula`` from a proof, from a
    schema pattern given as its link environment, or from a script."""
    if where == "input":
        path = tmp_path / "deep.lkp"
        path.write_text(f'ax "{formula} |- {formula}"\n')
        return ("check-lk", str(path)), path
    if where == "env":
        path = tmp_path / "deep.sch"
        path.write_text(f'component phi pattern "{formula} |- P" vars () {{ base {{ ax "P |- P" }} }}\n')
        proof = tmp_path / "plain.lkp"
        proof.write_text('ax "P |- P"\n')
        return ("check-lk", str(proof), "--env", str(path)), path
    path = tmp_path / "deep.slk"
    sequent = f"{formula} |- {formula}"
    path.write_text(f'ax1r "{sequent}"\nclbc group=1 pair=1 pattern="{sequent}" vars ()\ncllke group=1\n')
    return ("check-silk", str(path)), path


WHERE = ["input", "env", "script"]


def _nested(opening, leaf, closing, depth=10_000):
    return opening * depth + leaf + closing * depth


# Binders once nested at most 256 deep, as substitution recursed once per
# binder; the cap is gone with the recursion.
@pytest.mark.parametrize("where", WHERE)
@pytest.mark.parametrize(
    "formula",
    [_nested("(", "P", ")", 300), "forall x. " * 256 + "P(x)", "forall x. " * 10_000 + "P(x)"],
    ids=["parentheses-300", "binders-at-the-cap", "binders-10000"],
)
def test_deeply_nested_formula_checks(capsys, tmp_path, where, formula):
    argv, _ = _formula_input(tmp_path, where, formula)
    code, _, err = run(capsys, *argv)
    assert (code, err) == (0, "")


@pytest.mark.parametrize("where", WHERE)
def test_deeply_nested_formula_exits_two(capsys, tmp_path, where):
    # A fault under 10,000 binders is a parse error at the fault; once any
    # binder past the 256th was.
    argv, path = _formula_input(tmp_path, where, "forall x. " * 10_000 + "P(x,)")
    code, out, err = run(capsys, *argv)
    col = path.read_text().index("P(x,)") + 5
    file = f"in --env file {path}: " if where == "env" else ""
    assert (code, out, err) == (2, "", f"parse error: {file}expected a term at 1:{col}\n")


def test_deep_link_parameter_is_rejected_not_raised(capsys, tmp_path):
    # The parser reads a numeric expression of any depth, so the layers
    # after it (canon_num here) must not recurse on it either.
    text = corpus_path("schema_fhat.sch").read_text().replace('theory "', f'theory "{corpus_path("")}/')
    path = tmp_path / "deep.sch"
    path.write_text(text.replace('param="n"', 'param="' + _nested("2^(", "n", ")", 600) + '"'))
    code, out, err = run(capsys, "check-schema", str(path))
    assert (code, err) == (1, "")
    assert out.startswith("rejected\n")


@pytest.mark.parametrize(
    "formula",
    [
        "P(" + "f(" * 150 + "0" + ")" * 150 + ")",
        " -> ".join(["P"] * 150),
        " /\\ ".join(["P"] * 2000),
        " /\\ ".join(["P"] * 20000),
        _nested("(", "P", ")"),
        "P(" + _nested("g(", "0", ")") + ")",
        "P(" + _nested("s(", "n", ")") + ")",
        _nested("~", "P", ""),
        " -> ".join(["P"] * 10_000),
        "P(" + _nested("2^(", "n", ")") + ")",
    ],
    ids=[
        "term",
        "arrows",
        "conjuncts-2000",
        "conjuncts-20000",
        "parentheses-10000",
        "applications-10000",
        "successors-10000",
        "negations-10000",
        "arrows-10000",
        "powers-10000",
    ],
)
def test_deep_formula_within_the_stack_still_checks(capsys, tmp_path, formula):
    path = tmp_path / "deep.lkp"
    path.write_text(f'ax "{formula} |- {formula}"\n')
    assert run(capsys, "check-lk", str(path)) == (0, "accepted\n", "")


@pytest.mark.parametrize("command", ["ppsnf", "translate"])
def test_output_file_is_utf8_in_any_locale(tmp_path, command):
    source = tmp_path / "conj.slk"
    source.write_text(corpus_path("silk_conj_comm.slk").read_text().replace("A", "Aé"), encoding="utf-8")
    out = tmp_path / "out.txt"
    package_root = Path(silkcheck.__file__).parent.parent
    env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0", "PYTHONPATH": str(package_root)}
    argv = [sys.executable, "-m", "silkcheck.cli", command, str(source), "-o", str(out)]
    done = subprocess.run(argv, env=env, capture_output=True, text=True)
    assert (done.returncode, done.stderr) == (0, "")
    if command == "ppsnf":
        unlined = lambda script: [replace(step, line=0) for step in script.steps]
        assert unlined(load_script(out)) == unlined(to_ppsnf(load_script(source)))
    else:
        assert "Aé /\\ B |- B /\\ Aé" in out.read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "argv",
    [("unroll", "--alpha", "1"), ("unroll", "--alpha", "1", "--check"), ("stats", "--alpha-range", "0..1")],
    ids=["unroll", "unroll-check", "stats"],
)
def test_empty_schema_reports_error(capsys, tmp_path, argv):
    empty = tmp_path / "empty.sch"
    empty.write_text("")
    code, out, err = run(capsys, argv[0], str(empty), *argv[1:])
    assert (code, out, err) == (1, "", "error: a proof schema needs at least one component\n")


@pytest.mark.parametrize(
    "command, source, check",
    [("translate", "silk_exp.slk", "check-schema"), ("ppsnf", "silk_interleaved.slk", "check-silk")],
)
def test_output_file_in_another_directory_finds_its_theory(capsys, tmp_path, command, source, check):
    out = tmp_path / "sub" / "out"
    out.parent.mkdir()
    code, _, err = run(capsys, command, p(source), "-o", str(out))
    assert (code, err) == (0, "")
    code, _, err = run(capsys, check, str(out))
    assert (code, err) == (0, "")


@pytest.mark.parametrize("name, alpha", [("schema_exp.sch", 6), ("schema_shat.sch", 5), ("schema_fhat.sch", 6)])
def test_unroll_check_expands_each_link_instance_once(capsys, monkeypatch, name, alpha):
    calls = []
    instance = silkcheck.schema._instance

    def counted(template, sub):
        calls.append(template)
        return instance(template, sub)

    monkeypatch.setattr(silkcheck.schema, "_instance", counted)

    def instances(*flags):
        calls.clear()
        code, _, _ = run(capsys, "unroll", p(name), "--alpha", str(alpha), "--lk", "--quiet", *flags)
        assert code == 0
        return len(calls)

    plain = instances()
    assert plain > alpha
    assert instances("--check") == plain


def test_unroll_lk_check_builds_no_expanded_node(capsys, monkeypatch):
    memos = []

    class Recorded(silkcheck.schema.UnrollMemo):
        def __init__(self):
            super().__init__()
            memos.append(self)

    def refused(*args):
        raise AssertionError("an expanded proof was built")

    monkeypatch.setattr(silkcheck.cli, "UnrollMemo", Recorded)
    monkeypatch.setattr(silkcheck.schema, "_build", refused)
    # argv -> the end of its output; stats counts the expanded proof too.
    runs = {
        ("unroll", p("schema_exp.sch"), "--alpha", "6", "--lk", "--check", "--quiet", "--json"): "check: accepted\n",
        ("stats", p("schema_exp.sch"), "--alpha-range", "0..6", "--json"): "}\n",
    }
    for argv, end in runs.items():
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "") and out.endswith(end)
    assert len(memos) == len(runs)
    for memo in memos:
        assert memo.links and all(inst.figure is None for inst in memo.links.values())


def test_unroll_counts_inferences_without_walking_the_proof(capsys, monkeypatch):
    # The counts come from the instance records; only the templates, compiled
    # once per component, are walked, so the walk does not grow with alpha.
    # Walking the alpha=12 proof reads the premises of 12,289 nodes.
    calls = []
    kids = silkcheck.kernel.Proof.kids
    monkeypatch.setattr(silkcheck.kernel.Proof, "kids", lambda node: calls.append(node) or kids(node))
    walked = {}
    for alpha in (12, 13):
        calls.clear()
        code, out, err = run(capsys, "unroll", p("schema_exp.sch"), "--alpha", str(alpha), "--lk", "--quiet")
        walked[alpha] = len(calls)
        schema, theory = load_schema(corpus_path("schema_exp.sch"))
        proof = evaluate(schema, alpha, theory).proof
        counts = ", ".join(f"{k}={v}" for k, v in sorted(count_inferences(proof).items()))
        assert (code, out, err) == (0, f"inferences: {counts}\n", "")
    assert walked[12] == walked[13] < 100


def _bounded_cli(*argv):
    """The CLI run in a process of its own, bounded in time and in address
    space, so that work that grows without bound fails rather than hangs."""

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 29, 1 << 29))

    env = {**os.environ, "PYTHONPATH": str(Path(silkcheck.__file__).parent.parent)}
    argv = [sys.executable, "-m", "silkcheck", *argv]
    return subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60, preexec_fn=limit)


# The instance costs fuel as its numeral's size, so an instance above the
# fuel fails before its successor tower is built; a tall tower once cost
# time and memory linear in it first, and 10^20 never ended.
@pytest.mark.parametrize("alpha", ["4", "200000", "99999999999999999999"])
def test_an_instance_above_the_fuel_fails_at_once(alpha):
    done = _bounded_cli("unroll", p("schema_exp.sch"), "--alpha", alpha, "--fuel", "3", "--lk", "--quiet")
    message = f"error: instance {alpha} is larger than the fuel 3\n"
    assert (done.returncode, done.stdout, done.stderr) == (1, "", message)


def test_python_m_silkcheck_runs_the_cli():
    done = _bounded_cli("--help")
    assert (done.returncode, done.stderr) == (0, "") and done.stdout.startswith("usage: silkcheck")


def _conj(atom, n):
    return " /\\ ".join([atom] * n)


DEEP_PROOFS = {
    "forall-r-tall-context": (
        'forall:r "Q(1500) |- forall x. P(x) -> P(x)" a=0 formula="forall x. P(x) -> P(x)" eigen=b {\n'
        '  w:l "Q(1500) |- P(b) -> P(b)" formula="Q(1500)" {\n'
        '    ->:r "|- P(b) -> P(b)" a=0 b=0 {\n'
        '      ax "P(b) |- P(b)"\n'
        "    }\n"
        "  }\n"
        "}\n"
    ),
    "forall-l-2000-conjuncts": (
        f'forall:l "forall x. {_conj("P(x)", 2000)} |- {_conj("P(b)", 2000)}" a=0 '
        f'formula="forall x. {_conj("P(x)", 2000)}" term="b" {{\n'
        f'  ax "{_conj("P(b)", 2000)} |- {_conj("P(b)", 2000)}"\n'
        "}\n"
    ),
    "rewrite-path-2000-deep": (
        f'E "P(2000) |- P(2000)" at=L.0 path={".".join(["0"] * 2000)} to="1" {{\n'
        '  ax "P(2000) |- P(2000)"\n'
        "}\n"
    ),
}


@pytest.mark.parametrize("name", DEEP_PROOFS)
def test_deep_formulas_check_without_recursion(capsys, tmp_path, name):
    path = tmp_path / "deep.lkp"
    path.write_text(DEEP_PROOFS[name])
    code, out, err = run(capsys, "check-lk", str(path))
    assert (code, err) == (0, "")
    assert out.startswith("accepted\n")


def test_binder_binds_the_schematic_variable_of_its_name(capsys, tmp_path):
    # forall a. P(x[0]) says P(x[0]); forall x. P(x[0]) says P of every
    # x[0]. An axiom that identifies the two would prove P(x[0]) |- P(y[0]).
    path = tmp_path / "capture.lkp"
    path.write_text(
        'cut "forall a. P(x[0]) |- P(y[0])" a=0 b=0 {\n'
        '  ax "forall a. P(x[0]) |- forall x. P(x[0])"\n'
        '  forall:l "forall x. P(x[0]) |- P(y[0])" a=0 formula="forall x. P(x[0])" term="y" {\n'
        '    ax "P(y[0]) |- P(y[0])"\n'
        "  }\n"
        "}\n"
    )
    code, out, err = run(capsys, "check-lk", str(path))
    assert (code, err) == (1, "")
    assert out.splitlines()[:2] == [
        "rejected",
        "  [0] ax: axiom sides differ: forall a. P(x[0]) vs forall x. P(x[0])",
    ]


SORT_MISMATCH = "schematic variable x must map to a variable, got <Fn f(a)>"
SORT_MISMATCH_PROOF = (
    'forall:l "forall x. P(x[0]) |- P(f(a))" a=0 formula="forall x. P(x[0])" term="f(a)" {\n'
    '  ax "P(f(a)) |- P(f(a))"\n'
    "}\n"
)
SORT_MISMATCH_SCRIPT = (
    'ax1r "P(f(a)) |- P(f(a))"\n'
    'rho bc 1 forall:l group=1 pair=1 a=0 formula="forall x. P(x[0])" term="f(a)"\n'
)
# The self-link passes the term f(a) for x, which the pattern uses as x[n].
SORT_MISMATCH_SCHEMA = """component psi
  pattern "Q(x[n]) |- Q(x[n])"
  vars (x)
  step-param "n + 1"
{
  base {
    ax "Q(x[0]) |- Q(x[0])"
  }
  step {
    link "Q(x[n + 1]) |- Q(x[n + 1])" target=psi param="n" terms=(f(a))
  }
}
"""


@pytest.mark.parametrize(
    "name, text, argv, want",
    [
        ("bad.lkp", SORT_MISMATCH_PROOF, ("check-lk",), f"rejected\n  [root] forall:l: {SORT_MISMATCH}\n"),
        ("bad.slk", SORT_MISMATCH_SCRIPT, ("check-silk",), "verdict: rejected\n"),
        ("bad.sch", SORT_MISMATCH_SCHEMA, ("check-schema",), "rejected\n"),
        ("bad.sch", SORT_MISMATCH_SCHEMA, ("unroll", "--alpha", "2"), ""),
        ("bad.sch", SORT_MISMATCH_SCHEMA, ("unroll", "--alpha", "2", "--lk", "--check"), ""),
    ],
    ids=["check-lk", "check-silk", "check-schema", "unroll", "unroll-check"],
)
def test_sort_mismatch_is_a_reported_failure(capsys, tmp_path, name, text, argv, want):
    path = tmp_path / name
    path.write_text(text)
    code, out, err = run(capsys, argv[0], str(path), *argv[1:])
    assert code == 1 and out.startswith(want)
    if argv[0] == "unroll":
        assert (out, err) == ("", f"error: {SORT_MISMATCH}\n")
    else:
        assert err == "" and SORT_MISMATCH in out


@pytest.mark.parametrize(
    "argv",
    [("unroll", "--alpha", "3", "--lk", "--check", "--quiet"), ("stats", "--alpha-range", "0..3")],
    ids=["unroll-check", "stats"],
)
def test_a_link_with_more_terms_than_variables_does_not_unroll(capsys, tmp_path, argv):
    # Unrolling once paired the terms with the variables and dropped the
    # extra one; it now refuses the link in the words of the kernel.
    path = tmp_path / "schema_shat.sch"
    path.write_text(corpus_path("schema_shat.sch").read_text().replace("terms=(alpha)", "terms=(alpha, beta)"))
    (tmp_path / "theory_shat.thy").write_text(corpus_path("theory_shat.thy").read_text())
    message = "link to phi carries 2 terms for 1 variables"
    code, out, _ = run(capsys, "check-schema", str(path))
    assert code == 1 and out.endswith(f"link: step of phi: {message}\n")
    assert run(capsys, argv[0], str(path), *argv[1:]) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "command, source, check",
    [("translate", "silk_fhat.slk", "check-schema"), ("ppsnf", "silk_fhat.slk", "check-silk")],
)
def test_output_file_names_the_theory_option(capsys, tmp_path, monkeypatch, command, source, check):
    (tmp_path / "other.thy").write_text(corpus_path("theory_fhat.thy").read_text())
    (tmp_path / "sub").mkdir()
    monkeypatch.chdir(tmp_path)
    code, _, err = run(capsys, command, p(source), "--theory", "other.thy", "-o", "sub/x")
    assert (code, err) == (0, "")
    assert (tmp_path / "sub" / "x").read_text().startswith('theory "../other.thy"\n')
    code, _, err = run(capsys, check, "sub/x")
    assert (code, err) == (0, "")
    # Without -o the input's own directive is printed, as before.
    plain = run(capsys, command, p(source))
    assert run(capsys, command, p(source), "--theory", "other.thy") == plain
    assert plain[1].startswith('theory "theory_fhat.thy"\n')


FUZZ_COMMANDS = {
    ".lkp": [["check-lk", "{}"]],
    ".sch": [
        ["check-schema", "{}"],
        ["unroll", "{}", "--alpha", "2", "--lk", "--check"],
        ["stats", "{}", "--alpha-range", "0..2"],
        ["check-lk", p("lk_nu_shat.lkp"), "--mode", "lks", "--env", "{}"],
    ],
    ".slk": [
        ["check-silk", "{}"],
        ["ppsnf", "{}"],
        ["translate", "{}"],
        ["interpret", "{}"],
        ["stats", "{}", "--alpha-range", "0..2"],
    ],
}
# A mutated theory goes to --theory of commands on corpus files that name it.
FUZZ_THEORY_COMMANDS = {
    "theory_shat.thy": [["check-lk", p("lk_pi_shat.lkp")], ["unroll", p("schema_shat.sch"), "--alpha", "2", "--lk", "--check"]],
    "theory_fhat.thy": [["check-silk", p("silk_fhat.slk")], ["stats", p("schema_fhat.sch"), "--alpha-range", "0..2"]],
    "theory_exp.thy": [["translate", p("silk_exp.slk")], ["unroll", p("schema_exp.sch"), "--alpha", "2", "--check"]],
    "theory_wedge.thy": [["interpret", p("silk_wedge.slk")], ["ppsnf", p("silk_interleaved.slk")]],
}
FUZZ_FILES = sorted(
    path.name
    for path in corpus_path("schema_shat.sch").parent.iterdir()
    if path.suffix in FUZZ_COMMANDS or path.name in FUZZ_THEORY_COMMANDS
)


def _fuzz_commands(path):
    if path.suffix == ".thy":
        return [argv + ["--theory", "{}"] for argv in FUZZ_THEORY_COMMANDS[path.name]]
    return FUZZ_COMMANDS[path.suffix]


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(gen.mutated_corpus_files(FUZZ_FILES))
def test_mutated_corpus_files_end_in_an_exit_code(capsys, fuzz_dir, case):
    # Every command on a damaged input ends in exit 0, 1 or 2, never an
    # exception.
    name, text = case
    path = fuzz_dir / "thy" / name if name.endswith(".thy") else fuzz_dir / name
    path.write_text(text, encoding="utf-8")
    for argv in _fuzz_commands(path):
        code, _, _ = run(capsys, *(arg.format(path) for arg in argv))
        assert code in (0, 1, 2)


# A script's replacement expression is parsed at replay, against the
# premise; one that does not parse once escaped replay as a ParseError.
MALFORMED_TO = (
    'theory "%s"\n'
    'ax1r "P(0) |- P(0)"\n'
    'rho bc 1 E group=1 pair=1 at=R.0 path=0 to="f(("\n'
)


def test_malformed_replacement_rejects_the_step(capsys, tmp_path):
    path = tmp_path / "bad_to.slk"
    path.write_text(MALFORMED_TO % p("theory_fhat.thy"))
    code, out, err = run(capsys, "check-silk", str(path))
    assert code == 1 and not err
    assert out.splitlines()[0] == "verdict: rejected"
    assert out.splitlines()[-1] == "  step 1: [rho_bc] expected a term at 3:48"


# A bad rewrite witness and its one message.  On line 2 of both files the
# rule, E, starts at column 10 and the `to=` string at the same column after
# it, as ' group=1 pair=1' and ' "P(0) |- P(0)"' are equally long.
BAD_WITNESSES = [
    ('path=0 to="f^0(0)"', "rewrite step needs a position at 2:37"),
    ('at=R.3 path=0 to="f^0(0)"', "rewrite index 3 out of range at 2:44"),
    ('at=R.0 path=5 to="f^0(0)"', "rewrite path (5,) does not address a node at 2:44"),
    ('at=R.0 path=0.0.1 to="f^0(0)"', "rewrite path (0, 0, 1) does not address a node at 2:48"),
    ('at=R.0 path=0 to="f(("', "expected a term at 2:48"),
]


@pytest.mark.parametrize("witness, message", BAD_WITNESSES)
def test_a_bad_rewrite_witness_reads_alike_in_a_block_and_a_script(capsys, tmp_path, witness, message):
    block = tmp_path / "bad.lkp"
    block.write_text(f'# a rule block\n         E "P(0) |- P(0)" {witness} {{ ax "P(0) |- P(0)" }}\n')
    script = tmp_path / "bad.slk"
    script.write_text(f'ax1r "P(0) |- P(0)"\nrho bc 1 E group=1 pair=1 {witness}\n')
    assert run(capsys, "check-lk", str(block)) == (2, "", f"parse error: {message}\n")
    code, out, err = run(capsys, "check-silk", str(script))
    assert (code, out.splitlines()[-1], err) == (1, f"  step 1: [rho_bc] {message}", "")


@pytest.mark.parametrize("command", ["ppsnf", "translate", "interpret", "stats"])
def test_malformed_replacement_is_not_a_proof(capsys, tmp_path, command):
    path = tmp_path / "bad_to.slk"
    path.write_text(MALFORMED_TO % p("theory_fhat.thy"))
    extra = ("--alpha-range", "0..1") if command == "stats" else ()
    code, out, err = run(capsys, command, str(path), *extra)
    assert code == 1 and not out
    assert err.startswith("not a proof")


# f(g(x)) == x puts the defined symbol g inside an argument.
BAD_THEORY = "f(g(x)) == x;\ng(x) == x;\n"
BAD_THEORY_ERR = "parse error: theory rule 1: defined symbol g(x) occurs inside the argument g(x)\n"


@pytest.mark.parametrize(
    "name, text, argv",
    [
        ("a.lkp", 'ax "P |- P"\n', ("check-lk",)),
        ("a.sch", 'component phi pattern "P |- P" vars () { base { ax "P |- P" } }\n', ("check-schema",)),
        ("a.sch", 'component phi pattern "P |- P" vars () { base { ax "P |- P" } }\n', ("unroll", "--alpha", "1")),
        ("a.slk", CONJ_SCRIPT, ("check-silk",)),
        ("a.slk", CONJ_SCRIPT, ("ppsnf",)),
        ("a.slk", CONJ_SCRIPT, ("translate",)),
        ("a.slk", CONJ_SCRIPT, ("interpret",)),
        ("a.slk", CONJ_SCRIPT, ("stats", "--alpha-range", "0..1")),
    ],
)
def test_every_command_validates_the_theory(capsys, tmp_path, name, text, argv):
    (tmp_path / "bad.thy").write_text(BAD_THEORY)
    path = tmp_path / name
    path.write_text('theory "bad.thy"\n' + text)
    code, out, err = run(capsys, argv[0], str(path), *argv[1:])
    assert (code, out, err) == (2, "", BAD_THEORY_ERR)


def test_theory_option_is_validated(capsys, tmp_path):
    (tmp_path / "bad.thy").write_text(BAD_THEORY)
    code, out, err = run(capsys, "check-silk", p("silk_conj_comm.slk"), "--theory", str(tmp_path / "bad.thy"))
    assert (code, out, err) == (2, "", BAD_THEORY_ERR)


def test_theory_rule_naming_a_schematic_variable_after_a_bound_one_is_a_parse_error(capsys, tmp_path):
    # g(x) == h(x[0]) binds x to a term, which the name of x[0] cannot
    # become: loading the theory fails before any E step uses the rule.
    (tmp_path / "t.thy").write_text("g(x) == h(x[0]);\n")
    path = tmp_path / "a.lkp"
    path.write_text(
        'theory "t.thy"\n'
        'E "P(h(f(a))) |- P(h(f(a)))" at=L.0 path=0 to="g(f(a))" {\n  ax "P(h(f(a))) |- P(h(f(a)))"\n}\n'
    )
    err = "parse error: theory rule 1: right side uses left-side variables as schematic variables: x\n"
    assert run(capsys, "check-lk", str(path), "--mode", "lke") == (2, "", err)


# Parse errors inside quoted expressions and theory rules are reported at
# their place in the file, not in the quoted text.
@pytest.mark.parametrize(
    "name, text, argv, where",
    [
        ("a.lkp", '# a comment\n\n\nax "P( |- P"\n', ("check-lk",), "expected a term at 4:8"),
        ("a.slk", 'ax1r "A |- A"\n  ax2r group=1 "B |- |- B"\n', ("check-silk",), "expected a formula at 2:22"),
        ("a.slk", 'ax1r "A |- A"\naxl group=1 pair=1 formula="A" ann="s("\n', ("check-silk",), "expected a numeric expression at 2:39"),
        (
            "a.sch",
            'component phi\n  pattern "P(n |- P" vars () { base { ax "P |- P" } }\n',
            ("check-schema",),
            "expected ')', found '|-' at 2:16",
        ),
        (
            "a.sch",
            'component phi pattern "P |- P" vars () step-param "s(n" { base { ax "P |- P" } }\n',
            ("check-schema",),
            "expected ')', found '' at 1:55",
        ),
        ("a.slk", 'ax1r "A\n|- A"\n\nfrob\n', ("check-silk",), "unknown step 'frob' at 4:1"),
        ("a.slk", 'ax1r "A\n|- A"\nax2r group=1 "B |-\n  |- B"\n', ("check-silk",), "expected a formula at 4:3"),
        (
            "a.lkp",
            '# a comment\n\nE "P(0) |- P(0)" at=R.0 path=0 to="f((" {\n  ax "P(0) |- P(0)"\n}\n',
            ("check-lk",),
            "expected a term at 3:39",
        ),
        (
            "a.lkp",
            '\n  E "P(0) |- P(0)" at=R.0 path=0 to="0"\n',
            ("check-lk",),
            "a rewrite step needs its premise before the replacement resolves at 2:3",
        ),
    ],
)
def test_parse_errors_carry_file_positions(capsys, tmp_path, name, text, argv, where):
    path = tmp_path / name
    path.write_text(text)
    code, out, err = run(capsys, argv[0], str(path), *argv[1:])
    assert (code, out, err) == (2, "", f"parse error: {where}\n")


@pytest.mark.parametrize(
    "rules, where",
    [
        ("f(x) == x;\n\nf(s(x)) == g(x,;\n", "expected a term at 3:16"),
        ("f(x) == x;\n\n  pred  Q( == P;\n", "expected a term at 3:11"),
        ("\tf( == x;\n", "expected a term at 1:4"),
    ],
)
def test_theory_parse_errors_carry_file_positions(capsys, tmp_path, rules, where):
    (tmp_path / "t.thy").write_text(rules)
    path = tmp_path / "a.lkp"
    path.write_text('theory "t.thy"\nax "P |- P"\n')
    code, out, err = run(capsys, "check-lk", str(path))
    assert (code, out, err) == (2, "", f"parse error: {where}\n")


# A repeated clause of a component once silently replaced the first one.
@pytest.mark.parametrize(
    "text, where",
    [
        ('component phi pattern "P |- P" pattern "Q |- Q" { base { ax "P |- P" } }\n', "pattern at 1:32"),
        ('component phi pattern "P |- P" vars () vars (a) { base { ax "P |- P" } }\n', "vars at 1:40"),
        (
            'component phi pattern "P |- P" step-param "n + 1" step-param "n + 2" { base { ax "P |- P" } }\n',
            "step-param at 1:51",
        ),
        ('component phi pattern "P |- P" {\n  base { ax "P |- P" }\n  base { ax "P |- P" }\n}\n', "base at 3:3"),
        (
            'component phi pattern "P |- P" {\n  base { ax "P |- P" }\n  step { ax "P |- P" }\n  step { ax "P |- P" }\n}\n',
            "step at 4:3",
        ),
    ],
    ids=["pattern", "vars", "step-param", "base", "step"],
)
def test_repeated_component_clause_is_a_parse_error(capsys, tmp_path, text, where):
    path = tmp_path / "a.sch"
    path.write_text(text)
    code, out, err = run(capsys, "check-schema", str(path))
    assert (code, out, err) == (2, "", f"parse error: component phi repeats its {where}\n")


# A key given twice in one witness once let its last value win silently:
# the first case replayed as a proof, the second was checked with a=9.
@pytest.mark.parametrize(
    "name, old, new, command, where",
    [
        ("silk_fhat.slk", "pair=2 a=0 formula", "pair=2 a=7 a=0 formula", "check-silk", "'a' at 11:38"),
        ("lk_or_contract.lkp", "a=0 b=1 {", "a=0 a=9 b=1 {", "check-lk", "'a' at 1:23"),
        ("lk_pi_shat.lkp", 'path=0.1 to="S^0"', 'path=0.1 at=L.0 to="S^0"', "check-lk", "'at' at 3:79"),
        ("silk_conj_comm.slk", 'group=1 "A |- A"', 'group=1 "A |- A" group=1', "check-silk", "'group' at 3:23"),
    ],
    ids=["slk", "lkp", "at", "around-the-sequent"],
)
def test_repeated_witness_key_is_a_parse_error(capsys, tmp_path, name, old, new, command, where):
    text = corpus_path(name).read_text()
    assert text.count(old) == 1
    path = tmp_path / name
    path.write_text(text.replace(old, new))
    code, out, err = run(capsys, command, str(path))
    assert (code, out, err) == (2, "", f"parse error: repeated witness key {where}\n")


# A witness key the rule never reads once passed silently: the axiom was
# accepted, the `to` of a weakening dropped, the ~:r step replayed.
@pytest.mark.parametrize(
    "suffix, text, command, where",
    [
        (".lkp", 'ax "A |- A" a=5 formula="B" to="C" target=7\n', "check-lk", "ax does not read the witness key 'a' at 1:13"),
        (
            ".lkp",
            'w:l "B, A |- A" formula="B" to="C" {\n  ax "A |- A"\n}\n',
            "check-lk",
            "w:l does not read the witness key 'to' at 1:29",
        ),
        (
            ".slk",
            'ax1r "A |- A"\nrho bc 1 ~:r group=1 pair=1 a=0 b=3 term="c"\n',
            "check-silk",
            "rho ~:r does not read the witness key 'b' at 2:33",
        ),
    ],
    ids=["ax", "to-on-w:l", "rho"],
)
def test_unread_witness_key_is_a_parse_error(capsys, tmp_path, suffix, text, command, where):
    path = tmp_path / f"unread{suffix}"
    path.write_text(text)
    code, out, err = run(capsys, command, str(path))
    assert (code, out, err) == (2, "", f"parse error: {where}\n")


# ppsnf once dropped a step's `whole`, which translate writes back.  Only a
# rewrite step reads it, and replay rejects it there, so no proof that ppsnf
# takes carries one: its writer is run on the script as read.
def test_ppsnf_keeps_a_steps_whole(capsys, tmp_path):
    text = corpus_path("silk_exp.slk").read_text()
    step = 'rho bc 1 E group=1 pair=1 at=R.0 path=0 to="f^0(0)"'
    assert text.count(step) == 1
    source = tmp_path / "whole.slk"
    source.write_text(text.replace(step, step + " whole").replace("theory_exp.thy", p("theory_exp.thy")))
    out = print_script(*parse_script(source.read_text()))
    assert step + " whole" in out.splitlines()
    printed = tmp_path / "printed.slk"
    printed.write_text(out)
    assert run(capsys, "check-silk", str(printed)) == run(capsys, "check-silk", str(source))
    assert "whole-sequent rewrite steps have no forward application" in run(capsys, "check-silk", str(source))[1]


def test_the_readme_library_example_prints_what_interpret_prints(capsys, tmp_path):
    root = Path(__file__).resolve().parents[1]
    text = (root / "README.md").read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    example = text.split("```python\n", 1)[1].split("```", 1)[0]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    done = subprocess.run([sys.executable, "-c", example], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert run(capsys, "interpret", p("silk_exp.slk")) == (0, done.stdout, "")


def test_the_corpus_transcript_is_what_was_last_written_on_purpose():
    # Every corpus file under every command form, with and without --json,
    # prints what tests/transcript.txt holds; transcript.py says how to
    # write it again when a change means to alter the output.
    got = transcript.transcript().encode("utf-8").splitlines(keepends=True)
    want = (Path(__file__).parent / "transcript.txt").read_bytes().splitlines(keepends=True)
    differ = [(i + 1, a, b) for i, (a, b) in enumerate(zip(got, want)) if a != b][:3]  # (line, got, want)
    assert (differ, len(got)) == ([], len(want))
