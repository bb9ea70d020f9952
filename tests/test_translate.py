"""Normal form, schema extraction, and the interpretation formula."""

import pytest

from silkcheck import corpus_path, load_script, translate
from silkcheck.cli import main
from silkcheck.kernel import RuleName as R, count_inferences
from silkcheck.parser import parse_formula, parse_numexpr, parse_sequent
from silkcheck.schema import check_schema, evaluate, evaluate_and_check, replace
from silkcheck.silk import NotAProof, SiLKScript, check_script
from silkcheck.syntax import OmegaAll, bind, formula_eq
from silkcheck.translate import ancestor_map, interpret, silk_to_schema, to_ppsnf

import gen
from conftest import SCRIPT_NAMES
from gen import collection_signature


def test_single_group_script_is_already_normal(fhat_script):
    normal = to_ppsnf(fhat_script)
    assert [s.rule for s in normal.steps] == [s.rule for s in fhat_script.steps]
    assert [s.group for s in normal.steps] == [s.group for s in fhat_script.steps]


def test_context_extension_keeps_order(exp_script):
    normal = to_ppsnf(exp_script)
    assert [s.rule for s in normal.steps] == [s.rule for s in exp_script.steps]


def test_interleaved_script_reorders():
    script = load_script(corpus_path("silk_interleaved.slk"))
    original, verdict, _ = check_script(script)
    assert verdict == "proof"
    normal = to_ppsnf(script)
    # Each new group starts only after every earlier one is closed.
    open_groups = 0
    seen_close = 0
    starts_after_close = []
    for step in normal.steps:
        if step.rule == "ax1r":
            starts_after_close.append(seen_close)
        if step.rule in ("clsc", "cllke"):
            seen_close += 1
    assert starts_after_close == [0, 1]
    replayed, verdict2, _ = check_script(normal)
    assert verdict2 == "proof"
    assert collection_signature(replayed) == collection_signature(original)


def test_ppsnf_idempotent(all_scripts):
    for name, script in all_scripts.items():
        once = to_ppsnf(script)
        twice = to_ppsnf(once)
        assert [(s.rule, s.group, s.target) for s in once.steps] == [
            (s.rule, s.group, s.target) for s in twice.steps
        ], name


def test_ppsnf_requires_a_proof(fhat_script):
    with pytest.raises(NotAProof):
        to_ppsnf(SiLKScript(fhat_script.theory, fhat_script.steps[:-1]))


def test_ancestors_partition_steps(all_scripts):
    for name, script in all_scripts.items():
        groups = ancestor_map(script)
        indices = sorted(i for v in groups.values() for i in v)
        assert indices == list(range(len(script.steps))), name


def test_translate_linear_example(fhat_script):
    schema = silk_to_schema(fhat_script)
    assert [c.name for c in schema.components] == ["g1"]
    comp = schema.components[0]
    coll, _, _ = check_script(fhat_script)
    pair = coll.groups[0].pairs[0]
    assert comp.base.conclusion == pair.base.sequent
    assert comp.step.conclusion == pair.step.sequent
    assert check_schema(schema, fhat_script.theory).accepted
    # base: axiom, rewrite, weakening; step: link and axiom under the
    # implication, instantiation, contraction, and the bracket-matching
    # rewrite.
    assert count_inferences(comp.base) == {"E": 1, "w:l": 1}
    assert count_inferences(comp.step) == {"->:l": 1, "forall:l": 1, "c:l": 1, "E": 1}


def test_translate_exponential_has_forward_link(exp_script):
    schema = silk_to_schema(exp_script)
    assert [c.name for c in schema.components] == ["g2", "g1"]
    lead = schema.components[0]
    links = [n for n, _ in gen.proof_nodes(lead.step) if n.rule is R.LINK]
    assert len(links) == 1
    assert links[0].data.target == "g1"
    assert links[0].data.param == parse_numexpr("2^(s(n))")
    assert check_schema(schema, exp_script.theory).accepted
    coll, _, _ = check_script(exp_script)
    for comp, group in zip(schema.components, sorted(coll.groups, key=lambda g: -g.closure_index)):
        assert comp.base.conclusion == group.pairs[0].base.sequent
        assert comp.step.conclusion == group.pairs[0].step.sequent


def test_translated_proofs_are_sound(all_scripts):
    for name, script in all_scripts.items():
        schema = silk_to_schema(script)
        assert check_schema(schema, script.theory).accepted, name
        for alpha in range(11):
            report = evaluate_and_check(schema, alpha, script.theory)
            assert report.accepted, (name, alpha, [str(f) for f in report.failures])


def test_rewrite_free_proof_translates_to_single_proof(all_scripts):
    script = all_scripts["silk_conj_comm.slk"]
    schema = silk_to_schema(script)
    assert len(schema.components) == 1
    assert schema.components[0].step is None
    for alpha in (0, 3, 7):
        trace = evaluate(schema, alpha, script.theory)
        assert trace.proof.conclusion == parse_sequent("A /\\ B |- B /\\ A")


def test_empty_stepcase_groups_are_dropped(all_scripts):
    schema = silk_to_schema(all_scripts["silk_interleaved.slk"])
    assert len(schema.components) == 1
    assert schema.components[0].pattern == parse_sequent("Q |- W^n")


def test_interpret_linear_example(fhat_script):
    coll, _, _ = check_script(fhat_script)
    got = interpret(coll)
    delta = parse_formula("P(0) /\\ (forall x. P(x) -> P(f(x)))")
    base = parse_formula("P(0) /\\ (forall x. P(x) -> P(f(x))) -> P(f^0(0))")
    at_x = parse_formula("P(0) /\\ (forall x. P(x) -> P(f(x))) -> P(f^x(0))")
    at_x1 = parse_formula("P(0) /\\ (forall x. P(x) -> P(f(x))) -> P(f^(x + 1)(0))")
    from silkcheck.syntax import And, Imp

    expected = Imp(And(base, bind(OmegaAll, "x", Imp(at_x, at_x1))), bind(OmegaAll, "x", at_x))
    assert formula_eq(got, expected)
    assert delta is not None


def test_interpret_rewrite_free_proof(all_scripts):
    coll, _, _ = check_script(all_scripts["silk_conj_comm.slk"])
    assert formula_eq(interpret(coll), parse_formula("A /\\ B -> B /\\ A"))


def test_interpret_empty_antecedent(all_scripts):
    coll, _, _ = check_script(all_scripts["silk_excluded_middle.slk"])
    assert formula_eq(interpret(coll), parse_formula("A \\/ ~A"))


def test_interpret_ranges_over_all_inductive_groups(all_scripts):
    coll, _, _ = check_script(all_scripts["silk_wedge_var.slk"])
    formula = interpret(coll)
    text = str(formula)
    # Both the called accumulator and the caller contribute conjuncts.
    assert "W2^x(f(c))" in text and "W2^x(y)" in text


def test_interpret_instances_follow_the_unrolling(exp_script):
    # The leading pattern instantiated at alpha agrees with the unrolled
    # proof's end-sequent after rewriting.
    from silkcheck.rewrite import normalize
    from silkcheck.syntax import numeral, subst

    schema = silk_to_schema(exp_script)
    lead = schema.components[0]
    for alpha in range(9):
        trace = evaluate(schema, alpha, exp_script.theory)
        want = normalize(
            subst(lead.pattern, {"n": numeral(alpha)}), exp_script.theory
        ).value
        assert trace.proof.conclusion == want


@pytest.mark.parametrize("argv", [["translate"], ["stats", "--alpha-range", "0..3"]], ids=["translate", "stats"])
@pytest.mark.parametrize("name", SCRIPT_NAMES)
def test_a_script_in_construction_order_is_replayed_once(monkeypatch, capsys, name, argv):
    replays = []

    def counted(script):
        replays.append(script)
        return check_script(script)

    monkeypatch.setattr(translate, "check_script", counted)
    command = [argv[0], str(corpus_path(name)), *argv[1:]]
    assert main(command) == 0
    once = capsys.readouterr()
    want = 2 if name == "silk_interleaved.slk" else 1
    assert len(replays) == want
    # Against a second replay of every script, reordered or not: the output
    # is the same.
    reordered = translate._reordered
    monkeypatch.setattr(translate, "_reordered", lambda *replay: replace(reordered(*replay)))
    assert main(command) == 0
    assert capsys.readouterr() == once
    assert len(replays) == want + 2
