"""Schema well-formedness and unrolling, pinned to the worked example."""

import tracemalloc

import pytest

from silkcheck import corpus_path, load_schema, load_script
from silkcheck.kernel import Proof, RuleData, RuleName as R, count_inferences, iter_nodes
from silkcheck.parser import parse_numexpr, parse_schema, parse_sequent
from silkcheck.schema import (
    MatchFailure,
    ProofSchema,
    SchemaComponent,
    UnrollMemo,
    check_schema,
    evaluate,
    evaluate_and_check,
)
from silkcheck.printer import print_proof_tree
from silkcheck.rewrite import EquationalTheory, FuelExhausted, normalize
from silkcheck.syntax import SortMismatch, Substitution, numeral, subst
from silkcheck.translate import silk_to_schema

import gen


def replace_step_link_param(proof, new_param):
    from dataclasses import replace

    if proof.rule is R.LINK:
        return Proof(proof.conclusion, proof.rule, (), replace(proof.data, param=new_param))
    return Proof(
        proof.conclusion,
        proof.rule,
        tuple(replace_step_link_param(p, new_param) for p in proof.premises),
        proof.data,
    )


def test_example_schema_accepted(shat):
    schema, theory = shat
    assert check_schema(schema, theory).accepted


def test_self_link_must_decrease(shat):
    schema, theory = shat
    comp = schema.components[0]
    bumped = replace_step_link_param(comp.step, parse_numexpr("n + 1"))
    broken = ProofSchema((SchemaComponent(comp.name, comp.pattern, comp.vars, comp.step_param, comp.base, bumped),))
    report = check_schema(broken, theory)
    assert not report.accepted
    assert any("strictly decrease" in fl.message for fl in report.failures)


def test_forward_links_must_point_right(shat):
    schema, theory = shat
    comp = schema.components[0]
    # A second component whose step calls the FIRST one: backwards.
    second = SchemaComponent(
        "psi",
        comp.pattern,
        comp.vars,
        comp.step_param,
        comp.base,
        replace_step_link_param(comp.step, parse_numexpr("n")),
    )
    renamed_step = _retarget(second.step, "phi")
    broken = ProofSchema((comp, SchemaComponent("psi", comp.pattern, comp.vars, comp.step_param, comp.base, renamed_step)))
    report = check_schema(broken, theory)
    assert not report.accepted
    assert any("later components" in fl.message or "target" in fl.message for fl in report.failures)


def _retarget(proof, target):
    from dataclasses import replace

    if proof.rule is R.LINK:
        return Proof(proof.conclusion, proof.rule, (), replace(proof.data, target=target))
    return Proof(proof.conclusion, proof.rule, tuple(_retarget(p, target) for p in proof.premises), proof.data)


def test_unroll_at_one_matches_figure(shat):
    schema, theory = shat
    trace = evaluate(schema, 1, theory)
    # Exact tree: the base stacked under the implication chain, two rewrite
    # steps, the contraction, and the final numeral-cleanup rewrite.
    spine = []
    node = trace.expanded
    while node.premises:
        spine.append(str(node.rule))
        node = node.premises[0]
    assert spine == ["E", "c:l", "E", "E", "forall:l", "->:l", "E", "w:l"]
    assert count_inferences(trace.expanded) == {"E": 4, "c:l": 1, "forall:l": 1, "->:l": 1, "w:l": 1}
    assert trace.expanded.conclusion == parse_sequent(
        "P(alpha + 0), forall x. P(x) -> P(f(x)) |- P(alpha + S^1)"
    )


def test_unroll_at_zero_is_the_base(shat):
    schema, theory = shat
    trace = evaluate(schema, 0, theory)
    assert [r for r, _ in _spine(trace.expanded)] == ["E", "w:l", "ax"]
    # The normal form collapses the rewrite and keeps the logical steps.
    assert count_inferences(trace.proof) == {"w:l": 1}
    assert trace.proof.conclusion == parse_sequent(
        "P(alpha + 0), forall x. P(x) -> P(f(x)) |- P(alpha + 0)"
    )


def _spine(proof):
    out = []
    node = proof
    while True:
        out.append((str(node.rule), node.conclusion))
        if not node.premises:
            return out
        node = node.premises[0]


def test_sound_for_first_thirteen_instances(shat):
    schema, theory = shat
    for alpha in range(13):
        assert evaluate_and_check(schema, alpha, theory).accepted


def test_end_sequent_is_normalized_pattern(shat):
    schema, theory = shat
    trace = evaluate(schema, 1, theory)
    want = normalize(
        subst(schema.components[0].pattern, Substitution({"n": numeral(1)}, {})), theory
    ).value
    assert trace.proof.conclusion == want
    assert trace.proof.conclusion == parse_sequent(
        "P(alpha + 0), forall x. P(x) -> P(f(x)) |- P(f(alpha + 0))"
    )


def test_unroll_growth_is_linear(shat):
    schema, theory = shat
    sizes = [sum(count_inferences(evaluate(schema, a, theory).expanded).values()) for a in range(9)]
    diffs = {b - a for a, b in zip(sizes, sizes[1:])}
    assert len(diffs) == 1  # size(a) = size(a-1) + c


def test_step_parameter_shape_restriction(shat):
    schema, theory = shat
    comp = schema.components[0]
    squared = SchemaComponent(comp.name, comp.pattern, comp.vars, parse_numexpr("2^n"), comp.base, comp.step)
    report = check_schema(ProofSchema((squared,)), theory)
    assert any("n + c" in fl.message for fl in report.failures)


def test_match_failure_below_offset(shat):
    schema, theory = shat
    comp = schema.components[0]
    # Step parameter n + 2: the instance 1 is positive but unreachable.
    wide = ProofSchema(
        (SchemaComponent(comp.name, comp.pattern, comp.vars, parse_numexpr("n + 2"), comp.base, comp.step),)
    )
    with pytest.raises(MatchFailure):
        evaluate(wide, 1, theory)


def test_broken_step_detected_by_soundness_check(shat):
    schema, theory = shat
    comp = schema.components[0]
    # Drop the contraction: the step then concludes the wrong sequent.
    step = comp.step.premises[0]
    broken = ProofSchema(
        (SchemaComponent(comp.name, comp.pattern, comp.vars, comp.step_param, comp.base, step),)
    )
    assert not check_schema(broken, theory).accepted
    assert not evaluate_and_check(broken, 2, theory).accepted


def test_schematic_variable_schema_unrolls():
    schema, theory = load_schema(corpus_path("schema_svar.sch"))
    assert check_schema(schema, theory).accepted
    for alpha in range(13):
        assert evaluate_and_check(schema, alpha, theory).accepted


def test_all_corpus_schemata_normalize_up_to_twelve():
    from silkcheck import corpus_path, load_schema
    from silkcheck.kernel import RuleName, iter_nodes

    for name in ("schema_shat.sch", "schema_svar.sch", "schema_fhat.sch", "schema_exp.sch"):
        schema, theory = load_schema(corpus_path(name))
        for alpha in range(13):
            trace = evaluate(schema, alpha, theory)
            assert all(n.rule is not RuleName.LINK for n, _ in iter_nodes(trace.proof)), name


def _schema_and_theory(name):
    if name.endswith(".slk"):
        script = load_script(corpus_path(name))
        return silk_to_schema(script), script.theory
    return load_schema(corpus_path(name))


def _fingerprint(trace):
    return (
        print_proof_tree(trace.expanded),
        print_proof_tree(trace.proof),
        count_inferences(trace.expanded),
        count_inferences(trace.proof),
        trace.expansions,
    )


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
def test_shared_memo_unrolls_like_a_fresh_one(name, top):
    schema, theory = _schema_and_theory(name)
    memo = UnrollMemo()
    for alpha in range(top + 1):
        shared = evaluate(schema, alpha, theory, memo=memo)
        assert _fingerprint(shared) == _fingerprint(evaluate(schema, alpha, theory)), (name, alpha)


def test_shared_memo_expands_each_instance_once(shat):
    schema, theory = shat
    memo = UnrollMemo()
    top = 12
    for alpha in range(top + 1):
        evaluate(schema, alpha, theory, memo=memo)
    # phi@0 .. phi@top, each expanded once however many ranges reuse it.
    assert len(memo.links) == top + 1


def test_deep_unrolling_needs_no_recursion():
    schema, theory = load_schema(corpus_path("schema_fhat.sch"))
    trace = evaluate(schema, 3000, theory)
    assert len(trace.expansions) > 3000


def _double_links(proof):
    """The proof with each premise beside a link replaced by that link."""
    kids = tuple(_double_links(p) for p in proof.premises)
    links = [k for k in kids if k.rule is R.LINK]
    if links:
        kids = tuple(links[0] for _ in kids)
    return Proof(proof.conclusion, proof.rule, kids, proof.data)


def test_repeated_link_instance_is_one_node(shat):
    schema, theory = shat
    comp = schema.components[0]
    twice = ProofSchema(
        (SchemaComponent(comp.name, comp.pattern, comp.vars, comp.step_param, comp.base, _double_links(comp.step)),)
    )
    memo = UnrollMemo()
    trace = evaluate(twice, 5, theory, memo=memo)
    # phi@k links to phi@k-1 twice: 2^6 - 1 expansions, 6 instances.
    assert len(trace.expansions) == 63 and len(memo.links) == 6
    assert trace.expansions[1:32] == trace.expansions[32:]
    imp = next(n for n, _ in iter_nodes(trace.expanded) if n.rule is R.IMP_L)
    assert imp.premises[0] is imp.premises[1]
    assert count_inferences(trace.expanded)["->:l"] == 31
    # Fuel counts replayed expansions too: the worklist checked before each
    # of the 63, so 62 is the least fuel that passes.
    with pytest.raises(FuelExhausted):
        evaluate(twice, 5, EquationalTheory(theory.rules, 61))
    assert len(evaluate(twice, 5, EquationalTheory(theory.rules, 62)).expansions) == 63


def test_undeclared_link_target_is_an_evaluation_failure(shat):
    schema, theory = shat
    comp = schema.components[0]
    retargeted = ProofSchema(
        (SchemaComponent(comp.name, comp.pattern, comp.vars, comp.step_param, comp.base, _retarget(comp.step, "psi")),)
    )
    with pytest.raises(MatchFailure, match="link target psi is not declared"):
        evaluate(retargeted, 1, theory)
    report = evaluate_and_check(retargeted, 1, theory)
    assert not report.accepted
    assert [(f.rule, f.message) for f in report.failures] == [("evaluate", "link target psi is not declared")]
    # At 0 only the base unrolls, and it has no link.
    assert evaluate_and_check(retargeted, 0, theory).accepted


def test_empty_schema_is_an_evaluation_failure(shat):
    _, theory = shat
    empty = ProofSchema(())
    with pytest.raises(MatchFailure, match="a proof schema needs at least one component"):
        evaluate(empty, 1, theory)
    report = evaluate_and_check(empty, 1, theory)
    assert [(f.rule, f.message) for f in report.failures] == [
        ("evaluate", "a proof schema needs at least one component")
    ]


def test_check_with_the_memo_of_an_evaluation_reuses_its_proof(shat):
    schema, theory = shat
    memo = UnrollMemo()
    trace = evaluate(schema, 4, theory, memo=memo)
    again = evaluate(schema, 4, theory, memo=memo)
    assert again.proof is trace.proof and again.expanded is trace.expanded
    assert again.expansions == trace.expansions
    assert evaluate_and_check(schema, 4, theory, memo=memo).accepted


def test_sort_mismatch_is_an_evaluation_failure():
    # The self-link passes the term f(a) for x, which the pattern uses as x[n].
    schema, _ = parse_schema(
        'component psi pattern "Q(x[n]) |- Q(x[n])" vars (x) step-param "n + 1" {\n'
        '  base { ax "Q(x[0]) |- Q(x[0])" }\n'
        '  step { link "Q(x[n + 1]) |- Q(x[n + 1])" target=psi param="n" terms=(f(a)) }\n'
        "}\n"
    )
    theory = EquationalTheory(())
    message = "schematic variable x must map to a variable, got <Fn f(a)>"
    with pytest.raises(SortMismatch, match="schematic variable x"):
        evaluate(schema, 2, theory)
    report = evaluate_and_check(schema, 2, theory)
    assert [(f.rule, f.message) for f in report.failures] == [("evaluate", message)]
    assert evaluate_and_check(schema, 0, theory).accepted


def test_check_schema_walks_a_deep_proof_in_linear_memory():
    # A chain of 3,000 cuts whose left premises are axioms: a walk that
    # copies a tuple path per node keeps every pending axiom's full path,
    # about 36 MB at this depth.
    p = parse_sequent("P |- P")
    proof = Proof(p, R.AX)
    for _ in range(3000):
        proof = Proof(p, R.CUT, (Proof(p, R.AX), proof), RuleData(a=0, b=0))
    schema = ProofSchema((SchemaComponent("g1", p, base=proof),))
    theory = EquationalTheory(())
    tracemalloc.start()
    try:
        report = check_schema(schema, theory)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.accepted
    assert peak < 4_000_000


def test_undeclared_link_below_a_node_the_kernel_skips_stays_rejected(shat):
    # The kernel does not enter a node with the wrong number of premises, so
    # it never sees the undeclared link above it; the node's own failure
    # still rejects the schema.
    schema, theory = shat
    comp = schema.components[0]
    link = Proof(comp.base.conclusion, R.LINK, (), RuleData(target="psi", param=numeral(0)))
    base = Proof(comp.base.conclusion, R.WEAK_L, (comp.base, link), comp.base.data)
    broken = ProofSchema((SchemaComponent(comp.name, comp.pattern, comp.vars, comp.step_param, base, comp.step),))
    report = check_schema(broken, theory)
    assert [(f.path, f.rule, f.message) for f in report.failures] == [
        ((0,), "w:l", "base of phi: expected 1 premises, found 2")
    ]


@pytest.mark.parametrize("name", ["schema_exp.sch", "schema_fhat.sch", "schema_shat.sch", "schema_svar.sch"])
def test_normal_form_agrees_with_the_loop_it_replaced(name):
    # Each evaluation loads its own theory, so no rewrite cache is shared.
    for alpha in range(7):
        schema, theory = load_schema(corpus_path(name))
        new = evaluate(schema, alpha, theory).proof
        schema, theory = load_schema(corpus_path(name))
        with gen.reference_normal_form():
            old = evaluate(schema, alpha, theory).proof
        assert count_inferences(new) == count_inferences(old)
        assert gen.identical(new.conclusion, old.conclusion)
