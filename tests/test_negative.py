"""Mutation suite: every broken input is rejected with a failure that names
the offending node or step."""

import pytest

from silkcheck import corpus_path, load_schema, load_script, load_theory
from silkcheck.kernel import (
    MODE_LK,
    MODE_LKE,
    MODE_LKS,
    Proof,
    RuleData,
    RuleName as R,
    check_proof,
)
from silkcheck.parser import parse_formula, parse_numexpr, parse_sequent, parse_term
from silkcheck.printer import where
from silkcheck.rewrite import EquationalTheory, RewriteRule, validate_theory
from silkcheck.schema import ProofSchema, SchemaComponent, check_schema, evaluate_and_check, replace
from silkcheck.silk import SiLKScript, ax, check_script
from silkcheck.syntax import Fn, FreeVar


def _fhat():
    return load_script(corpus_path("silk_fhat.slk"))


def _exp():
    return load_script(corpus_path("silk_exp.slk"))


def _shat():
    return load_schema(corpus_path("schema_shat.sch"))


def _retarget(proof, **changes):
    if proof.rule is R.LINK:
        return Proof(proof.conclusion, proof.rule, (), replace(proof.data, **changes))
    return Proof(
        proof.conclusion, proof.rule, tuple(_retarget(p, **changes) for p in proof.premises), proof.data
    )


# Each mutation returns (failures, located); located means some failure
# names the node path or step index of the damage.


def broken_eigenvariable():
    q = parse_formula("forall z. R(z, a)")
    prem = ax(parse_sequent("R(a, a) |- R(a, a)"))
    node = Proof(
        parse_sequent("R(a, a) |- forall z. R(z, a)"),
        R.FORALL_R,
        (prem,),
        RuleData(a=0, formula=q, eigen="a"),
    )
    report = check_proof(node, MODE_LK)
    return report.failures, any(where(f) == "root" and "eigenvariable" in f.message for f in report.failures)


def eigenvariable_renamed_into_context():
    schema, theory = _shat()
    q = parse_formula("forall v. P(v)")
    prem = ax(parse_sequent("P(alpha) |- P(alpha)"))
    node = Proof(
        parse_sequent("P(alpha) |- forall v. P(v)"),
        R.FORALL_R,
        (prem,),
        RuleData(a=0, formula=q, eigen="alpha"),
    )
    report = check_proof(node, MODE_LK, theory)
    return report.failures, any("eigenvariable alpha" in f.message for f in report.failures)


def forward_link_to_earlier_component():
    schema, theory = _shat()
    comp = schema.components[0]
    second = SchemaComponent(
        "psi", comp.pattern, comp.vars, comp.step_param, comp.base, _retarget(comp.step, target="phi")
    )
    report = check_schema(ProofSchema((comp, second)), theory)
    return report.failures, any(f.path[0] == 1 and "later components" in f.message for f in report.failures)


def self_link_does_not_decrease():
    schema, theory = _shat()
    comp = schema.components[0]
    bumped = SchemaComponent(
        comp.name, comp.pattern, comp.vars, comp.step_param, comp.base,
        _retarget(comp.step, param=parse_numexpr("n + 1")),
    )
    report = check_schema(ProofSchema((bumped,)), theory)
    return report.failures, any("strictly decrease" in f.message for f in report.failures)


def cycle_before_basecase_closed():
    script = _fhat()
    steps = list(script.steps)
    bad = SiLKScript(script.theory, tuple(steps[:3]) + (replace(steps[6], pair=1),))
    _, verdict, report = check_script(bad)
    return report.failures, verdict == "rejected" and report.failures[0].path == (3,)


def annotation_mismatch_at_closure():
    script = _exp()
    steps = list(script.steps)
    steps[-1] = replace(steps[-1], ann=parse_numexpr("s(s(n))"))
    _, verdict, report = check_script(SiLKScript(script.theory, tuple(steps)))
    return report.failures, verdict == "rejected" and report.failures[0].path == (len(steps) - 1,)


def annotation_mismatch_between_premises():
    script = _fhat()
    steps = list(script.steps)
    steps[4] = replace(steps[4], ann=parse_numexpr("n + 2"))
    _, verdict, report = check_script(SiLKScript(script.theory, tuple(steps)))
    return report.failures, verdict == "rejected" and report.failures[0].path == (7,)


def rewrite_step_with_unjoinable_terms():
    theory = load_theory(corpus_path("theory_shat.thy"))
    prem = ax(parse_sequent("P(S^1) |- P(S^1)"))
    node = Proof(
        parse_sequent("P(S^1) |- P(f(f(0)))"),
        R.ERULE,
        (prem,),
        RuleData(side="R", idx=0, path=(0,), repl=parse_term("f(f(0))")),
    )
    report = check_proof(node, MODE_LKE, theory)
    return report.failures, any("not equal under the theory" in f.message for f in report.failures)


def rule_applied_to_closed_group():
    script = _fhat()
    bad = SiLKScript(script.theory, script.steps + (replace(script.steps[9]),))
    _, verdict, report = check_script(bad)
    return report.failures, verdict == "rejected" and report.failures[0].path == (11,)


def principal_formula_swapped():
    schema, theory = _shat()
    comp = schema.components[0]

    def bump(proof):
        if proof.rule is R.FORALL_L:
            return Proof(proof.conclusion, proof.rule, proof.premises, replace(proof.data, a=1))
        return Proof(proof.conclusion, proof.rule, tuple(bump(p) for p in proof.premises), proof.data)

    report = check_proof(bump(comp.step), MODE_LKS, theory, schema.link_env(), frozenset({"n"}))
    return report.failures, any("forall" in f.rule for f in report.failures)


def premise_dropped():
    schema, theory = _shat()
    comp = schema.components[0]

    def drop(proof):
        if proof.rule is R.IMP_L:
            return Proof(proof.conclusion, proof.rule, proof.premises[:1], proof.data)
        return Proof(proof.conclusion, proof.rule, tuple(drop(p) for p in proof.premises), proof.data)

    report = check_proof(drop(comp.step), MODE_LKS, theory, schema.link_env(), frozenset({"n"}))
    return report.failures, any("expected 2 premises" in f.message for f in report.failures)


def step_drops_the_contraction():
    schema, theory = _shat()
    comp = schema.components[0]
    broken = ProofSchema(
        (SchemaComponent(comp.name, comp.pattern, comp.vars, comp.step_param, comp.base, comp.step.premises[0]),)
    )
    report = evaluate_and_check(broken, 2, theory)
    return report.failures, not report.accepted


def stepcase_closure_pattern_mismatch():
    script = _fhat()
    steps = list(script.steps)
    del steps[9]  # skip the contraction; the stepcase no longer matches
    _, verdict, report = check_script(SiLKScript(script.theory, tuple(steps)))
    return report.failures, verdict == "rejected" and report.failures[0].path == (9,)


def contraction_of_different_pairs():
    from silkcheck.silk import SiLKStep

    theory = EquationalTheory(())
    steps = (
        SiLKStep("ax1r", sequent=parse_sequent("A |- A")),
        SiLKStep("ax2r", group=1, sequent=parse_sequent("B |- B")),
        SiLKStep("ccr", group=1, pair=1, pair2=2),
    )
    _, verdict, report = check_script(SiLKScript(theory, steps))
    return report.failures, verdict == "rejected" and report.failures[0].path == (2,)


def base_with_parameter_link():
    # The base may only hold parameter-free links; a self-call at n is
    # flagged at the leaf both for its parameter and its direction.
    schema, theory = _shat()
    comp = schema.components[0]
    link = Proof(
        comp.base.conclusion,
        R.LINK,
        (),
        RuleData(target="phi", param=parse_numexpr("n"), terms=(FreeVar("alpha"),)),
    )
    broken = SchemaComponent(comp.name, comp.pattern, comp.vars, comp.step_param, link, comp.step)
    report = check_schema(ProofSchema((broken,)), theory)
    located = any(
        f.path == (0, 0) or (f.rule == "link" and "base" in f.message) for f in report.failures
    )
    return report.failures, located


def theory_with_defined_symbol_in_pattern():
    x = FreeVar("x")
    theory = EquationalTheory((
        RewriteRule(Fn("fd", (Fn("gd", (x,)),)), x),
        RewriteRule(Fn("gd", (x,)), x),
    ))
    issues = validate_theory(theory)
    return issues, any(i.rule_index == 0 for i in issues)


MUTATIONS = [
    broken_eigenvariable,
    eigenvariable_renamed_into_context,
    forward_link_to_earlier_component,
    self_link_does_not_decrease,
    cycle_before_basecase_closed,
    annotation_mismatch_at_closure,
    annotation_mismatch_between_premises,
    rewrite_step_with_unjoinable_terms,
    rule_applied_to_closed_group,
    principal_formula_swapped,
    premise_dropped,
    step_drops_the_contraction,
    stepcase_closure_pattern_mismatch,
    contraction_of_different_pairs,
    base_with_parameter_link,
    theory_with_defined_symbol_in_pattern,
]


@pytest.mark.parametrize("mutation", MUTATIONS, ids=lambda m: m.__name__)
def test_mutation_rejected_and_located(mutation):
    failures, located = mutation()
    assert failures, "mutation went undetected"
    assert located, f"failure does not name the damage: {[str(f) for f in failures]}"


def test_suite_is_large_enough():
    assert len(MUTATIONS) >= 12
