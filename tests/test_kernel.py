"""Rule-by-rule checks of the proof kernel, built around the worked
successor-embedding proofs."""

import sys
import types

import pytest

from silkcheck import corpus_path, load_proof
from silkcheck.kernel import (
    ARITY,
    MODE_LK,
    MODE_LKE,
    MODE_LKS,
    LinkPattern,
    Proof,
    RuleData,
    RuleError,
    RuleName as R,
    apply_rule,
    check_proof,
    count_inferences,
)
from silkcheck.parser import RULE_TOKENS, parse_formula, parse_proof, parse_schema, parse_sequent, parse_term, parse_theory
from silkcheck.printer import report_dict, where
from silkcheck.silk import ax
from silkcheck.syntax import FreeVar, Param, Sequent, fold, subst, walk


def f(text):
    return parse_formula(text)


def s(text):
    return parse_sequent(text)


@pytest.fixture(scope="module")
def pi():
    return load_proof(corpus_path("lk_pi_shat.lkp"))


@pytest.fixture(scope="module")
def nu(pi):
    _, theory = pi
    text = corpus_path("schema_shat.sch").read_text()
    from silkcheck.parser import parse_schema

    schema, _ = parse_schema(text)
    return schema.components[0].step, theory, schema.link_env()


def test_pi_accepted_in_lke(pi):
    proof, theory = pi
    report = check_proof(proof, MODE_LKE, theory)
    assert report.accepted
    assert report.counts == {"w:l": 1, "E": 1}


def test_pi_rejected_in_lk(pi):
    proof, theory = pi
    report = check_proof(proof, MODE_LK, theory)
    assert not report.accepted
    assert "not permitted" in report.failures[0].message


def test_nu_accepted_in_lks(nu):
    proof, theory, env = nu
    report = check_proof(proof, MODE_LKS, theory, env, frozenset({"n"}))
    assert report.accepted


def test_nu_link_needs_parameter_allowance(nu):
    proof, theory, env = nu
    report = check_proof(proof, MODE_LKS, theory, env, frozenset())
    assert not report.accepted
    assert any("link parameter" in fl.message for fl in report.failures)


def test_nu_rejected_without_links(nu):
    proof, theory, env = nu
    assert not check_proof(proof, MODE_LKE, theory, env).accepted


def test_mode_monotone(pi):
    proof, theory = pi
    modes = [MODE_LK, MODE_LKE, MODE_LKS]
    verdicts = [check_proof(proof, m, theory).accepted for m in modes]
    for narrow, wide in zip(verdicts, verdicts[1:]):
        assert not narrow or wide


def test_check_deterministic(nu):
    proof, theory, env = nu
    a = check_proof(proof, MODE_LKS, theory, env, frozenset({"n"}))
    b = check_proof(proof, MODE_LKS, theory, env, frozenset({"n"}))
    assert report_dict(a) == report_dict(b)


def test_count_single_axiom():
    assert count_inferences(ax(s("A |- A"))) == {}


# --- forward application, one rule at a time


def test_apply_cut():
    concl = apply_rule(R.CUT, (s("G |- A"), s("A |- D")), RuleData(a=0, b=0))
    assert concl == s("G |- D")
    with pytest.raises(RuleError):
        apply_rule(R.CUT, (s("G |- A"), s("B |- D")), RuleData(a=0, b=0))


def test_apply_and():
    assert apply_rule(R.AND_L, (s("A, B |- C"),), RuleData(a=0, b=1)) == s("A /\\ B |- C")
    assert apply_rule(R.AND_R, (s("|- A"), s("|- B")), RuleData(a=0, b=0)) == s("|- A /\\ B")


def test_apply_or():
    assert apply_rule(R.OR_L, (s("A |- C"), s("B |- C")), RuleData(a=0, b=0)) == s("A \\/ B |- C, C")
    assert apply_rule(R.OR_R, (s("|- A, B"),), RuleData(a=0, b=1)) == s("|- A \\/ B")


def test_apply_neg():
    assert apply_rule(R.NEG_L, (s("|- A"),), RuleData(a=0)) == s("~A |-")
    assert apply_rule(R.NEG_R, (s("A |-"),), RuleData(a=0)) == s("|- ~A")


def test_apply_imp():
    assert apply_rule(R.IMP_L, (s("G |- A"), s("B |- D")), RuleData(a=0, b=0)) == s("A -> B, G |- D")
    assert apply_rule(R.IMP_R, (s("A |- B"),), RuleData(a=0, b=0)) == s("|- A -> B")


def test_apply_contraction():
    assert apply_rule(R.CONTR_L, (s("A, A |- C"),), RuleData(a=0, b=1)) == s("A |- C")
    with pytest.raises(RuleError):
        apply_rule(R.CONTR_L, (s("A, B |- C"),), RuleData(a=0, b=1))
    with pytest.raises(RuleError):
        apply_rule(R.CONTR_L, (s("A |- C"),), RuleData(a=0, b=0))


def test_apply_weakening():
    assert apply_rule(R.WEAK_L, (s("|- C"),), RuleData(formula=f("A"))) == s("A |- C")
    assert apply_rule(R.WEAK_R, (s("A |-"),), RuleData(formula=f("C"))) == s("A |- C")


def test_apply_quantifiers():
    q = f("forall x. P(x)")
    assert apply_rule(
        R.FORALL_L, (s("P(t) |- C"),), RuleData(a=0, formula=q, term=parse_term("t"))
    ) == s("forall x. P(x) |- C")
    assert apply_rule(
        R.FORALL_R, (s("G |- P(b)"),), RuleData(a=0, formula=q, eigen="b")
    ) == s("G |- forall x. P(x)")
    ex = f("exists x. P(x)")
    assert apply_rule(
        R.EXISTS_R, (s("|- P(t)"),), RuleData(a=0, formula=ex, term=parse_term("t"))
    ) == s("|- exists x. P(x)")
    assert apply_rule(
        R.EXISTS_L, (s("P(b) |- C"),), RuleData(a=0, formula=ex, eigen="b")
    ) == s("exists x. P(x) |- C")


def test_eigenvariable_must_be_fresh():
    q = f("forall x. P(x)")
    with pytest.raises(RuleError, match="eigenvariable"):
        apply_rule(R.FORALL_R, (s("Q(b) |- P(b)"),), RuleData(a=0, formula=q, eigen="b"))


def test_eigenvariable_witness_must_match():
    q = f("forall x. P(x)")
    with pytest.raises(RuleError):
        apply_rule(R.FORALL_R, (s("G |- P(c)"),), RuleData(a=0, formula=q, eigen="b"))


def test_forall_left_uses_supplied_term_only():
    q = f("forall x. P(x)")
    with pytest.raises(RuleError):
        apply_rule(R.FORALL_L, (s("P(t) |- C"),), RuleData(a=0, formula=q, term=parse_term("u")))


def test_erule_forward_checks_equivalence(shat_theory):
    prem = s("A |- P(S^1)")
    good = apply_rule(
        R.ERULE, (prem,), RuleData(side="R", idx=0, path=(0,), repl=parse_term("f(0)")), shat_theory
    )
    assert good == s("A |- P(f(0))")
    with pytest.raises(RuleError):
        apply_rule(
            R.ERULE, (prem,), RuleData(side="R", idx=0, path=(0,), repl=parse_term("f(f(0))")), shat_theory
        )


# A rewrite path may enter a quantifier's body; it addresses the body as it
# prints, so the replacement names the bound variable as printed.
def test_erule_path_enters_a_quantifier_body():
    theory = parse_theory("g(x) == h(x);")
    rewrite = lambda prem, to: apply_rule(
        R.ERULE, (prem,), RuleData(side="R", idx=0, path=(0, 0), repl=parse_term(to)), theory
    )
    out = rewrite(s("|- forall x. P(g(x))"), "h(x)")
    assert out.text() == "|- forall x. P(h(x))"
    # Substituting y := x makes the binder print as x1.
    renamed = subst(s("|- forall x. P(g(x), y)"), {}, {"y": FreeVar("x")})
    assert renamed.text() == "|- forall x1. P(g(x1), x)"
    out = rewrite(renamed, "h(x1)")
    assert out.text() == "|- forall x1. P(h(x1), x)"
    assert out == s("|- forall z. P(h(z), x)")
    with pytest.raises(RuleError):
        rewrite(renamed, "h(x)")


def test_erule_path_into_a_quantifier_body_in_a_proof_file():
    proof, _ = parse_proof(
        'E "forall x. P(g(x)) |- forall x. P(h(x))" at=R.0 path=0.0 to="h(x)" {\n'
        '  ax "forall x. P(g(x)) |- forall x. P(g(x))"\n'
        "}\n"
    )
    assert proof.data.repl == parse_term("h(x)")
    assert check_proof(proof, MODE_LKE, parse_theory("g(x) == h(x);")).accepted


def test_link_conclusion_checked():
    env = {"phi": LinkPattern(s("D |- P(alpha + S^n)"), ("alpha",))}
    data = RuleData(target="phi", param=Param("n"), terms=(FreeVar("alpha"),))
    good = Proof(s("D |- P(alpha + S^n)"), R.LINK, (), data)
    bad = Proof(s("D |- P(alpha + S^0)"), R.LINK, (), data)
    assert check_proof(good, MODE_LKS, env=env, allowed_link_params=frozenset({"n"})).accepted
    report = check_proof(bad, MODE_LKS, env=env, allowed_link_params=frozenset({"n"}))
    assert any("differs from declared instance" in fl.message for fl in report.failures)


def test_conclusion_comparison_is_multiset():
    node = Proof(s("C, A -> B |- D"), R.IMP_L, (ax(s("A |- A")), ax(s("B |- B"))), RuleData(a=0, b=0))
    # A -> B, A, B contexts recombined in a different order still check.
    reordered = Proof(
        Sequent((s("A |- A").ante[0], f("A -> B")), (f("B"),)),
        R.IMP_L,
        (ax(s("A |- A")), ax(s("B |- B"))),
        RuleData(a=0, b=0),
    )
    assert check_proof(reordered, MODE_LK).accepted


def test_a_side_that_is_a_permutation_of_the_computed_one_is_accepted():
    # c:l computes the antecedent A, B and ->:l the succedent C, B; each node
    # claims the other order.
    weakened = Proof(s("B, A |- A"), R.WEAK_L, (ax(s("A |- A")),), RuleData(formula=f("B")))
    weakened = Proof(s("A, B, A |- A"), R.WEAK_L, (weakened,), RuleData(formula=f("A")))
    contracted = Proof(s("B, A |- A"), R.CONTR_L, (weakened,), RuleData(a=0, b=2))
    computed = apply_rule(R.CONTR_L, (weakened.conclusion,), RuleData(a=0, b=2))
    assert computed.ante == (f("A"), f("B")) != contracted.conclusion.ante
    assert check_proof(contracted, MODE_LK).accepted
    left = Proof(s("A |- A, C"), R.WEAK_R, (ax(s("A |- A")),), RuleData(formula=f("C")))
    imp = Proof(s("A -> B, A |- B, C"), R.IMP_L, (left, ax(s("B |- B"))), RuleData(a=0, b=0))
    computed = apply_rule(R.IMP_L, (left.conclusion, s("B |- B")), RuleData(a=0, b=0))
    assert computed.succ == (f("C"), f("B")) != imp.conclusion.succ
    assert check_proof(imp, MODE_LK).accepted


@pytest.mark.parametrize(
    "node, message",
    [
        (
            Proof(s("A |- C"), R.WEAK_L, (ax(s("C |- C")),), RuleData(formula=f("B"))),
            "conclusion A |- C does not match the rule instance B, C |- C",
        ),
        (
            Proof(s("G |- E"), R.CUT, (ax(s("G |- A")), ax(s("A |- D"))), RuleData(a=0, b=0)),
            "conclusion G |- E does not match the rule instance G |- D",
        ),
    ],
)
def test_a_wrong_formula_names_the_claimed_and_the_computed_conclusion(node, message):
    failures = [fl for fl in check_proof(node, MODE_LK).failures if fl.path == ()]
    assert [(fl.rule, fl.message) for fl in failures] == [(node.rule, message)]


@pytest.mark.parametrize(
    "rule, premises, data, message",
    [
        # The index is read before the formula at it is dropped.
        (R.NEG_R, ("A |- B",), RuleData(), "missing index for negated formula"),
        (R.IMP_L, ("G |- A", "B |- D"), RuleData(b=3), "missing index for antecedent of implication"),
        (R.CONTR_L, ("A, B |- C",), RuleData(a=0, b=0), "contraction needs two distinct positions"),
        (R.FORALL_L, ("P(t) |- C",), RuleData(a=0, formula=f("exists x. P(x)")), "witness formula exists x. P(x) is not a forall"),
        (R.CUT, ("G |- A",), RuleData(a=0, b=0), "cut expects 2 premises, got 1"),
        (R.AX, (), RuleData(), "ax cannot be applied forward"),
    ],
)
def test_a_bad_witness_reports_its_first_error(rule, premises, data, message):
    with pytest.raises(RuleError) as exc:
        apply_rule(rule, tuple(map(s, premises)), data)
    assert str(exc.value) == message
    if ARITY.get(rule, 1) == len(premises) and premises:
        node = Proof(s("|-"), rule, tuple(ax(s(p)) for p in premises), data)
        assert [fl.message for fl in check_proof(node, MODE_LK).failures if fl.path == ()] == [message]


def test_arity_failure_is_reported_not_raised():
    node = Proof(s("A /\\ B |- A /\\ B"), R.AND_R, (ax(s("A |- A")),), RuleData(a=0, b=0))
    report = check_proof(node, MODE_LK)
    assert not report.accepted
    assert "expected 2 premises" in report.failures[0].message


def test_failure_paths_locate_nodes(pi):
    proof, theory = pi
    # Corrupt the deepest node: swap the axiom for a mismatched one.
    bad_ax = ax(s("A |- A"))
    bad = Proof(
        proof.conclusion,
        proof.rule,
        (Proof(proof.premises[0].conclusion, proof.premises[0].rule, (bad_ax,), proof.premises[0].data),),
        proof.data,
    )
    report = check_proof(bad, MODE_LKE, theory)
    assert not report.accepted
    assert any(where(fl) == "0" for fl in report.failures)



def _deep_chain(top_witness):
    """P |- P under 6,000 unary inferences (w:r then c:r, 3,000 times) with a
    cut after every tenth c:r that keeps the chain as its first or second
    premise in turn.  The topmost inference, a w:r, adds ``top_witness`` while it
    claims to add P.  Returns the proof and the path of that inference."""
    p = s("P |- P")
    weakened = s("P |- P, P")
    side = ax(p)
    cur = Proof(weakened, R.WEAK_R, (ax(p),), RuleData(formula=top_witness))
    path = []
    for k in range(3000):
        if k:
            cur = Proof(weakened, R.WEAK_R, (cur,), RuleData(formula=f("P")))
            path.append(0)
        cur = Proof(p, R.CONTR_R, (cur,), RuleData(a=0, b=1))
        path.append(0)
        if k % 10 == 9:
            i = (k // 10) % 2
            cur = Proof(p, R.CUT, (cur, side) if i == 0 else (side, cur), RuleData(a=0, b=0))
            path.append(i)
    return cur, tuple(reversed(path))


def test_failure_path_at_depth_is_the_premise_indices():
    intact, _ = _deep_chain(f("P"))
    report = check_proof(intact, MODE_LK)
    assert report.accepted
    assert report.counts == {"cut": 300, "c:r": 3000, "w:r": 3000}

    broken, path = _deep_chain(f("Q"))
    assert len(path) == 6299 and path.count(1) == 150
    report = check_proof(broken, MODE_LK)
    assert [(fl.path, fl.rule) for fl in report.failures] == [(path, "w:r")]
    assert where(report.failures[0]) == ".".join(map(str, path))

def test_cut_round_trips_through_files():
    from silkcheck.parser import parse_proof
    from silkcheck.printer import print_proof

    node = Proof(s("A |- A"), R.CUT, (ax(s("A |- A")), ax(s("A |- A"))), RuleData(a=0, b=0))
    assert check_proof(node, MODE_LK).accepted
    again, _ = parse_proof(print_proof(node))
    assert check_proof(again, MODE_LK).accepted and print_proof(again) == print_proof(node)


def test_linked_proof_file_checks_against_env():
    from silkcheck import corpus_path, load_proof
    from silkcheck.parser import parse_schema

    proof, theory = load_proof(corpus_path("lk_nu_shat.lkp"))
    schema, _ = parse_schema(corpus_path("schema_shat.sch").read_text())
    report = check_proof(proof, MODE_LKS, theory, schema.link_env(), frozenset({"n"}))
    assert report.accepted


def test_remaining_rules_from_files():
    from silkcheck import corpus_path, load_proof

    for name in ("lk_exists_rename.lkp", "lk_or_contract.lkp"):
        proof, theory = load_proof(corpus_path(name))
        assert check_proof(proof, MODE_LK, theory).accepted, name


def test_sort_mismatch_is_a_failure_at_its_node():
    # The witness instantiates x, used as the schematic variable x[0], with
    # the term f(a), which is not a variable.
    proof, _ = parse_proof(
        'w:l "Q, forall x. P(x[0]) |- P(f(a))" formula="Q" {\n'
        '  forall:l "forall x. P(x[0]) |- P(f(a))" a=0 formula="forall x. P(x[0])" term="f(a)" {\n'
        '    ax "P(f(a)) |- P(f(a))"\n'
        "  }\n"
        "}\n"
    )
    report = check_proof(proof, MODE_LK)
    assert [(f.path, f.rule, f.message) for f in report.failures] == [
        ((0,), "forall:l", "schematic variable x must map to a variable, got <Fn f(a)>")
    ]


def test_reading_and_hashing_a_rule_runs_no_python_code():
    # On 3.10 and 3.11 every read and hash of an Enum member runs Python
    # code, which the kernel would pay at every inference it checks.
    assert not hasattr(type(R), "__getattr__")
    assert all(isinstance(type(rule).__hash__, types.WrapperDescriptorType) for rule in RULE_TOKENS.values())
    calls = []
    sys.setprofile(lambda frame, event, arg: calls.append(frame.f_code.co_name) if event == "call" else None)
    try:
        counts = {R.IMP_L: 1}
        counts[R.IMP_L] += hash(R.CUT) == hash(R.CUT)
        shown = f"{R.IMP_L}"
    finally:
        sys.setprofile(None)
    assert calls == [] and counts[R.IMP_L] == 2 and shown == "->:l"


@pytest.mark.parametrize("mode", [MODE_LK, MODE_LKE, MODE_LKS])
@pytest.mark.parametrize(
    "name", ["lk_pi_shat.lkp", "lk_nu_shat.lkp", "lk_exists_rename.lkp", "lk_forall_rename.lkp", "lk_or_contract.lkp"]
)
def test_a_rule_is_its_token_whatever_object_spells_it(name, mode):
    # A rule equal to a RuleName constant but not the same object, as a
    # caller building proofs may pass, gets the same verdict.
    proof, theory = load_proof(corpus_path(name))
    schema, _ = parse_schema(corpus_path("schema_shat.sch").read_text())
    respelled = lambda node, kids: Proof(node.conclusion, "".join([node.rule[:1], node.rule[1:]]), kids, node.data)
    copy = fold(proof, respelled, {})
    assert any(a.rule is not b.rule for a, b in zip(walk(copy), walk(proof)))
    args = (mode, theory, schema.link_env(), frozenset({"n"}))
    assert report_dict(check_proof(copy, *args)) == report_dict(check_proof(proof, *args))
