"""Acceptance gate: exact reproduction of the worked examples plus the
property suites, one criterion per test, one PASS line per criterion.

Run with `pytest tests/test_acceptance.py -v -s`.
"""

from silkcheck import corpus_path, load_schema, load_script
from silkcheck.cli import main as cli_main
from silkcheck.kernel import count_inferences
from silkcheck.parser import parse_formula, parse_sequent
from silkcheck.schema import check_schema, evaluate, evaluate_and_check
from silkcheck.silk import check_script, leading_group
from silkcheck.syntax import And, Imp, OmegaAll, bind, formula_eq
from silkcheck.translate import interpret, silk_to_schema, to_ppsnf

import gen

SCRIPTS = [
    "silk_fhat.slk",
    "silk_exp.slk",
    "silk_conj_comm.slk",
    "silk_excluded_middle.slk",
    "silk_wedge.slk",
    "silk_wedge_var.slk",
    "silk_interleaved.slk",
    "silk_contract.slk",
]


def _ok(n, text):
    print(f"criterion {n}: PASS - {text}")


def _tree(spec):
    """(rule-token, sequent-text, premises...) nested tuples."""
    rule, seq, *premises = spec
    return rule, parse_sequent(seq), [_tree(p) for p in premises]


def _assert_tree(proof, spec, path=()):
    rule, seq, premises = spec
    assert str(proof.rule) == rule, (path, str(proof.rule), rule)
    assert proof.conclusion == seq, (path, str(proof.conclusion), str(seq))
    assert len(proof.premises) == len(premises), path
    for i, (sub, subspec) in enumerate(zip(proof.premises, premises)):
        _assert_tree(sub, subspec, path + (i,))


DELTA = "P(alpha + 0), forall x. P(x) -> P(f(x))"
UNROLLED_FIGURE = _tree((
    "E", f"{DELTA} |- P(alpha + S^1)",
    ("c:l", f"{DELTA} |- P(alpha + S^(0 + 1))",
     ("E", f"forall x. P(x) -> P(f(x)), {DELTA} |- P(alpha + S^(0 + 1))",
      ("E", f"forall x. P(x) -> P(f(x)), {DELTA} |- P(alpha + f(S^0))",
       ("forall:l", f"forall x. P(x) -> P(f(x)), {DELTA} |- P(f(alpha + S^0))",
        ("->:l", f"P(alpha + S^0) -> P(f(alpha + S^0)), {DELTA} |- P(f(alpha + S^0))",
         ("E", f"{DELTA} |- P(alpha + S^0)",
          ("w:l", f"{DELTA} |- P(alpha + 0)",
           ("ax", "P(alpha + 0) |- P(alpha + 0)"))),
         ("ax", "P(f(alpha + S^0)) |- P(f(alpha + S^0))"))))))))


def test_criterion_1_successor_schema_reproduction():
    schema, theory = load_schema(corpus_path("schema_shat.sch"))
    assert check_schema(schema, theory).accepted

    trace = evaluate(schema, 1, theory)
    _assert_tree(trace.expanded, UNROLLED_FIGURE)
    assert count_inferences(trace.expanded) == {"w:l": 1, "E": 4, "->:l": 1, "forall:l": 1, "c:l": 1}
    assert cli_main(["unroll", str(corpus_path("schema_shat.sch")), "--alpha", "1"]) == 0

    for alpha in range(13):
        report = evaluate_and_check(schema, alpha, theory)
        assert report.accepted, (alpha, [str(f) for f in report.failures])
    _ok(1, "unrolling at 1 matches the worked figure node for node; sound for 0..12")


def test_criterion_2_eleven_step_script_reproduction():
    script = load_script(corpus_path("silk_fhat.slk"))
    assert len(script.steps) == 11
    collection, verdict, _ = check_script(script)
    assert verdict == "proof"
    group = leading_group(collection)
    assert group.pairs[0].step.sequent == parse_sequent(
        "P(0), forall x. P(x) -> P(f(x)) |- P(f^(s(n))(0))"
    )
    assert group.pairs[0].base.sequent == parse_sequent(
        "P(0), forall x. P(x) -> P(f(x)) |- P(f^0(0))"
    )

    base = parse_formula("P(0) /\\ (forall x. P(x) -> P(f(x))) -> P(f^0(0))")
    at_x = parse_formula("P(0) /\\ (forall x. P(x) -> P(f(x))) -> P(f^x(0))")
    at_x1 = parse_formula("P(0) /\\ (forall x. P(x) -> P(f(x))) -> P(f^(x + 1)(0))")
    expected = Imp(And(base, bind(OmegaAll, "x", Imp(at_x, at_x1))), bind(OmegaAll, "x", at_x))
    assert formula_eq(interpret(collection), expected)
    _ok(2, "the 11-step script closes to the displayed collection and induction statement")


def test_criterion_3_exponential_compression():
    base_script = load_script(corpus_path("silk_fhat.slk"))
    script = load_script(corpus_path("silk_exp.slk"))
    _, verdict, _ = check_script(script)
    assert verdict == "proof"
    new_steps = len(script.steps) - len(base_script.steps)
    assert new_steps <= 2 * len(base_script.steps)

    schema = silk_to_schema(script)
    counts = {}
    for alpha in range(1, 8):
        trace = evaluate(schema, alpha, script.theory)
        counts[alpha] = sum(count_inferences(trace.proof).values())
    for alpha in range(1, 7):
        assert counts[alpha + 1] >= 1.8 * counts[alpha], (alpha, counts)
    _ok(3, f"{new_steps} extra steps double the theorem; unrolled size ratios {counts}")


def test_criterion_4_translation_matches_brackets():
    for name in ("silk_fhat.slk", "silk_exp.slk"):
        script = load_script(corpus_path(name))
        schema = silk_to_schema(script)
        assert check_schema(schema, script.theory).accepted, name
        collection, _, _ = check_script(script)
        closed = sorted(collection.groups, key=lambda g: -g.closure_index)
        for comp, group in zip(schema.components, closed):
            assert comp.base.conclusion == group.pairs[0].base.sequent, name
            assert comp.step.conclusion == group.pairs[0].step.sequent, name
    _ok(4, "both worked proofs translate to accepted schemata matching their brackets")


def test_criterion_5_soundness_pipeline():
    rules_used = set()
    assert len(SCRIPTS) >= 6
    for name in SCRIPTS:
        script = load_script(corpus_path(name))
        for step in script.steps:
            key = step.rule + ("2" if step.pair2 is not None else "")
            rules_used.add(key)
        schema = silk_to_schema(script)
        for alpha in range(11):
            report = evaluate_and_check(schema, alpha, script.theory)
            assert report.accepted, (name, alpha, [str(f) for f in report.failures])
    assert "cllke" in rules_used
    assert "rho_bc2" in rules_used and "rho_sc2" in rules_used
    _ok(5, f"all {len(SCRIPTS)} bundled proofs translate and check exactly for every instance up to 10")


def test_criterion_6_construction_order_normal_form():
    script = load_script(corpus_path("silk_interleaved.slk"))
    original, verdict, _ = check_script(script)
    assert verdict == "proof"
    normal = to_ppsnf(script)
    replayed, verdict2, _ = check_script(normal)
    assert verdict2 == "proof"
    assert gen.collection_signature(original) == gen.collection_signature(replayed)
    closes_seen = 0
    for step in normal.steps:
        if step.rule == "ax1r":
            assert closes_seen in (0, 1) and (closes_seen == 0) == (step is normal.steps[0])
        if step.rule in ("clsc", "cllke"):
            closes_seen += 1
    for name in SCRIPTS:
        once = to_ppsnf(load_script(corpus_path(name)))
        twice = to_ppsnf(once)
        assert [(s.rule, s.group, s.target) for s in once.steps] == [
            (s.rule, s.group, s.target) for s in twice.steps
        ], name
    _ok(6, "interleaved construction reorders to closure order; idempotent on the corpus")


def test_criterion_7_negative_suite():
    from test_negative import MUTATIONS

    assert len(MUTATIONS) >= 12
    for mutation in MUTATIONS:
        failures, located = mutation()
        assert failures and located, mutation.__name__
    _ok(7, f"{len(MUTATIONS)} mutations each rejected with a failure naming the damage")


def test_criterion_8_kernel_invariants():
    pool = gen.build_proof_pool()
    gen.monotonicity_property(200, pool)()
    gen.idempotence_property(200)()
    gen.roundtrip_property(200)()
    gen.mutation_fuzz_property(200)()
    _ok(8, "monotonicity, idempotence, round trip, and mutation fuzz at 200 cases each")
