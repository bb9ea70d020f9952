"""Schema well-formedness and unrolling, pinned to the worked example."""

import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import silkcheck
import silkcheck.rewrite
import silkcheck.schema
import silkcheck.syntax
from silkcheck import corpus_path, load_schema, load_script
from silkcheck.kernel import MODE_LK, Proof, RuleData, RuleName as R, check_proof, count_inferences
from silkcheck.parser import parse_formula, parse_numexpr, parse_schema, parse_sequent, parse_theory
from silkcheck.schema import (
    MatchFailure,
    ProofSchema,
    SchemaComponent,
    UnrollMemo,
    check_schema,
    evaluate,
    evaluate_and_check,
    replace,
)
from silkcheck.printer import print_proof_tree
from silkcheck.rewrite import EquationalTheory, FuelExhausted, normalize
from silkcheck.syntax import SortMismatch, numeral, subst
from silkcheck.translate import silk_to_schema

import gen


def replace_step_link_param(proof, new_param):
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
        subst(schema.components[0].pattern, {"n": numeral(1)}), theory
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
    from silkcheck.kernel import RuleName

    for name in ("schema_shat.sch", "schema_svar.sch", "schema_fhat.sch", "schema_exp.sch"):
        schema, theory = load_schema(corpus_path(name))
        for alpha in range(13):
            trace = evaluate(schema, alpha, theory)
            assert all(n.rule is not RuleName.LINK for n, _ in gen.proof_nodes(trace.proof)), name


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


TRACED_RANGE = """
import sys, tracemalloc
from silkcheck import corpus_path, load_schema
from silkcheck.schema import UnrollMemo, evaluate
schema, theory = load_schema(corpus_path("schema_fhat.sch"))
tracemalloc.start()
memo = UnrollMemo()
traces = [evaluate(schema, alpha, theory, memo=memo) for alpha in range(int(sys.argv[1]) + 1)]
reads = [READ for trace in traces]
print(tracemalloc.get_traced_memory()[0])
"""


def _retained_over_ranges(read):
    """The memory that schema_fhat's traces over 0..2000 and over 0..4000,
    each range on one memo, retain after ``read`` of every trace."""
    env = {**os.environ, "PYTHONPATH": str(Path(silkcheck.__file__).parent.parent)}
    retained = []
    for top in (2000, 4000):
        script = TRACED_RANGE.replace("READ", read)
        done = subprocess.run([sys.executable, "-c", script, str(top)], env=env, capture_output=True, text=True, timeout=120)
        assert done.stderr == ""
        retained.append(int(done.stdout))
    return retained


# Each numeral's root instance once kept the record list of the call that
# built it, so an ascending range on one memo retained memory growing with
# its square: 3.2 times from 0..2000 to 0..4000.
def test_a_shared_memo_retains_memory_linear_in_the_range():
    retained = _retained_over_ranges("trace.inferences()")
    assert retained[1] <= 2.2 * retained[0], retained


# A trace once kept the record list that its first read of ``expansions``
# built, as the benchmark's tracer reads it after every evaluation: 3.3
# times from 0..2000 to 0..4000.
def test_reading_every_trace_s_expansions_retains_memory_linear_in_the_range():
    retained = _retained_over_ranges("len(trace.expansions)")
    assert retained[1] <= 2.2 * retained[0], retained


def test_the_expansion_count_needs_no_record_list(shat, monkeypatch):
    # The count is the root instance's own; the records are listed on each
    # read and kept nowhere.
    schema, theory = shat
    trace = evaluate(schema, 40, theory)
    monkeypatch.setattr(type(trace), "expansions", property(lambda _: pytest.fail("the records were listed")))
    assert trace.expansion_count == 41
    monkeypatch.undo()
    records = trace.expansions
    assert len(records) == 41 and records[0] == ("phi", 40, numeral(40))
    assert trace.expansions == records and trace.expansions is not records


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


def test_repeated_link_instance_is_one_node(shat, monkeypatch):
    schema, theory = shat
    comp = schema.components[0]
    twice = ProofSchema(
        (SchemaComponent(comp.name, comp.pattern, comp.vars, comp.step_param, comp.base, _double_links(comp.step)),)
    )
    memo = UnrollMemo()
    trace = evaluate(twice, 5, theory, memo=memo)
    # phi@k links to phi@k-1 twice: 2^6 - 1 expansions, 6 instances.
    assert trace.expansion_count == len(trace.expansions) == 63 and len(memo.links) == 6
    assert trace.expansions[1:32] == trace.expansions[32:]
    imp = next(n for n, _ in gen.proof_nodes(trace.proof) if n.rule is R.IMP_L)
    assert imp.premises[0] is imp.premises[1]
    built, real_build = [], silkcheck.schema._build

    def counted_build(inst, *stage):
        built.append(inst)
        return real_build(inst, *stage)

    monkeypatch.setattr(silkcheck.schema, "_build", counted_build)
    imp = next(n for n, _ in gen.proof_nodes(trace.expanded) if n.rule is R.IMP_L)
    assert imp.premises[0] is imp.premises[1]
    assert len(built) == 6 and {id(inst) for inst in built} == {id(inst) for inst in memo.links.values()}
    assert evaluate(twice, 5, theory, memo=memo).expanded is trace.expanded and len(built) == 6
    assert count_inferences(trace.expanded)["->:l"] == 31
    # Fuel counts replayed expansions too: the worklist checked before each
    # of the 63, so 62 is the least fuel that passes.
    with pytest.raises(FuelExhausted):
        evaluate(twice, 5, EquationalTheory(theory.rules, 61))
    assert len(evaluate(twice, 5, EquationalTheory(theory.rules, 62)).expansions) == 63


def test_a_failed_evaluation_leaves_a_shared_memo_as_it_was(shat):
    schema, theory = shat
    memo = UnrollMemo()
    theory = EquationalTheory(theory.rules, 20)
    evaluate(schema, 3, theory, memo)
    links = dict(memo.links)
    assert len(links) == 4
    with pytest.raises(FuelExhausted, match="no normal form within 20 rewrite steps"):
        evaluate(schema, 12, theory, memo)
    assert memo.links == links  # instances compare by identity
    fresh = EquationalTheory(theory.rules, 20)
    assert _fingerprint(evaluate(schema, 4, theory, memo)) == _fingerprint(evaluate(schema, 4, fresh))


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


@pytest.mark.parametrize("alpha", [-1, -7, parse_numexpr("m")], ids=["-1", "-7", "m"])
def test_a_negative_instance_is_an_evaluation_failure_as_a_non_numeral_is(shat, alpha):
    schema, theory = shat
    message = f"evaluation needs a numeral, got {alpha}"
    with pytest.raises(MatchFailure) as raised:
        evaluate(schema, alpha, theory)
    assert str(raised.value) == message
    report = evaluate_and_check(schema, alpha, theory)
    assert [(f.rule, f.message) for f in report.failures] == [("evaluate", message)]


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


def test_a_link_term_that_is_a_formula_is_a_sort_mismatch(shat):
    # The self-link of shat's step passes the formula P(a) for alpha, which
    # the parser cannot write; seeding the instance at 0 refuses it.
    schema, theory = shat
    (phi,) = schema.components

    def swap(proof):
        if proof.rule is R.LINK:
            return Proof(proof.conclusion, proof.rule, (), replace(proof.data, terms=(parse_formula("P(a)"),)))
        return Proof(proof.conclusion, proof.rule, tuple(map(swap, proof.premises)), proof.data)

    broken = ProofSchema((replace(phi, step=swap(phi.step)),))
    error = (SortMismatch, "variable alpha must map to a term, got <Atom P(a)>")
    assert gen.unrolling(evaluate, broken, 1, theory) == error
    assert gen.unrolling(gen.reference_evaluate, broken, 1, theory) == error


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


# Each schema's top numeral: 12, or the 70 that the benchmark's stats ranges reach.
COUNTED_RANGES = {"schema_exp.sch": 12, "schema_fhat.sch": 70, "schema_shat.sch": 70, "schema_svar.sch": 12}


@pytest.mark.parametrize("name", COUNTED_RANGES)
def test_counts_from_earlier_numerals_agree_with_the_plain_walk(name):
    # As stats counts a range: each numeral's counts come off instance
    # records that the memo shares with the next numeral's, and reading
    # them builds no expanded node.  They are the counts a walk of both
    # proofs gives.
    schema, theory = load_schema(corpus_path(name))
    memo, rows = UnrollMemo(), []
    for alpha in range(COUNTED_RANGES[name] + 1):
        trace = evaluate(schema, alpha, theory, memo)
        rows.append((trace, trace.inferences()))
    assert all(inst.figure is None for inst in memo.links.values())
    for trace, counts in rows:
        assert counts == (count_inferences(trace.expanded), count_inferences(trace.proof))


# A step whose two links are one instance: p@k occurs 2^(a-k) times in the
# proofs at a.
DOUBLED_LINK = (
    'component p pattern "Q(n) |- Q(n)" vars () step-param "s(n)" {\n'
    '  base { ax "Q(0) |- Q(0)" }\n'
    '  step { cut "Q(s(n)) |- Q(s(n))" a=0 b=0 {\n'
    '    link "Q(n) |- Q(n)" target=p param="n"\n'
    '    link "Q(n) |- Q(n)" target=p param="n"\n'
    "  } }\n"
    "}\n"
)


def test_counts_weigh_a_shared_instance_by_its_occurrences():
    # A count per instance would be far too low.  Every numeral's root is
    # counted, on one memo, so each count but the first takes the earlier
    # root whole; the rules' counts carry no zero entry.
    schema, _ = parse_schema(DOUBLED_LINK)
    memo = UnrollMemo()
    for alpha in range(11):
        trace = evaluate(schema, alpha, EquationalTheory(()), memo)
        expanded, normal = trace.inferences()
        assert dict(expanded) == dict(normal) == dict(count_inferences(trace.proof)) == ({"cut": 2**alpha - 1} if alpha else {})


COUNTING_ORDERS = {
    "descending": lambda top: range(top, -1, -1),
    "shuffled": lambda top: random.Random(1).sample(range(top + 1), top + 1),
}


@pytest.mark.parametrize("order", COUNTING_ORDERS)
@pytest.mark.parametrize("name", [*COUNTED_RANGES, "doubled link"])
def test_counts_do_not_depend_on_the_roots_counted_before(name, order):
    # A root counted before stops each later root's walk where it occurs.
    # Counted top first, no root stops it: the doubled link's walk at 10
    # meets all 2^11 - 1 occurrences.
    if name == "doubled link":
        (schema, _), theory, top = parse_schema(DOUBLED_LINK), EquationalTheory(()), 10
    else:
        (schema, theory), top = load_schema(corpus_path(name)), COUNTED_RANGES[name]
    memo, rows = UnrollMemo(), []
    for alpha in COUNTING_ORDERS[order](top):
        trace = evaluate(schema, alpha, theory, memo)
        rows.append((trace, trace.inferences()))
    for trace, counts in rows:
        assert counts == (count_inferences(trace.expanded), count_inferences(trace.proof))


class _Unwalkable:
    """Link leaves that fail the test when anything lists them."""

    def __iter__(self):
        pytest.fail("the count entered a root counted before")


def test_counting_does_not_enter_a_root_counted_before():
    # What keeps a stats range linear: each root's walk stops at the root of
    # the numeral below it, whose counts it takes whole.
    schema, theory = load_schema(corpus_path("schema_fhat.sch"))
    memo = UnrollMemo()
    below = evaluate(schema, 29, theory, memo)
    below.inferences()
    below.kids = _Unwalkable()
    trace = evaluate(schema, 30, theory, memo)
    assert below in trace.kids
    fresh = evaluate(schema, 30, theory)
    assert trace.inferences() == (count_inferences(fresh.expanded), count_inferences(fresh.proof))


@pytest.mark.parametrize("name", gen.SCHEMA_FILES)
def test_normal_form_agrees_with_the_loop_it_replaced(name):
    # Each evaluation loads its own theory, so no rewrite cache is shared.
    for alpha in range(7):
        schema, theory = load_schema(corpus_path(name))
        new = gen.unrolling(evaluate, schema, alpha, theory)
        schema, theory = load_schema(corpus_path(name))
        assert new == gen.unrolling(gen.reference_evaluate, schema, alpha, theory), alpha


@pytest.mark.parametrize("name", gen.SCHEMA_FILES)
def test_a_late_read_of_the_expanded_proof_agrees_with_the_oracle(name):
    # Evaluation builds no expanded node; reading the largest instance
    # first builds the instances the smaller ones share, so the later
    # reads find some of theirs built and build the rest.
    schema, theory = load_schema(corpus_path(name))
    memo = UnrollMemo()
    traces = [evaluate(schema, alpha, theory, memo) for alpha in range(9)]
    assert all(inst.figure is None for inst in memo.links.values())
    for alpha in reversed(range(9)):
        expanded = traces[alpha].expanded
        reference = gen.reference_evaluate(schema, alpha, EquationalTheory(theory.rules, theory.fuel))
        assert print_proof_tree(expanded) == print_proof_tree(reference.expanded), alpha
        assert count_inferences(expanded) == count_inferences(reference.expanded), alpha
        assert evaluate(schema, alpha, theory, memo).expanded is expanded
    assert all(inst.figure is not None and inst.vals is None for inst in memo.links.values())


def test_a_late_read_of_a_deep_expanded_proof_needs_no_recursion():
    schema, theory = load_schema(corpus_path("schema_exp.sch"))
    trace = evaluate(schema, 12, theory)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        expanded = trace.expanded
    finally:
        sys.setrecursionlimit(limit)
    # The 4,097 g1 self-links at 2^12 nest four nodes each; heights are
    # keyed by id, as a proof hashes by value, recursively.
    heights, stack = {}, [expanded]
    while stack:
        node = stack[-1]
        pending = [p for p in node.premises if id(p) not in heights]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        heights[id(node)] = 1 + max((heights[id(p)] for p in node.premises), default=0)
    assert heights[id(expanded)] > 4 * 4097


def test_rewrite_errors_come_in_the_order_of_a_post_order_walk():
    # The rule puts a term where a schematic variable's name is, so each
    # rewrite of g(f(...)) fails with its own message.  Parents are
    # normalized before their kids, and within an instance the last premise
    # comes first, so the axiom on g(f(b)) is met before the expansion of
    # the link beside it.
    schema, _ = parse_schema(
        'component p pattern "P(g(f(a))), Q(n) |- P(g(f(a)))" vars () step-param "s(n)" {\n'
        '  base { w:l "P(g(f(a))), Q(0) |- P(g(f(a)))" formula="Q(0)" { ax "P(g(f(a))) |- P(g(f(a)))" } }\n'
        '  step { /\\:r "P(g(f(a))), Q(s(n)) |- P(g(f(a))) /\\ P(g(f(b)))" a=0 b=0 {\n'
        '    link "P(g(f(a))), Q(n) |- P(g(f(a)))" target=p param="n"\n'
        '    ax "P(g(f(b))) |- P(g(f(b)))"\n'
        "  } }\n"
        "}\n"
    )
    rules = parse_theory("g(x) == h(x[0]);").rules
    error = (SortMismatch, "schematic variable x must map to a variable, got <Fn f(b)>")
    assert gen.unrolling(evaluate, schema, 1, EquationalTheory(rules)) == error
    assert gen.unrolling(gen.reference_evaluate, schema, 1, EquationalTheory(rules)) == error


def test_evaluate_agrees_with_the_two_pass_oracle_on_mutants():
    gen.reference_evaluate_property(60)()


def test_evaluate_agrees_with_the_two_pass_oracle_under_mutated_theories():
    gen.mutated_theory_property(150)()


# Unrolling normalizes each parent's conclusion formulas before its kids':
# a kid's formulas are then mostly in the theory's cache already.
# Normalizing kids before parents makes 197, 773 and 3,077 calls.
def test_evaluate_normalizes_parents_before_kids(monkeypatch):
    calls = []
    real_normalize = silkcheck.rewrite.normalize
    monkeypatch.setattr(silkcheck.rewrite, "normalize", lambda x, th: calls.append(x) or real_normalize(x, th))
    counts = []
    for alpha in (6, 8, 10):
        schema, theory = load_schema(corpus_path("schema_exp.sch"))
        calls.clear()
        evaluate(schema, alpha, theory)
        counts.append(len(calls))
    assert counts[:2] == [133, 517] and counts[2] <= 2100


@pytest.mark.parametrize("alpha", [8, 10])
def test_evaluate_builds_one_substitution_for_the_lead_pattern(monkeypatch, alpha):
    # Each link instance replays its template's plan over the memo ``seed``
    # gives, so the lead pattern's is the one ``subst`` call of an unrolling,
    # where each instance once made its own (259 at 8, 1,027 at 10).
    schema, theory = load_schema(corpus_path("schema_exp.sch"))
    calls, real = [], silkcheck.schema.subst
    monkeypatch.setattr(silkcheck.schema, "subst", lambda x, *args: calls.append(args) or real(x, *args))
    trace = evaluate(schema, alpha, theory)
    assert calls == [({"n": numeral(alpha)},)] and trace.expansion_count == 2**alpha + 2


def test_unrolling_and_checking_schema_exp_compute_no_canonical_form(monkeypatch):
    # Equal formulas are one node, so formula_eq and multiset_eq decide by
    # identity: neither the splices of evaluate nor the kernel's checks of
    # the normal proof, the c:l nodes whose antecedent the rule reorders
    # included, compute a canonical form (1,028 and 2,309 at 8 once).
    schema, theory = load_schema(corpus_path("schema_exp.sch"))
    calls, real = [], silkcheck.syntax.canon_alpha
    monkeypatch.setattr(silkcheck.syntax, "canon_alpha", lambda f: calls.append(f) or real(f))
    trace = evaluate(schema, 8, theory)
    assert calls == []
    report = check_proof(trace.proof, MODE_LK, theory)
    assert report.accepted and report.counts[R.CONTR_L] == 2**8 and calls == []


def test_evaluate_rewrites_each_new_expression_once_and_instantiates_each_instance_once(monkeypatch):
    # On a fresh theory, every expression that reaches rw.normalize misses
    # the cache and is an expression of the expanded proof or a link
    # parameter, and no expression reaches it twice.
    schema, theory = load_schema(corpus_path("schema_exp.sch"))
    normalized, instances = [], []
    real_normalize, real_instance = silkcheck.rewrite.normalize, silkcheck.schema._instance

    def counted_normalize(x, th):
        assert x not in th._nf_cache
        normalized.append(x)
        return real_normalize(x, th)

    def counted_instance(template, sub):
        instances.append(template)
        return real_instance(template, sub)

    monkeypatch.setattr(silkcheck.rewrite, "normalize", counted_normalize)
    monkeypatch.setattr(silkcheck.schema, "_instance", counted_instance)
    memo = UnrollMemo()
    trace = evaluate(schema, 8, theory, memo)
    expressions = set()
    for node, _ in gen.proof_nodes(trace.expanded):
        expressions.update(node.conclusion.formulas())
        for key in ("formula", "term", "repl", "param"):
            expressions.add(getattr(node.data, key))
        expressions.update(node.data.terms)
    params = {param for _, _, param in trace.expansions}
    assert len(normalized) == len(set(normalized))
    assert set(normalized) <= expressions | params
    assert len(instances) == len(memo.links) == len(set(trace.expansions))
