"""Replay semantics of the component-collection calculus."""

from dataclasses import replace

import pytest

from silkcheck.kernel import MODE_LKS, check_proof
from silkcheck.parser import parse_formula, parse_script, parse_sequent
from silkcheck.silk import (
    ClosedBase,
    ClosedStep,
    OpenStep,
    SilkError,
    SiLKScript,
    Top,
    apply_step,
    check_script,
    leading_group,
)

from gen import collection_signature


def replay(script):
    return check_script(script)


def test_eleven_step_script_is_a_proof(fhat_script):
    assert len(fhat_script.steps) == 11
    coll, verdict, report = replay(fhat_script)
    assert verdict == "proof" and report.accepted
    group = leading_group(coll)
    assert group.pairs[0].step.sequent == parse_sequent(
        "P(0), forall x. P(x) -> P(f(x)) |- P(f^(s(n))(0))"
    )
    assert group.pairs[0].base.sequent == parse_sequent(
        "P(0), forall x. P(x) -> P(f(x)) |- P(f^0(0))"
    )


def test_truncated_script_is_a_derivation(fhat_script):
    cut = SiLKScript(fhat_script.theory, fhat_script.steps[:-1])
    _, verdict, report = replay(cut)
    assert verdict == "derivation" and report.accepted


def test_cycle_before_basecase_closure_rejected(fhat_script):
    steps = list(fhat_script.steps)
    bad = SiLKScript(fhat_script.theory, tuple(steps[:3]) + (replace(steps[6], pair=1),))
    _, verdict, report = replay(bad)
    assert verdict == "rejected"
    assert report.failures[0].path == (3,)
    assert "closed basecase" in report.failures[0].message


def test_rules_cannot_touch_closed_groups(fhat_script):
    extra = replace(fhat_script.steps[9])  # another contraction after closing
    bad = SiLKScript(fhat_script.theory, fhat_script.steps + (extra,))
    _, verdict, report = replay(bad)
    assert verdict == "rejected"
    assert "closed" in report.failures[0].message


def test_replay_is_deterministic(fhat_script):
    a, _, _ = replay(fhat_script)
    b, _, _ = replay(fhat_script)
    assert collection_signature(a) == collection_signature(b)


def test_exponential_script(exp_script):
    coll, verdict, _ = replay(exp_script)
    assert verdict == "proof"
    lead = leading_group(coll)
    assert lead.pattern == parse_sequent("P(0), forall x. P(x) -> P(f(x)) |- P(f^(2^n)(0))")
    assert lead.closure_index == 2
    # The context group stays in the collection, closed first.
    other = [g for g in coll.groups if g.gid != lead.gid][0]
    assert other.closed and other.closure_index == 1


def test_exponential_leading_group_is_the_caller(exp_script):
    coll, _, _ = replay(exp_script)
    assert leading_group(coll).gid == 2


def test_leading_group_requires_all_closed(fhat_script):
    cut = SiLKScript(fhat_script.theory, fhat_script.steps[:-1])
    coll, _, _ = replay(cut)
    with pytest.raises(SilkError):
        leading_group(coll)
    from silkcheck.silk import EMPTY_COLLECTION, NotAProof

    with pytest.raises(NotAProof):
        leading_group(EMPTY_COLLECTION)


def test_stepcase_discipline_invariant(all_scripts):
    # Every reachable state keeps open or closed stepcases only over closed
    # basecases.
    from silkcheck.silk import EMPTY_COLLECTION

    for name, script in all_scripts.items():
        state = EMPTY_COLLECTION
        for step in script.steps:
            state = apply_step(state, step, script.theory)
            for group in state.groups:
                for pair in group.pairs:
                    if not isinstance(pair.step, Top):
                        assert isinstance(pair.base, ClosedBase), (name, step.rule)


def test_closure_monotone(all_scripts):
    from silkcheck.silk import EMPTY_COLLECTION

    for name, script in all_scripts.items():
        state = EMPTY_COLLECTION
        closed_seen = {}
        for step in script.steps:
            state = apply_step(state, step, script.theory)
            for group in state.groups:
                if group.closed:
                    sig = (group.gid, group.closure_index)
                    pair = group.pairs[0]
                    snapshot = (str(pair.step), str(pair.base))
                    if sig in closed_seen:
                        assert closed_seen[sig] == snapshot, name
                    closed_seen[sig] = snapshot


def test_embedded_proofs_stay_coherent(all_scripts):
    # After every step each pair's fragments prove exactly the recorded
    # sequents, as link-bearing proofs over the group patterns.
    from silkcheck.silk import EMPTY_COLLECTION

    for name, script in all_scripts.items():
        state = EMPTY_COLLECTION
        for step in script.steps:
            state = apply_step(state, step, script.theory)
        env = state.link_env()
        for group in state.groups:
            for pair in group.pairs:
                base_seq = pair.base.sequent
                assert pair.base_proof.conclusion == base_seq, name
                rep = check_proof(
                    pair.base_proof, MODE_LKS, script.theory, env, frozenset(), lenient_erule=True
                )
                assert rep.accepted, (name, [str(x) for x in rep.failures])
                if isinstance(pair.step, (OpenStep, ClosedStep)):
                    seq = pair.step.sequent.sequent if isinstance(pair.step, OpenStep) else pair.step.sequent
                    assert pair.step_proof.conclusion == seq, name
                    rep = check_proof(
                        pair.step_proof,
                        MODE_LKS,
                        script.theory,
                        env,
                        frozenset({"n"}),
                        lenient_erule=True,
                    )
                    assert rep.accepted, (name, [str(x) for x in rep.failures])


def test_annotation_mismatch_on_binary_step(fhat_script):
    steps = list(fhat_script.steps)
    steps[4] = replace(steps[4], ann=parse_formula("A") if False else steps[4].ann)
    from silkcheck.parser import parse_numexpr

    steps[4] = replace(steps[4], ann=parse_numexpr("n + 2"))
    bad = SiLKScript(fhat_script.theory, tuple(steps))
    _, verdict, report = replay(bad)
    assert verdict == "rejected"
    assert report.failures[0].path == (7,)
    assert "annotations differ" in report.failures[0].message


def test_clsc_annotation_witness(exp_script):
    steps = list(exp_script.steps)
    from silkcheck.parser import parse_numexpr

    steps[-1] = replace(steps[-1], ann=parse_numexpr("s(n)"))
    _, verdict, report = replay(SiLKScript(exp_script.theory, tuple(steps)))
    assert verdict == "rejected"
    assert "instance expression" in report.failures[0].message


def test_annotations_compare_up_to_successor_notation(all_scripts):
    # silk_wedge pairs an axiom annotated s(n) with a cycle annotated n + 1.
    _, verdict, _ = replay(all_scripts["silk_wedge.slk"])
    assert verdict == "proof"


def test_unknown_group_and_pair(fhat_script):
    steps = list(fhat_script.steps)
    bad = SiLKScript(fhat_script.theory, (replace(steps[0]), replace(steps[2], group=9)))
    _, verdict, report = replay(bad)
    assert verdict == "rejected" and "no group 9" in report.failures[0].message
    bad2 = SiLKScript(fhat_script.theory, (steps[0], replace(steps[2], pair=5)))
    _, _, report2 = replay(bad2)
    assert "no pair 5" in report2.failures[0].message


def test_branching_and_contraction(all_scripts):
    # conj_comm merges two axiom pairs with a binary rule; interleaved uses
    # branching.  Both replay.
    for name in ("silk_conj_comm.slk", "silk_interleaved.slk"):
        _, verdict, _ = replay(all_scripts[name])
        assert verdict == "proof", name


def test_component_contraction_requires_identical_pairs(fhat_script):
    from silkcheck.silk import EMPTY_COLLECTION, SiLKStep

    theory = fhat_script.theory
    state = EMPTY_COLLECTION
    state = apply_step(state, SiLKStep("ax1r", sequent=parse_sequent("A |- A")), theory)
    state = apply_step(state, SiLKStep("ax2r", group=1, sequent=parse_sequent("B |- B")), theory)
    with pytest.raises(SilkError):
        apply_step(state, SiLKStep("ccr", group=1, pair=1, pair2=2), theory)
    state = apply_step(state, SiLKStep("ax2r", group=1, sequent=parse_sequent("A |- A")), theory)
    merged = apply_step(state, SiLKStep("ccr", group=1, pair=1, pair2=3), theory)
    assert len(merged.group(1).pairs) == 2


def test_annotation_recorded_at_closure(fhat_script, exp_script):
    # At stepcase closure the recorded instance expression is the one the
    # cycle or call opened: s(n) for the linear proof, 2^(s(n)) for the
    # compressed one.
    from silkcheck.parser import parse_numexpr
    from silkcheck.silk import EMPTY_COLLECTION
    from silkcheck.syntax import num_eq

    for script, expected in ((fhat_script, {1: "s(n)"}), (exp_script, {1: "s(n)", 2: "2^(s(n))"})):
        state = EMPTY_COLLECTION
        seen = {}
        for step in script.steps:
            if step.rule == "clsc":
                pair = state.group(step.group).pairs[0]
                seen[step.group] = pair.step.sequent.annotation
            state = apply_step(state, step, script.theory)
        assert seen.keys() == expected.keys()
        for gid, text in expected.items():
            assert num_eq(seen[gid], parse_numexpr(text))


def test_sort_mismatch_rejects_the_step():
    script, _ = parse_script(
        'ax1r "P(f(a)) |- P(f(a))"\n'
        'rho bc 1 forall:l group=1 pair=1 a=0 formula="forall x. P(x[0])" term="f(a)"\n'
    )
    _, verdict, report = replay(script)
    assert verdict == "rejected"
    assert [(f.path, f.message) for f in report.failures] == [
        ((1,), "schematic variable x must map to a variable, got <Fn f(a)>")
    ]
