"""Replay semantics of the component-collection calculus."""

import pytest
from hypothesis import given, settings

from silkcheck import corpus_path, load_script
from silkcheck.kernel import MODE_LKS, check_proof
from silkcheck.parser import ParseError, parse_formula, parse_script, parse_sequent
from silkcheck.rewrite import FuelExhausted, StuckTerm
from silkcheck.schema import num_eq, replace
from silkcheck.silk import (
    EMPTY_COLLECTION,
    ClosedBase,
    ClosedStep,
    NotAProof,
    OpenStep,
    SilkError,
    SiLKScript,
    SiLKStep,
    Top,
    apply_step,
    check_script,
    leading_group,
)
from silkcheck.syntax import SortMismatch, Substitution, numeral, subst

import gen
from conftest import SCRIPT_NAMES
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
        env = gen.link_env(state)
        for group in state.groups:
            for pair in group.pairs:
                base_seq = pair.base.sequent
                assert pair.base_proof.conclusion == base_seq, name
                rep = check_proof(
                    pair.base_proof, MODE_LKS, script.theory, env, frozenset(), lenient_erule=True
                )
                assert rep.accepted, (name, [str(x) for x in rep.failures])
                if isinstance(pair.step, (OpenStep, ClosedStep)):
                    assert pair.step_proof.conclusion == pair.step.sequent, name
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

    for script, expected in ((fhat_script, {1: "s(n)"}), (exp_script, {1: "s(n)", 2: "2^(s(n))"})):
        state = EMPTY_COLLECTION
        seen = {}
        for step in script.steps:
            if step.rule == "clsc":
                pair = state.group(step.group).pairs[0]
                seen[step.group] = pair.step.annotation
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


# --- every rejection of the replay, with its exact message and step index

_FHAT = corpus_path("silk_fhat.slk").read_text().splitlines()[2:]
_EXP = [line for line in corpus_path("silk_exp.slk").read_text().splitlines()[2:] if line and line[0] != "#"]
_CONJ = corpus_path("silk_conj_comm.slk").read_text().splitlines()[1:]
_AX = ['ax1r "P(0) |- P(0)"']

# (script lines, message of the failure at the last line)
REJECTIONS = {
    "unknown pair": (_AX + ["clbc group=1 pair=5"], "group 1 has no pair 5"),
    "unknown group": (_AX + ["br group=9 pair=1"], "no group 9"),
    "no group named": (_AX + ["br pair=1"], "step names no group"),
    "closed group": (_CONJ + ['ax2r group=1 "A |- A"'], "group 1 is closed"),
    "axiom without sequent": (["ax1r"], "axiom step needs its sequent"),
    "axiom shape": (['ax1r "A |- B"'], "axiom sequent must be of the shape A |- A, got A |- B"),
    "rewrite without to": (_AX + ["rho bc 1 E group=1 pair=1 at=R.0 path=0"], "rewrite step needs its replacement expression"),
    "rewrite without position": (_AX + ['rho bc 1 E group=1 pair=1 to="f^0(0)"'], "rewrite step needs a position at 2:30"),
    "rewrite index": (_AX + ['rho bc 1 E group=1 pair=1 at=R.3 path=0 to="f^0(0)"'], "rewrite index 3 out of range at 2:44"),
    "rewrite path": (
        _AX + ['rho bc 1 E group=1 pair=1 at=R.0 path=5 to="f^0(0)"'],
        "rewrite path (5,) does not address a node at 2:44",
    ),
    "axl over a stepcase": (_FHAT[:5] + ['axl group=1 pair=1 formula="P(0)" ann="s(n)"'], "pair 1 already has a stepcase"),
    "axl over an open basecase": (
        _AX + ['axl group=1 pair=1 formula="P(0)" ann="s(n)"'],
        "stepcase work requires a closed basecase",
    ),
    "axl without annotation": (
        _FHAT[:4] + ['axl group=1 pair=1 formula="P(0)"'],
        "the stepcase axiom needs a formula and an annotation",
    ),
    "ccr one pair": (_AX + ["ccr group=1 pair=1 pair2=1"], "contraction needs two distinct pairs"),
    "ccr different pairs": (
        _AX + ['ax2r group=1 "B |- B"', "ccr group=1 pair=1 pair2=2"],
        "component contraction needs two identical open-basecase pairs",
    ),
    "ccl open stepcase": (
        _FHAT[:6] + ["ccl group=1 pair=2 pair2=1"],
        "contraction of pairs with open stepcases is not licensed",
    ),
    "ccl open basecase": (
        _AX + ['ax2r group=1 "P(0) |- P(0)"', "ccl group=1 pair=1 pair2=2"],
        "component contraction needs two identical closed-basecase pairs",
    ),
    "br open basecase": (_AX + ["br group=1 pair=1"], "branching duplicates a pair with a closed basecase"),
    "rho bc under a stepcase": (
        _FHAT[:5] + ['rho bc 1 w:l group=1 pair=1 formula="Q"'],
        "basecase rules apply only while the stepcase is open territory",
    ),
    "rho bc closed basecase": (_FHAT[:4] + ['rho bc 1 w:l group=1 pair=1 formula="Q"'], "basecase of pair 1 is closed"),
    "rho bc one pair": (_AX + ["rho bc 2 /\\:r group=1 pair=1 pair2=1 a=0 b=0"], "binary rule needs two distinct pairs"),
    "rho bc second pair closed": (
        _FHAT[:4] + ['ax2r group=1 "Q |- Q"', "rho bc 2 /\\:r group=1 pair=2 pair2=1 a=0 b=0"],
        "pair 1 cannot feed a basecase rule",
    ),
    "rho bc inference": (_AX + ["rho bc 1 /\\:l group=1 pair=1 a=5 b=0"], "index 5 out of range for first conjunct"),
    "rho sc without stepcase": (_AX + ['rho sc 1 w:l group=1 pair=1 formula="Q"'], "pair 1 has no open stepcase"),
    "rho sc one pair": (_FHAT[:5] + ["rho sc 2 ->:l group=1 pair=1 pair2=1 a=0 b=0"], "binary rule needs two distinct pairs"),
    "rho sc second pair": (_FHAT[:6] + ["rho sc 2 ->:l group=1 pair=1 pair2=2 a=0 b=0"], "pair 2 has no open stepcase"),
    "rho sc annotations": (
        _FHAT[:4] + ['axl group=1 pair=1 formula="P(f(f^n(0)))" ann="n + 2"'] + _FHAT[5:8],
        "stepcase annotations differ: n + 1 vs n + 2",
    ),
    "rho sc inference": (_FHAT[:5] + ["rho sc 1 /\\:l group=1 pair=1 a=5 b=0"], "index 5 out of range for first conjunct"),
    "clbc under a stepcase": (
        _FHAT[:5] + ["clbc group=1 pair=1"],
        "only pairs without stepcase work can close their basecase",
    ),
    "clbc closed basecase": (_FHAT[:4] + ["clbc group=1 pair=1"], "basecase of pair 1 is already closed"),
    "clbc second pattern": (
        _FHAT[:4] + ['ax2r group=1 "P(0) |- P(0)"', 'clbc group=1 pair=2 pattern="P(0) |- P(n)" vars ()'],
        "group 1 already declared the pattern P(0), forall x. P(x) -> P(f(x)) |- P(f^n(0))",
    ),
    "clbc without pattern": (_AX + ["clbc group=1 pair=1"], "the first basecase closure must declare the group pattern"),
    "clbc vars": (
        _AX + ['clbc group=1 pair=1 pattern="P(0) |- P(0)" vars (x)'],
        "declared variables ['x'] do not list the pattern's free variables []",
    ),
    "clbc instance": (
        _AX + ['clbc group=1 pair=1 pattern="P(n) |- P(s(n))" vars ()'],
        "basecase P(0) |- P(0) is not the pattern instance P(0) |- P(1) up to rewriting",
    ),
    "cllke two pairs": (_AX + ['ax2r group=1 "B |- B"', "cllke group=1"], "only single-pair groups can close"),
    "cllke open basecase": (
        _AX + ["cllke group=1"],
        "closing without a stepcase needs a closed basecase and no stepcase work",
    ),
    "clsc two pairs": (_FHAT[:6] + ["clsc group=1"], "only single-pair groups can close"),
    "clsc without stepcase": (
        _FHAT[:4] + ["clsc group=1"],
        "closing the stepcase needs an open stepcase over a closed basecase",
    ),
    "clsc instance": (
        _FHAT[:9] + ["clsc group=1"],
        "stepcase forall x. P(x) -> P(f(x)), P(0), forall x. P(x) -> P(f(x)) |- P(f(f^n(0))) is not the pattern "
        "instance P(0), forall x. P(x) -> P(f(x)) |- P(f^(s(n))(0)) up to rewriting",
    ),
    "clsc annotation": (
        _FHAT[:10] + ['clsc group=1 ann="n"'],
        "declared instance expression n differs from the recorded n + 1",
    ),
    "cycle over a stepcase": (_FHAT[:5] + ["cycle group=1 pair=1 terms ()"], "pair 1 already has a stepcase"),
    "cycle over an open basecase": (_AX + ["cycle group=1 pair=1 terms ()"], "the cycle rule requires a closed basecase"),
    "cycle terms": (_FHAT[:6] + ["cycle group=1 pair=2 terms (a)"], "cycle carries 1 terms for 0 pattern variables"),
    "call over a stepcase": (
        _FHAT[:5] + ['call group=1 pair=1 target=1 g="n" terms ()'],
        "pair 1 already has a stepcase",
    ),
    "call over an open basecase": (
        _AX + ['call group=1 pair=1 target=1 g="n" terms ()'],
        "the call rule requires a closed basecase",
    ),
    "call without target": (_FHAT[:4] + ['call group=1 pair=1 g="n" terms ()'], "call without a target group"),
    "call unknown target": (_FHAT[:4] + ['call group=1 pair=1 target=7 g="n" terms ()'], "no group 7"),
    "call open target": (_EXP[:17] + ['call group=2 pair=2 target=2 g="n" terms ()'], "call target group 2 is not closed"),
    "call empty stepcase": (
        _CONJ
        + [
            'ax1r "P(0) |- P(0)"',
            'clbc group=2 pair=1 pattern="P(0) |- P(0)" vars ()',
            'call group=2 pair=1 target=1 g="n" terms ()',
        ],
        "call target group 1 has an empty stepcase",
    ),
    "call without g": (_EXP[:17] + ["call group=2 pair=2 target=1 terms ()"], "the call rule needs its parameter expression g"),
    "call g parameters": (
        _EXP[:17] + ['call group=2 pair=2 target=1 g="k" terms ()'],
        "call parameter k uses parameters ['k']",
    ),
    "call terms": (_EXP[:17] + ['call group=2 pair=2 target=1 g="n" terms (a)'], "call carries 1 terms for 0 variables"),
}


@pytest.mark.parametrize("name", REJECTIONS)
def test_every_rejection_names_its_step(exp_script, name):
    lines, message = REJECTIONS[name]
    script, _ = parse_script("\n".join(lines) + "\n")
    _, verdict, report = check_script(SiLKScript(exp_script.theory, script.steps))
    assert verdict == "rejected"
    assert [(f.path, f.message) for f in report.failures] == [((len(lines) - 1,), message)]


def test_unknown_rule_is_rejected(exp_script):
    script, _ = parse_script("\n".join(_AX) + "\n")
    steps = script.steps + (SiLKStep("frob", group=1),)
    _, verdict, report = check_script(SiLKScript(exp_script.theory, steps))
    assert [(f.path, f.message) for f in report.failures] == [((1,), "unknown rule frob")]


def _without_pattern(state, gid):
    return state.with_group(replace(state.group(gid), pattern=None))


# Guards no script reaches: each replays a corpus script up to a step, breaks
# one invariant of the state, and applies that step.
INVARIANT_GUARDS = {
    "clsc without pattern": ("fhat", 10, lambda s: _without_pattern(s, 1), "the group pattern was never declared"),
    "cycle without pattern": (
        "fhat",
        6,
        lambda s: _without_pattern(s, 1),
        "the cycle rule requires the group pattern, declared at basecase closure",
    ),
    "call without pattern": ("exp", 17, lambda s: _without_pattern(s, 1), "call target group 1 has no pattern"),
}


@pytest.mark.parametrize("name", INVARIANT_GUARDS)
def test_invariant_guards_reject_hand_built_states(fhat_script, exp_script, name):
    which, index, breaks, message = INVARIANT_GUARDS[name]
    script = fhat_script if which == "fhat" else exp_script
    state = EMPTY_COLLECTION
    for step in script.steps[:index]:
        state = apply_step(state, step, script.theory)
    with pytest.raises(SilkError) as exc:
        apply_step(breaks(state), script.steps[index], script.theory)
    assert str(exc.value) == message


def _assert_closed_basecases_are_the_pattern_at_zero(state):
    # clbc closes a basecase at its group's pattern at 0, and br and ccl only
    # copy it, so neither rho sc nor cycle compares closed basecases.
    for g in state.groups:
        closed = [p.base.sequent for p in g.pairs if isinstance(p.base, ClosedBase)]
        if closed:
            assert g.pattern is not None
            zero = subst(g.pattern, Substitution({"n": numeral(0)}, {}))
            assert all(sequent == zero for sequent in closed)


def _replay_asserting_the_invariant(script):
    state = EMPTY_COLLECTION
    for step in script.steps:
        try:
            state = apply_step(state, step, script.theory)
        except (SilkError, SortMismatch, FuelExhausted, StuckTerm):
            return
        _assert_closed_basecases_are_the_pattern_at_zero(state)


@pytest.mark.parametrize("name", SCRIPT_NAMES)
def test_closed_basecases_are_the_pattern_at_zero(all_scripts, name):
    _replay_asserting_the_invariant(all_scripts[name])


@settings(max_examples=300, deadline=None)
@given(gen.mutated_corpus_files(SCRIPT_NAMES))
def test_closed_basecases_are_the_pattern_at_zero_in_mutants(fuzz_dir, case):
    name, text = case
    path = fuzz_dir / name
    path.write_text(text, encoding="utf-8")
    try:
        script = load_script(path)
    except (ParseError, OSError, UnicodeDecodeError):
        return
    _replay_asserting_the_invariant(script)


def test_leading_group_messages(fhat_script):
    cut = SiLKScript(fhat_script.theory, fhat_script.steps[:-1])
    for collection, message in ((replay(cut)[0], "group 1 is still open"), (EMPTY_COLLECTION, "empty collection")):
        with pytest.raises(NotAProof) as exc:
            leading_group(collection)
        assert str(exc.value) == message


def test_malformed_replacement_rejects_the_step(fhat_script):
    script, _ = parse_script('ax1r "P(0) |- P(0)"\nrho bc 1 E group=1 pair=1 at=R.0 path=0 to="f(("\n')
    _, verdict, report = check_script(SiLKScript(fhat_script.theory, script.steps))
    assert verdict == "rejected"
    assert [(f.path, f.message) for f in report.failures] == [((1,), "expected a term at 2:48")]
