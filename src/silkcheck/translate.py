"""From scripts to proof schemata: construction-order normal form, the
schema extraction, and the induction-statement emitter.

The normal form rearranges a proof so groups are built one at a time in the
order they close; group and pair references use stable ids, so reordering is
a permutation of steps plus a renumbering of group ids.  Extraction then
reads one schema component off each closed group with a non-empty stepcase,
leading group first, turning the recorded cycle and call leaves into self
and forward links.
"""

from __future__ import annotations

from functools import reduce

from .parser import SiLKScript
from .printer import report_text
from .schema import ProofSchema, SchemaComponent, replace
from .silk import ClosedStep, ComponentCollection, EmptyStep, NotAProof, bridge_to, check_script, leading_group
from .syntax import (
    And,
    Formula,
    Imp,
    Not,
    NumFn,
    OmegaAll,
    Or,
    Param,
    Sequent,
    Succ,
    bind,
    numeral,
    subst,
)


# ---------------------------------------------------------------------------
# Pre-proof schema normal form


def ancestor_map(script: SiLKScript) -> dict:
    """Step indices identified with each group (call targets excluded)."""
    out: dict[int, list] = {}
    next_gid = 1
    for i, step in enumerate(script.steps):
        if step.rule == "ax1r":
            gid = next_gid
            next_gid += 1
        else:
            gid = step.group
        out.setdefault(gid, []).append(i)
    return {gid: tuple(idxs) for gid, idxs in out.items()}


def to_ppsnf(script: SiLKScript) -> SiLKScript:
    """Reorder a proof so each group is fully built, in closure order, before
    the next group starts; a script already in that shape comes back as it
    is."""
    return _reordered(script, *check_script(script))


def _reordered(script: SiLKScript, collection: ComponentCollection, verdict: str, report) -> SiLKScript:
    """``script`` in construction order, given its replay."""
    if verdict != "proof":
        failures = report_text(report).splitlines()[1:]  # the lines after the status
        raise NotAProof("\n".join([f"normal form is defined for proofs only, got {verdict}"] + failures))
    ancestors = ancestor_map(script)
    closure_of = {g.gid: g.closure_index for g in collection.groups}
    ordered_gids = sorted(ancestors, key=lambda gid: closure_of[gid])
    order = [i for gid in ordered_gids for i in ancestors[gid]]
    # Group ids are creation ordinals.  Each group's steps start with the
    # ax1r that creates it, so its new id is its place in the new order, and
    # a script whose step order stays keeps its ids too.
    if order == list(range(len(script.steps))):
        return script
    remap = {gid: new for new, gid in enumerate(ordered_gids, 1)}
    new_steps = []
    for step in map(script.steps.__getitem__, order):
        changes = {}
        if step.group is not None:
            changes["group"] = remap[step.group]
        if step.target is not None:
            changes["target"] = remap[step.target]
        new_steps.append(replace(step, **changes) if changes else step)
    return SiLKScript(script.theory, tuple(new_steps))


# ---------------------------------------------------------------------------
# Schema extraction


def silk_to_schema(script: SiLKScript) -> ProofSchema:
    """One schema component per closed group with a non-empty stepcase,
    leading component first so every call becomes a forward link.  The
    groups are those of the replay in construction order: the script's own
    replay, replayed again only when reordering changed the script.

    A proof whose leading group closed without a stepcase is an ordinary
    rewrite-extended proof; it is returned as a single component with no
    step, whose evaluation at any numeral is that proof.
    """
    collection, verdict, report = check_script(script)
    normal = _reordered(script, collection, verdict, report)
    if normal is not script:
        collection, verdict, _ = check_script(normal)
        if verdict != "proof":
            raise NotAProof(f"translation is defined for proofs only, got {verdict}")
    groups = _components(collection)
    step_param = None if isinstance(groups[0].pairs[0].step, EmptyStep) else Succ(Param("n"))
    components = []
    for g in groups:
        pair = g.pairs[0]
        base = bridge_to(pair.base_proof, subst(g.pattern, {"n": numeral(0)}))
        step = None
        if step_param is not None:
            step = bridge_to(pair.step_proof, subst(g.pattern, {"n": step_param}))
        components.append(SchemaComponent(g.link_name(), g.pattern, g.pattern_vars, step_param, base, step))
    return ProofSchema(tuple(components))


def _components(collection: ComponentCollection) -> list:
    """The groups a schema component is read off, leading group first: the
    closed groups with a non-empty stepcase, or only the leading group when
    it closed without one."""
    lead = leading_group(collection)
    if isinstance(lead.pairs[0].step, EmptyStep):
        return [lead]
    groups = [g for g in collection.groups if isinstance(g.pairs[0].step, ClosedStep)]
    return sorted(groups, key=lambda g: -g.closure_index)


# ---------------------------------------------------------------------------
# Interpretation


def _join(op, formulas: tuple) -> Formula | None:
    """``formulas`` joined by ``op``, nested to the left; None when empty."""
    return reduce(op, formulas) if formulas else None


def interpret_sequent(s: Sequent) -> Formula:
    """The customary reading: conjunction of the antecedent implies the
    disjunction of the succedent, with empty sides elided."""
    left = _join(And, s.ante)
    right = _join(Or, s.succ)
    if left is None and right is None:
        raise NotAProof("the empty sequent has no interpretation")
    if left is None:
        return right
    if right is None:
        return Not(left)
    return Imp(left, right)


def interpret(collection: ComponentCollection) -> Formula:
    """The induction statement a closed collection proves.

    When the leading group closed without a stepcase, this is simply its
    basecase read as a formula.  Otherwise the groups with non-empty
    stepcases contribute their basecases and the step implications for
    their patterns, quantified over the numeric sort, concluding the
    leading pattern at every numeral.
    """
    groups = _components(collection)
    lead = groups[0]
    if isinstance(lead.pairs[0].step, EmptyStep):
        return interpret_sequent(lead.pairs[0].base.sequent)
    x = Param("x")
    x1 = NumFn("+", (x, numeral(1)))
    bases = _join(And, tuple(interpret_sequent(g.pairs[0].base.sequent) for g in groups))
    steps = _join(
        And,
        tuple(
            Imp(
                interpret_sequent(subst(g.pattern, {"n": x})),
                interpret_sequent(subst(g.pattern, {"n": x1})),
            )
            for g in groups
        ),
    )
    lead_all = bind(OmegaAll, "x", interpret_sequent(subst(lead.pattern, {"n": x})))
    return Imp(And(bases, bind(OmegaAll, "x", steps)), lead_all)
