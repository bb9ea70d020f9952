"""The component-collection calculus: fifteen inference rules over pairs of
stepcase and basecase sequents, with closure bookkeeping.

State is immutable: a collection is an ordered list of groups (newest on the
left), a group a list of pairs plus its closure status and, once the first
basecase is closed, its declared pattern.  Every pair carries the proof
fragments built so far; stepcase fragments grow link leaves when the cycle
or call rules fire, which is what the translation to proof schemata later
harvests.  An open stepcase records the instance expression it claims next
to its sequent, and displays it as `A |-{e} B`.

`apply_step` has one branch per rule shape, each checking its side
conditions in a fixed order so the first one that fails names the step's
rejection: the axioms, the contractions, branching, `rho` over either the
basecase or the stepcase slot, basecase closure, opening a stepcase (the
stepcase axiom, cycle and call), and closing a group (with or without a
stepcase).  Every rule but `ax1r` works in an open group named by the step.

Groups and pairs are addressed by stable creation ids, so scripts survive
reordering.
"""

from __future__ import annotations


from . import rewrite as rw
from .kernel import (
    CheckReport,
    Failure,
    Proof,
    RuleData,
    RuleError,
    RuleName,
    apply_rule,
)
from .parser import _STEP_READS, ParseError, SiLKScript, SiLKStep, resolve_rewrite
from .schema import num_eq, replace
from .syntax import (
    NumExpr,
    NumFn,
    Param,
    Record,
    Sequent,
    SortMismatch,
    Substitution,
    Succ,
    formula_eq,
    free_params,
    free_vars,
    numeral,
    subst,
)


class SilkError(Exception):
    pass


class NotAProof(SilkError):
    pass


# ---------------------------------------------------------------------------
# State


class Top(Record):
    def __str__(self):
        return "T"


class OpenStep(Record):
    sequent: Sequent
    annotation: NumExpr

    def __str__(self):
        return self.sequent.text(f"|-{{{self.annotation}}}")


class ClosedStep(Record):
    sequent: Sequent

    def __str__(self):
        return f"[ {self.sequent} ]"


class EmptyStep(Record):
    def __str__(self):
        return "[ ]"


class OpenBase(Record):
    sequent: Sequent

    def __str__(self):
        return str(self.sequent)


class ClosedBase(Record):
    sequent: Sequent

    def __str__(self):
        return f"[ {self.sequent} ]"


TOP = Top()
EMPTY_STEP = EmptyStep()


class ComponentPair(Record):
    pid: int
    step: object
    base: object
    base_proof: Proof
    step_proof: Proof | None = None

    def __str__(self):
        return f"< {self.step} ; {self.base} >"


class ComponentGroup(Record):
    gid: int
    pairs: tuple
    closed: bool = False
    pattern: Sequent | None = None
    pattern_vars: tuple = ()
    closure_index: int | None = None
    next_pid: int = 1

    def pair(self, pid: int) -> ComponentPair:
        for p in self.pairs:
            if p.pid == pid:
                return p
        raise SilkError(f"group {self.gid} has no pair {pid}")

    def with_pair(self, new: ComponentPair) -> "ComponentGroup":
        return replace(self, pairs=tuple(new if p.pid == new.pid else p for p in self.pairs))

    def drop_pair(self, pid: int) -> "ComponentGroup":
        return replace(self, pairs=tuple(p for p in self.pairs if p.pid != pid))

    def link_name(self) -> str:
        return f"g{self.gid}"

    def __str__(self):
        return ", ".join(str(p) for p in self.pairs)


class ComponentCollection(Record):
    groups: tuple = ()
    next_gid: int = 1
    closures: int = 0

    def group(self, gid: int) -> ComponentGroup:
        for g in self.groups:
            if g.gid == gid:
                return g
        raise SilkError(f"no group {gid}")

    def with_group(self, new: ComponentGroup) -> "ComponentCollection":
        return replace(self, groups=tuple(new if g.gid == new.gid else g for g in self.groups))

    def __str__(self):
        if not self.groups:
            return "(empty)"
        return " | ".join(str(g) for g in self.groups)


EMPTY_COLLECTION = ComponentCollection()


def leading_group(collection: ComponentCollection) -> ComponentGroup:
    """The group closed last; only proofs have one."""
    best = None
    for g in collection.groups:
        if not g.closed:
            raise NotAProof(f"group {g.gid} is still open")
        if best is None or g.closure_index > best.closure_index:
            best = g
    if best is None:
        raise NotAProof("empty collection")
    return best


# ---------------------------------------------------------------------------
# Steps


_RULES = _STEP_READS.keys() - {"rho"} | {"rho_bc", "rho_sc"}

# The rules that open a stepcase, named as their closed-basecase rejection
# names them.
_OPENER = {"axl": "stepcase work", "cycle": "the cycle rule", "call": "the call rule"}


def ax(sequent: Sequent) -> Proof:
    return Proof(sequent, RuleName.AX)


def bridge_to(proof: Proof, want: Sequent) -> Proof:
    """Adapt a proof to an equal-up-to-rewriting end-sequent by one
    whole-sequent rewrite inference; the identity when already equal."""
    if proof.conclusion == want:
        return proof
    return Proof(want, RuleName.ERULE, (proof,), RuleData(whole=True))


def _open_group(state: ComponentCollection, gid: int | None) -> ComponentGroup:
    if gid is None:
        raise SilkError("step names no group")
    g = state.group(gid)
    if g.closed:
        raise SilkError(f"group {gid} is closed")
    return g


def _axiom_sequent(step: SiLKStep) -> Sequent:
    s, formula = step.sequent, step.data.formula
    if s is None and formula is not None:
        s = Sequent((formula,), (formula,))
    if s is None:
        raise SilkError("axiom step needs its sequent")
    if len(s.ante) != 1 or len(s.succ) != 1 or not formula_eq(s.ante[0], s.succ[0]):
        raise SilkError(f"axiom sequent must be of the shape A |- A, got {s}")
    return s


def _resolve_rewrite(step: SiLKStep, premise: Sequent) -> RuleData:
    data = step.data
    if step.lk_rule != RuleName.ERULE or data.repl is not None:
        return data
    if step.to is None:
        raise SilkError("rewrite step needs its replacement expression")
    try:
        return resolve_rewrite(data, premise, step.to)
    except ParseError as exc:
        raise SilkError(str(exc)) from None


def _pattern_instance(pattern: Sequent, n: NumExpr, built: Sequent, case: str, theory) -> Sequent:
    """The pattern at ``n``, which the ``case`` sequent ``built`` must equal
    up to rewriting."""
    instance = subst(pattern, Substitution({"n": n}, {}))
    if not rw.sequent_equivalent(instance, built, theory):
        raise SilkError(f"{case} {built} is not the pattern instance {instance} up to rewriting")
    return instance


def apply_step(
    state: ComponentCollection,
    step: SiLKStep,
    theory: rw.EquationalTheory,
) -> ComponentCollection:
    """One inference of the calculus; raises a SilkError when the step does
    not apply."""
    rule = step.rule

    if rule == "ax1r":
        s = _axiom_sequent(step)
        pair = ComponentPair(1, TOP, OpenBase(s), ax(s))
        group = ComponentGroup(state.next_gid, (pair,), next_pid=2)
        return ComponentCollection((group,) + state.groups, state.next_gid + 1, state.closures)
    if rule not in _RULES:
        raise SilkError(f"unknown rule {rule}")
    g = _open_group(state, step.group)

    if rule == "ax2r":
        s = _axiom_sequent(step)
        pair = ComponentPair(g.next_pid, TOP, OpenBase(s), ax(s))
        return state.with_group(replace(g, pairs=(pair,) + g.pairs, next_pid=g.next_pid + 1))

    if rule in ("ccr", "ccl"):
        p1, p2 = g.pair(step.pair), g.pair(step.pair2)
        if p1.pid == p2.pid:
            raise SilkError("contraction needs two distinct pairs")
        # ccr merges two pairs before stepcase work, ccl two after it.
        if rule == "ccl" and (isinstance(p1.step, OpenStep) or isinstance(p2.step, OpenStep)):
            raise SilkError("contraction of pairs with open stepcases is not licensed")
        base, which = (OpenBase, "open") if rule == "ccr" else (ClosedBase, "closed")
        ok = (
            isinstance(p1.base, base)
            and isinstance(p2.base, base)
            and p1.base.sequent == p2.base.sequent
            and type(p1.step) is type(p2.step)
            and (rule == "ccl" or isinstance(p1.step, Top))
            and (not isinstance(p1.step, ClosedStep) or p1.step.sequent == p2.step.sequent)
        )
        if not ok:
            raise SilkError(f"component contraction needs two identical {which}-basecase pairs")
        return state.with_group(g.drop_pair(p2.pid))

    if rule == "br":
        p = g.pair(step.pair)
        if not isinstance(p.base, ClosedBase):
            raise SilkError("branching duplicates a pair with a closed basecase")
        copy = ComponentPair(g.next_pid, TOP, p.base, p.base_proof)
        return state.with_group(replace(g, pairs=(copy,) + g.pairs, next_pid=g.next_pid + 1))

    if rule in ("rho_bc", "rho_sc"):
        # One LK inference on the basecase slot, before any stepcase work, or
        # on an open stepcase; a binary one consumes the second pair.  Two open
        # stepcases of a group share its closed basecase: clbc closes each at
        # the pattern at 0, and br and ccl only copy it.
        slot = "step" if rule == "rho_sc" else "base"
        p1 = g.pair(step.pair)
        if slot == "step" and not isinstance(p1.step, OpenStep):
            raise SilkError(f"pair {p1.pid} has no open stepcase")
        if slot == "base" and not isinstance(p1.step, Top):
            raise SilkError("basecase rules apply only while the stepcase is open territory")
        if slot == "base" and not isinstance(p1.base, OpenBase):
            raise SilkError(f"basecase of pair {p1.pid} is closed")
        pairs = (p1,)
        if step.pair2 is not None:
            p2 = g.pair(step.pair2)
            if p1.pid == p2.pid:
                raise SilkError("binary rule needs two distinct pairs")
            if slot == "base" and not (isinstance(p2.step, Top) and isinstance(p2.base, OpenBase)):
                raise SilkError(f"pair {p2.pid} cannot feed a basecase rule")
            if slot == "step":
                if not isinstance(p2.step, OpenStep):
                    raise SilkError(f"pair {p2.pid} has no open stepcase")
                if not num_eq(p1.step.annotation, p2.step.annotation):
                    ann1, ann2 = p1.step.annotation, p2.step.annotation
                    raise SilkError(f"stepcase annotations differ: {ann1} vs {ann2}")
            pairs += (p2,)
        premises = tuple(getattr(p, slot).sequent for p in pairs)
        data = _resolve_rewrite(step, premises[0])
        try:
            concl = apply_rule(step.lk_rule, premises, data, theory)
        except RuleError as exc:
            raise SilkError(str(exc)) from None
        proof = Proof(concl, step.lk_rule, tuple(getattr(p, slot + "_proof") for p in pairs), data)
        built = {slot: replace(getattr(p1, slot), sequent=concl), slot + "_proof": proof}
        g = g.with_pair(replace(p1, **built))
        if step.pair2 is not None:
            g = g.drop_pair(step.pair2)
        return state.with_group(g)

    if rule == "clbc":
        p = g.pair(step.pair)
        if not isinstance(p.step, Top):
            raise SilkError("only pairs without stepcase work can close their basecase")
        if not isinstance(p.base, OpenBase):
            raise SilkError(f"basecase of pair {p.pid} is already closed")
        pattern, pvars = g.pattern, g.pattern_vars
        if step.pattern is not None:
            if pattern is not None and not (pattern == step.pattern and pvars == step.vars):
                raise SilkError(f"group {g.gid} already declared the pattern {pattern}")
            pattern, pvars = step.pattern, step.vars
        if pattern is None:
            raise SilkError("the first basecase closure must declare the group pattern")
        if set(pvars) != set(free_vars(pattern)):
            raise SilkError(
                f"declared variables {sorted(pvars)} do not list the pattern's free variables "
                f"{sorted(free_vars(pattern))}"
            )
        instance = _pattern_instance(pattern, numeral(0), p.base.sequent, "basecase", theory)
        # The bracket displays the pattern instance, mirroring the stepcase
        # closure; the built sequent is equal to it up to rewriting, and the
        # pair's proof is adapted so it still concludes the bracket.
        g = replace(g, pattern=pattern, pattern_vars=pvars)
        p = replace(p, base=ClosedBase(instance), base_proof=bridge_to(p.base_proof, instance))
        return state.with_group(g.with_pair(p))

    if rule in _OPENER:
        p = g.pair(step.pair)
        if not isinstance(p.step, Top):
            raise SilkError(f"pair {p.pid} already has a stepcase")
        if not isinstance(p.base, ClosedBase):
            raise SilkError(f"{_OPENER[rule]} requires a closed basecase")
        if rule == "axl":
            formula = step.data.formula
            if formula is None or step.ann is None:
                raise SilkError("the stepcase axiom needs a formula and an annotation")
            opened = Sequent((formula,), (formula,))
            ann, proof = step.ann, ax(opened)
        else:
            target, n, ann = _link_target(state, g, step)
            opened = subst(target.pattern, Substitution({"n": n}, dict(zip(target.pattern_vars, step.terms))))
            link = RuleData(target=target.link_name(), param=n, terms=step.terms)
            proof = Proof(opened, RuleName.LINK, (), link)
        return state.with_group(g.with_pair(replace(p, step=OpenStep(opened, ann), step_proof=proof)))

    # cllke or clsc: a single pair closes the group.
    if len(g.pairs) != 1:
        raise SilkError("only single-pair groups can close")
    p = g.pairs[0]
    if rule == "cllke":
        if not isinstance(p.step, Top) or not isinstance(p.base, ClosedBase):
            raise SilkError("closing without a stepcase needs a closed basecase and no stepcase work")
        p = replace(p, step=EMPTY_STEP)
    else:
        if not isinstance(p.step, OpenStep) or not isinstance(p.base, ClosedBase):
            raise SilkError("closing the stepcase needs an open stepcase over a closed basecase")
        if g.pattern is None:
            raise SilkError("the group pattern was never declared")
        target = _pattern_instance(g.pattern, Succ(Param("n")), p.step.sequent, "stepcase", theory)
        if step.ann is not None and not num_eq(step.ann, p.step.annotation):
            raise SilkError(
                f"declared instance expression {step.ann} differs from the recorded {p.step.annotation}"
            )
        p = replace(p, step=ClosedStep(target), step_proof=bridge_to(p.step_proof, target))
    g = replace(g, pairs=(p,), closed=True, closure_index=state.closures + 1)
    return replace(state.with_group(g), closures=state.closures + 1)


def _link_target(state, g: ComponentGroup, step: SiLKStep) -> tuple:
    """The group a cycle or call step links to, the parameter it links at,
    and the annotation of the stepcase it opens."""
    if step.rule == "cycle":
        if g.pattern is None:
            raise SilkError("the cycle rule requires the group pattern, declared at basecase closure")
        if len(step.terms) != len(g.pattern_vars):
            counts = f"{len(step.terms)} terms for {len(g.pattern_vars)}"
            raise SilkError(f"cycle carries {counts} pattern variables")
        return g, Param("n"), NumFn("+", (Param("n"), numeral(1)))
    if step.target is None:
        raise SilkError("call without a target group")
    aux = state.group(step.target)
    if not aux.closed:
        raise SilkError(f"call target group {aux.gid} is not closed")
    if not isinstance(aux.pairs[0].step, ClosedStep):
        raise SilkError(f"call target group {aux.gid} has an empty stepcase")
    if aux.pattern is None:
        raise SilkError(f"call target group {aux.gid} has no pattern")
    if step.g is None:
        raise SilkError("the call rule needs its parameter expression g")
    extra = free_params(step.g) - {"n"}
    if extra:
        raise SilkError(f"call parameter {step.g} uses parameters {sorted(extra)}")
    if len(step.terms) != len(aux.pattern_vars):
        raise SilkError(f"call carries {len(step.terms)} terms for {len(aux.pattern_vars)} variables")
    return aux, step.g, step.f if step.f is not None else step.g


# ---------------------------------------------------------------------------
# Script checking


def check_script(script: SiLKScript) -> tuple[ComponentCollection, str, CheckReport]:
    """Replay a script from the empty collection.

    The verdict is "proof" when every group ends closed, "derivation" when
    steps all apply but open groups remain, and "rejected" at the first
    failing step.
    """
    report = CheckReport(params={"fuel": script.theory.fuel})
    state = EMPTY_COLLECTION
    for i, step in enumerate(script.steps):
        report.counts[step.rule] = report.counts.get(step.rule, 0) + 1
        try:
            state = apply_step(state, step, script.theory)
        except (SilkError, SortMismatch, rw.FuelExhausted, rw.StuckTerm) as exc:
            report.failures.append(Failure((i,), step.rule, str(exc)))
            return state, "rejected", report
    if not state.groups:
        verdict = "derivation"
    elif all(g.closed for g in state.groups):
        verdict = "proof"
    else:
        verdict = "derivation"
    return state, verdict, report

