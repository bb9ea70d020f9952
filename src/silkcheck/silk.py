"""The component-collection calculus: fifteen inference rules over pairs of
stepcase and basecase sequents, with closure bookkeeping.

State is immutable: a collection is an ordered list of groups (newest on the
left), a group a list of pairs plus its closure status and, once the first
basecase is closed, its declared pattern.  Every pair carries the proof
fragments built so far; stepcase fragments grow link leaves when the cycle
or call rules fire, which is what the translation to proof schemata later
harvests.

Groups and pairs are addressed by stable creation ids, so scripts survive
reordering.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from . import rewrite as rw
from .kernel import (
    CheckReport,
    Failure,
    LinkPattern,
    Proof,
    RuleData,
    RuleError,
    RuleName,
    apply_rule,
    ax,
    bridge_to,
)
from .syntax import (
    AnnSequent,
    Formula,
    NumExpr,
    NumFn,
    Param,
    Sequent,
    SortMismatch,
    Substitution,
    Succ,
    formula_eq,
    free_params,
    free_vars,
    node_at,
    num_eq,
    numeral,
    subst,
)


class SilkError(Exception):
    pass


class ClosedGroupTouched(SilkError):
    pass


class PatternMismatch(SilkError):
    pass


class AnnotationMismatch(SilkError):
    pass


class ArityMismatch(SilkError):
    pass


class UnknownGroup(SilkError):
    pass


class UnknownPair(SilkError):
    pass


class NotAProof(SilkError):
    pass


# ---------------------------------------------------------------------------
# State


@dataclass(frozen=True)
class Top:
    def __str__(self):
        return "T"


@dataclass(frozen=True)
class OpenStep:
    sequent: AnnSequent

    def __str__(self):
        return str(self.sequent)


@dataclass(frozen=True)
class ClosedStep:
    sequent: Sequent

    def __str__(self):
        return f"[ {self.sequent} ]"


@dataclass(frozen=True)
class EmptyStep:
    def __str__(self):
        return "[ ]"


@dataclass(frozen=True)
class OpenBase:
    sequent: Sequent

    def __str__(self):
        return str(self.sequent)


@dataclass(frozen=True)
class ClosedBase:
    sequent: Sequent

    def __str__(self):
        return f"[ {self.sequent} ]"


TOP = Top()
EMPTY_STEP = EmptyStep()


@dataclass(frozen=True)
class ComponentPair:
    pid: int
    step: object
    base: object
    base_proof: Proof
    step_proof: Proof | None = None

    def __str__(self):
        return f"< {self.step} ; {self.base} >"


@dataclass(frozen=True)
class ComponentGroup:
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
        raise UnknownPair(f"group {self.gid} has no pair {pid}")

    def with_pair(self, new: ComponentPair) -> "ComponentGroup":
        return replace(self, pairs=tuple(new if p.pid == new.pid else p for p in self.pairs))

    def drop_pair(self, pid: int) -> "ComponentGroup":
        return replace(self, pairs=tuple(p for p in self.pairs if p.pid != pid))

    def link_name(self) -> str:
        return f"g{self.gid}"

    def __str__(self):
        return ", ".join(str(p) for p in self.pairs)


@dataclass(frozen=True)
class ComponentCollection:
    groups: tuple = ()
    next_gid: int = 1
    closures: int = 0

    def group(self, gid: int) -> ComponentGroup:
        for g in self.groups:
            if g.gid == gid:
                return g
        raise UnknownGroup(f"no group {gid}")

    def with_group(self, new: ComponentGroup) -> "ComponentCollection":
        return replace(self, groups=tuple(new if g.gid == new.gid else g for g in self.groups))

    def link_env(self) -> dict:
        env = {}
        for g in self.groups:
            if g.pattern is not None:
                env[g.link_name()] = LinkPattern(g.pattern, g.pattern_vars)
        return env

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


@dataclass(frozen=True)
class SiLKStep:
    rule: str
    sequent: Sequent | None = None
    group: int | None = None
    pair: int | None = None
    pair2: int | None = None
    formula: Formula | None = None
    ann: NumExpr | None = None
    lk_rule: RuleName | None = None
    data: RuleData = RuleData()
    raw_to: str | None = None
    pattern: Sequent | None = None
    vars: tuple = ()
    target: int | None = None
    g: NumExpr | None = None
    f: NumExpr | None = None
    terms: tuple = ()
    line: int = 0


@dataclass(frozen=True)
class SiLKScript:
    theory: rw.EquationalTheory
    steps: tuple


def _open_group(state: ComponentCollection, gid: int | None) -> ComponentGroup:
    if gid is None:
        raise UnknownGroup("step names no group")
    g = state.group(gid)
    if g.closed:
        raise ClosedGroupTouched(f"group {gid} is closed")
    return g


def _axiom_sequent(step: SiLKStep) -> Sequent:
    s = step.sequent
    if s is None and step.formula is not None:
        s = Sequent((step.formula,), (step.formula,))
    if s is None:
        raise SilkError("axiom step needs its sequent")
    if len(s.ante) != 1 or len(s.succ) != 1 or not formula_eq(s.ante[0], s.succ[0]):
        raise SilkError(f"axiom sequent must be of the shape A |- A, got {s}")
    return s


def _resolve_rewrite(step: SiLKStep, premise: Sequent) -> RuleData:
    data = step.data
    if step.lk_rule is not RuleName.ERULE or data.repl is not None:
        return data
    if step.raw_to is None:
        raise SilkError("rewrite step needs its replacement expression")
    if data.side not in ("L", "R"):
        raise SilkError("rewrite step needs a position")
    side = premise.ante if data.side == "L" else premise.succ
    if data.idx is None or not 0 <= data.idx < len(side):
        raise SilkError(f"rewrite index {data.idx} out of range")
    try:
        old = node_at(side[data.idx], data.path)
    except (IndexError, TypeError) as exc:
        raise SilkError(f"bad rewrite path {data.path}: {exc}") from None
    from . import parser

    repl = parser.parse_replacement(step.raw_to, want_formula=isinstance(old, Formula))
    return replace(data, repl=repl)


def apply_step(
    state: ComponentCollection,
    step: SiLKStep,
    theory: rw.EquationalTheory,
) -> ComponentCollection:
    """One inference of the calculus; raises a SilkError subclass when the
    step does not apply."""
    rule = step.rule

    if rule == "ax1r":
        s = _axiom_sequent(step)
        pair = ComponentPair(1, TOP, OpenBase(s), ax(s))
        group = ComponentGroup(state.next_gid, (pair,), next_pid=2)
        return ComponentCollection((group,) + state.groups, state.next_gid + 1, state.closures)

    if rule == "ax2r":
        g = _open_group(state, step.group)
        s = _axiom_sequent(step)
        pair = ComponentPair(g.next_pid, TOP, OpenBase(s), ax(s))
        g = replace(g, pairs=(pair,) + g.pairs, next_pid=g.next_pid + 1)
        return state.with_group(g)

    if rule == "axl":
        g = _open_group(state, step.group)
        p = g.pair(step.pair)
        if not isinstance(p.step, Top):
            raise SilkError(f"pair {p.pid} already has a stepcase")
        if not isinstance(p.base, ClosedBase):
            raise SilkError("stepcase work requires a closed basecase")
        if step.formula is None or step.ann is None:
            raise SilkError("the stepcase axiom needs a formula and an annotation")
        s = Sequent((step.formula,), (step.formula,))
        p = replace(p, step=OpenStep(AnnSequent(s, step.ann)), step_proof=ax(s))
        return state.with_group(g.with_pair(p))

    if rule in ("ccr", "ccl"):
        g = _open_group(state, step.group)
        p1, p2 = g.pair(step.pair), g.pair(step.pair2)
        if p1.pid == p2.pid:
            raise SilkError("contraction needs two distinct pairs")
        if rule == "ccr":
            ok = (
                isinstance(p1.step, Top)
                and isinstance(p2.step, Top)
                and isinstance(p1.base, OpenBase)
                and isinstance(p2.base, OpenBase)
                and p1.base.sequent == p2.base.sequent
            )
            if not ok:
                raise SilkError("component contraction needs two identical open-basecase pairs")
        else:
            if isinstance(p1.step, OpenStep) or isinstance(p2.step, OpenStep):
                raise SilkError("contraction of pairs with open stepcases is not licensed")
            ok = (
                isinstance(p1.base, ClosedBase)
                and isinstance(p2.base, ClosedBase)
                and p1.base.sequent == p2.base.sequent
                and type(p1.step) is type(p2.step)
                and (not isinstance(p1.step, ClosedStep) or p1.step.sequent == p2.step.sequent)
            )
            if not ok:
                raise SilkError("component contraction needs two identical closed-basecase pairs")
        return state.with_group(g.drop_pair(p2.pid))

    if rule == "br":
        g = _open_group(state, step.group)
        p = g.pair(step.pair)
        if not isinstance(p.base, ClosedBase):
            raise SilkError("branching duplicates a pair with a closed basecase")
        copy = ComponentPair(g.next_pid, TOP, p.base, p.base_proof)
        g = replace(g, pairs=(copy,) + g.pairs, next_pid=g.next_pid + 1)
        return state.with_group(g)

    if rule == "rho_bc":
        g = _open_group(state, step.group)
        p1 = g.pair(step.pair)
        if not isinstance(p1.step, Top):
            raise SilkError("basecase rules apply only while the stepcase is open territory")
        if not isinstance(p1.base, OpenBase):
            raise SilkError(f"basecase of pair {p1.pid} is closed")
        premises = [p1.base.sequent]
        proofs = [p1.base_proof]
        if step.pair2 is not None:
            p2 = g.pair(step.pair2)
            if p1.pid == p2.pid:
                raise SilkError("binary rule needs two distinct pairs")
            if not isinstance(p2.step, Top) or not isinstance(p2.base, OpenBase):
                raise SilkError(f"pair {p2.pid} cannot feed a basecase rule")
            premises.append(p2.base.sequent)
            proofs.append(p2.base_proof)
        data = _resolve_rewrite(step, premises[0])
        try:
            concl = apply_rule(step.lk_rule, tuple(premises), data, theory)
        except RuleError as exc:
            raise SilkError(str(exc)) from None
        new = replace(
            p1,
            base=OpenBase(concl),
            base_proof=Proof(concl, step.lk_rule, tuple(proofs), data),
        )
        g = g.with_pair(new)
        if step.pair2 is not None:
            g = g.drop_pair(step.pair2)
        return state.with_group(g)

    if rule == "rho_sc":
        g = _open_group(state, step.group)
        p1 = g.pair(step.pair)
        if not isinstance(p1.step, OpenStep):
            raise SilkError(f"pair {p1.pid} has no open stepcase")
        premises = [p1.step.sequent.sequent]
        proofs = [p1.step_proof]
        ann = p1.step.sequent.annotation
        if step.pair2 is not None:
            p2 = g.pair(step.pair2)
            if p1.pid == p2.pid:
                raise SilkError("binary rule needs two distinct pairs")
            if not isinstance(p2.step, OpenStep):
                raise SilkError(f"pair {p2.pid} has no open stepcase")
            if not num_eq(ann, p2.step.sequent.annotation):
                raise AnnotationMismatch(
                    f"stepcase annotations differ: {ann} vs {p2.step.sequent.annotation}"
                )
            if not (
                isinstance(p1.base, ClosedBase)
                and isinstance(p2.base, ClosedBase)
                and p1.base.sequent == p2.base.sequent
            ):
                raise SilkError("binary stepcase rules need the same closed basecase in both pairs")
            premises.append(p2.step.sequent.sequent)
            proofs.append(p2.step_proof)
        data = _resolve_rewrite(step, premises[0])
        try:
            concl = apply_rule(step.lk_rule, tuple(premises), data, theory)
        except RuleError as exc:
            raise SilkError(str(exc)) from None
        new = replace(
            p1,
            step=OpenStep(AnnSequent(concl, ann)),
            step_proof=Proof(concl, step.lk_rule, tuple(proofs), data),
        )
        g = g.with_pair(new)
        if step.pair2 is not None:
            g = g.drop_pair(step.pair2)
        return state.with_group(g)

    if rule == "clbc":
        g = _open_group(state, step.group)
        p = g.pair(step.pair)
        if not isinstance(p.step, Top):
            raise SilkError("only pairs without stepcase work can close their basecase")
        if not isinstance(p.base, OpenBase):
            raise SilkError(f"basecase of pair {p.pid} is already closed")
        pattern, pvars = g.pattern, g.pattern_vars
        if step.pattern is not None:
            if pattern is not None and not (pattern == step.pattern and pvars == step.vars):
                raise PatternMismatch(f"group {g.gid} already declared the pattern {pattern}")
            pattern, pvars = step.pattern, step.vars
        if pattern is None:
            raise SilkError("the first basecase closure must declare the group pattern")
        if set(pvars) != set(free_vars(pattern)):
            raise SilkError(
                f"declared variables {sorted(pvars)} do not list the pattern's free variables "
                f"{sorted(free_vars(pattern))}"
            )
        instance = subst(pattern, Substitution({"n": numeral(0)}, {}))
        if not rw.sequent_equivalent(instance, p.base.sequent, theory):
            raise PatternMismatch(
                f"basecase {p.base.sequent} is not the pattern instance {instance} up to rewriting"
            )
        # The bracket displays the pattern instance, mirroring the stepcase
        # closure; the built sequent is equal to it up to rewriting, and the
        # pair's proof is adapted so it still concludes the bracket.
        g = replace(g, pattern=pattern, pattern_vars=pvars)
        p = replace(p, base=ClosedBase(instance), base_proof=bridge_to(p.base_proof, instance))
        return state.with_group(g.with_pair(p))

    if rule == "cllke":
        g = _open_group(state, step.group)
        if len(g.pairs) != 1:
            raise SilkError("only single-pair groups can close")
        p = g.pairs[0]
        if not isinstance(p.step, Top) or not isinstance(p.base, ClosedBase):
            raise SilkError("closing without a stepcase needs a closed basecase and no stepcase work")
        g = replace(g, pairs=(replace(p, step=EMPTY_STEP),), closed=True, closure_index=state.closures + 1)
        return replace(state.with_group(g), closures=state.closures + 1)

    if rule == "clsc":
        g = _open_group(state, step.group)
        if len(g.pairs) != 1:
            raise SilkError("only single-pair groups can close")
        p = g.pairs[0]
        if not isinstance(p.step, OpenStep) or not isinstance(p.base, ClosedBase):
            raise SilkError("closing the stepcase needs an open stepcase over a closed basecase")
        if g.pattern is None:
            raise SilkError("the group pattern was never declared")
        target = subst(g.pattern, Substitution({"n": Succ(Param("n"))}, {}))
        if not rw.sequent_equivalent(p.step.sequent.sequent, target, theory):
            raise PatternMismatch(
                f"stepcase {p.step.sequent.sequent} is not the pattern instance {target} up to rewriting"
            )
        if step.ann is not None and not num_eq(step.ann, p.step.sequent.annotation):
            raise AnnotationMismatch(
                f"declared instance expression {step.ann} differs from the recorded {p.step.sequent.annotation}"
            )
        p = replace(p, step=ClosedStep(target), step_proof=bridge_to(p.step_proof, target))
        g = replace(g, pairs=(p,), closed=True, closure_index=state.closures + 1)
        return replace(state.with_group(g), closures=state.closures + 1)

    if rule == "cycle":
        g = _open_group(state, step.group)
        p = g.pair(step.pair)
        if not isinstance(p.step, Top):
            raise SilkError(f"pair {p.pid} already has a stepcase")
        if not isinstance(p.base, ClosedBase):
            raise SilkError("the cycle rule requires a closed basecase")
        if g.pattern is None:
            raise SilkError("the cycle rule requires the group pattern, declared at basecase closure")
        if len(step.terms) != len(g.pattern_vars):
            raise ArityMismatch(
                f"cycle carries {len(step.terms)} terms for {len(g.pattern_vars)} pattern variables"
            )
        base_instance = subst(g.pattern, Substitution({"n": numeral(0)}, {}))
        if not rw.sequent_equivalent(base_instance, p.base.sequent, theory):
            raise PatternMismatch(
                f"basecase {p.base.sequent} is not the pattern instance {base_instance} up to rewriting"
            )
        var_sub = Substitution({}, dict(zip(g.pattern_vars, step.terms)))
        opened = subst(g.pattern, var_sub)
        ann = NumFn("+", (Param("n"), numeral(1)))
        link = Proof(
            opened,
            RuleName.LINK,
            (),
            RuleData(target=g.link_name(), param=Param("n"), terms=step.terms),
        )
        p = replace(p, step=OpenStep(AnnSequent(opened, ann)), step_proof=link)
        return state.with_group(g.with_pair(p))

    if rule == "call":
        g = _open_group(state, step.group)
        p = g.pair(step.pair)
        if not isinstance(p.step, Top):
            raise SilkError(f"pair {p.pid} already has a stepcase")
        if not isinstance(p.base, ClosedBase):
            raise SilkError("the call rule requires a closed basecase")
        if step.target is None:
            raise UnknownGroup("call without a target group")
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
            raise ArityMismatch(
                f"call carries {len(step.terms)} terms for {len(aux.pattern_vars)} variables"
            )
        sub = Substitution({"n": step.g}, dict(zip(aux.pattern_vars, step.terms)))
        opened = subst(aux.pattern, sub)
        ann = step.f if step.f is not None else step.g
        link = Proof(
            opened,
            RuleName.LINK,
            (),
            RuleData(target=aux.link_name(), param=step.g, terms=step.terms),
        )
        p = replace(p, step=OpenStep(AnnSequent(opened, ann)), step_proof=link)
        return state.with_group(g.with_pair(p))

    raise SilkError(f"unknown rule {rule}")


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

