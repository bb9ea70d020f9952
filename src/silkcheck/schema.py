"""Proof schema components, well-formedness, and evaluation by unrolling.

A component pairs a base proof (parameter 0) and a step proof (parameter
n + c) for one declared end-sequent pattern.  Evaluation instantiates the
free parameter with a numeral and expands links: parameter 0 unfolds to the
base, a positive numeral to the step at the predecessor.  When the unfolded
subproof's end-sequent is not literally the sequent the link displayed, a
whole-sequent rewrite inference bridges the two; the bottommost such bridge
is visible in the unrolled figure as the final numeral-cleanup step.

The trace keeps both stages: the expanded proof with its rewrite inferences
intact (what the unrolled figure shows) and the normal form with every
sequent rewritten and trivial rewrite steps collapsed, which is a plain LK
proof.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from . import rewrite as rw
from .kernel import (
    CheckReport,
    Failure,
    LinkPattern,
    MODE_LK,
    MODE_LKS,
    Proof,
    RuleData,
    RuleName,
    check_proof,
    iter_nodes,
)
from .syntax import (
    FreeVar,
    NumExpr,
    Param,
    Sequent,
    Substitution,
    canon_num,
    free_params,
    is_subterm,
    numeral,
    numeral_value,
    split_succs,
    subst,
)


class MatchFailure(Exception):
    """A link's numeral cannot be matched against the step parameter shape."""


@dataclass(frozen=True)
class SchemaComponent:
    name: str
    pattern: Sequent
    vars: tuple = ()
    step_param: NumExpr | None = None
    base: Proof | None = None
    step: Proof | None = None

    def step_offset(self) -> int:
        """The constant c of the step parameter n + c."""
        base, off = split_succs(canon_num(self.step_param))
        if isinstance(base, Param) and off >= 1:
            return off
        raise MatchFailure(f"step parameter {self.step_param} is not of the shape n + c")


@dataclass(frozen=True)
class ProofSchema:
    components: tuple

    def __getitem__(self, name: str) -> SchemaComponent:
        for c in self.components:
            if c.name == name:
                return c
        raise KeyError(name)

    def link_env(self) -> dict:
        return {c.name: LinkPattern(c.pattern, c.vars) for c in self.components}


# ---------------------------------------------------------------------------
# Well-formedness


def check_schema(schema: ProofSchema, theory: rw.EquationalTheory, fuel: int | None = None) -> CheckReport:
    """Component invariants plus the link ordering and descent constraints."""
    report = CheckReport(params={"fuel": theory.fuel_default if fuel is None else fuel})
    fail = lambda ci, kind, msg: report.failures.append(Failure((ci,), kind, msg))
    names = [c.name for c in schema.components]
    if len(set(names)) != len(names):
        fail(0, "schema", f"component names are not distinct: {names}")
    if not schema.components:
        fail(0, "schema", "a proof schema needs at least one component")
        return report
    env = schema.link_env()
    order = {c.name: i for i, c in enumerate(schema.components)}

    for ci, comp in enumerate(schema.components):
        if comp.base is None:
            fail(ci, "component", f"{comp.name} has no base proof")
            continue
        base_concl = subst(comp.pattern, Substitution({"n": numeral(0)}, {}))
        if not comp.base.conclusion == base_concl:
            fail(ci, "component", f"base of {comp.name} concludes {comp.base.conclusion}, expected {base_concl}")
        # Translated components justify pattern mismatches with whole-sequent
        # rewrite bridges, so schema proofs get the lenient witness form.
        sub_report = check_proof(comp.base, MODE_LKS, theory, env, frozenset(), lenient_erule=True, fuel=fuel)
        for f in sub_report.failures:
            report.failures.append(Failure((ci,) + f.path, f.rule, f"base of {comp.name}: {f.message}"))
        _check_links(report, ci, comp, comp.base, "base", order, step_links=False)

        if comp.step is None:
            if comp.step_param is not None:
                fail(ci, "component", f"{comp.name} declares a step parameter but has no step proof")
            continue
        try:
            offset = comp.step_offset()
        except MatchFailure as exc:
            fail(ci, "component", str(exc))
            continue
        step_concl = subst(comp.pattern, Substitution({"n": comp.step_param}, {}))
        if not comp.step.conclusion == step_concl:
            fail(ci, "component", f"step of {comp.name} concludes {comp.step.conclusion}, expected {step_concl}")
        sub_report = check_proof(comp.step, MODE_LKS, theory, env, frozenset({"n"}), lenient_erule=True, fuel=fuel)
        for f in sub_report.failures:
            report.failures.append(Failure((ci,) + f.path, f.rule, f"step of {comp.name}: {f.message}"))
        _check_links(report, ci, comp, comp.step, "step", order, step_links=True, offset=offset)
    return report


def _check_links(report, ci, comp, proof, kind, order, step_links, offset=0):
    for node, path in iter_nodes(proof):
        if node.rule is not RuleName.LINK:
            continue
        data = node.data
        where = f"{kind} of {comp.name}"
        if data.target not in order:
            report.failures.append(Failure((ci,) + path, "link", f"{where}: unknown target {data.target}"))
            continue
        j, i = order[data.target], order[comp.name]
        if not step_links:
            if j <= i:
                report.failures.append(
                    Failure((ci,) + path, "link", f"{where}: base links must call later components, not {data.target}")
                )
            continue
        if j == i:
            # Self-links must be subterms of the step parameter and strictly
            # descend at every numeral instantiation.
            kp = canon_num(data.param)
            base, off = split_succs(kp)
            decreases = (isinstance(base, Param) and base.name == "n" and off == 0) or (
                base is None and off < offset
            )
            if not _is_subterm_of_param(data.param, comp.step_param):
                report.failures.append(
                    Failure(
                        (ci,) + path,
                        "link",
                        f"{where}: self-link parameter {data.param} is not a subterm of {comp.step_param}",
                    )
                )
            elif not decreases:
                report.failures.append(
                    Failure(
                        (ci,) + path,
                        "link",
                        f"{where}: self-link parameter {data.param} does not strictly decrease below {comp.step_param}",
                    )
                )
        elif j < i:
            report.failures.append(
                Failure((ci,) + path, "link", f"{where}: forward links must target later components, not {data.target}")
            )
        else:
            extra = free_params(data.param) - {"n"}
            if extra:
                report.failures.append(
                    Failure((ci,) + path, "link", f"{where}: link parameter {data.param} uses parameters {sorted(extra)}")
                )


def _is_subterm_of_param(small, big) -> bool:
    return is_subterm(canon_num(small), canon_num(big)) or is_subterm(small, big)


# ---------------------------------------------------------------------------
# Evaluation


class _MNode:
    __slots__ = ("rule", "conclusion", "data", "kids")

    def __init__(self, rule, conclusion, data, kids):
        self.rule = rule
        self.conclusion = conclusion
        self.data = data
        self.kids = kids


def _subst_data(data: RuleData, sub: Substitution) -> RuleData:
    if data is None:
        return data
    changed = {}
    if data.formula is not None:
        changed["formula"] = subst(data.formula, sub)
    if data.term is not None:
        changed["term"] = subst(data.term, sub)
    if data.repl is not None:
        changed["repl"] = subst(data.repl, sub)
    if data.param is not None:
        changed["param"] = subst(data.param, sub)
    if data.terms:
        changed["terms"] = tuple(subst(t, sub) for t in data.terms)
    if not changed:
        return data
    return replace(data, **changed)


def _instantiate(proof: Proof, sub: Substitution, links: list) -> _MNode:
    node = _MNode(
        proof.rule,
        subst(proof.conclusion, sub),
        _subst_data(proof.data, sub),
        [_instantiate(p, sub, links) for p in proof.premises],
    )
    if proof.rule is RuleName.LINK:
        links.append(node)
    return node


@dataclass
class UnrollTrace:
    """Link expansions performed, rewrite effort, and both proof stages."""

    expansions: list = field(default_factory=list)
    steps_used: int = 0
    expanded: Proof | None = None
    proof: Proof | None = None


def evaluate(
    schema: ProofSchema,
    alpha: int | NumExpr,
    theory: rw.EquationalTheory,
    fuel: int | None = None,
) -> UnrollTrace:
    """Unroll the schema at a numeral.

    Expansion replaces every link leaf by the instantiated base or step of
    its target component, inserting a whole-sequent rewrite bridge whenever
    the splice is not literal.  Afterwards all sequents are rewritten to
    normal form and trivial rewrite inferences are removed, leaving the LK
    proof the evaluation denotes.
    """
    if isinstance(alpha, int):
        alpha = numeral(alpha)
    if numeral_value(alpha) is None:
        raise MatchFailure(f"evaluation needs a numeral, got {alpha}")
    fuel = theory.fuel_default if fuel is None else fuel
    trace = UnrollTrace()

    lead = schema.components[0]
    root = _MNode(
        RuleName.LINK,
        subst(lead.pattern, Substitution({"n": alpha}, {})),
        RuleData(target=lead.name, param=alpha, terms=tuple(FreeVar(v) for v in lead.vars)),
        [],
    )
    worklist = [root]
    while worklist:
        if len(trace.expansions) > fuel:
            raise rw.FuelExhausted(fuel)
        node = worklist.pop()
        data = node.data
        comp = schema[data.target]
        beta = rw.eval_numeric(data.param, theory, fuel)
        value = numeral_value(beta)
        var_map = dict(zip(comp.vars, data.terms))
        if value == 0 or comp.step is None:
            sub = Substitution({}, var_map)
            template = comp.base
        else:
            offset = comp.step_offset()
            if value < offset:
                raise MatchFailure(
                    f"link to {comp.name} at {value} cannot match step parameter {comp.step_param}"
                )
            sub = Substitution({"n": numeral(value - offset)}, var_map)
            template = comp.step
        new_links: list = []
        expansion = _instantiate(template, sub, new_links)
        trace.expansions.append((comp.name, value, data.param))
        concl = expansion.conclusion
        if concl.ante == node.conclusion.ante and concl.succ == node.conclusion.succ:
            # The morph below keeps the parent's reference valid; if the
            # expansion root is itself a link, track the morphed node.
            new_links = [node if ln is expansion else ln for ln in new_links]
            node.rule = expansion.rule
            node.data = expansion.data
            node.kids = expansion.kids
            node.conclusion = expansion.conclusion
            worklist.extend(new_links)
        else:
            # The spliced subproof ends at an equal-modulo-rewriting sequent
            # (for instance S^(0+1) against S^1); keep the displayed sequent
            # and justify the gap with one whole-sequent rewrite inference.
            node.rule = RuleName.ERULE
            node.data = RuleData(whole=True)
            node.kids = [expansion]
            worklist.extend(new_links)

    trace.expanded = _freeze(root)
    trace.proof = _normal_proof(trace.expanded, theory, fuel, trace)
    return trace


def _freeze(root: _MNode) -> Proof:
    done: dict[int, Proof] = {}
    stack = [root]
    while stack:
        cur = stack[-1]
        pending = [k for k in cur.kids if id(k) not in done]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        if id(cur) in done:
            continue
        done[id(cur)] = Proof(cur.conclusion, cur.rule, tuple(done[id(k)] for k in cur.kids), cur.data)
    return done[id(root)]


def _normal_proof(proof: Proof, theory: rw.EquationalTheory, fuel: int, trace: UnrollTrace) -> Proof:
    """Normalize every sequent and witness, then drop rewrite inferences that
    became trivial; the result is link-free and redex-free."""

    def norm_seq(s: Sequent) -> Sequent:
        res = rw.normalize(s, theory, fuel)
        trace.steps_used += res.steps_used
        return res.value

    def norm_expr(e):
        res = rw.normalize(e, theory, fuel)
        trace.steps_used += res.steps_used
        return res.value

    done: dict[int, Proof] = {}
    stack = [proof]
    while stack:
        cur = stack[-1]
        pending = [k for k in cur.premises if id(k) not in done]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        if id(cur) in done:
            continue
        kids = tuple(done[id(k)] for k in cur.premises)
        concl = norm_seq(cur.conclusion)
        if cur.rule is RuleName.ERULE and kids and kids[0].conclusion == concl:
            # The step became trivial; splice the child, retupled to this
            # node's formula order so witnesses above keep their positions
            # (witness indices only ever address premise tuples).
            child = kids[0]
            if child.conclusion.ante == concl.ante and child.conclusion.succ == concl.succ:
                done[id(cur)] = child
            else:
                done[id(cur)] = Proof(concl, child.rule, child.premises, child.data)
            continue
        data = cur.data
        if data is not None and (data.formula is not None or data.term is not None or data.repl is not None):
            changed = {}
            if data.formula is not None:
                changed["formula"] = norm_expr(data.formula)
            if data.term is not None:
                changed["term"] = norm_expr(data.term)
            if data.repl is not None:
                changed["repl"] = norm_expr(data.repl)
            data = replace(data, **changed)
        done[id(cur)] = Proof(concl, cur.rule, kids, data)
    return done[id(proof)]


def evaluate_and_check(
    schema: ProofSchema,
    alpha: int | NumExpr,
    theory: rw.EquationalTheory,
    fuel: int | None = None,
) -> CheckReport:
    """Unroll, check the normal form as a plain LK proof, and verify the
    end-sequent is the instantiated pattern in normal form."""
    try:
        trace = evaluate(schema, alpha, theory, fuel)
    except (MatchFailure, rw.FuelExhausted, rw.StuckTerm) as exc:
        report = CheckReport()
        report.failures.append(Failure((), "evaluate", str(exc)))
        return report
    report = check_proof(trace.proof, MODE_LK, theory, fuel=fuel)
    lead = schema.components[0]
    a = numeral(alpha) if isinstance(alpha, int) else alpha
    expected = rw.normalize(subst(lead.pattern, Substitution({"n": a}, {})), theory, fuel).value
    if not trace.proof.conclusion == expected:
        report.failures.append(
            Failure((), "end-sequent", f"evaluation ends at {trace.proof.conclusion}, expected {expected}")
        )
    return report
