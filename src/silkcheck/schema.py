"""Proof schema components, well-formedness, and evaluation by unrolling.

A component pairs a base proof (parameter 0) and a step proof (parameter
n + c) for one declared end-sequent pattern.  Evaluation instantiates the
free parameter with a numeral and expands links: parameter 0 unfolds to the
base, a positive numeral to the step at the predecessor.  When the unfolded
subproof's end-sequent is not literally the sequent the link displayed, a
whole-sequent rewrite inference bridges the two; the bottommost such bridge
is visible in the unrolled figure as the final numeral-cleanup step.

Unrolling is one iterative pass that builds frozen proof nodes bottom-up.
Each link instance, keyed by its target, value, terms, displayed sequent
and parameter expression, is expanded once per ``UnrollMemo``; a recurring
instance is the same node, so the unrolled proof is a DAG, and its trace
records are replayed rather than recomputed.  A memo lives for one
``evaluate`` call unless the caller passes one to several calls under one
theory, as ``stats`` does across its range of numerals and ``unroll --check``
for the unrolling it prints and the one it checks.

The trace keeps both stages: the expanded proof with its rewrite inferences
intact (what the unrolled figure shows) and the normal form with every
sequent rewritten and trivial rewrite steps collapsed, which is a plain LK
proof.
"""

from __future__ import annotations

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
    flatten_path,
    iter_nodes,
)
from .syntax import (
    FreeVar,
    NumExpr,
    Param,
    Record,
    Sequent,
    SortMismatch,
    Substitution,
    canon_num,
    fold,
    is_subterm,
    numeral,
    numeral_value,
    replace,
    split_succs,
    subst,
    walk,
)


class MatchFailure(Exception):
    """A link cannot be expanded: its target is not declared, its parameter
    is not ground, or its numeral cannot be matched against the step
    parameter shape."""


class ExpansionsExhausted(rw.FuelExhausted):
    """Unrolling needs more link expansions than the fuel.  It is a
    ``FuelExhausted``, so whatever handles fuel handles it, but its message
    names the expansions, not rewrite steps."""

    def __init__(self, fuel: int):
        Exception.__init__(self, f"no unrolling within {fuel} link expansions")
        self.steps = fuel


class SchemaComponent(Record):
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


class ProofSchema(Record):
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


def check_schema(schema: ProofSchema, theory: rw.EquationalTheory) -> CheckReport:
    """Component invariants plus the link ordering and descent constraints."""
    report = CheckReport(params={"fuel": theory.fuel})
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
        sub_report = check_proof(comp.base, MODE_LKS, theory, env, frozenset(), lenient_erule=True)
        for f in sub_report.failures:
            report.failures.append(Failure((ci,) + f.path, f.rule, f"base of {comp.name}: {f.message}"))
        _check_links(report, ci, comp, comp.base, "base", order)

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
        sub_report = check_proof(comp.step, MODE_LKS, theory, env, frozenset({"n"}), lenient_erule=True)
        for f in sub_report.failures:
            report.failures.append(Failure((ci,) + f.path, f.rule, f"step of {comp.name}: {f.message}"))
        _check_links(report, ci, comp, comp.step, "step", order, offset)
    return report


def _check_links(report, ci, comp, proof, kind, order, offset=0):
    """The link rules that need the component order, which the kernel does
    not see; it rejects an undeclared target and a parameter outside n."""
    i = order[comp.name]
    for node, path in iter_nodes(proof):
        if node.rule is RuleName.LINK and node.data.target in order:
            message = _link_fault(comp, node.data, order[node.data.target] - i, kind, offset)
            if message:
                where = (ci,) + flatten_path(path)
                report.failures.append(Failure(where, "link", f"{kind} of {comp.name}: {message}"))


def _link_fault(comp, data, ahead, kind, offset) -> str | None:
    """Why a link ``ahead`` components after its own breaks the order:
    base links call later components, forward links go forward, and a
    self-link is a subterm of the step parameter that strictly descends at
    every numeral instantiation."""
    if kind == "base":
        return None if ahead > 0 else f"base links must call later components, not {data.target}"
    if ahead < 0:
        return f"forward links must target later components, not {data.target}"
    if ahead > 0 or data.param is None:  # the kernel reports a missing parameter
        return None
    if not _is_subterm_of_param(data.param, comp.step_param):
        return f"self-link parameter {data.param} is not a subterm of {comp.step_param}"
    base, off = split_succs(canon_num(data.param))
    if (isinstance(base, Param) and base.name == "n" and off == 0) or (base is None and off < offset):
        return None
    return f"self-link parameter {data.param} does not strictly decrease below {comp.step_param}"


def _is_subterm_of_param(small, big) -> bool:
    return is_subterm(canon_num(small), canon_num(big)) or is_subterm(small, big)


# ---------------------------------------------------------------------------
# Evaluation


def _map_data(data: RuleData, fn) -> RuleData:
    """The witness with ``fn`` applied to every expression it carries."""
    changed = {}
    for key in ("formula", "term", "repl", "param"):
        if getattr(data, key) is not None:
            changed[key] = fn(getattr(data, key))
    if data.terms:
        changed["terms"] = tuple(fn(t) for t in data.terms)
    return replace(data, **changed) if changed else data


_WHOLE = RuleData(whole=True)


class UnrollTrace:
    """Link expansions performed and both proof stages."""

    _fields = ("expansions", "expanded", "proof")
    __eq__, __repr__ = Record.__eq__, Record.__repr__  # value equality, so unhashable

    def __init__(self, expansions=None, expanded: Proof | None = None, proof: Proof | None = None):
        self.expansions = [] if expansions is None else expansions
        self.expanded = expanded
        self.proof = proof


class UnrollMemo:
    """Work that evaluations of one schema, under one theory, share: those
    of a ``stats`` range, or the two of ``unroll --check``.

    ``links`` maps a link instance to ``(proof, records, lo, hi)``: its
    expanded proof, and the span ``records[lo:hi]`` of trace records its
    expansion produced.  The key is (target, value, link terms, displayed
    antecedent, displayed succedent, parameter expression); every part is
    hash-consed or a tuple of hash-consed nodes, so hashing and comparison
    are by identity.  The displayed sequent belongs to the key because it
    decides whether the expansion is spliced literally or under a
    whole-sequent rewrite bridge; it enters as its two formula tuples
    because ``Sequent`` equality ignores formula order and binders' hints,
    which the splice and the printed figure do not.  ``normal`` maps each
    expanded node to its normal form.
    """

    _fields = ("links", "normal")
    __eq__, __repr__ = Record.__eq__, Record.__repr__  # value equality, so unhashable

    def __init__(self, links=None, normal=None):
        self.links = {} if links is None else links
        self.normal = {} if normal is None else normal


def evaluate(
    schema: ProofSchema,
    alpha: int | NumExpr,
    theory: rw.EquationalTheory,
    memo: UnrollMemo | None = None,
) -> UnrollTrace:
    """Unroll the schema at a numeral.

    Expansion replaces every link leaf by the instantiated base or step of
    its target component, inserting a whole-sequent rewrite bridge whenever
    the splice is not literal.  One pass builds the expanded proof bottom-up
    and expands each link instance once, so a subproof that recurs is one
    shared node and the expanded proof is a DAG (tree walkers still see
    every occurrence).  Afterwards all sequents are rewritten to normal form
    and trivial rewrite inferences are removed, leaving the LK proof the
    evaluation denotes.

    ``memo`` defaults to a fresh one that lives for this call.  A caller
    that evaluates the same schema and theory at several numerals may
    pass one memo to all of them: ``g@k`` expanded for one numeral is then
    reused inside ``g@k+1`` for the next, and a second call at the same
    numeral returns the first call's proofs.  Trace records and fuel
    verdicts are the same either way, and the same as on a fresh theory:
    the fuel bounds each formula's span, which the theory caches with its
    normal form.
    """
    if isinstance(alpha, int):
        alpha = numeral(alpha)
    if numeral_value(alpha) is None:
        raise MatchFailure(f"evaluation needs a numeral, got {alpha}")
    if not schema.components:
        raise MatchFailure("a proof schema needs at least one component")
    memo = UnrollMemo() if memo is None else memo
    trace = UnrollTrace()

    lead = schema.components[0]
    root = (
        subst(lead.pattern, Substitution({"n": alpha}, {})),
        RuleData(target=lead.name, param=alpha, terms=tuple(FreeVar(v) for v in lead.vars)),
    )
    trace.expanded = _expand(schema, root, theory, memo.links, trace.expansions)
    trace.proof = _normal_proof(trace.expanded, theory, memo.normal)
    return trace


def _expand(schema, root, theory, links: dict, records: list) -> Proof:
    """Expand the link ``root``, a (displayed sequent, link data) pair.

    Links are visited depth first and right to left, so records, fuel
    verdicts and the first error come in the order a last-in-first-out
    worklist gives.  The loop keeps its own stack: a chain of self-links is
    as deep as the numeral is large.  A link instance met again while its
    own expansion is open would expand without end, so it is a failure.
    """
    # Frames: (key, displayed sequent, first record, instantiated template,
    # link leaves not yet visited, expansions of the visited ones).
    stack: list = []
    opened = set()  # the keys of the frames on the stack
    fuel = theory.fuel

    def visit(concl, data):
        # Fuel is the number of link expansions.  A fresh link is checked
        # before it expands; a reused one after its records are replayed,
        # which is when a per-expansion check inside the replayed subtree
        # would first have fired.
        if len(records) > fuel:
            raise ExpansionsExhausted(fuel)
        try:
            comp = schema[data.target]
        except KeyError:
            raise MatchFailure(f"link target {data.target} is not declared") from None
        if data.param is None:
            raise MatchFailure(f"link to {data.target} has no parameter expression")
        try:
            value = numeral_value(rw.eval_numeric(data.param, theory))
        except ValueError as exc:  # a parameter other than n outlives the substitution
            raise MatchFailure(f"link to {data.target}: {exc}") from None
        key = (data.target, value, data.terms, concl.ante, concl.succ, data.param)
        hit = links.get(key)
        if hit is not None:
            proof, src, lo, hi = hit
            records.extend(src[lo:hi])
            if len(records) > fuel + 1:
                raise ExpansionsExhausted(fuel)
            return proof
        if key in opened:
            raise MatchFailure(f"link to {comp.name} at {value} recurs inside its own expansion")
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
        inst, leaves = _instance(template, sub)
        records.append((comp.name, value, data.param))
        stack.append((key, concl, len(records) - 1, inst, leaves, []))
        opened.add(key)
        return None

    result = visit(*root)
    while stack:
        key, concl, lo, inst, leaves, expanded = stack[-1]
        if leaves:
            proof = visit(*leaves.pop())
            if proof is not None:
                expanded.append(proof)
            continue
        stack.pop()
        opened.remove(key)
        proof = _assemble(inst, expanded, concl)
        links[key] = (proof, records, lo, len(records))
        if stack:
            stack[-1][5].append(proof)
        else:
            result = proof
    return result


def _instance(template: Proof, sub: Substitution) -> tuple[list, list]:
    """The template's nodes in pre-order as (sequent, rule, data, arity),
    and its link leaves from left to right as (sequent, data) pairs."""
    inst, leaves = [], []
    fn = lambda e: subst(e, sub)
    for node in walk(template):
        concl = subst(node.conclusion, sub)
        data = _map_data(node.data, fn)
        inst.append((concl, node.rule, data, len(node.premises)))
        if node.rule is RuleName.LINK:
            leaves.append((concl, data))
    return inst, leaves


def _assemble(inst: list, expanded: list, concl: Sequent) -> Proof:
    """Build the instantiated template bottom-up, with its link leaves
    replaced by their expansions (given right to left), and splice it under
    the displayed sequent ``concl``."""
    # Reversed pre-order puts every node after its premises, the last
    # premise first, so a node's premises are the top ``arity`` values,
    # the first premise on top.
    values: list = []
    expanded = iter(expanded)
    for seq, rule, data, arity in reversed(inst):
        kids = ()
        if arity:
            kids = tuple(values[: -arity - 1 : -1])
            del values[-arity:]
        values.append(next(expanded) if rule is RuleName.LINK else Proof(seq, rule, kids, data))
    top = inst[0][0]
    if top.ante == concl.ante and top.succ == concl.succ:
        return values[0]
    # The spliced subproof ends at an equal-modulo-rewriting sequent (for
    # instance S^(0+1) against S^1); keep the displayed sequent and justify
    # the gap with one whole-sequent rewrite inference.
    return Proof(concl, RuleName.ERULE, (values[0],), _WHOLE)


def _normal_proof(proof: Proof, theory: rw.EquationalTheory, done: dict) -> Proof:
    """Normalize every sequent and witness, then drop rewrite inferences that
    became trivial; the result is link-free and redex-free.

    ``done`` maps expanded nodes to their normal forms; a node already in it
    is not normalized again.  Nodes are keys themselves, not their ids,
    which a node that died could pass on to a new one.

    A sequent or expression whose formulas all have a normal form in the
    theory's cache takes them from there: a cached span never exceeds the
    fuel, so normalizing it would give the same forms and never run out.
    Anything else is normalized whole."""
    cache = theory._nf_cache

    def norm(x):
        if type(x) is Sequent:
            if all(f in cache for f in x.ante) and all(f in cache for f in x.succ):
                return Sequent(tuple([cache[f] for f in x.ante]), tuple([cache[f] for f in x.succ]))
        elif x in cache:
            return cache[x]
        return rw.normalize(x, theory).value

    def combine(cur: Proof, kids: tuple) -> Proof:
        concl = norm(cur.conclusion)
        if cur.rule is RuleName.ERULE and kids and kids[0].conclusion == concl:
            # The step became trivial; splice the child, retupled to this
            # node's formula order so witnesses above keep their positions
            # (witness indices only ever address premise tuples).
            child = kids[0]
            if child.conclusion.ante == concl.ante and child.conclusion.succ == concl.succ:
                return child
            return Proof(concl, child.rule, child.premises, child.data)
        return Proof(concl, cur.rule, kids, _map_data(cur.data, norm))

    return fold(proof, combine, done)


def evaluate_and_check(
    schema: ProofSchema,
    alpha: int | NumExpr,
    theory: rw.EquationalTheory,
    memo: UnrollMemo | None = None,
) -> CheckReport:
    """Unroll, check the normal form as a plain LK proof, and verify the
    end-sequent is the instantiated pattern in normal form.

    ``memo`` is passed to ``evaluate``; given the memo of an earlier
    evaluation at the same numeral, the check reuses that proof."""
    try:
        trace = evaluate(schema, alpha, theory, memo)
    except (MatchFailure, SortMismatch, rw.FuelExhausted, rw.StuckTerm) as exc:
        report = CheckReport()
        report.failures.append(Failure((), "evaluate", str(exc)))
        return report
    report = check_proof(trace.proof, MODE_LK, theory)
    lead = schema.components[0]
    a = numeral(alpha) if isinstance(alpha, int) else alpha
    expected = rw.normalize(subst(lead.pattern, Substitution({"n": a}, {})), theory).value
    if not trace.proof.conclusion == expected:
        report.failures.append(
            Failure((), "end-sequent", f"evaluation ends at {trace.proof.conclusion}, expected {expected}")
        )
    return report
