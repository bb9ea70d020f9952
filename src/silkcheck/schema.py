"""Proof schema components, well-formedness, and evaluation by unrolling.

A component pairs a base proof (parameter 0) and a step proof (parameter
n + c) for one declared end-sequent pattern.  Evaluation instantiates the
free parameter with a numeral and expands links: parameter 0 unfolds to the
base, a positive numeral to the step at the predecessor.  When the unfolded
subproof's end-sequent is not literally the sequent the link displayed, a
whole-sequent rewrite inference bridges the two; the bottommost such bridge
is visible in the unrolled figure as the final numeral-cleanup step.

Each link instance, keyed by its target, value, terms, displayed sequent
and parameter expression, is unrolled once per ``UnrollMemo`` in three
passes: expansion instantiates its template, its conclusion formulas are
normalized, parents before kids, so a kid's come mostly from the cache,
and its normal proof is built, kids first.  Its expanded proof is built
only when a caller first reads it, kids first again, from what the memo
entry keeps of the instance.  A recurring instance is the same nodes, so
both proofs are DAGs, and its trace records are replayed rather than
recomputed.  The memo also holds each component's base and step compiled
for instantiation.  A memo lives for one ``evaluate`` call unless the
caller passes one to several calls under one theory, as ``stats`` does
across its range of numerals and ``unroll --check`` for the unrolling it
prints and the one it checks.

The trace gives both stages: the normal form, with every sequent rewritten
and trivial rewrite steps collapsed, which is a plain LK proof, and, on
first read, the expanded proof with its rewrite inferences intact (what
the unrolled figure shows).
"""

from __future__ import annotations

from operator import itemgetter

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
)
from .syntax import (
    FreeVar,
    NumExpr,
    NumFn,
    Param,
    Record,
    Sequent,
    SortMismatch,
    Substitution,
    Succ,
    free_names,
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
    """Unrolling runs out of fuel outside rewriting: it needs more link
    expansions than the fuel, or its instance is a numeral larger than the
    fuel.  It is a ``FuelExhausted``, so whatever handles fuel handles it,
    but its message names what ran out, not rewrite steps."""

    def __init__(self, fuel: int, message: str | None = None):
        Exception.__init__(self, message or f"no unrolling within {fuel} link expansions")
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

    def link_env(self) -> dict:
        return {c.name: LinkPattern(c.pattern, c.vars) for c in self.components}


# ---------------------------------------------------------------------------
# Numeric expressions modulo s/+


def canon_num(e: NumExpr) -> NumExpr:
    """Canonical form of the +/s fragment: numeral summands become successor
    applications, so s(n), n+1 and 1+n all coincide.  Built bottom-up: an
    application's numeric arguments are canonical before it is.  It keeps
    its own loop rather than syntax.fold's, as its children are the
    arguments of a split_succs base, which skips a successor tower in one
    step."""
    done: dict = {}
    stack = [e]
    while stack:
        cur = stack[-1]
        base, offset = split_succs(cur)
        args = base.args if isinstance(base, NumFn) else ()
        pending = [a for a in args if isinstance(a, NumExpr) and a not in done]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        if base is None:
            done[cur] = numeral(offset)
            continue
        if args:
            base = NumFn(base.sym, tuple(done.get(a, a) for a in args))
        for _ in range(offset):
            base = Succ(base)
        done[cur] = base
    return done[e]


def num_eq(a: NumExpr, b: NumExpr) -> bool:
    """Equality of numeric expressions modulo the s/+ identification."""
    return canon_num(a) == canon_num(b)


def is_subterm(small: NumExpr, big: NumExpr) -> bool:
    """Reflexive subterm relation on numeric expressions."""
    return any(small == sub for sub in walk(big))


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
        # The base at 0, then the step, if any, at the step parameter n + c.
        cases = (("base", comp.base, numeral(0), frozenset()), ("step", comp.step, comp.step_param, frozenset({"n"})))
        for kind, proof, param, allowed in cases:
            offset = 0
            if proof is None:
                if kind == "base":
                    fail(ci, "component", f"{comp.name} has no base proof")
                elif param is not None:
                    fail(ci, "component", f"{comp.name} declares a step parameter but has no step proof")
                break
            if kind == "step":
                try:
                    offset = comp.step_offset()
                except MatchFailure as exc:
                    fail(ci, "component", str(exc))
                    break
            concl = subst(comp.pattern, Substitution({"n": param}, {}))
            if not proof.conclusion == concl:
                fail(ci, "component", f"{kind} of {comp.name} concludes {proof.conclusion}, expected {concl}")
            # Translated components justify pattern mismatches with whole-sequent
            # rewrite bridges, so schema proofs get the lenient witness form.
            for f in check_proof(proof, MODE_LKS, theory, env, allowed, lenient_erule=True).failures:
                report.failures.append(Failure((ci,) + f.path, f.rule, f"{kind} of {comp.name}: {f.message}"))
            _check_links(report, ci, comp, proof, kind, order, offset)
    return report


def _check_links(report, ci, comp, proof, kind, order, offset=0):
    """The link rules that need the component order, which the kernel does
    not see; it rejects an undeclared target and a parameter outside n."""
    i = order[comp.name]
    stack = [(proof, None)]  # linked paths, as check_proof keeps them
    while stack:
        node, path = stack.pop()
        if node.rule is RuleName.LINK and node.data.target in order:
            message = _link_fault(comp, node.data, order[node.data.target] - i, kind, offset)
            if message:
                where = (ci,) + flatten_path(path)
                report.failures.append(Failure(where, "link", f"{kind} of {comp.name}: {message}"))
        stack.extend((p, (path, k)) for k, p in enumerate(node.premises))


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


_WHOLE = RuleData(whole=True)
_EXPR_KEYS = ("formula", "term", "repl", "param")  # then terms: a witness's expressions in order


class UnrollTrace:
    """Link expansions performed and both proof stages.

    ``evaluate`` builds only the normal form, ``proof``.  The expanded
    proof is built on the first read of ``expanded``, from the memo entry
    ``entry`` of the unrolled link, and kept in that entry, so a caller
    that reads only the normal form never builds it, and traces that share
    a memo entry read the same proof."""

    _fields = ("expansions", "expanded", "proof")
    __eq__, __repr__ = Record.__eq__, Record.__repr__  # value equality, so unhashable

    def __init__(self, expansions=None, expanded: Proof | None = None, proof: Proof | None = None, entry=None):
        self.expansions = [] if expansions is None else expansions
        self._expanded = expanded
        self.proof = proof
        self._entry = entry

    @property
    def expanded(self) -> Proof | None:
        if self._expanded is None and self._entry is not None:
            self._expanded = _expanded(self._entry)
        return self._expanded


class UnrollMemo:
    """Work that evaluations of one schema, under one theory, share: those
    of a ``stats`` range, or the two of ``unroll --check``.

    ``links`` maps a link instance to ``[expanded, normal, records, lo,
    hi, build]``: its expanded proof, the normal form of that proof, the
    span ``records[lo:hi]`` of trace records its expansion produced, and
    what building the expanded proof needs.  The expanded proof is built on
    first read (see ``UnrollTrace``); until then it is ``None`` and
    ``build`` is (template, instantiated expressions, displayed antecedent,
    displayed succedent, the entries of the link leaves, given right to
    left), and after it ``build`` is ``None``.  The key is
    (target, value, link terms, displayed antecedent, displayed succedent,
    parameter expression); every part is hash-consed or a tuple of
    hash-consed nodes, so hashing and comparison are by identity.  The
    displayed sequent belongs to the key because it decides whether the
    expansion is spliced literally or under a whole-sequent rewrite bridge;
    it enters as its two formula tuples because ``Sequent`` equality ignores
    formula order and binders' hints, which the splice and the printed
    figure do not.

    ``templates`` maps each component name to ``[component, base template,
    (step offset, step template)]``, the templates compiled at first use.
    """

    _fields = ("links", "templates")
    __eq__, __repr__ = Record.__eq__, Record.__repr__  # value equality, so unhashable

    def __init__(self, links=None, templates=None):
        self.links = {} if links is None else links
        self.templates = {} if templates is None else templates


class _Template:
    """A base or step proof compiled for instantiation.

    ``exprs`` holds its distinct expressions, each node's conclusion
    formulas (antecedent first) and then its witness expressions, in
    pre-order of first occurrence; ``opens`` the indices of those a link's
    substitution can change; ``concl`` the indices of the conclusion
    formulas of the nodes other than link leaves, in the order a walk of
    ``nodes`` first meets them.  ``nodes`` lists the nodes in reversed
    pre-order as (rule, arity, antecedent picker, succedent picker,
    witness, witness fields, whether a field is open); a picker takes a
    sequent side from a list indexed like ``exprs``, and a witness field is
    (key, index), or ("terms", indices).  ``links`` lists the link leaves
    in pre-order as (target, parameter index, terms picker, antecedent
    picker, succedent picker)."""

    __slots__ = ("exprs", "opens", "concl", "nodes", "links")

    def __init__(self, proof: Proof, names: frozenset, params: frozenset):
        exprs, opens, index, pre, concl, links = [], [], {}, [], [], []

        def changes(e) -> bool:
            variables, free = free_names(e)
            return not (variables.isdisjoint(names) and free.isdisjoint(params))

        def at(e) -> int:
            if e not in index:
                index[e] = len(exprs)
                exprs.append(e)
                if changes(e):
                    opens.append(index[e])
            return index[e]

        for node in walk(proof):
            ante = tuple([at(f) for f in node.conclusion.ante])
            succ = tuple([at(f) for f in node.conclusion.succ])
            data = node.data
            witness = [(key, getattr(data, key)) for key in _EXPR_KEYS if getattr(data, key) is not None]
            fields = [(key, at(e)) for key, e in witness]
            if data.terms:
                fields.append(("terms", tuple([at(t) for t in data.terms])))
            opened = any(changes(e) for _, e in witness) or any(map(changes, data.terms))
            pre.append((node.rule, len(node.premises), _picker(ante), _picker(succ), data, tuple(fields), opened))
            if node.rule is RuleName.LINK:  # a link leaf's conclusion is its expansion's
                param = None if data.param is None else index[data.param]
                terms = tuple([index[t] for t in data.terms])
                links.append((data.target, param, _picker(terms), _picker(ante), _picker(succ)))
            else:
                concl.append(ante + succ)
        self.exprs, self.opens, self.links = tuple(exprs), tuple(opens), tuple(links)
        self.concl = tuple(dict.fromkeys(i for indices in reversed(concl) for i in indices))
        self.nodes = tuple(reversed(pre))


def _picker(indices: tuple):
    """The function that takes the values at ``indices`` of a list, as a tuple."""
    if len(indices) == 1:
        (i,) = indices
        return lambda values: (values[i],)
    return itemgetter(*indices) if indices else lambda values: ()


def evaluate(
    schema: ProofSchema,
    alpha: int | NumExpr,
    theory: rw.EquationalTheory,
    memo: UnrollMemo | None = None,
) -> UnrollTrace:
    """Unroll the schema at a numeral.

    Expansion replaces every link leaf by the instantiated base or step of
    its target component, inserting a whole-sequent rewrite bridge whenever
    the splice is not literal.  Each link instance is expanded, its
    conclusions normalized, and its normal proof built (see ``_expand``):
    every sequent and witness rewritten and trivial rewrite inferences
    removed, the LK proof the evaluation denotes.  The expanded proof is
    built when ``trace.expanded`` is first read.  Each instance is built
    once, so a subproof that recurs is one shared node and both proofs are
    DAGs (tree walkers still see every occurrence).

    The instance costs fuel as a numeral sum does, its size: a numeral
    larger than the fuel is ``FuelExhausted`` before anything is built.

    ``memo`` defaults to a fresh one that lives for this call.  A caller
    that evaluates the same schema and theory at several numerals may
    pass one memo to all of them: ``g@k`` built for one numeral is then
    reused inside ``g@k+1`` for the next, and a second call at the same
    numeral returns the first call's proofs.  Trace records and fuel
    verdicts are the same either way, and the same as on a fresh theory:
    the fuel bounds each formula's span, which the theory caches with its
    normal form.
    """
    value = alpha if isinstance(alpha, int) else numeral_value(alpha)
    if value is None:
        raise MatchFailure(f"evaluation needs a numeral, got {alpha}")
    if not schema.components:
        raise MatchFailure("a proof schema needs at least one component")
    if value > theory.fuel:
        raise ExpansionsExhausted(theory.fuel, f"instance {value} is larger than the fuel {theory.fuel}")
    alpha = numeral(value)
    memo = UnrollMemo() if memo is None else memo
    if not memo.templates:
        for comp in schema.components:
            memo.templates.setdefault(comp.name, [comp, None, None])
    records: list = []
    lead = schema.components[0]
    pattern = subst(lead.pattern, Substitution({"n": alpha}, {}))
    root = (lead.name, alpha, tuple(FreeVar(v) for v in lead.vars), pattern.ante, pattern.succ)
    entry = _expand(root, theory, memo, records)
    return UnrollTrace(records, proof=entry[1], entry=entry)


def _expand(root, theory, memo: UnrollMemo, records: list) -> list:
    """The ``memo.links`` entry of the link ``root``, given as (target,
    parameter expression, terms, displayed antecedent, displayed
    succedent).

    Three passes over the instances this call meets for the first time,
    which build their normal proofs only.
    Expansion visits links depth first and right to left, so records, fuel
    verdicts and the first error come in the order a last-in-first-out
    worklist gives.  The loop keeps its own stack: a chain of self-links is
    as deep as the numeral is large.  A link instance met again while its
    own expansion is open would expand without end, so it is a failure.
    Then the conclusion formulas of each new instance are normalized,
    parents before kids: a kid's formulas are mostly subterms of its
    parent's, which the theory's cache then already holds.  Last, each new
    instance's normal proof is built in the order its expansion closed, so
    every kid before its parent.

    Both rewriting passes come after expansion ends, so a rewrite error
    never precedes an expansion error, and only then does the memo take
    the new entries, so it holds only whole ones."""
    # Frames: (entry, instantiated expressions, link leaves not yet
    # visited, the entries of the visited ones).
    stack: list = []
    closed: list = []  # (entry, normal forms as far as computed), in the order expansions closed
    new: dict = {}  # key -> entry, its hi None while its expansion is open
    links, templates, fuel = memo.links, memo.templates, theory.fuel

    def visit(target, param, terms, ante, succ) -> list:
        # Fuel is the number of link expansions.  A fresh link is checked
        # before it expands; a reused one after its records are replayed,
        # which is when a per-expansion check inside the replayed subtree
        # would first have fired.
        if len(records) > fuel:
            raise ExpansionsExhausted(fuel)
        known = templates.get(target)
        if known is None:
            raise MatchFailure(f"link target {target} is not declared")
        comp = known[0]
        if param is None:
            raise MatchFailure(f"link to {target} has no parameter expression")
        try:
            value = numeral_value(rw.eval_numeric(param, theory))
        except ValueError as exc:  # a parameter other than n outlives the substitution
            raise MatchFailure(f"link to {target}: {exc}") from None
        key = (target, value, terms, ante, succ, param)
        hit = links.get(key) or new.get(key)
        if hit is not None:
            _, _, src, lo, hi, _ = hit
            if hi is None:
                raise MatchFailure(f"link to {comp.name} at {value} recurs inside its own expansion")
            records.extend(src[lo:hi])
            if len(records) > fuel + 1:
                raise ExpansionsExhausted(fuel)
            return hit
        var_map = dict(zip(comp.vars, terms))
        if value == 0 or comp.step is None:
            sub = Substitution({}, var_map)
            if known[1] is None:
                known[1] = _Template(comp.base, frozenset(comp.vars), frozenset())
            template = known[1]
        else:
            if known[2] is None:
                known[2] = (comp.step_offset(), _Template(comp.step, frozenset(comp.vars), frozenset({"n"})))
            offset, template = known[2]
            if value < offset:
                raise MatchFailure(f"link to {comp.name} at {value} cannot match step parameter {comp.step_param}")
            sub = Substitution({"n": numeral(value - offset)}, var_map)
        vals, kids = _instance(template, sub), []
        records.append((comp.name, value, param))
        entry = new[key] = [None, None, records, len(records) - 1, None, (template, vals, ante, succ, kids)]
        stack.append((entry, vals, list(template.links), kids))
        return entry

    result = visit(*root)
    while stack:
        entry, vals, leaves, kids = stack[-1]
        if leaves:
            target, param, terms_of, ante_of, succ_of = leaves.pop()
            param = None if param is None else vals[param]
            kids.append(visit(target, param, terms_of(vals), ante_of(vals), succ_of(vals)))
            continue
        stack.pop()
        entry[4] = len(records)
        closed.append((entry, [None] * len(vals)))
    # A parent closes after its kids, so reversed closing order puts it first.
    for entry, nfs in reversed(closed):
        template, vals = entry[5][:2]
        for i in template.concl:
            nfs[i] = _normal_form(vals[i], theory)
    for entry, nfs in closed:
        _assemble(entry, nfs, theory)
    links.update(new)
    return result


def _instance(template: _Template, sub: Substitution) -> list:
    """The template's expressions under ``sub``; only the open ones are
    substituted, in the order the template lists them."""
    vals = list(template.exprs)
    for i in template.opens:
        vals[i] = subst(vals[i], sub)
    return vals


def _fill(data: RuleData, fields: tuple, value) -> RuleData:
    """The witness with each expression field ``(key, index)`` set to
    ``value(index)``, in field order."""
    return replace(
        data, **{key: tuple([value(j) for j in i]) if key == "terms" else value(i) for key, i in fields}
    )


def _normal_form(x, theory: rw.EquationalTheory):
    """The normal form of ``x``, from the theory's cache when it is there:
    a cached span never exceeds the fuel, so normalizing it would give the
    same form and never run out."""
    nf = theory._nf_cache.get(x)
    return rw.normalize(x, theory).value if nf is None else nf


def _normal_node(concl: Sequent, rule: RuleName, kids: tuple, data: RuleData, fields: tuple, nf) -> Proof:
    """The normal node over normal premises ``kids``, its witness fields
    rewritten by ``nf``; a rewrite inference that became trivial is spliced
    away, its witness unrewritten."""
    if rule is RuleName.ERULE and kids and kids[0].conclusion == concl:
        # Splice the child, retupled to this node's formula order so
        # witnesses above keep their positions (witness indices only ever
        # address premise tuples).
        child = kids[0]
        if child.conclusion.ante == concl.ante and child.conclusion.succ == concl.succ:
            return child
        return Proof(concl, child.rule, child.premises, child.data)
    return Proof(concl, rule, kids, _fill(data, fields, nf) if fields else data)


def _literal(template: _Template, vals: list, ante: tuple, succ: tuple) -> bool:
    """Whether an instance's expansion ends literally at its displayed
    sequent.  The expanded proof's top node ends at the conclusion of the
    template's root instantiated, also when the root is a link leaf, whose
    expansion ends at the sequent it displays."""
    _, _, ante_of, succ_of, *_ = template.nodes[-1]
    return ante_of(vals) == ante and succ_of(vals) == succ


def _assemble(entry: list, nfs: list, theory):
    """Build the normal proof of the instance of ``entry`` into it: the
    template built bottom-up from the normal forms ``nfs`` of its
    instantiated expressions, its link leaves replaced by the normal proofs
    of their entries, under a whole-sequent rewrite step when the expansion
    is not spliced literally.

    The conclusion formulas are already normalized; the witnesses are
    rewritten node by node in reversed pre-order, and the bridge's sequent
    last."""
    template, vals, ante, succ, kids = entry[5]

    def nf(i):
        if nfs[i] is None:
            nfs[i] = _normal_form(vals[i], theory)
        return nfs[i]

    # Reversed pre-order puts every node after its premises, the last
    # premise first, so a node's premises are the top ``arity`` values,
    # the first premise on top.
    normal = []
    kids = iter(kids)
    for rule, arity, ante_of, succ_of, data, fields, _ in template.nodes:
        if rule is RuleName.LINK:
            normal.append(next(kids)[1])
            continue
        premises = ()
        if arity:
            premises = tuple(normal[: -arity - 1 : -1])
            del normal[-arity:]
        normal.append(_normal_node(Sequent(ante_of(nfs), succ_of(nfs)), rule, premises, data, fields, nf))
    if _literal(template, vals, ante, succ):
        entry[1] = normal[0]
        return
    # The spliced subproof ends at an equal-modulo-rewriting sequent (for
    # instance S^(0+1) against S^1); the bridge's normal form.
    concl = Sequent(tuple([_normal_form(f, theory) for f in ante]), tuple([_normal_form(f, theory) for f in succ]))
    entry[1] = _normal_node(concl, RuleName.ERULE, (normal[0],), _WHOLE, (), nf)


def _expanded(root: list) -> Proof:
    """The expanded proof of the memo entry ``root``, built into every entry
    below it that lacks one, kids first, on a stack of its own: a chain of
    self-links is as deep as the numeral is large.  Each entry's template is
    built from its instantiated expressions, its link leaves replaced by
    their entries' expanded proofs, and spliced under the displayed sequent;
    the entry then drops what only this build needed."""
    stack = [root]
    while stack:
        entry = stack[-1]
        if entry[0] is not None:
            stack.pop()
            continue
        template, vals, ante, succ, kids = entry[5]
        missing = [kid for kid in kids if kid[0] is None]
        if missing:
            stack.extend(missing)
            continue
        stack.pop()
        expanded = []
        kids = iter(kids)
        for rule, arity, ante_of, succ_of, data, fields, opened in template.nodes:
            if rule is RuleName.LINK:
                expanded.append(next(kids)[0])
                continue
            premises = ()
            if arity:
                premises = tuple(expanded[: -arity - 1 : -1])
                del expanded[-arity:]
            witness = _fill(data, fields, vals.__getitem__) if opened else data
            expanded.append(Proof(Sequent(ante_of(vals), succ_of(vals)), rule, premises, witness))
        top = expanded[0]
        if not _literal(template, vals, ante, succ):
            # Keep the displayed sequent and justify the gap with one
            # whole-sequent rewrite inference.
            top = Proof(Sequent(ante, succ), RuleName.ERULE, (top,), _WHOLE)
        entry[0], entry[5] = top, None
    return root[0]


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
