"""Proof schema components, well-formedness, and evaluation by unrolling.

A component pairs a base proof (parameter 0) and a step proof (parameter
n + c) for one declared end-sequent pattern.  Evaluation instantiates the
free parameter with a numeral and expands links: parameter 0 unfolds to the
base, a positive numeral to the step at the predecessor.  When the unfolded
subproof's end-sequent is not literally the sequent the link displayed, a
whole-sequent rewrite inference bridges the two; the bottommost such bridge
is visible in the unrolled figure as the final numeral-cleanup step.

Each link instance, keyed by its target, value, terms, displayed sequent
and parameter expression, is unrolled once per ``UnrollMemo`` into one
record, a ``_LinkInstance``, in three passes: expansion instantiates its
template, its conclusion formulas are normalized, parents before kids, so
a kid's come mostly from the cache, and its normal proof is built, kids
first.  Its expanded proof is built only when a caller first reads it,
kids first again, from the expressions the record keeps until then.  One
node loop, ``_build``, builds either proof, given the stage's node
constructor and its forms of the expressions.  A recurring instance is
the same nodes, so both proofs are DAGs.  An instance keeps only its own
expansion record and how many records its expansion covers, so records
are counted, not copied, and listed on each read, kept nowhere.  The memo
also holds each component's base and step compiled for instantiation.  A
memo lives for one ``evaluate`` call unless the caller passes one to
several calls under one theory, as ``stats`` does across its range of
numerals, top numeral first, and ``unroll --check`` for the unrolling it
prints and the one it checks.

``evaluate`` returns the root instance, which gives both stages and their
inference counts off the records: the normal form, ``proof``, with every
sequent rewritten and trivial rewrite steps collapsed, which is a plain LK
proof, and, on first read, ``expanded``, the proof with its rewrite
inferences intact (the unrolled figure).
"""

from __future__ import annotations

from collections import Counter
from functools import partial
from operator import attrgetter, itemgetter

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
    count_inferences,
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
    Term,
    _schedule,
    fill,
    fold,
    free_names,
    numeral,
    numeral_value,
    split_succs,
    subst,
    walk,
)


def replace(record, **changes):
    """A copy of record with the named fields changed."""
    cls = type(record)
    if changes.keys() - cls._fields:
        raise TypeError(f"{cls.__name__} has no field {sorted(changes.keys() - cls._fields)}")
    if type(cls) is not type or cls.__init__ is not Record.__init__:  # a node, or its own constructor
        return cls(*[changes[name] if name in changes else getattr(record, name) for name in cls._fields])
    copy = object.__new__(cls)
    for name in cls._fields:
        object.__setattr__(copy, name, changes[name] if name in changes else getattr(record, name))
    return copy


class MatchFailure(Exception):
    """A link cannot be expanded: its target is not declared, its parameter
    is not ground, or its numeral cannot be matched against the step
    parameter shape."""


EVALUATION_ERRORS = (MatchFailure, SortMismatch, rw.FuelExhausted, rw.StuckTerm)  # what ``evaluate`` reports


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
    applications, so s(n), n+1 and 1+n all coincide.  Built bottom-up by
    ``fold``, an expression's kids being the numeric arguments of its
    split_succs base, which skips a successor tower in one step."""
    done: dict = {}

    def combine(cur, _):
        base, offset = split_succs(cur)
        if base is None:
            return numeral(offset)
        if isinstance(base, NumFn) and base.args:
            base = NumFn(base.sym, tuple(done.get(a, a) for a in base.args))
        for _ in range(offset):
            base = Succ(base)
        return base

    return fold(e, combine, done, (), _num_args)


def _num_args(e: NumExpr) -> list:
    """The numeric arguments of the split_succs base of ``e``."""
    base, _ = split_succs(e)
    return [a for a in base.args if isinstance(a, NumExpr)] if isinstance(base, NumFn) else []


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
        if node.rule == RuleName.LINK and node.data.target in order:
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
_N = Param("n")  # a step's parameter
# The expression fields of a witness other than a link's, in field order,
# with their positions; a link leaf is replaced, so its witness is not rebuilt.
_EXPR_KEYS = {key: RuleData._fields.index(key) for key in ("formula", "term", "repl")}


class UnrollMemo:
    """Work that evaluations of one schema, under one theory, share: those
    of a ``stats`` range, or the two of ``unroll --check``.  Each instance
    is kept once, with its own expansion record and record count, however
    many evaluations reach it.

    ``links`` maps a link instance's key to its ``_LinkInstance``.  The key
    is (target, value, link terms, displayed antecedent, displayed
    succedent, parameter expression); every part is hash-consed or a tuple
    of hash-consed nodes, so hashing and comparison are by identity.  The
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


class _LinkInstance:
    """One link instance, unrolled once per memo; ``evaluate`` returns the
    root one.

    It keeps its ``template``, the template's expressions instantiated,
    ``vals``, the sequent ``ante`` |- ``succ`` that the link displays, the
    instances of its link leaves, ``kids``, right to left, its own
    expansion record (component, value, parameter expression), ``record``,
    and ``expansion_count``, the number of records its expansion covers,
    its own and its kids' at every occurrence, None while the expansion is
    open.  ``proof`` is its normal proof; ``figure`` its expanded proof,
    the unrolled figure, None until ``expanded`` is first read, when
    ``vals`` is dropped.  ``bridged`` is 1 when its expansion ends under a
    whole-sequent rewrite step, ``spliced`` counts the rewrite steps its
    normal build spliced away, and ``counts``, None until ``inferences`` is
    first read, holds the inference counts of its expanded proof and the
    rewrite steps spliced in it."""

    __slots__ = (
        "template", "vals", "ante", "succ", "kids", "record", "expansion_count", "proof", "figure", "bridged",
        "spliced", "counts",
    )

    def __init__(self, template, vals: list, ante: tuple, succ: tuple, record: tuple):
        self.template, self.vals, self.ante, self.succ, self.kids = template, vals, ante, succ, []
        self.record, self.expansion_count = record, None
        self.proof = self.figure = self.counts = None
        ante_of, succ_of = template.nodes[-1][2:4]
        self.bridged, self.spliced = int(ante_of(vals) != ante or succ_of(vals) != succ), 0

    @property
    def expansions(self) -> list:
        """One record per link expansion, replayed ones included, in the
        order expansion met them: a pre-order walk over the kids in the
        order expansion visited them, listed on each read and kept nowhere.
        A shared instance is walked at every occurrence, where expansion
        counted its records again."""
        records, stack = [], [self]
        while stack:
            inst = stack.pop()
            records.append(inst.record)
            stack.extend(reversed(inst.kids))
        return records

    @property
    def expanded(self) -> Proof:
        """The expanded proof, built on first read with every missing one
        below it, kids first, by ``fold``: a chain of self-links is as deep
        as the numeral is large.  Each instance keeps its own, so instances
        that share a kid read the same proof."""
        if self.figure is None:
            missing = lambda inst: [kid for kid in inst.kids if kid.figure is None]
            fold(self, lambda inst, _: _figure(inst), {}, (), missing)
        return self.figure

    def inferences(self) -> tuple:
        """``count_inferences`` of ``expanded`` and of ``proof``, read off the
        instance records: no expanded node is built."""
        expanded, spliced = _tally(self)
        normal = Counter(expanded)
        if spliced:  # every spliced step is an ``E`` of the expanded proof
            left = normal.pop(RuleName.ERULE) - spliced
            if left:
                normal[RuleName.ERULE] = left
        return expanded, normal


class _Template:
    """A base or step proof compiled for instantiation.

    ``exprs`` holds its distinct expressions, each node's conclusion
    formulas (antecedent first) and then its witness expressions, in
    pre-order of first occurrence.  ``plan`` is what instantiation
    replays: for each expression an instance can change, one that mentions
    the parameter n (of a step) or a variable of the component, its index,
    the expression, and its ``syntax._schedule`` under that fixed domain,
    all computed here, once.  ``concl`` holds the indices of the
    conclusion formulas of the nodes other than link leaves, in the order
    a walk of ``nodes`` first meets them.  ``nodes`` lists the nodes in
    reversed pre-order as (rule, arity, antecedent picker, succedent
    picker, witness, witness fields, whether a field is open); a picker
    takes a sequent side from a list indexed like ``exprs``, and the
    witness fields are () for a witness without expressions, else its
    field values in field order and its expression fields as (position,
    index).  ``links`` lists the link leaves in pre-order as (target,
    parameter index, terms picker, antecedent picker, succedent picker);
    ``counts`` its inference counts."""

    __slots__ = ("exprs", "plan", "concl", "nodes", "links", "counts")

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
            witness = [(i, getattr(data, key)) for key, i in _EXPR_KEYS.items() if getattr(data, key) is not None]
            slots = tuple([(position, at(e)) for position, e in witness])
            fields = (tuple([getattr(data, key) for key in RuleData._fields]), slots) if slots else ()
            opened = any(changes(e) for _, e in witness)
            pre.append((node.rule, len(node.premises), _picker(ante), _picker(succ), data, fields, opened))
            if node.rule == RuleName.LINK:  # a link leaf's conclusion is its expansion's
                param = None if data.param is None else at(data.param)
                terms = tuple([at(t) for t in data.terms])
                links.append((data.target, param, _picker(terms), _picker(ante), _picker(succ)))
            else:
                concl.append(ante + succ)
        domain = (params, names)
        self.exprs, self.links = tuple(exprs), tuple(links)
        self.plan = tuple([(i, exprs[i], _schedule(exprs[i], domain)) for i in opens])
        self.concl = tuple(dict.fromkeys(i for indices in reversed(concl) for i in indices))
        self.nodes = tuple(reversed(pre))
        self.counts = count_inferences(proof)


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
) -> _LinkInstance:
    """Unroll the schema at a numeral: the root ``_LinkInstance``, the
    instance of the lead component's link at the numeral.

    Expansion replaces every link leaf by the instantiated base or step of
    its target component, inserting a whole-sequent rewrite bridge whenever
    the splice is not literal.  Each link instance is expanded, its
    conclusions normalized, and its normal proof built (see ``_expand``):
    every sequent and witness rewritten and trivial rewrite inferences
    removed, the LK proof the evaluation denotes.  The expanded proof is
    built by the same node loop, ``_build``, when ``expanded`` is first
    read.  Each instance is built once, so a subproof that recurs is one
    shared node and both proofs are DAGs (tree walkers still see every
    occurrence).

    The instance costs fuel as a numeral sum does, its size: a numeral
    larger than the fuel is ``FuelExhausted`` before anything is built.

    ``memo`` defaults to a fresh one that lives for this call.  A caller
    that evaluates the same schema and theory at several numerals may
    pass one memo to all of them: every instance built for one numeral is
    then reused by the others, in any order, so after the largest numeral
    of a lead that links to itself each smaller one is a memo hit, and a
    second call at the same numeral returns the first call's proofs.
    Expansion records and fuel verdicts are the same either way, and the
    same as on a fresh theory: the fuel bounds each formula's span, which
    the theory caches with its normal form.  No record list is kept:
    instances hold their own records, which ``expansions`` lists on each
    read, so the memory a shared memo holds grows with the instances it
    keeps, not with the numerals evaluated.  A failed call leaves the memo
    as it was.
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
    lead = schema.components[0]
    pattern = subst(lead.pattern, Substitution({"n": alpha}, {}))
    root = (lead.name, alpha, tuple(FreeVar(v) for v in lead.vars), pattern.ante, pattern.succ)
    return _expand(root, theory, memo)


def _expand(root, theory, memo: UnrollMemo) -> _LinkInstance:
    """The instance of the link ``root``, given as (target, parameter
    expression, terms, displayed antecedent, displayed succedent).

    Three passes over the instances this call meets for the first time,
    which build their normal proofs only.
    Expansion visits links depth first and right to left, so records, fuel
    verdicts and the first error come in the order a last-in-first-out
    worklist gives.  The loop keeps its own stack of (instance, link leaves
    not yet visited): a chain of self-links is as deep as the numeral is
    large.  A link instance met again while its own expansion is open
    would expand without end, so it is a failure.  The loop counts
    expansion records and keeps none: a fresh instance adds its own, a
    reused one its ``expansion_count``, which is what the count grew by
    while it was open.  Then the conclusion formulas of each new instance are
    normalized, parents before kids: a kid's formulas are mostly subterms
    of its parent's, which the theory's cache then already holds.  Last,
    each new instance's normal proof is built by ``_build`` in the order
    its expansion closed, so every kid before its parent.

    Both rewriting passes come after expansion ends, so a rewrite error
    never precedes an expansion error, and only then does the memo take
    the new instances, so it holds only whole ones."""
    stack: list = []  # (instance, link leaves not yet visited, count when it opened)
    closed: list = []  # the new instances, in the order their expansions closed
    new: dict = {}  # key -> instance, its count None while its expansion is open
    links, templates, fuel = memo.links, memo.templates, theory.fuel
    count = 0  # expansion records so far, replayed ones included

    def visit(target, param, terms, ante, succ) -> _LinkInstance:
        """The instance of one link, from the memos or new: a new one is
        its target's base or step template instantiated by ``_instance``,
        over a memo seeded with n, for a step, and the component's
        variables, which its plan fills; it builds no ``Substitution``.

        Fuel is the number of link expansions.  A fresh link is checked
        before it expands; a reused one after its records are counted,
        which is when a per-expansion check inside the reused subtree
        would first have fired."""
        nonlocal count
        if count > fuel:
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
            if hit.expansion_count is None:
                raise MatchFailure(f"link to {comp.name} at {value} recurs inside its own expansion")
            count += hit.expansion_count
            if count > fuel + 1:
                raise ExpansionsExhausted(fuel)
            return hit
        if value == 0 or comp.step is None:
            seeded = _seed(comp.vars, terms, {})
            if known[1] is None:
                known[1] = _Template(comp.base, frozenset(comp.vars), frozenset())
            template = known[1]
        else:
            if known[2] is None:
                known[2] = (comp.step_offset(), _Template(comp.step, frozenset(comp.vars), frozenset({"n"})))
            offset, template = known[2]
            if value < offset:
                raise MatchFailure(f"link to {comp.name} at {value} cannot match step parameter {comp.step_param}")
            seeded = _seed(comp.vars, terms, {_N: numeral(value - offset)})
        vals = _instance(template, seeded)
        inst = new[key] = _LinkInstance(template, vals, ante, succ, (comp.name, value, param))
        stack.append((inst, list(template.links), count))
        count += 1
        return inst

    result = visit(*root)
    while stack:
        inst, leaves, start = stack[-1]
        if leaves:
            target, param, terms_of, ante_of, succ_of = leaves.pop()
            vals = inst.vals
            param = None if param is None else vals[param]
            inst.kids.append(visit(target, param, terms_of(vals), ante_of(vals), succ_of(vals)))
            continue
        stack.pop()
        inst.expansion_count = count - start
        closed.append(inst)
    # A parent closes after its kids, so reversed closing order puts it first.
    forms: dict = {}  # instance -> normal forms of its conclusion formulas
    cached = theory._nf_cache.get
    for inst in reversed(closed):
        vals = inst.vals
        nfs = forms[inst] = [None] * len(vals)
        for i in inst.template.concl:
            nfs[i] = cached(vals[i]) or _normal_form(vals[i], theory)
    form = lambda side: tuple([_normal_form(f, theory) for f in side])
    node = partial(_normal_node, theory)
    for inst in closed:
        inst.proof = _build(inst, forms.pop(inst), form, node, attrgetter("proof"))  # freed once built
    links.update(new)
    return result


def _seed(names: tuple, terms: tuple, memo: dict) -> dict:
    """``memo`` with each variable of ``names`` mapped to its term, as
    ``Substitution`` seeds its memo: a later name of the same spelling wins,
    and a value that is not a term is a ``SortMismatch``."""
    for name, term in dict(zip(names, terms)).items():
        if not isinstance(term, (Term, NumExpr)):
            raise SortMismatch(f"variable {name} must map to a term, got {term!r}")
        memo[FreeVar(name)] = term
    return memo


def _instance(template: _Template, memo: dict) -> list:
    """The template's expressions under ``memo``, a seeded substitution
    memo: its plan replayed, each open expression filled over the schedule
    the template compiled, in the order the template lists them."""
    vals = list(template.exprs)
    for i, expr, schedule in template.plan:
        vals[i] = fill(expr, schedule, memo)
    return vals


def _fill(fields: tuple, value) -> RuleData:
    """The witness a template node's ``fields`` describe, with each
    expression field (position, index) set to ``value(index)``, in field
    order."""
    args, slots = fields
    args = list(args)
    for position, i in slots:
        args[position] = value(i)
    return RuleData(*args)


def _normal_form(x, theory: rw.EquationalTheory):
    """The normal form of ``x``, from the theory's cache when it is there:
    a cached span never exceeds the fuel, so normalizing it would give the
    same form and never run out."""
    nf = theory._nf_cache.get(x)
    return rw.normalize(x, theory).value if nf is None else nf


def _build(inst: _LinkInstance, values: list, form, node, kid_proof) -> Proof:
    """One stage of the instance's proof: its template built bottom-up,
    each node by ``node(instance, conclusion, rule, premises, witness,
    witness fields, whether a field is open)`` from the stage's forms
    ``values`` of the conclusion formulas, each link leaf replaced by
    ``kid_proof`` of its instance, and all under a whole-sequent rewrite
    step to the displayed sequent, each side in the stage's ``form``, if
    the instance is ``bridged``."""
    built, kids = [], iter(inst.kids)
    # Reversed pre-order puts every node after its premises, the last
    # premise first, so a node's premises are the top ``arity`` values,
    # the first premise on top.
    for rule, arity, ante_of, succ_of, data, fields, opened in inst.template.nodes:
        if rule == RuleName.LINK:
            built.append(kid_proof(next(kids)))
            continue
        premises = ()
        if arity:
            premises = tuple(built[: -arity - 1 : -1])
            del built[-arity:]
        built.append(node(inst, Sequent(ante_of(values), succ_of(values)), rule, premises, data, fields, opened))
    if not inst.bridged:
        return built[0]
    return node(inst, Sequent(form(inst.ante), form(inst.succ)), RuleName.ERULE, (built[0],), _WHOLE, (), False)


def _normal_node(theory, inst, concl, rule, premises, data, fields, opened) -> Proof:
    """The normal node over normal premises, its conclusion normal, its
    witness fields rewritten to normal form; a rewrite inference that
    became trivial is spliced away, its witness unrewritten, and counted in
    the instance's ``spliced``."""
    if rule == RuleName.ERULE and premises and premises[0].conclusion == concl:
        # Splice the premise, retupled to this node's formula order so
        # witnesses above keep their positions (witness indices only ever
        # address premise tuples).
        inst.spliced += 1
        child = premises[0]
        if child.conclusion.ante == concl.ante and child.conclusion.succ == concl.succ:
            return child
        return Proof(concl, child.rule, child.premises, child.data)
    vals = inst.vals
    return Proof(concl, rule, premises, _fill(fields, lambda i: _normal_form(vals[i], theory)) if fields else data)


def _expanded_node(inst, concl, rule, premises, data, fields, opened) -> Proof:
    """The expanded node: the template's node instantiated."""
    return Proof(concl, rule, premises, _fill(fields, inst.vals.__getitem__) if opened else data)


def _figure(inst: _LinkInstance) -> None:
    """Set the instance's expanded proof, built by ``_build`` on its kids';
    the instance then drops ``vals``, which only this build still needed."""
    # ``tuple`` of a tuple is that tuple: the expanded form of a side.
    inst.figure, inst.vals = _build(inst, inst.vals, tuple, _expanded_node, attrgetter("figure")), None


def _tally(root: _LinkInstance) -> tuple:
    """The inference counts of the root's expanded proof and the rewrite
    steps spliced out of its normal one, in one walk over the instance
    occurrences below the root: each adds its template's counts, one ``E``
    if it is bridged, and its spliced steps.  An instance counted before,
    an earlier numeral's root, adds its counts whole and is not entered, so
    the walk meets at most ``expansion_count`` occurrences.  Only the root
    keeps its counts, not every link of a chain of self-links, which is as
    deep as the numeral is large."""
    if root.counts is None:
        weight, bridged, spliced, stack = {}, 0, 0, [root]  # template or counted instance -> occurrences
        while stack:
            inst = stack.pop()
            if inst.counts is None:
                source = inst.template
                bridged, spliced = bridged + inst.bridged, spliced + inst.spliced
                stack.extend(inst.kids)
            else:
                source, spliced = inst, spliced + inst.counts[1]
            weight[source] = weight.get(source, 0) + 1
        expanded = {RuleName.ERULE: bridged}
        for source, n in weight.items():
            own = source.counts if type(source) is _Template else source.counts[0]
            for rule, k in own.items():
                expanded[rule] = expanded.get(rule, 0) + n * k
        root.counts = Counter({rule: k for rule, k in expanded.items() if k}), spliced
    return root.counts


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
    except EVALUATION_ERRORS as exc:
        report = CheckReport()
        report.failures.append(Failure((), "evaluate", str(exc)))
        return report
    report = check_proof(trace.proof, MODE_LK, theory)
    expected = rw.normalize(Sequent(trace.ante, trace.succ), theory).value
    if not trace.proof.conclusion == expected:
        report.failures.append(
            Failure((), "end-sequent", f"evaluation ends at {trace.proof.conclusion}, expected {expected}")
        )
    return report
