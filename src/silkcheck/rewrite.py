"""The equational theory: rule validation, fuel-bounded normalization, and
equivalence checking.

Rules have the shape head(args) == rhs where the head is a defined function,
defined predicate, or defined numeric function, and the argument patterns
contain no defined individual-sort symbols.  Normalization is leftmost
innermost: children are normalized before the head is rewritten.  Numeric
addition is built in (0 + b -> b, s(a) + b -> s(a + b) and the symmetric
absorptions), so successor towers and +-numerals meet in one normal form.

The theory carries the fuel and caches each normal form beside its span,
the cost of the longest chain of dependent rewrite steps it needs: the
largest span among a node's kids, plus a fired head step's cost (1, or a
numeral sum's size) and its target's span.  The fuel bounds each formula's
span, so a cached answer carries its exact cost and no verdict depends on
what earlier calls left in the cache.  Nodes are hash-consed, so the cache
is keyed by node identity; it keeps repeated unrollings of one schema linear.

Each rule is prepared when its head is first met: its left side compiled
to match's instructions, numeric patterns split, and its right side's
schedule kept, which a step fills straight from the match's binding.  A
numeral is normal on sight: no rule has s or 0 as its head.
"""

from __future__ import annotations

from .syntax import (
    Atom,
    Fn,
    Formula,
    FreeVar,
    Node,
    NumExpr,
    NumFn,
    Param,
    Record,
    Sequent,
    SortMismatch,
    SVar,
    Succ,
    Term,
    Zero,
    _schedule,
    fill,
    formula_eq,
    free_params,
    numeral,
    numeral_value,
    rebuild_shown,
    shown_kids,
    split_succs,
    walk,
)

DEFAULT_FUEL = 100_000
_HEADS = {NumFn: "n", Fn: "t", Atom: "a"}
_setattr = object.__setattr__  # sets a field in a record's own constructor


class FuelExhausted(Exception):
    def __init__(self, steps: int):
        super().__init__(f"no normal form within {steps} rewrite steps")
        self.steps = steps


class StuckTerm(Exception):
    """A ground defined application matched no rule during numeric evaluation."""


class RewriteRule(Record):
    lhs: Node
    rhs: Node
    line: int = 0


def head_key(node: Node) -> tuple | None:
    kind = _HEADS.get(type(node))
    return None if kind is None else (kind, node.pred if kind == "a" else node.sym)


class EquationalTheory:
    _fields = ("rules", "fuel")
    __eq__, __repr__ = Record.__eq__, Record.__repr__  # value equality, so unhashable

    def __init__(self, rules: tuple = (), fuel: int = DEFAULT_FUEL):
        self.rules = tuple(rules)
        self.fuel = fuel
        self._index, self._nf_cache, self._spans, self._ready = {}, {}, {}, {}  # spans: nonzero only
        for rule in self.rules:
            key = head_key(rule.lhs)
            if key is not None:
                self._index.setdefault(key, []).append(rule)


EMPTY_THEORY = EquationalTheory()


# ---------------------------------------------------------------------------
# Validation


class TheoryIssue(Record):
    rule_index: int
    message: str


def _rule_vars(node: Node) -> frozenset:
    """The parameters, ("p", name), and individual variables, ("v", name),
    free in node; a bound one is named $h."""
    kinds = {Param: "p", FreeVar: "v"}
    return frozenset((kinds[type(n)], n.name) for n in walk(node) if type(n) in kinds and n.name[0] != "$")


def validate_theory(theory: EquationalTheory) -> tuple:
    """The TheoryIssues of rules violating the head/argument shape constraints.

    Convergence is assumed, not verified; non-termination surfaces as fuel
    exhaustion at normalization time.
    """
    issues = []
    seen_lhs: set = set()  # nodes are hash-consed: equal left sides are one node
    for i, rule in enumerate(theory.rules):
        key = head_key(rule.lhs)
        if key is None:
            issues.append(TheoryIssue(i, f"left side {rule.lhs} is not a defined-symbol application"))
            continue
        if key == ("n", "+"):
            issues.append(TheoryIssue(i, "numeric + is built in and cannot be redefined"))
            continue
        for arg in rule.lhs.kids():
            for sub in walk(arg):
                # Numeric superscript expressions are tolerated in patterns;
                # only defined individual symbols and predicates are barred.
                sub_key = head_key(sub)
                if sub_key is not None and sub_key[0] != "n" and sub_key in theory._index:
                    issues.append(TheoryIssue(i, f"defined symbol {sub} occurs inside the argument {arg}"))
        bound = _rule_vars(rule.lhs)
        extra = _rule_vars(rule.rhs) - bound
        if extra:
            names = ", ".join(sorted(n for _, n in extra))
            issues.append(TheoryIssue(i, f"right side uses variables not bound on the left: {names}"))
        # A match binds a left-side variable to a term, which a schematic
        # variable's name cannot become.
        clash = ", ".join(sorted({n.name for n in walk(rule.rhs) if type(n) is SVar and ("v", n.name) in bound}))
        if clash:
            issues.append(TheoryIssue(i, f"right side uses left-side variables as schematic variables: {clash}"))
        if rule.lhs in seen_lhs:
            issues.append(TheoryIssue(i, f"duplicate left side {rule.lhs}"))
        seen_lhs.add(rule.lhs)
    return tuple(issues)


# ---------------------------------------------------------------------------
# Matching

_VAR, _NUM, _SVAR, _HEAD = range(4)  # the kinds of match's instructions


def _compile(todo: list) -> tuple:
    """The instructions for the patterns on the worklist todo, one (op, a, b)
    per node, in the order match's worklist pops subjects: bind variable a;
    b successors over a numeral (a None), over parameter a, which binds the
    rest, or over a head the next instruction reads (a True); schematic
    variable a; or head a (None: not checked; False: no subject's) with b
    arguments."""
    ops = []
    while todo:
        p = todo.pop()
        if isinstance(p, NumExpr):  # k + 1 matches s(n), n + 1 and numerals alike
            p, offset = split_succs(p)
            ops.append((_NUM, True if type(p) is NumFn else p, offset))
            if type(p) is not NumFn:
                continue
        if type(p) is FreeVar or type(p) is SVar:
            ops.append((_VAR, p, 0) if type(p) is FreeVar else (_SVAR, p.name, 0))
        else:
            ops.append((_HEAD, head_key(p) or False, len(p.kids())))
        todo.extend(p.kids())
    return tuple(ops)


def match(pattern, subject: Node, binding: dict) -> bool:
    """Whether subject instantiates pattern, a node or its instructions,
    extending binding from the pattern's variable and parameter nodes to
    their values: a variable binds on first sight and recurs with it."""
    todo = [subject]
    for op, a, b in pattern if type(pattern) is tuple else _compile([pattern]):
        s = todo.pop()
        if op == _HEAD:
            if a is not None and head_key(s) != a or len(s.args) != b:
                return False
            todo += s.args
            continue
        if op == _NUM:
            if not isinstance(s, NumExpr):
                return False
            s, offset = split_succs(s)
            if type(a) is not Param:
                if offset != b or (s is None) != (a is None):
                    return False
                todo += [s] if a else []
                continue
            if offset < b:
                return False
            if s is None:
                s, offset = numeral(offset - b), b
            for _ in range(offset - b):
                s = Succ(s)
        elif op == _SVAR:
            if type(s) is not SVar or s.name != a:
                return False
            todo.append(s.index)
            continue
        if binding.setdefault(a, s) is not s:
            return False
    return True


def _prepare(rule: RewriteRule) -> tuple:
    """A rule as head steps use it, its head chosen by the index: the
    instructions for its left side, which check the root's arity only, the
    variables they bind in binding order, and its right side's schedule."""
    ops = ((_HEAD, None, len(rule.lhs.args)),) + _compile(list(rule.lhs.args))
    names = tuple(dict.fromkeys([a for op, a, _ in ops if op == _VAR]))
    domain = frozenset([a.name for _, a, _ in ops if type(a) is Param]), frozenset([v.name for v in names])
    return ops, names, _schedule(rule.rhs, domain), rule.rhs


# ---------------------------------------------------------------------------
# Normalization


class NormalizationResult(Record):
    value: Node
    steps_used: int

    def __init__(self, value, steps_used):
        _setattr(self, "value", value)
        _setattr(self, "steps_used", steps_used)


def _try_head(node: Node, theory: EquationalTheory) -> tuple | None:
    """The head step at node, as (target, cost), or None."""
    if isinstance(node, NumFn) and node.sym == "+":
        a, b = node.args
        va, vb = numeral_value(a), numeral_value(b)
        if va is not None and vb is not None:
            # Building the sum costs its size in fuel, so towers cannot grow
            # past what the fuel covers (iterated exponentials otherwise
            # explode long before the step count does).
            return numeral(va + vb), max(va + vb, 1)
        if isinstance(a, Zero):
            return b, 1
        if isinstance(a, Succ):
            return Succ(NumFn("+", (a.prev, b))), 1
        if isinstance(b, Zero):
            return a, 1
        if isinstance(b, Succ):
            return Succ(NumFn("+", (a, b.prev))), 1
        return None
    key = head_key(node)
    rules = theory._ready.get(key)
    if rules is None:  # _ready holds a head's rules as _prepare leaves them, from its first step
        rules = theory._ready[key] = [_prepare(rule) for rule in theory._index.get(key, ())]
    for ops, names, schedule, rhs in rules:
        binding: dict = {}
        if match(ops, node, binding):
            for var in names:
                if not isinstance(binding[var], (Term, NumExpr)):
                    raise SortMismatch(f"variable {var.name} must map to a term, got {binding[var]!r}")
            return fill(rhs, schedule, binding), 1
    return None


def _normalize(root: Node, theory: EquationalTheory) -> tuple:
    """(normal form, span) of root; FuelExhausted when the span passes the fuel."""
    cache, spans, fuel = theory._nf_cache, theory._spans, theory.fuel
    # A frame is [node, cost of the chain that led to it, head-step target,
    # the node's span up to that target].  The target lives in the frame, not
    # in a table keyed by node: a rewrite cycle revisits one shared node, and
    # each trip opens a new frame down a longer chain until the fuel runs out.
    # A binder's body is normalized opened under its display name (not free in
    # it) and closed again; a rule's right side binds only $-names: no capture.
    stack = [[root, 0, None, 0]]
    while stack:
        frame = stack[-1]
        cur, chain, target, upto = frame
        if cur in cache:
            if chain + spans.get(cur, 0) > fuel:
                raise FuelExhausted(fuel)
            stack.pop()
            continue
        reb = None
        if target is not None:  # the head step was taken on an earlier visit; its target is normal now
            nf, span = cache[target], upto + spans.get(target, 0)
        elif (type(cur) is Succ or type(cur) is Zero) and numeral_value(cur) is not None:
            nf, span = cur, 0  # a numeral is normal: no rule has s or 0 as its head
        else:
            kids = shown_kids(cur)
            for kid in kids:  # a frame whose kids are all cached allocates no pending list
                if kid not in cache:  # a cached kid past the fuel fails in the order a fresh run visits it
                    stack.extend(
                        [[k, chain, None, 0] for k in kids if k not in cache or chain + spans.get(k, 0) > fuel]
                    )
                    break
            if stack[-1] is not frame:
                continue
            if len(kids) == 1:  # a tower's frame reads its one kid, the loop's ``kid``, directly
                nk = cache[kid]
                reb, below = cur if nk is kid else rebuild_shown(cur, (nk,)), spans.get(kid, 0)
            else:
                new_kids = tuple([cache[k] for k in kids])
                reb = cur if new_kids == kids else rebuild_shown(cur, new_kids)  # nodes compare by identity
                below = max([spans.get(k, 0) for k in kids], default=0)
            if chain + below > fuel:  # where a fresh run fails in a kid, before any head step
                raise FuelExhausted(fuel)
            # A cached reb took its head step, which added spans[reb]: the same form, span and verdict.
            step = None if reb in cache else _try_head(reb, theory)
            if step is None:
                nf, span = cache.get(reb, reb), below + spans.get(reb, 0)
            else:
                target, cost = step
                if target not in cache:
                    if chain + below + cost > fuel:
                        raise FuelExhausted(fuel)
                    frame[2:] = target, below + cost
                    stack.append([target, chain + below + cost, None, 0])
                    continue
                nf, span = cache[target], below + cost + spans.get(target, 0)
        if chain + span > fuel:  # so no cached span passes the fuel
            raise FuelExhausted(fuel)
        stack.pop()
        # A span goes in before its form: a thread that finds the form finds it.
        if span:
            spans[cur] = span
        cache[cur] = nf
        if reb is not None:  # reb's kids are normal: it spans what its head step adds
            if span > below:
                spans[reb] = span - below
            cache[reb] = nf
    return cache[root], spans.get(root, 0)


def normalize(x, theory: EquationalTheory) -> NormalizationResult:
    """Rewrite to normal form; sequents are normalized formula by formula.
    ``steps_used`` is the span, for a sequent the largest of its formulas'."""
    if isinstance(x, Sequent):
        ante = [_normalize(f, theory) for f in x.ante]
        succ = [_normalize(f, theory) for f in x.succ]
        value = Sequent(tuple([nf for nf, _ in ante]), tuple([nf for nf, _ in succ]))
        return NormalizationResult(value, max([span for _, span in ante + succ], default=0))
    return NormalizationResult(*_normalize(x, theory))


def equivalent(a: Node, b: Node, theory: EquationalTheory) -> bool:
    """Whether the theory proves a == b, decided by joinability of normal
    forms (complete for convergent theories)."""
    na, nb = normalize(a, theory).value, normalize(b, theory).value
    if isinstance(na, Formula) and isinstance(nb, Formula):
        return formula_eq(na, nb)
    return na == nb


def sequent_equivalent(a: Sequent, b: Sequent, theory: EquationalTheory) -> bool:
    return normalize(a, theory).value == normalize(b, theory).value


def eval_numeric(e: NumExpr, theory: EquationalTheory) -> NumExpr:
    """Normal form of a ground numeric expression, which must be a numeral."""
    if numeral_value(e) is not None:
        return e
    params = free_params(e)
    if params:
        raise ValueError(f"numeric expression {e} is not ground: {sorted(params)}")
    nf = normalize(e, theory).value
    if numeral_value(nf) is None:
        raise StuckTerm(f"{e} evaluates to {nf}, which is not a numeral")
    return nf
