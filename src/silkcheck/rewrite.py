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
    SVar,
    Substitution,
    Succ,
    Zero,
    formula_eq,
    free_params,
    numeral,
    numeral_value,
    rebuild_shown,
    shown_kids,
    split_succs,
    subst,
    walk,
)

DEFAULT_FUEL = 100_000
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
    if isinstance(node, NumFn):
        return ("n", node.sym)
    if isinstance(node, Fn):
        return ("t", node.sym)
    if isinstance(node, Atom):
        return ("a", node.pred)
    return None


class EquationalTheory:
    _fields = ("rules", "fuel")
    __eq__, __repr__ = Record.__eq__, Record.__repr__  # value equality, so unhashable

    def __init__(self, rules: tuple = (), fuel: int = DEFAULT_FUEL):
        self.rules = tuple(rules)
        self.fuel = fuel
        self._index, self._nf_cache, self._spans = {}, {}, {}  # spans: nonzero only
        for rule in self.rules:
            key = head_key(rule.lhs)
            if key is not None:
                self._index.setdefault(key, []).append(rule)

    def defined_heads(self) -> frozenset:
        return frozenset(self._index)


EMPTY_THEORY = EquationalTheory()


# ---------------------------------------------------------------------------
# Validation


class TheoryIssue(Record):
    rule_index: int
    message: str


class TheoryReport(Record):
    issues: tuple

    @property
    def ok(self) -> bool:
        return not self.issues


def _rule_vars(node: Node) -> frozenset:
    """The parameters, ("p", name), and individual variables, ("v", name),
    free in node; a bound one is named $h."""
    kinds = {Param: "p", FreeVar: "v"}
    return frozenset((kinds[type(n)], n.name) for n in walk(node) if type(n) in kinds and n.name[0] != "$")


def validate_theory(theory: EquationalTheory) -> TheoryReport:
    """Report rules violating the head/argument shape constraints.

    Convergence is assumed, not verified; non-termination surfaces as fuel
    exhaustion at normalization time.
    """
    issues = []
    heads = theory.defined_heads()
    seen_lhs: list[Node] = []
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
                sub_key = head_key(sub)
                if sub_key is None or sub_key == ("n", "+"):
                    continue
                # Numeric superscript expressions are tolerated in patterns;
                # only defined individual symbols and predicates are barred.
                if sub_key[0] in ("t", "a") and sub_key in heads:
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
        for prior in seen_lhs:
            if prior == rule.lhs:
                issues.append(TheoryIssue(i, f"duplicate left side {rule.lhs}"))
                break
        seen_lhs.append(rule.lhs)
    return TheoryReport(tuple(issues))


# ---------------------------------------------------------------------------
# Matching


def match(pattern: Node, subject: Node, binding: dict) -> bool:
    """Whether subject instantiates pattern, extending binding.  One worklist
    of (pattern, subject) pairs; a variable binds on first sight and must
    recur with an equal value, so the order of the pairs does not matter."""
    todo = [(pattern, subject)]
    while todo:
        p, s = todo.pop()
        if isinstance(p, FreeVar):
            if not _bind(binding, ("v", p.name), s):
                return False
            continue
        if isinstance(p, NumExpr):
            # Patterns like k + 1 match any expression with at least one
            # successor, so s(n), n + 1 and numerals all instantiate the
            # same step rule.
            if not isinstance(s, NumExpr):
                return False
            p, po = split_succs(p)
            s, so = split_succs(s)
            if p is None:
                if s is None and so == po:
                    continue
                return False
            if isinstance(p, Param):
                if so < po:
                    return False
                if s is None:
                    s = numeral(so - po)
                else:
                    for _ in range(so - po):
                        s = Succ(s)
                if not _bind(binding, ("p", p.name), s):
                    return False
                continue
            if so != po:
                return False
        if isinstance(p, SVar) and isinstance(s, SVar) and p.name == s.name:
            todo.append((p.index, s.index))
            continue
        key = head_key(p)
        if key is None or key != head_key(s) or len(p.args) != len(s.args):
            return False
        todo.extend(zip(p.args, s.args))
    return True


def _bind(binding: dict, key: tuple, value: Node) -> bool:
    if key[0] == "p" and not isinstance(value, NumExpr):
        return False
    old = binding.get(key)
    if old is None:
        binding[key] = value
        return True
    return old == value


def _instantiate(rhs: Node, binding: dict) -> Node:
    sub = Substitution(
        {name: v for (kind, name), v in binding.items() if kind == "p"},
        {name: v for (kind, name), v in binding.items() if kind == "v"},
    )
    return subst(rhs, sub)


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
    if key is None:
        return None
    for rule in theory._index.get(key, ()):
        binding: dict = {}
        if match(rule.lhs, node, binding):
            return _instantiate(rule.rhs, binding), 1
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
        else:
            kids = shown_kids(cur)
            pending = [[k, chain, None, 0] for k in kids if k not in cache]
            if pending:
                stack.extend(pending)
                continue
            new_kids = tuple([cache[k] for k in kids])
            reb = cur if new_kids == kids else rebuild_shown(cur, new_kids)  # nodes compare by identity
            below = max([spans.get(k, 0) for k in kids], default=0)
            step = _try_head(reb, theory)
            if step is None:
                nf, span = reb, below
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
    na = normalize(a, theory).value
    nb = normalize(b, theory).value
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
