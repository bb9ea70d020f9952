"""Proof trees and the trusted checker for the three calculi.

A proof node stores its claimed conclusion, a rule name, premises, and the
instantiation witness for the rule (principal positions, substituted term,
eigenvariable, link target, rewrite position).  Checking recomputes each
node's conclusion from its premises and witness and compares multisets; the
checker never searches for principal formulas.

Modes: plain LK; LKE adds the rewrite inference; LKS also admits link leaves.
"""

from __future__ import annotations

from collections import Counter
from typing import Mapping

from . import rewrite as rw
from .syntax import (
    And,
    Exists,
    Forall,
    Formula,
    Imp,
    Node,
    Not,
    NumExpr,
    Or,
    Record,
    Sequent,
    SortMismatch,
    Substitution,
    formula_eq,
    free_params,
    free_vars,
    node_at,
    open_body,
    replace_at,
    subst,
    walk,
)


class RuleName:
    """The inference rules, each its own token: a plain string, so reading
    and hashing one runs no Python code, as an Enum member's do on 3.10 and
    3.11.  Rules compare with ==, never is: an equal token need not be the
    same object."""

    AX = "ax"
    CUT = "cut"
    AND_L = "/\\:l"
    AND_R = "/\\:r"
    OR_L = "\\/:l"
    OR_R = "\\/:r"
    NEG_L = "~:l"
    NEG_R = "~:r"
    IMP_L = "->:l"
    IMP_R = "->:r"
    CONTR_L = "c:l"
    CONTR_R = "c:r"
    WEAK_L = "w:l"
    WEAK_R = "w:r"
    FORALL_L = "forall:l"
    FORALL_R = "forall:r"
    EXISTS_L = "exists:l"
    EXISTS_R = "exists:r"
    ERULE = "E"
    LINK = "link"


R = RuleName
RULES = tuple(rule for name, rule in vars(RuleName).items() if not name.startswith("_"))  # every rule
_setattr = object.__setattr__  # sets a field in a record's own constructor

ARITY = {R.AX: 0, R.LINK: 0, R.CUT: 2, R.AND_R: 2, R.OR_L: 2, R.IMP_L: 2}  # every other rule is unary
LEAVES = (R.AX, R.LINK)

MODE_LK = "lk"
MODE_LKE = "lke"
MODE_LKS = "lks"
_ALLOWED = {  # the rules each mode admits
    MODE_LK: frozenset(RULES) - {R.ERULE, R.LINK},
    MODE_LKE: frozenset(RULES) - {R.LINK},
    MODE_LKS: frozenset(RULES),
}


class RuleError(Exception):
    pass


class RuleData(Record):
    """Instantiation witness; which fields are read depends on the rule."""

    a: int | None = None
    b: int | None = None
    formula: Formula | None = None
    term: Node | None = None
    eigen: str | None = None
    side: str | None = None          # rewrite position: "L" or "R"
    idx: int | None = None
    path: tuple = ()
    repl: Node | None = None         # replacement for forward rewrite steps
    whole: bool = False              # whole-sequent rewrite witness
    target: str | None = None        # link target proof symbol
    param: NumExpr | None = None
    terms: tuple = ()


EMPTY_DATA = RuleData()


class Proof(Record, eq=False):
    __slots__ = ("conclusion", "rule", "premises", "data")
    conclusion: Sequent
    rule: str  # a RuleName
    premises: tuple
    data: RuleData

    def __init__(self, conclusion, rule, premises=(), data=EMPTY_DATA):
        _setattr(self, "conclusion", conclusion)
        _setattr(self, "rule", rule)
        _setattr(self, "premises", premises)
        _setattr(self, "data", data)

    def kids(self) -> tuple:  # what syntax.walk walks
        return self.premises

    def __repr__(self):
        return f"<Proof {self.rule} {self.conclusion}>"


class LinkPattern(Record):
    pattern: Sequent
    vars: tuple = ()


LinkEnv = Mapping[str, LinkPattern]


# ---------------------------------------------------------------------------
# Forward rule application


def _need(cond: bool, msg: str, *args):
    # Messages format lazily; they routinely mention whole sequents and the
    # happy path must not pay for rendering them.
    if not cond:
        raise RuleError(msg % args if args else msg)


def _at(side: tuple, i: int | None, what: str) -> Formula:
    _need(i is not None, "missing index for %s", what)
    _need(0 <= i < len(side), "index %s out of range for %s", i, what)
    return side[i]


def _drop(side: tuple, *idxs: int) -> tuple:
    keep = set(idxs)
    return tuple(f for j, f in enumerate(side) if j not in keep)


def _put(side: tuple, i: int, f: Formula) -> tuple:
    return side[:i] + (f,) + side[i + 1 :]


def apply_rule(
    rule: str,
    premises: tuple,
    data: RuleData,
    theory: rw.EquationalTheory = rw.EMPTY_THEORY,
) -> Sequent:
    """Conclusion of one inference from premise sequents and its witness."""
    n = ARITY.get(rule, 1)
    _need(len(premises) == n, "%s expects %s premises, got %s", rule, n, len(premises))

    if rule == R.CUT:
        p1, p2 = premises
        a = _at(p1.succ, data.a, "cut formula in first premise")
        b = _at(p2.ante, data.b, "cut formula in second premise")
        _need(formula_eq(a, b), "cut formulas differ: %s vs %s", a, b)
        return Sequent(p1.ante + _drop(p2.ante, data.b), _drop(p1.succ, data.a) + p2.succ)

    if rule == R.AND_L:
        (p,) = premises
        a = _at(p.ante, data.a, "first conjunct")
        b = _at(p.ante, data.b, "second conjunct")
        _need(data.a != data.b, "conjunct positions must differ")
        return Sequent(_drop(_put(p.ante, data.a, And(a, b)), data.b), p.succ)

    if rule == R.AND_R:
        p1, p2 = premises
        a = _at(p1.succ, data.a, "left conjunct")
        b = _at(p2.succ, data.b, "right conjunct")
        return Sequent(p1.ante + p2.ante, _drop(p1.succ, data.a) + _drop(p2.succ, data.b) + (And(a, b),))

    if rule == R.OR_L:
        p1, p2 = premises
        a = _at(p1.ante, data.a, "left disjunct")
        b = _at(p2.ante, data.b, "right disjunct")
        return Sequent((Or(a, b),) + _drop(p1.ante, data.a) + _drop(p2.ante, data.b), p1.succ + p2.succ)

    if rule == R.OR_R:
        (p,) = premises
        a = _at(p.succ, data.a, "left disjunct")
        b = _at(p.succ, data.b, "right disjunct")
        _need(data.a != data.b, "disjunct positions must differ")
        return Sequent(p.ante, _drop(_put(p.succ, data.a, Or(a, b)), data.b))

    if rule == R.NEG_L:
        (p,) = premises
        a = _at(p.succ, data.a, "negated formula")
        return Sequent((Not(a),) + p.ante, _drop(p.succ, data.a))

    if rule == R.NEG_R:
        (p,) = premises
        a = _at(p.ante, data.a, "negated formula")
        return Sequent(_drop(p.ante, data.a), p.succ + (Not(a),))

    if rule == R.IMP_L:
        p1, p2 = premises
        a = _at(p1.succ, data.a, "antecedent of implication")
        b = _at(p2.ante, data.b, "consequent of implication")
        return Sequent((Imp(a, b),) + p1.ante + _drop(p2.ante, data.b), _drop(p1.succ, data.a) + p2.succ)

    if rule == R.IMP_R:
        (p,) = premises
        a = _at(p.ante, data.a, "antecedent of implication")
        b = _at(p.succ, data.b, "consequent of implication")
        return Sequent(_drop(p.ante, data.a), _put(p.succ, data.b, Imp(a, b)))

    if rule in (R.CONTR_L, R.CONTR_R):
        (p,) = premises
        side = p.ante if rule == R.CONTR_L else p.succ
        a = _at(side, data.a, "contracted formula")
        b = _at(side, data.b, "contracted copy")
        _need(data.a != data.b, "contraction needs two distinct positions")
        _need(formula_eq(a, b), "contracted formulas differ: %s vs %s", a, b)
        new = _drop(side, data.b)
        return Sequent(new, p.succ) if rule == R.CONTR_L else Sequent(p.ante, new)

    if rule in (R.WEAK_L, R.WEAK_R):
        (p,) = premises
        _need(data.formula is not None, "weakening needs the added formula")
        if rule == R.WEAK_L:
            return Sequent((data.formula,) + p.ante, p.succ)
        return Sequent(p.ante, p.succ + (data.formula,))

    if rule in (R.FORALL_L, R.EXISTS_R, R.FORALL_R, R.EXISTS_L):
        (p,) = premises
        left = rule in (R.FORALL_L, R.EXISTS_L)
        side = p.ante if left else p.succ
        inst = _at(side, data.a, "instantiated formula")
        q = data.formula
        want = Forall if rule in (R.FORALL_L, R.FORALL_R) else Exists
        _need(isinstance(q, want), "witness formula %s is not a %s", q, want.__name__.lower())
        eigen = rule in (R.FORALL_R, R.EXISTS_L)
        value = data.eigen if eigen else data.term
        _need(value is not None, "missing eigenvariable" if eigen else "missing substitution term")
        _need(
            formula_eq(inst, open_body(q, value)),
            "premise formula %s is not %s %s %s", inst, q, "at eigenvariable" if eigen else "instantiated with", value,
        )
        new = _put(side, data.a, q)
        concl = Sequent(new, p.succ) if left else Sequent(p.ante, new)
        _need(
            not eigen or data.eigen not in free_vars(concl),
            "eigenvariable %s occurs in the conclusion context", data.eigen,
        )
        return concl

    if rule == R.ERULE:
        (p,) = premises
        _need(not data.whole, "whole-sequent rewrite steps have no forward application")
        _need(data.side in ("L", "R"), "rewrite position needs a side")
        side = p.ante if data.side == "L" else p.succ
        host = _at(side, data.idx, "rewritten formula")
        _need(data.repl is not None, "missing replacement expression")
        try:
            old = node_at(host, data.path)
            new_host = replace_at(host, data.path, data.repl)
        except (IndexError, TypeError) as exc:
            raise RuleError(f"bad rewrite path {data.path}: {exc}") from None
        _need(
            rw.equivalent(old, data.repl, theory),
            "%s and %s are not equal under the theory", old, data.repl,
        )
        new = _put(side, data.idx, new_host)
        return Sequent(new, p.succ) if data.side == "L" else Sequent(p.ante, new)

    raise RuleError(f"{rule} cannot be applied forward")


# ---------------------------------------------------------------------------
# Checking


class Failure(Record):
    path: tuple
    rule: str
    message: str


class CheckReport:
    _fields = ("failures", "counts", "params")
    __eq__, __repr__ = Record.__eq__, Record.__repr__  # value equality, so unhashable

    def __init__(self, failures=None, counts=None, params=None):
        self.failures = [] if failures is None else failures
        self.counts = {} if counts is None else counts
        self.params = {} if params is None else params

    @property
    def accepted(self) -> bool:
        return not self.failures


def check_proof(
    proof: Proof,
    mode: str = MODE_LKE,
    theory: rw.EquationalTheory = rw.EMPTY_THEORY,
    env: LinkEnv | None = None,
    allowed_link_params: frozenset = frozenset(),
    lenient_erule: bool = False,
) -> CheckReport:
    """Verify every node of a proof tree against the rule table.

    Failures are collected per node; malformed witnesses are failures, never
    exceptions.  The report echoes the rewrite parameters so rewrite-step
    verdicts are reproducible.
    """
    if mode not in _ALLOWED:
        raise ValueError(f"unknown mode {mode!r}")
    env, allowed = env or {}, _ALLOWED[mode]
    report = CheckReport(
        params={
            "mode": mode,
            "fuel": theory.fuel,
            "strategy": "leftmost-innermost",
            "lenient_erule": lenient_erule,
        }
    )
    fail = lambda path, rule, msg: report.failures.append(Failure(flatten_path(path), str(rule), msg))
    counts = report.counts

    # Linked paths: copying a tuple per premise is quadratic in the depth.
    stack = [(proof, None)]
    while stack:
        node, path = stack.pop()
        rule = node.rule
        if rule not in LEAVES:
            counts[rule] = counts.get(rule, 0) + 1
        if rule not in allowed:
            fail(path, rule, f"rule not permitted in mode {mode}")
            continue
        want = ARITY.get(rule, 1)
        if len(node.premises) != want:
            fail(path, rule, f"expected {want} premises, found {len(node.premises)}")
            continue
        try:
            _check_node(node, theory, env, allowed_link_params, lenient_erule)
        except (RuleError, SortMismatch, rw.FuelExhausted) as exc:
            fail(path, rule, str(exc))
        for i, premise in enumerate(node.premises):
            stack.append((premise, (path, i)))
    return report


def flatten_path(path) -> tuple:
    """The premise indices, root first, of a linked path: (parent path,
    premise index), or ``None`` at the root."""
    indices = []
    while path is not None:
        path, i = path
        indices.append(i)
    return tuple(reversed(indices))


def _check_node(node, theory, env, allowed_link_params, lenient_erule):
    rule = node.rule
    concl = node.conclusion
    if rule == R.AX:
        _need(
            len(concl.ante) == 1 and len(concl.succ) == 1,
            "axiom conclusion must be a single formula on each side",
        )
        _need(
            formula_eq(concl.ante[0], concl.succ[0]),
            "axiom sides differ: %s vs %s", concl.ante[0], concl.succ[0],
        )
        return
    if rule == R.LINK:
        data = node.data
        _need(data.target is not None, "link without a target")
        pat = env.get(data.target)
        _need(pat is not None, "link target %s is not declared", data.target)
        _need(
            len(data.terms) == len(pat.vars),
            "link to %s carries %s terms for %s variables", data.target, len(data.terms), len(pat.vars),
        )
        _need(data.param is not None, "link without a parameter expression")
        expected = subst(pat.pattern, Substitution({"n": data.param}, dict(zip(pat.vars, data.terms))))
        _need(
            concl == expected,
            "link conclusion %s differs from declared instance %s", concl, expected,
        )
        params = free_params(data.param)
        _need(
            params <= allowed_link_params,
            "link parameter %s uses parameters %s outside %s",
            data.param, sorted(params), sorted(allowed_link_params),
        )
        return
    if rule == R.ERULE and node.data.whole:
        _need(lenient_erule, "whole-sequent rewrite witness requires the lenient flag")
        (p,) = node.premises
        _need(
            rw.sequent_equivalent(p.conclusion, concl, theory),
            "%s and %s have different normal forms", p.conclusion, concl,
        )
        return
    computed = apply_rule(rule, tuple(p.conclusion for p in node.premises), node.data, theory)
    _need(
        computed == concl,
        "conclusion %s does not match the rule instance %s", concl, computed,
    )


def count_inferences(proof: Proof) -> Counter:
    """Inference counts by rule, leaves excluded; absent rules count zero.
    A shared subproof counts once per occurrence."""
    return Counter(node.rule for node in walk(proof) if node.rule not in LEAVES)
