"""Proof trees and the trusted checker for the three calculi.

A proof node stores its claimed conclusion, a rule name, premises, and the
instantiation witness for the rule (principal positions, substituted term,
eigenvariable, link target, rewrite position).  Checking computes each side
of a node's conclusion from its premises and witness, one function per rule,
and compares it with the node's own side: the same tuple at once, otherwise
as multisets.  The checker never searches for principal formulas.

Modes: plain LK; LKE adds the rewrite inference; LKS also admits link leaves.
"""

from __future__ import annotations

from collections import Counter

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
    formula_eq,
    free_params,
    free_vars,
    multiset_eq,
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


# ---------------------------------------------------------------------------
# Forward rule application: one function per rule gives the conclusion's sides
# (ante, succ) from the premise sequents, one or two, the witness and the
# theory.  Messages format only on failure: they mention whole sequents, and
# the happy path must not pay for rendering them.


def _need(cond: bool, msg: str):
    if not cond:
        raise RuleError(msg)


def _at(side: tuple, i: int | None, what: str) -> Formula:
    if i is None:
        raise RuleError(f"missing index for {what}")
    if not 0 <= i < len(side):
        raise RuleError(f"index {i} out of range for {what}")
    return side[i]


def _same(a: Formula, b: Formula, what: str):
    if not formula_eq(a, b):
        raise RuleError(f"{what} differ: {a} vs {b}")


def _drop(side: tuple, i: int) -> tuple:
    return side[:i] + side[i + 1 :]


def _put(side: tuple, i: int, f: Formula) -> tuple:
    return side[:i] + (f,) + side[i + 1 :]


def _cut(p1, p2, data, theory):
    a = _at(p1.succ, data.a, "cut formula in first premise")
    b = _at(p2.ante, data.b, "cut formula in second premise")
    _same(a, b, "cut formulas")
    return p1.ante + _drop(p2.ante, data.b), _drop(p1.succ, data.a) + p2.succ


def _and_l(p, data, theory):
    a = _at(p.ante, data.a, "first conjunct")
    b = _at(p.ante, data.b, "second conjunct")
    _need(data.a != data.b, "conjunct positions must differ")
    return _drop(_put(p.ante, data.a, And(a, b)), data.b), p.succ


def _and_r(p1, p2, data, theory):
    a = _at(p1.succ, data.a, "left conjunct")
    b = _at(p2.succ, data.b, "right conjunct")
    return p1.ante + p2.ante, _drop(p1.succ, data.a) + _drop(p2.succ, data.b) + (And(a, b),)


def _or_l(p1, p2, data, theory):
    a = _at(p1.ante, data.a, "left disjunct")
    b = _at(p2.ante, data.b, "right disjunct")
    return (Or(a, b),) + _drop(p1.ante, data.a) + _drop(p2.ante, data.b), p1.succ + p2.succ


def _or_r(p, data, theory):
    a = _at(p.succ, data.a, "left disjunct")
    b = _at(p.succ, data.b, "right disjunct")
    _need(data.a != data.b, "disjunct positions must differ")
    return p.ante, _drop(_put(p.succ, data.a, Or(a, b)), data.b)


def _neg_l(p, data, theory):
    a = _at(p.succ, data.a, "negated formula")
    return (Not(a),) + p.ante, _drop(p.succ, data.a)


def _neg_r(p, data, theory):
    a = _at(p.ante, data.a, "negated formula")
    return _drop(p.ante, data.a), p.succ + (Not(a),)


def _imp_l(p1, p2, data, theory):
    a = _at(p1.succ, data.a, "antecedent of implication")
    b = _at(p2.ante, data.b, "consequent of implication")
    return (Imp(a, b),) + p1.ante + _drop(p2.ante, data.b), _drop(p1.succ, data.a) + p2.succ


def _imp_r(p, data, theory):
    a = _at(p.ante, data.a, "antecedent of implication")
    b = _at(p.succ, data.b, "consequent of implication")
    return _drop(p.ante, data.a), _put(p.succ, data.b, Imp(a, b))


def _contraction(left: bool):
    def contract(p, data, theory):
        side = p.ante if left else p.succ
        a = _at(side, data.a, "contracted formula")
        b = _at(side, data.b, "contracted copy")
        _need(data.a != data.b, "contraction needs two distinct positions")
        _same(a, b, "contracted formulas")
        new = _drop(side, data.b)
        return (new, p.succ) if left else (p.ante, new)

    return contract


def _weakening(left: bool):
    def weaken(p, data, theory):
        _need(data.formula is not None, "weakening needs the added formula")
        return ((data.formula,) + p.ante, p.succ) if left else (p.ante, p.succ + (data.formula,))

    return weaken


def _quantifier(want: type, left: bool, eigen: bool):
    def instantiate(p, data, theory):
        side = p.ante if left else p.succ
        inst = _at(side, data.a, "instantiated formula")
        q = data.formula
        if not isinstance(q, want):
            raise RuleError(f"witness formula {q} is not a {want.__name__.lower()}")
        value = data.eigen if eigen else data.term
        _need(value is not None, "missing eigenvariable" if eigen else "missing substitution term")
        if not formula_eq(inst, open_body(q, value)):
            how = "at eigenvariable" if eigen else "instantiated with"
            raise RuleError(f"premise formula {inst} is not {q} {how} {value}")
        new = _put(side, data.a, q)
        concl = (new, p.succ) if left else (p.ante, new)
        if eigen and data.eigen in free_vars(Sequent(*concl)):
            raise RuleError(f"eigenvariable {data.eigen} occurs in the conclusion context")
        return concl

    return instantiate


def _rewrite(p, data, theory):
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
    if not rw.equivalent(old, data.repl, theory):
        raise RuleError(f"{old} and {data.repl} are not equal under the theory")
    new = _put(side, data.idx, new_host)
    return (new, p.succ) if data.side == "L" else (p.ante, new)


_CONCLUSION = {  # every rule but the leaves
    R.CUT: _cut, R.AND_L: _and_l, R.AND_R: _and_r, R.OR_L: _or_l, R.OR_R: _or_r, R.NEG_L: _neg_l, R.NEG_R: _neg_r,
    R.IMP_L: _imp_l, R.IMP_R: _imp_r, R.CONTR_L: _contraction(True), R.CONTR_R: _contraction(False),
    R.WEAK_L: _weakening(True), R.WEAK_R: _weakening(False), R.ERULE: _rewrite,
    R.FORALL_L: _quantifier(Forall, True, False), R.FORALL_R: _quantifier(Forall, False, True),
    R.EXISTS_L: _quantifier(Exists, True, True), R.EXISTS_R: _quantifier(Exists, False, False),
}


def apply_rule(rule: str, premises: tuple, data: RuleData, theory: rw.EquationalTheory = rw.EMPTY_THEORY) -> Sequent:
    """Conclusion of one inference from premise sequents and its witness."""
    n = ARITY.get(rule, 1)
    if len(premises) != n:
        raise RuleError(f"{rule} expects {n} premises, got {len(premises)}")
    if rule not in _CONCLUSION:
        raise RuleError(f"{rule} cannot be applied forward")
    return Sequent(*_CONCLUSION[rule](*premises, data, theory))


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
    proof: Proof, mode: str = MODE_LKE, theory: rw.EquationalTheory = rw.EMPTY_THEORY, env: dict | None = None,
    allowed_link_params: frozenset = frozenset(), lenient_erule: bool = False,
) -> CheckReport:
    """Verify every node of a proof tree against the rule table.

    Failures are collected per node; malformed witnesses are failures, never
    exceptions.  The report echoes the rewrite parameters so rewrite-step
    verdicts are reproducible.
    """
    if mode not in _ALLOWED:
        raise ValueError(f"unknown mode {mode!r}")
    env, allowed = env or {}, _ALLOWED[mode]
    params = {"mode": mode, "fuel": theory.fuel, "strategy": "leftmost-innermost", "lenient_erule": lenient_erule}
    report = CheckReport(params=params)
    failures, counts = report.failures, report.counts

    # Linked paths: copying a tuple per premise is quadratic in the depth.
    stack = [(proof, None)]
    while stack:
        node, path = stack.pop()
        rule, premises = node.rule, node.premises
        if rule not in LEAVES:
            counts[rule] = counts.get(rule, 0) + 1
        want = ARITY.get(rule, 1)
        if rule not in allowed:
            msg = f"rule not permitted in mode {mode}"
        elif len(premises) != want:
            msg = f"expected {want} premises, found {len(premises)}"
        else:
            if want:
                stack.append((premises[0], (path, 0)))
                if want == 2:
                    stack.append((premises[1], (path, 1)))
            try:
                _check_node(node, theory, env, allowed_link_params, lenient_erule)
                continue
            except (RuleError, SortMismatch, rw.FuelExhausted) as exc:
                msg = str(exc)
        failures.append(Failure(flatten_path(path), str(rule), msg))
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
    """One admitted node of its rule's arity; each computed side must be its own, as a tuple or a multiset."""
    rule, concl, data = node.rule, node.conclusion, node.data
    if rule == R.AX:
        _need(len(concl.ante) == 1 and len(concl.succ) == 1, "axiom conclusion must be a single formula on each side")
        _same(concl.ante[0], concl.succ[0], "axiom sides")
        return
    if rule == R.LINK:
        _need(data.target is not None, "link without a target")
        pat = env.get(data.target)
        if pat is None:
            raise RuleError(f"link target {data.target} is not declared")
        if len(data.terms) != len(pat.vars):
            raise RuleError(f"link to {data.target} carries {len(data.terms)} terms for {len(pat.vars)} variables")
        _need(data.param is not None, "link without a parameter expression")
        expected = subst(pat.pattern, {"n": data.param}, dict(zip(pat.vars, data.terms)))
        if not concl == expected:
            raise RuleError(f"link conclusion {concl} differs from declared instance {expected}")
        params = free_params(data.param)
        if not params <= allowed_link_params:
            raise RuleError(
                f"link parameter {data.param} uses parameters {sorted(params)} outside {sorted(allowed_link_params)}"
            )
        return
    premises = node.premises
    if rule == R.ERULE and data.whole:
        _need(lenient_erule, "whole-sequent rewrite witness requires the lenient flag")
        (p,) = premises
        if not rw.sequent_equivalent(p.conclusion, concl, theory):
            raise RuleError(f"{p.conclusion} and {concl} have different normal forms")
        return
    if len(premises) == 1:
        ante, succ = _CONCLUSION[rule](premises[0].conclusion, data, theory)
    else:
        ante, succ = _CONCLUSION[rule](premises[0].conclusion, premises[1].conclusion, data, theory)
    same = ante == concl.ante or multiset_eq(ante, concl.ante)
    if not (same and (succ == concl.succ or multiset_eq(succ, concl.succ))):
        raise RuleError(f"conclusion {concl} does not match the rule instance {Sequent(ante, succ)}")


def count_inferences(proof: Proof) -> Counter:
    """Inference counts by rule, leaves excluded; absent rules count zero.
    A shared subproof counts once per occurrence."""
    return Counter(node.rule for node in walk(proof) if node.rule not in LEAVES)
