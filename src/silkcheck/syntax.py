"""Two-sorted schematic language.

The numeric sort has numerals built from 0 and s(.), parameter symbols, a
built-in + and applications of defined numeric functions (written B^e).  The
individual sort has free variables, schematic variables applied to one numeric
index (x[e]), and function applications; numeric expressions may sit in
individual argument positions (the zero produced by a rule like S^0 == 0 is
the same node wherever it occurs).

Every node is hash-consed: constructing a node whose class and fields match
an existing one returns that node, so structurally equal nodes are the same
object and == and hash are object identity.  Traversals are iterative, so
successor towers and f(f(...f(0)...)) chains thousands deep never hit the
recursion limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping


class SortMismatch(Exception):
    """A substitution mapped a symbol to a value of the wrong sort."""


# ---------------------------------------------------------------------------
# Nodes


_NODES: dict = {}


class _HashConsed(type):
    """Looks a node up by its class and positional fields before building
    it, so each distinct node exists once per process."""

    def __call__(cls, *fields):
        key = (cls, *fields)
        node = _NODES.get(key)
        if node is None:
            node = _NODES[key] = super().__call__(*fields)
        return node


class Node(metaclass=_HashConsed):
    def kids(self) -> tuple:
        return ()

    def _render(self, kids: list) -> str:
        raise NotImplementedError

    def __str__(self) -> str:
        return render(self)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self}>"


def render(root: Node) -> str:
    """Concrete syntax, built bottom-up so deep chains never recurse."""
    memo: dict[int, str] = {}
    stack = [root]
    while stack:
        cur = stack[-1]
        if id(cur) in memo:
            stack.pop()
            continue
        kids = cur.kids()
        pending = [k for k in kids if id(k) not in memo]
        if pending:
            stack.extend(pending)
            continue
        memo[id(cur)] = cur._render([memo[id(k)] for k in kids])
        stack.pop()
    return memo[id(root)]


def walk(root: Node) -> Iterator[Node]:
    """All subnodes of root, including root itself (pre-order)."""
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.kids()))


# ---------------------------------------------------------------------------
# Numeric sort


class NumExpr(Node):
    pass


@dataclass(frozen=True, eq=False, repr=False)
class Zero(NumExpr):
    def _render(self, kids):
        return "0"


@dataclass(frozen=True, eq=False, repr=False)
class Succ(NumExpr):
    prev: NumExpr

    def kids(self):
        return (self.prev,)

    def _render(self, kids):
        if kids[0].isdigit():
            return str(int(kids[0]) + 1)
        return f"s({kids[0]})"


@dataclass(frozen=True, eq=False, repr=False)
class Param(NumExpr):
    name: str

    def _render(self, kids):
        return self.name


@dataclass(frozen=True, eq=False, repr=False)
class NumFn(NumExpr):
    """Application of a defined numeric function.

    The built-in sum carries the symbol "+"; superscript families like 2^e
    carry their base plus a trailing caret ("2^").
    """

    sym: str
    args: tuple

    def kids(self):
        return self.args

    def _render(self, kids):
        if self.sym == "+":
            right = f"({kids[1]})" if _is_plus(self.args[1]) else kids[1]
            return f"{kids[0]} + {right}"
        if self.sym.endswith("^") and len(self.args) == 1:
            return f"{self.sym}{_sup(self.args[0], kids[0])}"
        return f"{self.sym}({', '.join(kids)})"


def _is_plus(e) -> bool:
    return isinstance(e, NumFn) and e.sym == "+"


def _sup(e, s: str) -> str:
    if isinstance(e, (Zero, Param)) or numeral_value(e) is not None:
        return s
    return f"({s})"


ZERO = Zero()

_NUMERALS: list = [ZERO]


def numeral(k: int) -> NumExpr:
    # Towers are built once and indexed by value; building numeral(k) from
    # k hash-consed Succ calls on every request costs far more.
    if k < 0:
        raise ValueError(f"no numeral for {k}")
    while len(_NUMERALS) <= k:
        _NUMERALS.append(Succ(_NUMERALS[-1]))
    return _NUMERALS[k]


def numeral_value(e) -> int | None:
    """The integer value of a pure numeral, or None; cached per node so
    repeated queries on successor towers stay linear overall."""
    chain = []
    cur = e
    while isinstance(cur, Succ):
        cached = cur.__dict__.get("_nv")
        if cached is not None:
            break
        chain.append(cur)
        cur = cur.prev
    if isinstance(cur, Succ):
        value = cur.__dict__["_nv"]
    elif isinstance(cur, Zero):
        value = 0
    else:
        value = -1  # not a numeral
    for node in reversed(chain):
        if value >= 0:
            value += 1
        object.__setattr__(node, "_nv", value)
    return value if value >= 0 else None


def split_succs(e: NumExpr) -> tuple[NumExpr | None, int]:
    """Peel outer successors and pure-numeral summands: returns (base, offset)
    with base None for a pure numeral."""
    offset = 0
    while True:
        if isinstance(e, Succ):
            offset += 1
            e = e.prev
        elif isinstance(e, Zero):
            return None, offset
        elif _is_plus(e):
            a, b = e.args
            kb = numeral_value(b)
            if kb is not None:
                offset += kb
                e = a
                continue
            ka = numeral_value(a)
            if ka is not None:
                offset += ka
                e = b
                continue
            return e, offset
        else:
            return e, offset


def canon_num(e: NumExpr) -> NumExpr:
    """Canonical form of the +/s fragment: numeral summands become successor
    applications, so s(n), n+1 and 1+n all coincide."""
    base, offset = split_succs(e)
    if base is None:
        return numeral(offset)
    if _is_plus(base):
        a, b = base.args
        base = NumFn("+", (canon_num(a), canon_num(b)))
    elif isinstance(base, NumFn):
        base = NumFn(base.sym, tuple(canon_num(a) if isinstance(a, NumExpr) else a for a in base.args))
    out = base
    for _ in range(offset):
        out = Succ(out)
    return out


def num_eq(a: NumExpr, b: NumExpr) -> bool:
    """Equality of numeric expressions modulo the s/+ identification."""
    return canon_num(a) == canon_num(b)


# ---------------------------------------------------------------------------
# Individual sort


class Term(Node):
    pass


@dataclass(frozen=True, eq=False, repr=False)
class FreeVar(Term):
    name: str

    def _render(self, kids):
        return self.name


@dataclass(frozen=True, eq=False, repr=False)
class SVar(Term):
    """Schematic variable applied to its numeric index: x[e]."""

    name: str
    index: NumExpr

    def kids(self):
        return (self.index,)

    def _render(self, kids):
        return f"{self.name}[{kids[0]}]"


@dataclass(frozen=True, eq=False, repr=False)
class Fn(Term):
    """Function application; whether the symbol is defined is a property of
    the rewrite theory in play, not of the node."""

    sym: str
    args: tuple

    def kids(self):
        return self.args

    def _render(self, kids):
        if self.sym == "+":
            right = f"({kids[1]})" if _is_any_plus(self.args[1]) else kids[1]
            return f"{kids[0]} + {right}"
        if self.sym.endswith("^"):
            head = f"{self.sym}{_sup(self.args[0], kids[0])}"
            if len(kids) == 1:
                return head
            return f"{head}({', '.join(kids[1:])})"
        return f"{self.sym}({', '.join(kids)})"


def _is_any_plus(e) -> bool:
    return (isinstance(e, NumFn) or isinstance(e, Fn)) and e.sym == "+"


# ---------------------------------------------------------------------------
# Formula schemata


class Formula(Node):
    def _prec(self) -> int:
        return 100


@dataclass(frozen=True, eq=False, repr=False)
class Atom(Formula):
    pred: str
    args: tuple

    def kids(self):
        return self.args

    def _render(self, kids):
        if self.pred.endswith("^"):
            head = f"{self.pred}{_sup(self.args[0], kids[0])}"
            if len(kids) == 1:
                return head
            return f"{head}({', '.join(kids[1:])})"
        if not self.args:
            return self.pred
        return f"{self.pred}({', '.join(kids)})"


@dataclass(frozen=True, eq=False, repr=False)
class Not(Formula):
    body: Formula

    def kids(self):
        return (self.body,)

    def _prec(self):
        return 40

    def _render(self, kids):
        return f"~{_wrap(self.body, kids[0], 40)}"


@dataclass(frozen=True, eq=False, repr=False)
class And(Formula):
    lhs: Formula
    rhs: Formula

    def kids(self):
        return (self.lhs, self.rhs)

    def _prec(self):
        return 30

    def _render(self, kids):
        return f"{_wrap(self.lhs, kids[0], 30)} /\\ {_wrap(self.rhs, kids[1], 31)}"


@dataclass(frozen=True, eq=False, repr=False)
class Or(Formula):
    lhs: Formula
    rhs: Formula

    def kids(self):
        return (self.lhs, self.rhs)

    def _prec(self):
        return 20

    def _render(self, kids):
        return f"{_wrap(self.lhs, kids[0], 20)} \\/ {_wrap(self.rhs, kids[1], 21)}"


@dataclass(frozen=True, eq=False, repr=False)
class Imp(Formula):
    lhs: Formula
    rhs: Formula

    def kids(self):
        return (self.lhs, self.rhs)

    def _prec(self):
        return 10

    def _render(self, kids):
        return f"{_wrap(self.lhs, kids[0], 11)} -> {_wrap(self.rhs, kids[1], 10)}"


@dataclass(frozen=True, eq=False, repr=False)
class Forall(Formula):
    var: str
    body: Formula

    def kids(self):
        return (self.body,)

    def _prec(self):
        return 5

    def _render(self, kids):
        return f"forall {self.var}. {kids[0]}"


@dataclass(frozen=True, eq=False, repr=False)
class Exists(Formula):
    var: str
    body: Formula

    def kids(self):
        return (self.body,)

    def _prec(self):
        return 5

    def _render(self, kids):
        return f"exists {self.var}. {kids[0]}"


@dataclass(frozen=True, eq=False, repr=False)
class OmegaAll(Formula):
    """Universal quantification over the numeric sort; only the emitted
    interpretation formulas use it."""

    var: str
    body: Formula

    def kids(self):
        return (self.body,)

    def _prec(self):
        return 5

    def _render(self, kids):
        return f"forall {self.var}:omega. {kids[0]}"


def _wrap(f: Formula, s: str, minimum: int) -> str:
    if f._prec() < minimum:
        return f"({s})"
    return s


# ---------------------------------------------------------------------------
# Sequents


@dataclass(frozen=True, eq=False, repr=False)
class Sequent:
    ante: tuple
    succ: tuple

    def __str__(self):
        left = ", ".join(render(f) for f in self.ante)
        right = ", ".join(render(f) for f in self.succ)
        return f"{left} |- {right}".strip()

    def __repr__(self):
        return f"<Sequent {self}>"

    def formulas(self):
        return self.ante + self.succ

    def __eq__(self, other):
        if not isinstance(other, Sequent):
            return NotImplemented
        return sequent_eq(self, other)

    def __hash__(self):
        h = self.__dict__.get("_h")
        if h is None:
            h = hash((_side_key(self.ante), _side_key(self.succ)))
            object.__setattr__(self, "_h", h)
        return h


@dataclass(frozen=True, eq=False, repr=False)
class AnnSequent:
    """A stepcase sequent carrying the instance expression it claims."""

    sequent: Sequent
    annotation: NumExpr

    def __str__(self):
        left = ", ".join(render(f) for f in self.sequent.ante)
        right = ", ".join(render(f) for f in self.sequent.succ)
        return f"{left} |-{{{render(self.annotation)}}} {right}".strip()

    def __repr__(self):
        return f"<AnnSequent {self}>"

    def __eq__(self, other):
        if not isinstance(other, AnnSequent):
            return NotImplemented
        return self.sequent == other.sequent and num_eq(self.annotation, other.annotation)

    def __hash__(self):
        return hash((hash(self.sequent), hash(canon_num(self.annotation))))


# ---------------------------------------------------------------------------
# Alpha renaming and equality


def _side_key(side: tuple) -> frozenset:
    counts: dict[int, int] = {}
    for f in side:
        h = hash(canon_alpha(f))
        counts[h] = counts.get(h, 0) + 1
    return frozenset(counts.items())


def canon_alpha(f: Formula) -> Formula:
    """Rename bound variables to canonical names in traversal order; the
    result is only used for comparison and hashing, never printed."""
    cached = f.__dict__.get("_ca")
    if cached is None:
        cached = _canon(f, {}, [0])
        object.__setattr__(f, "_ca", cached)
    return cached


def _canon(f: Formula, env: dict, counter: list) -> Formula:
    if isinstance(f, Atom):
        if not env:
            return f
        return Atom(f.pred, tuple(_rename(a, env) for a in f.args))
    if isinstance(f, Not):
        return Not(_canon(f.body, env, counter))
    if isinstance(f, (And, Or, Imp)):
        return type(f)(_canon(f.lhs, env, counter), _canon(f.rhs, env, counter))
    if isinstance(f, (Forall, Exists)):
        fresh = f"$b{counter[0]}"
        counter[0] += 1
        inner = dict(env)
        inner[("v", f.var)] = fresh
        return type(f)(fresh, _canon(f.body, inner, counter))
    if isinstance(f, OmegaAll):
        fresh = f"$w{counter[0]}"
        counter[0] += 1
        inner = dict(env)
        inner[("p", f.var)] = fresh
        return OmegaAll(fresh, _canon(f.body, inner, counter))
    raise TypeError(f)


def _rename(node, env: dict):
    def one(x):
        if isinstance(x, FreeVar):
            return FreeVar(env.get(("v", x.name), x.name))
        if isinstance(x, Param):
            return Param(env.get(("p", x.name), x.name))
        kids = x.kids()
        if not kids:
            return x
        return rebuild(x, tuple(one(k) for k in kids))

    return one(node)


def formula_eq(a: Formula, b: Formula) -> bool:
    """Syntactic equality modulo renaming of bound variables."""
    return canon_alpha(a) == canon_alpha(b)


def multiset_eq(xs: tuple, ys: tuple) -> bool:
    if len(xs) != len(ys):
        return False
    if all(x is y for x, y in zip(xs, ys)):
        return True
    remaining = list(ys)
    for x in xs:
        cx = canon_alpha(x)
        for i, y in enumerate(remaining):
            if x is y or cx == canon_alpha(y):
                del remaining[i]
                break
        else:
            return False
    return True


def sequent_eq(a: Sequent, b: Sequent) -> bool:
    """Multiset equality of both sides under syntactic formula equality."""
    if a is b:
        return True
    return multiset_eq(a.ante, b.ante) and multiset_eq(a.succ, b.succ)


# ---------------------------------------------------------------------------
# Rebuilding, free symbols


def rebuild(node: Node, kids: tuple) -> Node:
    cls = type(node)
    if cls is Succ:
        return Succ(*kids)
    if cls is NumFn:
        return NumFn(node.sym, kids)
    if cls is SVar:
        return SVar(node.name, kids[0])
    if cls is Fn:
        return Fn(node.sym, kids)
    if cls is Atom:
        return Atom(node.pred, kids)
    if cls is Not:
        return Not(*kids)
    if cls in (And, Or, Imp):
        return cls(*kids)
    if cls in (Forall, Exists, OmegaAll):
        return cls(node.var, kids[0])
    if not kids:
        return node
    raise TypeError(node)


def free_params(x) -> frozenset[str]:
    """Parameter symbols occurring in a node, sequent, or annotated sequent."""
    if isinstance(x, Sequent):
        out: frozenset = frozenset()
        for f in x.formulas():
            out |= free_params(f)
        return out
    if isinstance(x, AnnSequent):
        return free_params(x.sequent) | free_params(x.annotation)
    return frozenset(n.name for n in walk(x) if isinstance(n, Param))


def free_vars(x) -> frozenset[str]:
    """Free individual variables (schematic variable names included)."""
    if isinstance(x, Sequent):
        out: frozenset = frozenset()
        for f in x.formulas():
            out |= free_vars(f)
        return out
    return frozenset(_free_vars(x, frozenset()))


def _free_vars(node, bound):
    out = set()
    if isinstance(node, FreeVar):
        if node.name not in bound:
            out.add(node.name)
        return out
    if isinstance(node, SVar):
        if node.name not in bound:
            out.add(node.name)
        return out
    if isinstance(node, (Forall, Exists)):
        return _free_vars(node.body, bound | {node.var})
    for k in node.kids():
        out |= _free_vars(k, bound)
    return out


def is_subterm(small: NumExpr, big: NumExpr) -> bool:
    """Reflexive subterm relation on numeric expressions."""
    return any(small == sub for sub in walk(big))


# ---------------------------------------------------------------------------
# Substitution


@dataclass(frozen=True)
class Substitution:
    """Simultaneous replacement of parameter symbols by numeric expressions
    and of free/schematic variables by terms; capture-avoiding with respect
    to individual-sort binders."""

    params: Mapping[str, NumExpr]
    vars: Mapping[str, Node]

    def __post_init__(self):
        for k, v in self.params.items():
            if not isinstance(v, NumExpr):
                raise SortMismatch(f"parameter {k} must map to a numeric expression, got {v!r}")
        for k, v in self.vars.items():
            if not isinstance(v, (Term, NumExpr)):
                raise SortMismatch(f"variable {k} must map to a term, got {v!r}")

    def is_empty(self) -> bool:
        return not self.params and not self.vars


def subst_param(name: str, value: NumExpr) -> Substitution:
    return Substitution({name: value}, {})


def subst_vars(mapping: Mapping[str, Node]) -> Substitution:
    return Substitution({}, dict(mapping))


def subst(x, sub: Substitution):
    """Apply a substitution to a numeric expression, term, formula, sequent,
    or annotated sequent."""
    if sub.is_empty():
        return x
    if isinstance(x, Sequent):
        return Sequent(
            tuple(_subst_formula(f, sub) for f in x.ante),
            tuple(_subst_formula(f, sub) for f in x.succ),
        )
    if isinstance(x, AnnSequent):
        return AnnSequent(subst(x.sequent, sub), _subst_expr(x.annotation, sub))
    if isinstance(x, Formula):
        return _subst_formula(x, sub)
    return _subst_expr(x, sub)


def _subst_formula(f: Formula, sub: Substitution):
    # Untouched sub-formulas come back as they are, without a lookup in the
    # hash-consing table.
    if isinstance(f, Atom):
        args = tuple(_subst_expr(a, sub) for a in f.args)
        return f if all(a is b for a, b in zip(f.args, args)) else Atom(f.pred, args)
    if isinstance(f, Not):
        body = _subst_formula(f.body, sub)
        return f if body is f.body else Not(body)
    if isinstance(f, (And, Or, Imp)):
        lhs = _subst_formula(f.lhs, sub)
        rhs = _subst_formula(f.rhs, sub)
        return f if lhs is f.lhs and rhs is f.rhs else type(f)(lhs, rhs)
    if isinstance(f, (Forall, Exists)):
        inner_vars = {k: v for k, v in sub.vars.items() if k != f.var}
        inner = Substitution(sub.params, inner_vars)
        if inner.is_empty():
            return f
        var = f.var
        body = f.body
        if any(var in free_vars(v) for v in inner_vars.values() if isinstance(v, (Term, NumExpr))):
            fresh = _fresh_name(var, free_vars(body) | _range_vars(inner))
            body = _subst_formula(body, subst_vars({var: FreeVar(fresh)}))
            var = fresh
        new_body = _subst_formula(body, inner)
        return f if var is f.var and new_body is f.body else type(f)(var, new_body)
    if isinstance(f, OmegaAll):
        inner_params = {k: v for k, v in sub.params.items() if k != f.var}
        inner = Substitution(inner_params, sub.vars)
        if inner.is_empty():
            return f
        new_body = _subst_formula(f.body, inner)
        return f if new_body is f.body else OmegaAll(f.var, new_body)
    raise TypeError(f)


def _range_vars(sub: Substitution) -> frozenset[str]:
    out: frozenset = frozenset()
    for v in sub.vars.values():
        out |= free_vars(v)
    return out


def _fresh_name(base: str, taken: frozenset[str]) -> str:
    i = 1
    while f"{base}{i}" in taken:
        i += 1
    return f"{base}{i}"


def _subst_expr(e, sub: Substitution):
    # Terms and numeric expressions contain no binders, so a bottom-up
    # iterative rebuild is safe at any depth.
    done: dict[int, Node] = {}
    stack = [e]
    while stack:
        cur = stack[-1]
        if id(cur) in done:
            stack.pop()
            continue
        if isinstance(cur, Param):
            done[id(cur)] = sub.params.get(cur.name, cur)
            stack.pop()
            continue
        if isinstance(cur, FreeVar):
            done[id(cur)] = sub.vars.get(cur.name, cur)
            stack.pop()
            continue
        kids = cur.kids()
        pending = [k for k in kids if id(k) not in done]
        if pending:
            stack.extend(pending)
            continue
        new_kids = tuple(done[id(k)] for k in kids)
        if isinstance(cur, SVar) and cur.name in sub.vars:
            repl = sub.vars[cur.name]
            if isinstance(repl, SVar):
                done[id(cur)] = SVar(repl.name, new_kids[0])
            elif isinstance(repl, FreeVar):
                done[id(cur)] = SVar(repl.name, new_kids[0])
            else:
                raise SortMismatch(f"schematic variable {cur.name} must map to a variable, got {repl!r}")
        elif all(old is new for old, new in zip(kids, new_kids)):
            done[id(cur)] = cur
        else:
            done[id(cur)] = rebuild(cur, new_kids)
        stack.pop()
    return done[id(e)]


# ---------------------------------------------------------------------------
# Positions inside formulas


def node_at(root: Node, path: tuple) -> Node:
    cur = root
    for i in path:
        kids = cur.kids()
        if i >= len(kids):
            raise IndexError(f"no child {i} at {cur}")
        cur = kids[i]
    return cur


def replace_at(root: Node, path: tuple, new: Node) -> Node:
    if not path:
        return new
    kids = list(root.kids())
    i = path[0]
    if i >= len(kids):
        raise IndexError(f"no child {i} at {root}")
    kids[i] = replace_at(kids[i], path[1:], new)
    return rebuild(root, tuple(kids))
