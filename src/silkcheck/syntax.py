"""Two-sorted schematic language.

The numeric sort has numerals built from 0 and s(.), parameter symbols, a
built-in + and applications of defined numeric functions (written B^e).  The
individual sort has free variables, schematic variables applied to one numeric
index (x[e]), and function applications; numeric expressions may sit in
individual argument positions (the zero produced by a rule like S^0 == 0 is
the same node wherever it occurs).

Every node is hash-consed: constructing a node whose class and fields match
an existing one returns that node, so structurally equal nodes are the same
object and == and hash are object identity.

No traversal recurses per node.  fold is the one post-order pass: render,
canon_alpha, free_vars, substitution and schema's normal proof run on it.
canon_num keeps its own loop, as its children are the arguments of a
split_succs base, which skips a successor tower in one step; so does
rewrite._normalize, whose frames hold head-step targets and spend fuel on
every trip round a rewrite cycle.  The only recursion is one fold per nested
binder, from Substitution._combine, and the parser caps binder nesting
(MAX_BINDER_DEPTH).  So successor towers, long conjunctions and
f(f(...f(0)...)) chains thousands deep never hit the recursion limit.

A binder binds the free and the schematic variables of its name alike, in
equality, substitution and free variables.  Equality up to bound names
compares canonical forms that name each bound variable after its binder's
height, the most binders nested inside its body.

Since nodes are immutable and shared, a Substitution memoizes its result per
input node in a dict that lives and dies with the Substitution object; there
is no module-level substitution cache, so results never depend on what an
earlier call left behind.  Unrolling one link applies one Substitution to the
whole template, so each distinct template subnode is rebuilt once per
expansion.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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


def fold(root, combine, done: dict, leaves=()):
    """The value of root, built bottom-up: every node under root that done
    lacks gets done[node] = combine(node, the tuple of its kids' values),
    kids first, each distinct node once, on an explicit stack.  A node whose
    type is in leaves is combined with no kid values and its kids are not
    visited.  Any object with a kids() method is a node."""
    stack = [root]
    while stack:
        cur = stack[-1]
        if cur in done:
            stack.pop()
            continue
        if type(cur) in leaves:
            done[cur] = combine(cur, ())
            stack.pop()
            continue
        kids = cur.kids()
        pending = [k for k in kids if k not in done]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        done[cur] = combine(cur, tuple(map(done.__getitem__, kids)))
    return done[root]


def render(root: Node) -> str:
    """Concrete syntax."""
    return fold(root, lambda node, kids: node._render(kids), {})


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
    with base None for a pure numeral.  A numeral is answered from its cached
    value, so the cost is O(1) on numerals however tall, and otherwise linear
    in the successors and summands peeled."""
    offset = 0
    while True:
        value = numeral_value(e)
        if value is not None:
            return None, offset + value
        if isinstance(e, Succ):
            offset += 1
            e = e.prev
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
    applications, so s(n), n+1 and 1+n all coincide.  Built bottom-up: an
    application's numeric arguments are canonical before it is."""
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


# ---------------------------------------------------------------------------
# Alpha renaming and equality


def _side_key(side: tuple) -> frozenset:
    counts: dict[int, int] = {}
    for f in side:
        h = hash(canon_alpha(f))
        counts[h] = counts.get(h, 0) + 1
    return frozenset(counts.items())


def canon_alpha(f: Formula) -> Formula:
    """The alpha-variant of f that names each bound variable $h, h being the
    height of its binder (the most binders nested inside its body); alpha-
    variants share it.  It is only compared and hashed, never printed."""
    cached = f.__dict__.get("_ca")
    if cached is None:
        cached = fold(f, _canon_alpha, {}, (Atom,))[0]
        object.__setattr__(f, "_ca", cached)
    return cached


def _canon_alpha(f: Formula, kids: tuple) -> tuple:
    # A subformula's canonical form and its height.  A binder renames its
    # variable in the canonical body with subst; every binder inside is
    # lower and named below $h, so the rename captures nothing, and
    # schematic variables of the bound name are renamed too.
    cls = type(f)
    if cls is Atom:
        return f, 0
    if cls is Forall or cls is Exists or cls is OmegaAll:
        body, height = kids[0]
        name = f"${height}"
        rename = subst_param(f.var, Param(name)) if cls is OmegaAll else subst_vars({f.var: FreeVar(name)})
        return cls(name, subst(body, rename)), height + 1
    canon = tuple(k[0] for k in kids)
    return (f if canon == f.kids() else rebuild(f, canon)), max(k[1] for k in kids)


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
    if cls in (Not, And, Or, Imp):
        return cls(*kids)
    if cls in (Forall, Exists, OmegaAll):
        return cls(node.var, kids[0])
    if not kids:
        return node
    raise TypeError(node)


def free_params(x) -> frozenset[str]:
    """Parameter symbols occurring in a node or sequent."""
    roots = x.formulas() if isinstance(x, Sequent) else (x,)
    return frozenset(n.name for r in roots for n in walk(r) if isinstance(n, Param))


def free_vars(x) -> frozenset[str]:
    """Free individual variables (schematic variable names included) of a
    node or sequent, bottom-up: a binder removes its name from its body's."""
    roots = x.formulas() if isinstance(x, Sequent) else (x,)
    done: dict = {}
    return frozenset().union(*[fold(r, _free_vars, done, (FreeVar, SVar)) for r in roots])


def _free_vars(node: Node, kids: tuple) -> frozenset[str]:
    cls = type(node)
    if cls is FreeVar or cls is SVar:
        return frozenset((node.name,))
    out = frozenset().union(*kids)
    return out - {node.var} if cls is Forall or cls is Exists else out


def is_subterm(small: NumExpr, big: NumExpr) -> bool:
    """Reflexive subterm relation on numeric expressions."""
    return any(small == sub for sub in walk(big))


# ---------------------------------------------------------------------------
# Substitution


@dataclass(frozen=True)
class Substitution:
    """Simultaneous replacement of parameter symbols by numeric expressions
    and of free/schematic variables by terms; capture-avoiding with respect
    to individual-sort binders.

    Each substitution memoizes its results, keyed by the hash-consed input
    node, for as long as the object lives: applying one substitution to
    every sequent of a proof rebuilds each distinct subnode once.  Binders
    apply fresh substitutions to their bodies, which keep their own memos.
    """

    params: Mapping[str, NumExpr]
    vars: Mapping[str, Node]
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        for k, v in self.params.items():
            if not isinstance(v, NumExpr):
                raise SortMismatch(f"parameter {k} must map to a numeric expression, got {v!r}")
        for k, v in self.vars.items():
            if not isinstance(v, (Term, NumExpr)):
                raise SortMismatch(f"variable {k} must map to a term, got {v!r}")

    def is_empty(self) -> bool:
        return not self.params and not self.vars

    def _combine(self, node: Node, kids: tuple) -> Node:
        """node under self, given its kids under self; fold's combine.  A
        binder, a leaf, folds its body under self less its name, renamed
        first if a substituted term would be captured."""
        cls = type(node)
        if cls is FreeVar:
            return self.vars.get(node.name, node)
        if cls is Param:
            return self.params.get(node.name, node)
        if cls is Forall or cls is Exists or cls is OmegaAll:
            var, body = node.var, node.body
            if cls is OmegaAll:
                inner = Substitution({k: v for k, v in self.params.items() if k != var}, self.vars)
            else:
                inner = Substitution(self.params, {k: v for k, v in self.vars.items() if k != var})
                ranges = frozenset().union(*[free_vars(v) for v in inner.vars.values()])
                if var in ranges:
                    # A key of inner would substitute the fresh name too.
                    taken = free_vars(body) | ranges | set(inner.vars)
                    i = 1
                    while f"{var}{i}" in taken:
                        i += 1
                    var = f"{var}{i}"
                    rename = subst_vars({node.var: FreeVar(var)})
                    body = fold(body, rename._combine, rename._memo, _BINDERS)
            if inner.is_empty():
                return node
            new_body = fold(body, inner._combine, inner._memo, _BINDERS)
            return node if var is node.var and new_body is node.body else cls(var, new_body)
        if cls is SVar and node.name in self.vars:
            repl = self.vars[node.name]
            if not isinstance(repl, (SVar, FreeVar)):
                raise SortMismatch(f"schematic variable {node.name} must map to a variable, got {repl!r}")
            return SVar(repl.name, kids[0])
        # Untouched nodes come back as they are, without a lookup in the
        # hash-consing table.
        return node if kids == node.kids() else rebuild(node, kids)


_BINDERS = frozenset((Forall, Exists, OmegaAll))


def subst_param(name: str, value: NumExpr) -> Substitution:
    return Substitution({name: value}, {})


def subst_vars(mapping: Mapping[str, Node]) -> Substitution:
    return Substitution({}, dict(mapping))


def subst(x, sub: Substitution):
    """Apply a substitution to a numeric expression, term, formula or
    sequent."""
    if sub.is_empty():
        return x
    if isinstance(x, Sequent):
        return Sequent(tuple(_subst(f, sub) for f in x.ante), tuple(_subst(f, sub) for f in x.succ))
    return _subst(x, sub)


def _subst(e, sub: Substitution):
    # The memo is fold's table for every call with this sub, and most calls
    # find their answer there.
    hit = sub._memo.get(e)
    return hit if hit is not None else fold(e, sub._combine, sub._memo, _BINDERS)


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
    """root with the node at path replaced by new: walk down, then rebuild
    the spine on the way back up."""
    spine = []
    cur = root
    for i in path:
        kids = cur.kids()
        if i >= len(kids):
            raise IndexError(f"no child {i} at {cur}")
        spine.append((cur, kids, i))
        cur = kids[i]
    for node, kids, i in reversed(spine):
        new = rebuild(node, kids[:i] + (new,) + kids[i + 1 :])
    return new
