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

Every record class derives from Record: its fields are the names annotated
in its class body (after its bases'), a class attribute of a field's name is
its default, and a record is frozen and compares and hashes by its field
values, or by identity if its class says eq=False; schema.replace copies
one with fields changed.  A node class takes exactly its fields, positionally.
Nothing is generated at import time: dataclasses would compile code for each
class with exec, most of the start-up of a one-file CLI run.  Nodes, sequents
and kernel proofs are slotted, with no __dict__: a node class's slots are its
fields (_HashConsed), and Node's hold the caches, set on first use, of
canon_alpha (_ca), numeral_value (_nv), shown_kids (_sh) and _schedule (_sd).
Other records keep a dict.  The rules of kernel.RuleName are plain strings,
not an Enum: on 3.10 and 3.11 every read and hash of an Enum member runs
Python code, which the kernel pays per inference.

No traversal recurses per node.  fold is the one post-order pass:
canon_alpha, free names and substitution schedules run on it.
rewrite._normalize keeps its own loop, whose frames hold head-step targets
and spend fuel on every trip round a rewrite cycle.  So successor towers,
long conjunctions, f(f(...f(0)...)) chains and binders thousands deep never
hit the recursion limit.

Bound variables have canonical names.  A binder's body names its bound
variable $h, h being the body's height, the most binders nested in it; a
binder of the individual sort binds the free and the schematic variables of
that name alike, an omega binder binds the parameter.  No name a user
writes starts with $, and every binder inside the body is lower, so no
substitution captures anything and none renames: alpha-variants differ only
in their hints, the names they were written with, which printing alone
reads.  bind closes a body over a name and open_body puts a value in for
the bound variable.  Printing opens a binder under its display name: its
hint, or the first hint1, hint2, ... not free in its body.

Since nodes are immutable and shared, a Substitution memoizes its result per
input node in a dict that lives and dies with it, so results never depend on
what an earlier call left behind.  One loop, fill, rebuilds the nodes a
substitution can change (_schedule), for subst, bind, open_body and rewrite
steps alike; unrolling one link fills its template's open expressions over
one seeded memo, so each distinct template subnode is rebuilt once per expansion.
"""

from __future__ import annotations

from operator import methodcaller
from typing import Iterator, Mapping


class SortMismatch(Exception):
    """A substitution mapped a symbol to a value of the wrong sort."""


# ---------------------------------------------------------------------------
# Records and nodes


_setattr = object.__setattr__


def _values(record) -> tuple:
    return tuple([getattr(record, name) for name in record._fields])


class Record:
    """An immutable record, built as the module docstring describes."""

    __slots__ = ()
    _fields: tuple = ()

    def __init_subclass__(cls, eq=True):
        cls._fields += tuple(name for name in cls.__annotations__ if name not in cls._fields)
        cls._defaults = {name: getattr(cls, name) for name in cls._fields if hasattr(cls, name)}
        cls._names = frozenset(cls._fields)
        if not eq:
            cls.__eq__, cls.__hash__ = object.__eq__, object.__hash__

    def __init__(self, *args, **kwargs):
        fields = self._fields
        # Fields are set in field order, so instances share one dict key table.
        if kwargs or len(args) != len(fields):  # bind keywords and defaults
            values = self._defaults | kwargs
            values.update(zip(fields, args))
            if values.keys() != self._names or len(args) > len(fields) or args and kwargs.keys() & fields[: len(args)]:
                raise TypeError(f"{type(self).__name__} takes {fields}, got {len(args)} values and {sorted(kwargs)}")
            for name in fields:
                _setattr(self, name, values[name])
            return
        for name, value in zip(fields, args):
            _setattr(self, name, value)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is frozen: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        return _values(self) == _values(other) if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(_values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


_NODES: dict = {}


class _HashConsed(type):
    """Looks a node up by its class and positional fields before building
    it, so each distinct node exists once per process.  A node class's
    slots are its fields, the names annotated in its body."""

    def __new__(mcls, name, bases, ns, **kwargs):
        ns.setdefault("__slots__", tuple(ns.get("__annotations__", ())))
        return super().__new__(mcls, name, bases, ns, **kwargs)

    def __call__(cls, *fields):
        key = (cls, *fields)
        node = _NODES.get(key)
        if node is None:
            if len(fields) != len(cls._fields):
                raise TypeError(f"{cls.__name__} takes {len(cls._fields)} fields, got {len(fields)}")
            node = object.__new__(cls)
            for name, value in zip(cls._fields, fields):
                _setattr(node, name, value)
            _NODES[key] = node
        return node


class Node(Record, eq=False, metaclass=_HashConsed):
    __slots__ = ("_ca", "_nv", "_sh", "_sd")  # the caches, set on first use

    def kids(self) -> tuple:
        return ()

    def __str__(self) -> str:
        return render(self)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self}>"


def fold(root, combine, done, leaves=(), kids_of=methodcaller("kids")):
    """The value of root, built bottom-up: every node under root that done
    lacks gets done[node] = combine(node, the tuple of its kids' values),
    kids first, each distinct node once, on an explicit stack.  A node whose
    type is in leaves is combined with no kid values and its kids are not
    visited.  Any object with a kids() method is a node; kids_of may give
    other kids."""
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
        kids = kids_of(cur)
        pending = [k for k in kids if k not in done]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        done[cur] = combine(cur, tuple(map(done.__getitem__, kids)))
    return done[root]


def render(root: Node) -> str:
    """Concrete syntax, binders under their display names: one pass, linear in the text."""
    out, stack = [], [root]
    while stack:
        item = stack.pop()
        if type(item) is str:
            out.append(item)
        else:
            stack += reversed(_pieces(item))
    return "".join(out)


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


class Zero(NumExpr):
    pass


class Succ(NumExpr):
    prev: NumExpr

    def kids(self):
        return (self.prev,)


class Param(NumExpr):
    name: str


class NumFn(NumExpr):
    """Application of a defined numeric function.

    The built-in sum carries the symbol "+"; superscript families like 2^e
    carry their base plus a trailing caret ("2^").
    """

    sym: str
    args: tuple

    def kids(self):
        return self.args


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
    chain, cur = [], e
    while type(cur) is Succ and getattr(cur, "_nv", None) is None:
        chain.append(cur)
        cur = cur.prev
    value = cur._nv if type(cur) is Succ else 0 if type(cur) is Zero else -1  # -1: not a numeral
    for node in reversed(chain):
        if value >= 0:
            value += 1
        _setattr(node, "_nv", value)
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
        elif type(e) is NumFn and e.sym == "+":
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


# ---------------------------------------------------------------------------
# Individual sort


class Term(Node):
    pass


class FreeVar(Term):
    name: str


class SVar(Term):
    """Schematic variable applied to its numeric index: x[e]."""

    name: str
    index: NumExpr

    def kids(self):
        return (self.index,)


class Fn(Term):
    """Function application; whether the symbol is defined is a property of
    the rewrite theory in play, not of the node."""

    sym: str
    args: tuple

    def kids(self):
        return self.args


# ---------------------------------------------------------------------------
# Formula schemata


class Formula(Node):
    pass


class Atom(Formula):
    pred: str
    args: tuple

    def kids(self):
        return self.args


class Not(Formula):
    body: Formula

    def kids(self):
        return (self.body,)


class And(Formula):
    lhs: Formula
    rhs: Formula

    def kids(self):
        return (self.lhs, self.rhs)


class Or(Formula):
    lhs: Formula
    rhs: Formula

    def kids(self):
        return (self.lhs, self.rhs)


class Imp(Formula):
    lhs: Formula
    rhs: Formula

    def kids(self):
        return (self.lhs, self.rhs)


class Binder(Formula):
    """A quantifier: body names its bound variable var, "$h", h being the
    body's height; hint is the name it was written with.  bind builds one
    and open_body reads its body."""

    var: str
    hint: str
    body: Formula

    def kids(self):
        return (self.body,)


class Forall(Binder):
    pass


class Exists(Binder):
    pass


class OmegaAll(Binder):
    """Universal quantification over the numeric sort, which binds a
    parameter; only the emitted interpretation formulas use it."""


_BINDERS = frozenset((Forall, Exists, OmegaAll))


# Per node, the variable names, schematic ones included, and the parameter
# names free in it, and its height; each node is folded once.
_SCOPES: dict = {}
_NO_NAMES = frozenset()


def _scope(node: Node) -> tuple:
    return fold(node, _names, _SCOPES)


def _names(node: Node, kids: tuple) -> tuple:
    cls = type(node)
    if cls is FreeVar:
        return frozenset((node.name,)), _NO_NAMES, 0
    if cls is Param:
        return _NO_NAMES, frozenset((node.name,)), 0
    variables, params, heights = zip(*kids) if kids else ((), (), (0,))
    variables, params, height = _NO_NAMES.union(*variables), _NO_NAMES.union(*params), max(heights)
    if cls is SVar:
        variables |= {node.name}
    elif cls is OmegaAll:
        params, height = params - {node.var}, height + 1
    elif cls in _BINDERS:
        variables, height = variables - {node.var}, height + 1
    return variables, params, height


def free_names(x) -> tuple:
    """The variable names, schematic ones included, and the parameter names
    free in a node or sequent."""
    scopes = [_scope(f) for f in (x.formulas() if isinstance(x, Sequent) else (x,))]
    return _NO_NAMES.union(*[s[0] for s in scopes]), _NO_NAMES.union(*[s[1] for s in scopes])


def free_vars(x) -> frozenset[str]:
    """Free individual variables, schematic variable names included, of a
    node or sequent."""
    return free_names(x)[0]


def free_params(x) -> frozenset[str]:
    """Free parameter symbols of a node or sequent."""
    return free_names(x)[1]


def _put(cls, body: Formula, name: str, value) -> Formula:
    """body with value, or the variable named value, for name in the sort a
    binder cls binds."""
    omega = cls is OmegaAll
    if name not in _scope(body)[omega]:
        return body
    if isinstance(value, str):
        value = Param(value) if omega else FreeVar(value)
    elif not isinstance(value, NumExpr if omega else (Term, NumExpr)):
        raise SortMismatch(f"{name} cannot map to {value!r}")  # open_body words it
    domain = (frozenset((name,)), _NO_NAMES) if omega else (_NO_NAMES, frozenset((name,)))
    return fill(body, _schedule(body, domain), {(Param if omega else FreeVar)(name): value})


def bind(cls, name: str, body: Formula, hint: str | None = None) -> Binder:
    """The binder cls over body binding name, hinted name unless hint is
    given."""
    var = f"${_scope(body)[2]}"
    return cls(var, name if hint is None else hint, _put(cls, body, name, var))


def open_body(binder: Binder, value) -> Formula:
    """The body of binder with value, or the variable named value, for its
    bound variable."""
    try:
        return _put(type(binder), binder.body, binder.var, value)
    except SortMismatch:  # a schematic variable of the bound name met a term
        raise SortMismatch(f"schematic variable {display_name(binder)} must map to a variable, got {value!r}") from None


def display_name(binder: Binder) -> str:
    """binder's hint, or the first hint1, hint2, ... not free in its body."""
    taken = _scope(binder.body)[type(binder) is OmegaAll]
    name, i = binder.hint, 0
    while name in taken:
        i += 1
        name = f"{binder.hint}{i}"
    return name


def shown_kids(node: Node) -> tuple:
    """The kids of node as printed: a binder's body opened under its
    display name, cached on the binder."""
    if type(node) not in _BINDERS:
        return node.kids()
    if getattr(node, "_sh", None) is None:
        _setattr(node, "_sh", (open_body(node, display_name(node)),))
    return node._sh


def rebuild_shown(node: Node, kids: tuple) -> Node:
    """node with the kids shown_kids gives replaced by kids: a binder closes
    the body again over its display name."""
    if type(node) in _BINDERS:
        return bind(type(node), display_name(node), kids[0], node.hint)
    return rebuild(node, kids)


# ---------------------------------------------------------------------------
# Concrete syntax


# The formula connectives as the parser reads them and render writes them:
# spelling, precedence (tightest highest), and whether a binary one groups to
# the right.  A binder binds loosest, its body extending as far right as it
# can; any other formula binds tightest.
CONNECTIVES = {Imp: ("->", 1, True), Or: ("\\/", 2, False), And: ("/\\", 3, False), Not: ("~", 4, False)}
_PREC = dict.fromkeys(_BINDERS, 0) | {cls: prec for cls, (_, prec, _) in CONNECTIVES.items()}
_ATOMIC = max(_PREC.values()) + 1


def _pieces(node: Node) -> list:
    """render's step: the text of node as text and kids to write, in order."""
    cls = type(node)
    if cls is Fn or cls is Atom or cls is NumFn:
        head, args = node.pred if cls is Atom else node.sym, node.args
        if head == "+":  # a sum on the right is bracketed
            return [args[0], " + ", *(["(", args[1], ")"] if getattr(args[1], "sym", None) == "+" else args[1:])]
        if head[-1] != "^":
            return [head] if not args and cls is Atom else [head, "(", *[p for a in args for p in (", ", a)][1:], ")"]
        bare = type(args[0]) is Param or numeral_value(args[0]) is not None  # else the superscript is bracketed
        out = [head, args[0]] if bare else [head, "(", args[0], ")"]
        return out + ["(", *[p for a in args[1:] for p in (", ", a)][1:], ")"] if args[1:] else out
    if cls is Param or cls is FreeVar:
        return [node.name]
    if cls is Succ or cls is Zero:
        return ["s(", node.prev, ")"] if (value := numeral_value(node)) is None else [str(value)]
    if cls is SVar:
        return [node.name, "[", node.index, "]"]
    if cls in _BINDERS:
        quantifier = "exists" if cls is Exists else "forall"
        return [f"{quantifier} {display_name(node)}{':omega' if cls is OmegaAll else ''}. ", shown_kids(node)[0]]
    # A connective.  A kid that binds looser than its place allows is
    # bracketed; the kid on the side it does not group to must bind tighter.
    sym, prec, right = CONNECTIVES[cls]
    least = (prec,) if cls is Not else (prec + right, prec + (not right))
    kids = [[k] if _PREC.get(type(k), _ATOMIC) >= m else ["(", k, ")"] for k, m in zip(node.kids(), least)]
    return [sym, *kids[0]] if cls is Not else [*kids[0], f" {sym} ", *kids[1]]


# ---------------------------------------------------------------------------
# Sequents


class Sequent(Record):
    __slots__ = ("ante", "succ")
    ante: tuple
    succ: tuple

    def __init__(self, ante, succ):
        _setattr(self, "ante", ante)
        _setattr(self, "succ", succ)

    def text(self, turnstile: str = "|-") -> str:
        left, right = (", ".join(map(render, side)) for side in (self.ante, self.succ))
        return f"{left} {turnstile} {right}".strip()

    __str__ = text

    def __repr__(self):
        return f"<Sequent {self}>"

    def formulas(self):
        return self.ante + self.succ

    def __eq__(self, other):
        return sequent_eq(self, other) if isinstance(other, Sequent) else NotImplemented

    def __hash__(self):
        return hash((frozenset(map(canon_alpha, self.ante)), frozenset(map(canon_alpha, self.succ))))


# ---------------------------------------------------------------------------
# Alpha renaming and equality


def canon_alpha(f: Formula) -> Formula:
    """f with every binder's hint blanked; alpha-variants share it.  It is
    only compared and hashed, never printed."""
    cached = getattr(f, "_ca", None)
    if cached is None:
        cached = fold(f, _unhinted, {}, (Atom,))
        _setattr(f, "_ca", cached)
    return cached


def _unhinted(f: Formula, kids: tuple) -> Formula:
    cls = type(f)
    if cls is Atom:
        return f
    if cls in _BINDERS:
        return cls(f.var, "", kids[0])
    return f if kids == f.kids() else rebuild(f, kids)


def formula_eq(a: Formula, b: Formula) -> bool:
    """Syntactic equality modulo renaming of bound variables."""
    return canon_alpha(a) == canon_alpha(b)


def multiset_eq(xs: tuple, ys: tuple) -> bool:
    if len(xs) != len(ys):
        return False
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
    if a is b or a.ante == b.ante and a.succ == b.succ:  # hash-consed: tuples compare by identity
        return True
    return multiset_eq(a.ante, b.ante) and multiset_eq(a.succ, b.succ)


# ---------------------------------------------------------------------------
# Rebuilding, free symbols


def rebuild(node: Node, kids: tuple) -> Node:
    cls = type(node)
    if cls is Fn or cls is NumFn:
        return cls(node.sym, kids)
    if cls is Atom:
        return Atom(node.pred, kids)
    if cls is SVar:
        return SVar(node.name, kids[0])
    if cls is Succ or cls in CONNECTIVES:
        return cls(*kids)
    if cls in _BINDERS:  # substitution keeps every height
        return cls(node.var, node.hint, kids[0])
    if not kids:
        return node
    raise TypeError(node)


# ---------------------------------------------------------------------------
# Substitution


class Substitution(Record):
    """Simultaneous replacement of parameter symbols by numeric expressions
    and of free/schematic variables by terms.  A binder is an ordinary node:
    the names it binds start with $, which no key or value does (bind and
    open_body aside, whose keys and values capture nothing).  Its memo of
    results, keyed by the hash-consed input node, lives with the object: one
    substitution applied to every sequent of a proof rebuilds each distinct
    subnode once."""

    params: Mapping[str, NumExpr]
    vars: Mapping[str, Node]
    __hash__ = None  # its fields are dicts

    def __init__(self, params, vars):
        memo = {}  # seeded with each parameter and variable node replaced
        for k, v in params.items():
            if not isinstance(v, NumExpr):
                raise SortMismatch(f"parameter {k} must map to a numeric expression, got {v!r}")
            memo[Param(k)] = v
        for k, v in vars.items():
            if not isinstance(v, (Term, NumExpr)):
                raise SortMismatch(f"variable {k} must map to a term, got {v!r}")
            memo[FreeVar(k)] = v
        _setattr(self, "params", params)
        _setattr(self, "vars", vars)
        _setattr(self, "_memo", memo)  # not fields: equality ignores them
        _setattr(self, "_domain", (frozenset(params), frozenset(vars)))

    def is_empty(self) -> bool:
        return not self.params and not self.vars


def subst(x, sub: Substitution):
    """Apply a substitution to a numeric expression, term, formula or
    sequent."""
    if sub.is_empty():
        return x
    memo = sub._memo
    for root in x.formulas() if isinstance(x, Sequent) else (x,):
        if root not in memo:  # a node off the schedule maps to itself
            fill(root, _schedule(root, sub._domain), memo)
    if isinstance(x, Sequent):
        return Sequent(tuple([memo.get(f, f) for f in x.ante]), tuple([memo.get(f, f) for f in x.succ]))
    return memo.get(x, x)


def fill(root: Node, schedule: list, memo: dict) -> Node:
    """root under memo, which maps each parameter and variable node replaced
    to its value: the substitution loop of subst, bind, open_body and rewrite
    steps.  Each node of root's schedule gets its image in memo, kids first;
    untouched ones stay as they are, without a hash-consing lookup."""
    for node in schedule:
        if node in memo:
            continue
        kids = node.kids()
        new = tuple([memo.get(k, k) for k in kids])
        if type(node) is SVar and (repl := memo.get(FreeVar(node.name))) is not None:
            if type(repl) is not SVar and type(repl) is not FreeVar:
                raise SortMismatch(f"schematic variable {node.name} must map to a variable, got {repl!r}")
            memo[node] = SVar(repl.name, new[0])
        else:
            memo[node] = node if new == kids else rebuild(node, new)
    return memo.get(root, root)


def _schedule(root, domain: tuple) -> list:
    """In fold's combine order, the subnodes of root that a substitution of
    the parameter and variable names in domain can change: those over such
    a name.  The fold enters no kid free of them.  Cached on root, per
    domain."""
    cache = getattr(root, "_sd", None)
    if cache is None:
        _setattr(root, "_sd", cache := {})
    if domain not in cache:
        params, names = domain

        def over(node) -> bool:
            variables, free, _ = _scope(node)
            return not (variables.isdisjoint(names) and free.isdisjoint(params))

        out = []
        if over(root):
            fold(root, lambda node, kids: out.append(node), {}, (), lambda node: [k for k in node.kids() if over(k)])
        cache[domain] = out  # only once whole, as another thread may read it
    return cache[domain]


# ---------------------------------------------------------------------------
# Positions inside formulas


def node_at(root: Node, path: tuple) -> Node:
    """The node at path in root as printed: a path into a binder's body
    addresses the body opened under the binder's display name."""
    return _spine(root, path)[1]


def _spine(root: Node, path: tuple) -> tuple:
    spine = []
    cur = root
    for i in path:
        kids = shown_kids(cur)
        if i >= len(kids):
            raise IndexError(f"no child {i} at {cur}")
        spine.append((cur, kids, i))
        cur = kids[i]
    return spine, cur


def replace_at(root: Node, path: tuple, new: Node) -> Node:
    """root with the node at path, as node_at reads it, replaced by new:
    walk down, then rebuild the spine on the way back up."""
    for node, kids, i in reversed(_spine(root, path)[0]):
        new = rebuild_shown(node, kids[:i] + (new,) + kids[i + 1 :])
    return new
