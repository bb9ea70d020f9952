"""Concrete syntax for the whole toolbox.

One lexer serves expressions, theory files, proof files, schema files, and
script files: a single compiled pattern, `_TOKEN`, matched once per token.
Expressions embedded in the structured formats are quoted.  One loop reads
every expression, formula, term or numeric, by precedence climbing over an
explicit stack, so expressions nest without limit except binders, which
nest at most MAX_BINDER_DEPTH deep.

Conventions the grammar fixes:
  * `n` is the free parameter, everywhere; `s(e)` is the numeric successor;
    decimal literals abbreviate successor towers.
  * `name^e` is a defined symbol carrying a numeric index: with a decimal
    base (`2^e`) it is numeric-valued, with an identifier base it lives in
    the individual sort (`S^0`, `f^n(x)`) or, in formula position, is a
    defined predicate (`W^n`, `W2^n(y)`).
  * `x[e]` applies a schematic variable to its index.
  * `+` between two numeric expressions is the built-in numeric sum; with
    an individual operand it is an ordinary defined function.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path
from typing import NamedTuple

from . import rewrite as rw
from .kernel import Proof, RuleData, RuleName, RULE_TOKENS
from .schema import ProofSchema, SchemaComponent
from .syntax import (
    Atom,
    Exists,
    Fn,
    Forall,
    Formula,
    FreeVar,
    Imp,
    Node,
    Not,
    NumExpr,
    NumFn,
    OmegaAll,
    Or,
    And,
    Param,
    Sequent,
    SVar,
    Succ,
    node_at,
    numeral,
    walk,
)


class ParseError(Exception):
    def __init__(self, message: str, line: int = 0, col: int = 0):
        self.line = line
        self.col = col
        where = f" at {line}:{col}" if line else ""
        super().__init__(f"{message}{where}")


# ---------------------------------------------------------------------------
# Lexer

_RULE_SYMBOLS = sorted(
    (tok for tok in RULE_TOKENS if any(c in tok for c in ":\\/~>")),
    key=len,
    reverse=True,
)
_MULTI = ["|-{", "|-", "==", "->", "/\\", "\\/"]
_SINGLE = "()[]{},.^+~;=:-"


def _symbol(sym: str) -> str:
    # A symbol ending in a letter is no symbol inside a longer word: `w:lx`
    # is `w`, `:`, `lx`.
    return re.escape(sym) + (r"(?![\w'])" if sym[-1].isalnum() else "")


# Tried in order at each position, the first alternative that matches wins.
# Single characters come last among the symbols; none of them can start a
# string, a numeral or an identifier.  Identifiers with an ASCII start take
# the fast path; any other character lands in `other`, where tokenize keeps
# a word that starts with a letter and reports the rest.
_TOKEN = re.compile(
    "|".join(
        [
            r"(?P<newline>\n)",
            r"(?P<skip>[ \t\r]+|\#[^\n]*)",
            "(?P<sym>" + "|".join(map(_symbol, _RULE_SYMBOLS + _MULTI)) + f"|[{re.escape(_SINGLE)}])",
            r'"(?P<str>[^"]*)"',
            r"(?P<num>[0-9]+)",
            r"(?P<ident>[A-Za-z_][\w']*)",
            r"(?P<other>[^\W\d][\w']*|.)",
        ]
    )
)


class Token(NamedTuple):
    kind: str  # ident, num, str, sym, eof
    text: str
    line: int
    col: int


def tokenize(text: str, line: int = 1, col: int = 1) -> list:
    """Tokens of ``text``, positioned as if it started at ``line``:``col``
    of its file."""
    out = []
    line_start = 1 - col
    for mo in _TOKEN.finditer(text):
        kind = mo.lastgroup
        if kind == "skip":
            continue
        if kind == "newline":
            line += 1
            line_start = mo.end()
            continue
        col = mo.start() - line_start + 1
        value = mo.group(kind)
        if kind == "other":
            c = value[0]
            if not c.isalpha():
                raise ParseError("unterminated string" if c == '"' else f"stray character {c!r}", line, col)
            kind = "ident"
        out.append(Token(kind, value, line, col))
        if kind == "str" and "\n" in value:
            line += value.count("\n")
            line_start = mo.start(kind) + value.rindex("\n") + 1
    out.append(Token("eof", "", line, len(text) - line_start + 1))
    return out


class TokenStream:
    def __init__(self, tokens: list):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.peek()
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def at_sym(self, text: str) -> bool:
        tok = self.peek()
        return tok.kind == "sym" and tok.text == text

    def eat_sym(self, text: str) -> bool:
        if self.at_sym(text):
            self.next()
            return True
        return False

    def expect_sym(self, text: str) -> Token:
        if not self.at_sym(text):
            _expected(repr(text), self.peek())
        return self.next()

    def expect(self, kind: str) -> Token:
        if self.peek().kind != kind:
            _expected(kind, self.peek())
        return self.next()

    def fail(self, msg: str):
        tok = self.peek()
        raise ParseError(msg, tok.line, tok.col)


# ---------------------------------------------------------------------------
# Expressions

PARAM_NAME = "n"

# The sorts an expression is read in; each names itself in error messages.
FORMULA, TERM, NUM, SUP = "formula", "term", "numeric expression", "superscript"

# Binders nest at most this deep in one formula.  Substitution recurses once
# per nested binder (syntax.Substitution._combine folds the body), and this
# depth keeps it well inside Python's stack; unrolling only instantiates
# templates, so it never nests binders deeper than its input does.
MAX_BINDER_DEPTH = 256


def _plus(a: Node, b: Node) -> Node:
    if isinstance(a, NumExpr) and isinstance(b, NumExpr):
        return NumFn("+", (a, b))
    return Fn("+", (a, b))


def _no_numeric_exists(tok: Token, var: str, body: Formula):
    raise ParseError("only universal numeric quantifiers exist", tok.line, tok.col)


# The infix operators of each sort: precedence, right-associative, builder.
_INFIX = {
    FORMULA: {"->": (1, True, Imp), "\\/": (2, False, Or), "/\\": (3, False, And)},
    TERM: {"+": (1, False, _plus)},
    NUM: {"+": (1, False, _plus)},
    SUP: {},
}
# What a name applied to arguments or to a superscript builds, per sort.
_APPLY = {FORMULA: Atom, TERM: Fn, NUM: NumFn}


def _expected(what: str, tok: Token):
    raise ParseError(f"expected {what}, found {tok.text!r}", tok.line, tok.col)


def _parse_expr(ts: TokenStream, sort: str) -> Node:
    """One expression of ``sort`` read from ``ts`` by precedence climbing
    over an explicit stack, so nesting costs no Python stack.  The stack
    holds operators, (precedence, builder, leading arguments), and frames,
    (-1, kind, enclosing sort, ...), one per open bracket, argument list or
    superscript.  ~ binds tightest; a binder is an operator of precedence
    0, so its body extends to the end of the expression it stands in."""
    tokens = ts.tokens
    pos = ts.pos
    stack: list = [(-1, "root")]
    binders = 0
    while True:
        # One operand: a leaf, or an opening token that pushes its entry and
        # reads on.
        tok = tokens[pos]
        kind, text = tok.kind, tok.text
        if kind == "ident" and sort == FORMULA and text in ("forall", "exists"):
            binders += 1
            if binders > MAX_BINDER_DEPTH:
                raise ParseError(f"binders nested more than {MAX_BINDER_DEPTH} deep", tok.line, tok.col)
            ts.pos = pos + 1
            var = ts.expect("ident").text
            build = Forall if text == "forall" else Exists
            if ts.eat_sym(":"):
                name = ts.expect("ident")
                if name.text != "omega":
                    raise ParseError(f"unknown sort {name.text!r}", name.line, name.col)
                build = OmegaAll if text == "forall" else partial(_no_numeric_exists, tok)
            ts.expect_sym(".")
            pos = ts.pos
            stack.append((0, build, (var,)))
            continue
        if kind == "sym" and (text == "(" or text == "~" and sort == FORMULA):
            pos += 1
            if text == "~":
                stack.append((4, Not, ()))
            else:
                stack.append((-1, "close", sort, ")", None))
                sort = NUM if sort == SUP else sort
            continue
        if kind == "ident" or (kind == "num" and sort != FORMULA):
            pos += 1
            after = tokens[pos].text if tokens[pos].kind == "sym" else None
            if sort == SUP:
                value = Param(text) if kind == "ident" else numeral(int(text))
            elif after == "^":
                pos += 1
                stack.append((-1, "sup", sort, NumFn if kind == "num" else _APPLY[sort], text + "^"))
                sort = SUP
                continue
            elif kind == "num":
                value = numeral(int(text))
            elif (after == "(" and text == "s" and sort != FORMULA) or (after == "[" and sort == TERM):
                # s(e) and x[e] read a numeric expression.
                pos += 1
                wrap, close = (Succ, ")") if after == "(" else (partial(SVar, text), "]")
                stack.append((-1, "close", sort, close, wrap))
                sort = NUM
                continue
            elif after == "(" and sort != NUM:
                pos += 1
                stack.append((-1, "args", sort, _APPLY[sort], text, []))
                sort = TERM
                if tokens[pos].kind != "sym" or tokens[pos].text != ")":
                    continue
                value = None  # no arguments: the frame closes at once
            elif sort == FORMULA:
                value = Atom(text, ())
            elif sort == TERM and text != PARAM_NAME:
                value = FreeVar(text)
            else:
                value = Param(text)
        else:
            raise ParseError(f"expected a {sort}", tok.line, tok.col)

        # After an operand: take an infix operator and read its right operand,
        # or end the expression and close its frame.
        while True:
            tok = tokens[pos]
            sym = tok.text if tok.kind == "sym" else None
            op = _INFIX[sort].get(sym)
            if op is not None:
                prec, right, build = op
                while stack[-1][0] > prec or (stack[-1][0] == prec and not right):
                    _, done, args = stack.pop()
                    value = done(*args, value)
                pos += 1
                stack.append((prec, build, (value,)))
                break
            while stack[-1][0] >= 0:
                prec, done, args = stack.pop()
                if prec == 0:
                    binders -= 1
                value = done(*args, value)
            frame = stack[-1]
            what = frame[1]
            if what == "root":
                ts.pos = pos
                return value
            if what == "sup" and (sym != "(" or frame[3] is NumFn):
                stack.pop()
                sort = frame[2]
                value = frame[3](frame[4], (value,))
                continue
            if what == "sup":
                # A superscripted name applied to arguments: f^n(x).
                pos += 1
                stack[-1] = (-1, "args", frame[2], frame[3], frame[4], [value])
                sort, value = TERM, None
                if tokens[pos].kind != "sym" or tokens[pos].text != ")":
                    break
                continue
            if what == "args":
                if value is not None:
                    frame[5].append(value)
                if sym == ",":
                    pos += 1
                    break
            close = ")" if what == "args" else frame[3]
            if sym != close:
                _expected(repr(close), tok)
            pos += 1
            stack.pop()
            sort = frame[2]
            if what == "args":
                value = frame[3](frame[4], tuple(frame[5]))
            elif frame[4] is not None:
                value = frame[4](value)


def _parse_sequent(ts: TokenStream) -> Sequent:
    ante: list = []
    if not (ts.at_sym("|-") or ts.at_sym("|-{")):
        ante.append(_parse_expr(ts, FORMULA))
        while ts.eat_sym(","):
            ante.append(_parse_expr(ts, FORMULA))
    ts.expect_sym("|-")
    succ: list = []
    if ts.peek().kind != "eof" and not ts.at_sym(")"):
        succ.append(_parse_expr(ts, FORMULA))
        while ts.eat_sym(","):
            succ.append(_parse_expr(ts, FORMULA))
    return Sequent(tuple(ante), tuple(succ))


def _parse_text(text: str, what: str, line: int = 1, col: int = 1, read=None):
    """Parse all of ``text``, which starts at ``line``:``col`` of its file,
    with ``read``, by default as an expression of the sort ``what``."""
    ts = TokenStream(tokenize(text, line, col))
    value = _parse_expr(ts, what) if read is None else read(ts)
    tok = ts.peek()
    if tok.kind != "eof":
        raise ParseError(f"trailing input after {what}: {tok.text!r}", tok.line, tok.col)
    return value


def parse_numexpr(text: str) -> NumExpr:
    return _parse_text(text, NUM)


def parse_term(text: str, line: int = 1, col: int = 1) -> Node:
    return _parse_text(text, TERM, line, col)


def parse_formula(text: str, line: int = 1, col: int = 1) -> Formula:
    return _parse_text(text, FORMULA, line, col)


def parse_sequent(text: str) -> Sequent:
    return _parse_text(text, "sequent", read=_parse_sequent)


def parse_replacement(text: str, want_formula: bool, line: int = 1, col: int = 1) -> Node:
    """A `to=` replacement, a formula or a term, starting at ``line``:``col``."""
    return parse_formula(text, line, col) if want_formula else parse_term(text, line, col)


def _quoted(ts: TokenStream, what: str, read=None):
    """The next token, a string, parsed as ``_parse_text`` does; errors
    point into the file."""
    tok = ts.expect("str")
    return _parse_text(tok.text, what, tok.line, tok.col + 1, read)


# ---------------------------------------------------------------------------
# Theory files


def parse_theory(text: str, fuel: int = rw.DEFAULT_FUEL) -> rw.EquationalTheory:
    """One rule per line, `lhs == rhs;`; a `pred` marker forces the formula
    reading when a rule would also parse as a term rewrite."""
    rules = []
    pred_heads: set = set()
    pending = []  # (line_no, sides, forced_pred); a side is (text, col)
    for line_no, raw in enumerate(text.splitlines(), 1):
        code = raw.split("#", 1)[0]
        line = code.strip()
        if not line:
            continue
        if not line.endswith(";"):
            raise ParseError("rule lines end with ';'", line_no, len(raw))
        line = line[:-1]
        col = len(code) - len(code.lstrip()) + 1
        forced = False
        if line.startswith("pred "):
            forced = True
            line = line[5:]
            col += 5
        if "==" not in line:
            raise ParseError("a rule needs '=='", line_no, 1)
        lhs_text, rhs_text = line.split("==", 1)
        sides = (_side(lhs_text, col), _side(rhs_text, col + len(lhs_text) + 2))
        pending.append((line_no, sides, forced))

    def as_rule(sort, line_no, sides):
        return tuple(_parse_text(text, sort, line_no, col) for text, col in sides)

    drafts = []
    for line_no, sides, forced in pending:
        if forced:
            lhs, rhs = as_rule(FORMULA, line_no, sides)
            pred_heads.add(_head_name(lhs))
        else:
            try:
                lhs, rhs = as_rule(TERM, line_no, sides)
            except ParseError:
                lhs, rhs = as_rule(FORMULA, line_no, sides)
                pred_heads.add(_head_name(lhs))
        drafts.append((line_no, sides, lhs, rhs))
    for line_no, sides, lhs, rhs in drafts:
        if not isinstance(lhs, Formula) and _head_name(lhs) in pred_heads:
            lhs, rhs = as_rule(FORMULA, line_no, sides)
        rules.append(rw.RewriteRule(lhs, rhs, line_no))
    return rw.EquationalTheory(tuple(rules), fuel)


def _side(text: str, col: int) -> tuple:
    """One side of a rule without its blanks, and the column it starts at."""
    return text.strip(), col + len(text) - len(text.lstrip())


def _head_name(node) -> str | None:
    if isinstance(node, (Fn, NumFn)):
        return node.sym
    if isinstance(node, Atom):
        return node.pred
    return None


# ---------------------------------------------------------------------------
# Proof files


_INT_KEYS = {"a", "b", "group", "pair", "pair2", "target"}
_QUOTED_KEYS = {"formula": FORMULA, "term": TERM, "param": NUM, "ann": NUM, "g": NUM, "f": NUM}


def _parse_kv(ts: TokenStream, keys: frozenset) -> dict:
    out: dict = {}
    while True:
        tok = ts.peek()
        if tok.kind != "ident" or tok.text not in keys:
            return out
        key = ts.next().text
        if key == "whole":
            out["whole"] = True
            continue
        ts.eat_sym("=")
        if key == "target":
            tok = ts.peek()
            if tok.kind == "num":
                out[key] = int(ts.next().text)
            else:
                out[key] = ts.expect("ident").text
        elif key in _INT_KEYS:
            out[key] = int(ts.expect("num").text)
        elif key in _QUOTED_KEYS:
            out[key] = _quoted(ts, _QUOTED_KEYS[key])
        elif key == "pattern":
            out[key] = _quoted(ts, "sequent", _parse_sequent)
        elif key == "eigen":
            out[key] = ts.expect("ident").text
        elif key == "at":
            side = ts.expect("ident").text
            if side not in ("L", "R"):
                ts.fail("positions start with L or R")
            ts.expect_sym(".")
            out["side"] = side
            out["idx"] = int(ts.expect("num").text)
        elif key == "path":
            path = [int(ts.expect("num").text)]
            while ts.eat_sym("."):
                path.append(int(ts.expect("num").text))
            out["path"] = tuple(path)
        elif key == "vars":
            out["vars"] = _parse_name_list(ts)
        elif key == "terms":
            close = _open_list(ts)
            terms = []
            if not ts.at_sym(close):
                terms.append(_parse_expr(ts, TERM))
                while ts.eat_sym(","):
                    terms.append(_parse_expr(ts, TERM))
            ts.expect_sym(close)
            out["terms"] = tuple(terms)
        else:  # to: resolved against the premise it rewrites, so kept as its token
            out[key] = ts.expect("str")


def _open_list(ts: TokenStream) -> str:
    # Both (x, y) and [x, y] delimit vectors.
    if ts.eat_sym("["):
        return "]"
    ts.expect_sym("(")
    return ")"


def _parse_name_list(ts: TokenStream) -> tuple:
    close = _open_list(ts)
    names = []
    if not ts.at_sym(close):
        names.append(ts.expect("ident").text)
        while ts.eat_sym(","):
            names.append(ts.expect("ident").text)
    ts.expect_sym(close)
    return tuple(names)


_NODE_KEYS = frozenset(
    {"a", "b", "formula", "term", "eigen", "at", "path", "to", "whole", "target", "param", "terms"}
)


def _parse_proof_node(ts: TokenStream) -> Proof:
    """One rule block.  Blocks nest as deep as the proof is tall, so open
    blocks live on an explicit stack."""
    heads: list = []  # open blocks, innermost last
    premises: list = [[]]  # premises parsed so far, per open block and the root
    while True:
        if heads and ts.eat_sym("}"):
            node = _proof_node(*heads.pop(), premises.pop())
        else:
            head = _parse_proof_head(ts)
            if ts.eat_sym("{"):
                heads.append(head)
                premises.append([])
                continue
            node = _proof_node(*head, [])
        premises[-1].append(node)
        if not heads:
            return node


def _parse_proof_head(ts: TokenStream) -> tuple:
    tok = ts.peek()
    if tok.kind != "sym" and tok.kind != "ident":
        ts.fail("expected an inference rule")
    if tok.text not in RULE_TOKENS:
        ts.fail(f"unknown inference rule {tok.text!r}")
    ts.next()
    seq = _quoted(ts, "sequent", _parse_sequent)
    kv = _parse_kv(ts, _NODE_KEYS)
    raw_to = kv.pop("to", None)
    if isinstance(kv.get("target"), int):
        kv["target"] = f"g{kv['target']}"
    return tok, seq, kv, raw_to


def _proof_node(tok: Token, seq: Sequent, kv: dict, raw_to: Token | None, premises: list) -> Proof:
    rule = RULE_TOKENS[tok.text]
    data = RuleData(**kv) if kv else RuleData()
    if rule is RuleName.ERULE and raw_to is not None:
        if not premises:
            raise ParseError("a rewrite step needs its premise before the replacement resolves", tok.line, tok.col)
        side = premises[0].conclusion.ante if data.side == "L" else premises[0].conclusion.succ
        if data.idx is None or not 0 <= data.idx < len(side):
            raise ParseError(f"rewrite index {data.idx} out of range", tok.line, tok.col)
        try:
            old = node_at(side[data.idx], data.path)
        except (IndexError, TypeError):
            raise ParseError(f"rewrite path {data.path} does not address a node", tok.line, tok.col)
        repl = parse_replacement(raw_to.text, isinstance(old, Formula), raw_to.line, raw_to.col + 1)
        data = replace(data, repl=repl)
    return Proof(seq, rule, tuple(premises), data)


def _parse_theory_directive(ts: TokenStream) -> str | None:
    if ts.peek().kind == "ident" and ts.peek().text == "theory":
        ts.next()
        return ts.expect("str").text
    return None


def parse_proof(text: str) -> tuple:
    """Returns (proof, theory_path or None)."""
    return _parse_text(text, "proof", read=_proof_file)


def _proof_file(ts: TokenStream) -> tuple:
    theory_path = _parse_theory_directive(ts)
    return _parse_proof_node(ts), theory_path


# ---------------------------------------------------------------------------
# Schema files


def parse_schema(text: str) -> tuple:
    return _parse_text(text, "schema", read=_schema_file)


def _schema_file(ts: TokenStream) -> tuple:
    theory_path = _parse_theory_directive(ts)
    components = []
    while ts.peek().kind == "ident" and ts.peek().text == "component":
        ts.next()
        name = ts.expect("ident").text
        clauses: dict = {}  # SchemaComponent fields, each given at most once
        while ts.peek().kind == "ident" and ts.peek().text in ("pattern", "vars", "step"):
            tok = ts.next()
            key = "step_param" if tok.text == "step" else tok.text
            if key in clauses:
                raise ParseError(f"component {name} repeats its {key.replace('_', '-')}", tok.line, tok.col)
            if key == "pattern":
                clauses[key] = _quoted(ts, "sequent", _parse_sequent)
            elif key == "vars":
                clauses[key] = _parse_name_list(ts)
            else:
                ts.expect_sym("-")
                word2 = ts.expect("ident")
                if word2.text != "param":
                    raise ParseError("expected step-param", word2.line, word2.col)
                clauses[key] = _quoted(ts, NUM)
        ts.expect_sym("{")
        while not ts.at_sym("}"):
            tok = ts.expect("ident")
            if tok.text in ("base", "step") and tok.text in clauses:
                raise ParseError(f"component {name} repeats its {tok.text}", tok.line, tok.col)
            ts.expect_sym("{")
            node = _parse_proof_node(ts)
            ts.expect_sym("}")
            if tok.text not in ("base", "step"):
                ts.fail(f"expected base or step, found {tok.text!r}")
            clauses[tok.text] = node
        ts.expect_sym("}")
        if "pattern" not in clauses or "base" not in clauses:
            ts.fail(f"component {name} needs a pattern and a base proof")
        components.append(SchemaComponent(name, **clauses))
    return ProofSchema(tuple(components)), theory_path


# ---------------------------------------------------------------------------
# Script files


@dataclass(frozen=True)
class SiLKStep:
    """One parsed script step: a rule of the calculus and its arguments."""

    rule: str
    sequent: Sequent | None = None
    group: int | None = None
    pair: int | None = None
    pair2: int | None = None
    formula: Formula | None = None
    ann: NumExpr | None = None
    lk_rule: RuleName | None = None
    data: RuleData = RuleData()
    raw_to: str | None = None
    to_at: tuple = (1, 1)  # line and column of raw_to in its file
    pattern: Sequent | None = None
    vars: tuple = ()
    target: int | None = None
    g: NumExpr | None = None
    f: NumExpr | None = None
    terms: tuple = ()
    line: int = 0


@dataclass(frozen=True)
class SiLKScript:
    theory: rw.EquationalTheory
    steps: tuple


_STEP_KEYS = frozenset(
    {
        "group",
        "pair",
        "pair2",
        "a",
        "b",
        "formula",
        "term",
        "eigen",
        "at",
        "path",
        "to",
        "whole",
        "pattern",
        "vars",
        "target",
        "g",
        "f",
        "terms",
        "ann",
    }
)

_STEP_WORDS = frozenset(
    {"ax1r", "ax2r", "axl", "ccr", "ccl", "br", "rho", "clbc", "cllke", "clsc", "cycle", "call"}
)


def parse_script(text: str) -> tuple:
    """Returns (SiLKScript with a placeholder theory, theory_path or None)."""
    return _parse_text(text, "script", read=_script_file)


def _script_file(ts: TokenStream) -> tuple:
    theory_path = _parse_theory_directive(ts)
    steps = []
    while ts.peek().kind != "eof":
        tok = ts.expect("ident")
        word = tok.text
        if word not in _STEP_WORDS:
            raise ParseError(f"unknown step {word!r}", tok.line, tok.col)
        line = tok.line
        if word in ("ax1r", "ax2r"):
            kv = _parse_kv(ts, _STEP_KEYS)
            seq = _quoted(ts, "sequent", _parse_sequent) if ts.peek().kind == "str" else None
            kv2 = _parse_kv(ts, _STEP_KEYS)
            kv.update(kv2)
            steps.append(SiLKStep(word, sequent=seq, line=line, **_step_fields(kv)))
            continue
        if word == "rho":
            side = ts.expect("ident").text
            if side not in ("bc", "sc"):
                ts.fail("rho steps read: rho (bc|sc) (1|2) rule ...")
            arity = int(ts.expect("num").text)
            rtok = ts.peek()
            if rtok.text not in RULE_TOKENS:
                ts.fail(f"unknown inference rule {rtok.text!r}")
            ts.next()
            lk_rule = RULE_TOKENS[rtok.text]
            kv = _parse_kv(ts, _STEP_KEYS)
            if arity == 2 and "pair2" not in kv:
                raise ParseError("a binary rule names both pairs", rtok.line, rtok.col)
            if arity == 1 and "pair2" in kv:
                raise ParseError("a unary rule names one pair", rtok.line, rtok.col)
            steps.append(SiLKStep(f"rho_{side}", lk_rule=lk_rule, line=line, **_step_fields(kv)))
            continue
        kv = _parse_kv(ts, _STEP_KEYS)
        steps.append(SiLKStep(word, line=line, **_step_fields(kv)))
    return SiLKScript(rw.EMPTY_THEORY, tuple(steps)), theory_path


def _step_fields(kv: dict) -> dict:
    data_keys = {"a", "b", "side", "idx", "path", "whole", "term", "eigen"}
    data_kv = {k: v for k, v in kv.items() if k in data_keys}
    # The embedded inference's formula witness lives in the rule data; the
    # step-level formula field serves the stepcase axiom.
    fields: dict = {}
    for k in ("group", "pair", "pair2", "pattern", "vars", "target", "g", "f", "terms", "ann"):
        if k in kv:
            fields[k] = kv[k]
    if "formula" in kv:
        fields["formula"] = kv["formula"]
        data_kv["formula"] = kv["formula"]
    if "to" in kv:
        fields["raw_to"] = kv["to"].text
        fields["to_at"] = (kv["to"].line, kv["to"].col + 1)
    if data_kv:
        fields["data"] = RuleData(**data_kv)
    return fields


# ---------------------------------------------------------------------------
# Name resolution


def check_arities(*roots) -> list:
    """Arity-consistency issues across a workspace's parsed values.
    Defined and uninterpreted symbols share one namespace per kind
    (function, predicate, numeric function), so a name resolves the same way
    wherever it occurs."""
    arities: dict = {}
    issues: list = []
    for root in roots:
        for formula in root.formulas() if isinstance(root, Sequent) else (root,):
            for node in walk(formula):
                if isinstance(node, Fn):
                    key = ("function", node.sym)
                elif isinstance(node, Atom):
                    key = ("predicate", node.pred)
                elif isinstance(node, NumFn) and node.sym != "+":
                    key = ("numeric function", node.sym)
                else:
                    continue
                arity = len(node.args)
                seen = arities.setdefault(key, arity)
                if seen != arity:
                    issues.append(f"{key[0]} {key[1]} used with {arity} arguments and with {seen}")
    return issues


def _workspace_roots(value, theory) -> list:
    roots = [r.lhs for r in theory.rules] + [r.rhs for r in theory.rules]

    def add_proof(proof):
        stack = [proof]
        while stack:
            node = stack.pop()
            roots.append(node.conclusion)
            stack.extend(node.premises)

    if isinstance(value, Proof):
        add_proof(value)
    elif isinstance(value, ProofSchema):
        for comp in value.components:
            roots.append(comp.pattern)
            add_proof(comp.base)
            if comp.step is not None:
                add_proof(comp.step)
    elif isinstance(value, SiLKScript):
        for step in value.steps:
            if step.sequent is not None:
                roots.append(step.sequent)
            if step.pattern is not None:
                roots.append(step.pattern)
            if step.formula is not None:
                roots.append(step.formula)
    return roots


# ---------------------------------------------------------------------------
# Workspace loading


def load_theory(path: str | Path, fuel: int = rw.DEFAULT_FUEL) -> rw.EquationalTheory:
    return parse_theory(Path(path).read_text(encoding="utf-8"), fuel)


def load_file(path: str | Path, parse, theory: str | Path | None = None, fuel: int = rw.DEFAULT_FUEL) -> tuple:
    """Read a UTF-8 file with ``parse`` (``parse_proof``, ``parse_schema`` or
    ``parse_script``) and bind it to a theory with the given fuel, read from
    the theory file ``theory`` when given, else from the file's directive,
    relative to the file, else with no rules.  Raises ParseError when the
    value and its theory disagree on an arity, or when a theory rule breaks
    the shape rewriting needs.  Returns (value, theory, directive); a script
    comes back bound to the theory."""
    path = Path(path)
    value, directive = parse(path.read_text(encoding="utf-8"))
    if not theory and directive:
        theory = path.parent / directive
    theory = load_theory(theory, fuel) if theory else rw.EquationalTheory((), fuel)
    issues = check_arities(*_workspace_roots(value, theory))
    issues += [f"theory {issue}" for issue in rw.validate_theory(theory).issues]
    if issues:
        raise ParseError("; ".join(issues))
    if isinstance(value, SiLKScript):
        value = SiLKScript(theory, value.steps)
    return value, theory, directive


def load_proof(path: str | Path, fuel: int = rw.DEFAULT_FUEL) -> tuple:
    return load_file(path, parse_proof, fuel=fuel)[:2]


def load_schema(path: str | Path, fuel: int = rw.DEFAULT_FUEL) -> tuple:
    return load_file(path, parse_schema, fuel=fuel)[:2]


def load_script(path: str | Path, fuel: int = rw.DEFAULT_FUEL) -> SiLKScript:
    return load_file(path, parse_script, fuel=fuel)[0]
