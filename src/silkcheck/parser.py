"""Concrete syntax for the whole toolbox.

One lexer serves expressions, theory files, proof files, schema files, and
script files: a single compiled pattern, `_TOKEN`, matched once per token.
Expressions embedded in the structured formats are quoted.  One loop reads
every expression, formula, term or numeric, by precedence climbing over an
explicit stack, so expressions, binders included, nest without limit; a
binder closes its body over its name as it is read (syntax.bind).

Each distinct quoted text of a file is lexed and parsed once: the file's
token stream keeps a memo from each text that parsed to its node, and a
quoted sequent is looked up formula by formula, split at its one |- and its
depth-0 commas.  The memo answers only texts that parsed before in the same
file, and nodes are hash-consed, so a lookup gives the very nodes a fresh
read gives; a sequent whose text has a comment or does not split into items
that each parse alone is read whole, so every error is the whole read's, at
its position.

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
from functools import partial
from pathlib import Path
from typing import NamedTuple

from . import rewrite as rw
from .kernel import RULES, Proof, RuleData, RuleName
from .schema import ProofSchema, SchemaComponent
from .syntax import (
    CONNECTIVES,
    Atom,
    Exists,
    Fn,
    Forall,
    Formula,
    FreeVar,
    Node,
    Not,
    NumExpr,
    NumFn,
    OmegaAll,
    Param,
    Record,
    Sequent,
    SVar,
    Succ,
    bind,
    node_at,
    numeral,
    replace,
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

RULE_TOKENS = {rule: rule for rule in RULES}  # a token read to its RuleName constant
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


# Tried in order at each position, the first alternative that matches wins,
# and the matches tile the text.  Single characters come last among the
# symbols; none of them can start a string, a numeral or an identifier.  Any
# other character is matched alone or with the word it starts; tokenize keeps
# a word that starts with a letter and reports the rest.
_TOKEN = re.compile(
    "|".join(
        [
            r"\n",
            r"[ \t\r]+|\#[^\n]*",
            "|".join(map(_symbol, _RULE_SYMBOLS + _MULTI)) + f"|[{re.escape(_SINGLE)}]",
            r'"[^"]*"',
            r"[0-9]+",
            r"[A-Za-z_][\w']*",
            r"[^\W\d][\w']*|.",
        ]
    )
)
# A match's kind: a symbol by its text, anything else by its first character,
# a word with a non-ASCII start by whether that is a letter.
_SYMBOLS = frozenset([*_RULE_SYMBOLS, *_MULTI, *_SINGLE])
_KIND = {"\n": "newline", '"': "str", **dict.fromkeys(" \t\r#", "skip"), **dict.fromkeys("0123456789", "num")}
_KIND.update((c, "ident") for c in map(chr, range(128)) if c.isalpha() or c == "_")


class Token(NamedTuple):
    kind: str  # ident, num, str, sym, eof
    text: str
    line: int
    col: int


_token = partial(tuple.__new__, Token)  # a Token, skipping the Python-level __new__ of Token(...)


def tokenize(text: str, line: int = 1, col: int = 1) -> list:
    """Tokens of ``text``, positioned as if it started at ``line``:``col``
    of its file."""
    out = []
    pos, base = 0, -col  # the column of offset pos is pos - base
    for word in _TOKEN.findall(text):
        kind = "sym" if word in _SYMBOLS else _KIND.get(word[0]) or ("ident" if word[0].isalpha() else None)
        if kind == "sym" or kind == "ident" or kind == "num":
            out.append(_token((kind, word, line, pos - base)))
        elif kind == "newline":
            line, base = line + 1, pos
        elif kind == "str" and word != '"':
            out.append(_token((kind, word[1:-1], line, pos - base)))
            if "\n" in word:
                line, base = line + word.count("\n"), pos + word.rindex("\n")
        elif kind != "skip":
            raise ParseError("unterminated string" if word == '"' else f"stray character {word[0]!r}", line, pos - base)
        pos += len(word)
    out.append(_token(("eof", "", line, pos - base)))
    return out


class TokenStream:
    # next stays on the closing eof; the other readers step past only a token
    # they asked for, never eof.
    def __init__(self, tokens: list):
        self.tokens = tokens
        self.pos = 0
        self.memo: dict = {}  # (sort, text) -> node, for _quoted

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def at_sym(self, text: str) -> bool:
        tok = self.tokens[self.pos]
        return tok.kind == "sym" and tok.text == text

    def eat_sym(self, text: str) -> bool:
        tok = self.tokens[self.pos]
        hit = tok.kind == "sym" and tok.text == text
        self.pos += hit
        return hit

    def expect_sym(self, text: str) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "sym" or tok.text != text:
            _expected(repr(text), tok)
        self.pos += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != kind:
            _expected(kind, tok)
        self.pos += 1
        return tok

    def fail(self, msg: str):
        tok = self.peek()
        raise ParseError(msg, tok.line, tok.col)


# ---------------------------------------------------------------------------
# Expressions

PARAM_NAME = "n"

# The sorts an expression is read in; each names itself in error messages.
FORMULA, TERM, NUM, SUP = "formula", "term", "numeric expression", "superscript"

def _plus(a: Node, b: Node) -> Node:
    if isinstance(a, NumExpr) and isinstance(b, NumExpr):
        return NumFn("+", (a, b))
    return Fn("+", (a, b))


def _no_numeric_exists(tok: Token, var: str, body: Formula):
    raise ParseError("only universal numeric quantifiers exist", tok.line, tok.col)


# The infix operators of each sort: precedence, right-associative, builder.
# A formula's, and its prefix ~, are the connectives syntax declares.
_INFIX = {
    FORMULA: {sym: (prec, right, cls) for cls, (sym, prec, right) in CONNECTIVES.items() if cls is not Not},
    TERM: {"+": (1, False, _plus)},
    NUM: {"+": (1, False, _plus)},
    SUP: {},
}
_NOT, _NOT_PREC, _ = CONNECTIVES[Not]
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
    while True:
        # One operand: a leaf, or an opening token that pushes its entry and
        # reads on.
        tok = tokens[pos]
        kind, text = tok.kind, tok.text
        if kind == "ident" and sort == FORMULA and text in ("forall", "exists"):
            ts.pos = pos + 1
            var = ts.expect("ident").text
            build = partial(bind, Forall if text == "forall" else Exists)
            if ts.eat_sym(":"):
                name = ts.expect("ident")
                if name.text != "omega":
                    raise ParseError(f"unknown sort {name.text!r}", name.line, name.col)
                build = partial(bind, OmegaAll) if text == "forall" else partial(_no_numeric_exists, tok)
            ts.expect_sym(".")
            pos = ts.pos
            stack.append((0, build, (var,)))
            continue
        if kind == "sym" and (text == "(" or text == _NOT and sort == FORMULA):
            pos += 1
            if text == _NOT:
                stack.append((_NOT_PREC, Not, ()))
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
                _, done, args = stack.pop()
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
    ante = _comma_list(ts, ("|-", "|-{"), _parse_expr, FORMULA)
    ts.expect_sym("|-")
    return Sequent(ante, _comma_list(ts, ("", ")"), _parse_expr, FORMULA))


def _comma_list(ts: TokenStream, ends: tuple, read, *args) -> tuple:
    """Items separated by commas, each read by ``read(ts, *args)``; none
    when ``ts`` is at a symbol or at the end of input whose text is in
    ``ends`` (the end of input's text is "")."""
    items = []
    tok = ts.peek()
    if not ((tok.kind == "sym" or tok.kind == "eof") and tok.text in ends):
        items.append(read(ts, *args))
        while ts.eat_sym(","):
            items.append(read(ts, *args))
    return tuple(items)


def _vector(ts: TokenStream, read, *args) -> tuple:
    # Both (x, y) and [x, y] delimit vectors.
    close = "]" if ts.eat_sym("[") else ")"
    if close == ")":
        ts.expect_sym("(")
    items = _comma_list(ts, (close,), read, *args)
    ts.expect_sym(close)
    return items


def _parse_tokens(tokens: list, what: str, read=None):
    """Parse all of ``tokens`` with ``read``, by default as an expression of
    the sort ``what``."""
    ts = TokenStream(tokens)
    value = _parse_expr(ts, what) if read is None else read(ts)
    tok = ts.peek()
    if tok.kind != "eof":
        raise ParseError(f"trailing input after {what}: {tok.text!r}", tok.line, tok.col)
    return value


def parse_numexpr(text: str) -> NumExpr:
    return _parse_tokens(tokenize(text), NUM)


def parse_term(text: str, line: int = 1, col: int = 1) -> Node:
    return _parse_tokens(tokenize(text, line, col), TERM)


def parse_formula(text: str, line: int = 1, col: int = 1) -> Formula:
    return _parse_tokens(tokenize(text, line, col), FORMULA)


def parse_sequent(text: str) -> Sequent:
    return _parse_tokens(tokenize(text), "sequent", _parse_sequent)


def parse_replacement(text: str, want_formula: bool, line: int = 1, col: int = 1) -> Node:
    """A `to=` replacement, a formula or a term, starting at ``line``:``col``."""
    return parse_formula(text, line, col) if want_formula else parse_term(text, line, col)


_BLANK = " \t\r\n"  # what tokenize skips between tokens, outside comments


def _quoted(ts: TokenStream, what: str):
    """The next token, a string, read as an expression of the sort ``what``
    or as a "sequent", as ``_parse_tokens`` reads it; errors point into the
    file.  ``ts.memo`` keeps the node of each text that parsed, so a text met
    again in the file is looked up.  A sequent is looked up formula by
    formula when its text splits at its one |- and its depth-0 commas into
    items that each parse alone: their tokens are then the whole text's, so
    the whole read gives the same nodes.  Any other sequent text is read
    whole, which raises the whole read's error at its position."""
    tok = ts.expect("str")
    text, memo = tok.text, ts.memo
    if what != "sequent":
        key = what, text.strip(_BLANK)
        if key not in memo:
            memo[key] = _parse_tokens(tokenize(text, tok.line, tok.col + 1), what)
        return memo[key]
    if "#" not in text and text.count("|-") == 1:  # a comment could hide a comma or the |-
        try:
            return Sequent(*[_formulas(memo, side) for side in text.split("|-")])
        except Exception:  # whatever failed, the whole read below raises its own error
            pass
    return _parse_tokens(tokenize(text, tok.line, tok.col + 1), what, _parse_sequent)


def _formulas(memo: dict, side: str) -> tuple:
    """The formulas of one side of a sequent's text, split at its depth-0
    commas, each looked up in ``memo`` or parsed alone."""
    items, depth = [], 0
    for piece in side.split(","):
        if depth:
            items[-1] += "," + piece
        else:
            items.append(piece)
        depth += piece.count("(") + piece.count("[") - piece.count(")") - piece.count("]")
    if len(items) == 1 and not items[0].strip(_BLANK):
        return ()
    for i, item in enumerate(items):
        key = FORMULA, item.strip(_BLANK)
        if key not in memo:
            memo[key] = _parse_tokens(tokenize(item), FORMULA)
        items[i] = memo[key]
    return tuple(items)


# ---------------------------------------------------------------------------
# Theory files


def parse_theory(text: str, fuel: int = rw.DEFAULT_FUEL) -> rw.EquationalTheory:
    """One rule per line, `lhs == rhs;`; a `pred` marker forces the formula
    reading when a rule would also parse as a term rewrite."""
    rules = []
    pred_heads: set = set()
    pending = []  # (line_no, sides, forced_pred); a side is (text, line_no, col)
    for line_no, raw in enumerate(text.splitlines(), 1):
        code = raw.split("#", 1)[0]
        line = code.strip()
        if not line:
            continue
        if not line.endswith(";"):
            raise ParseError("rule lines end with ';'", line_no, len(raw))
        line = line[:-1]
        col = len(code) - len(code.lstrip()) + 1
        forced = line.startswith("pred ")
        if forced:
            line = line[5:]
            col += 5
        if "==" not in line:
            raise ParseError("a rule needs '=='", line_no, 1)
        lhs_text, rhs_text = line.split("==", 1)
        sides = (_side(lhs_text, line_no, col), _side(rhs_text, line_no, col + len(lhs_text) + 2))
        pending.append((line_no, sides, forced))

    lexed: dict = {}  # a side's tokens, lexed at its first reading

    def as_rule(sort, sides):
        return tuple(_parse_tokens(lexed.get(side) or lexed.setdefault(side, tokenize(*side)), sort) for side in sides)

    drafts = []
    for line_no, sides, forced in pending:
        if forced:
            lhs, rhs = as_rule(FORMULA, sides)
            pred_heads.add(_head_name(lhs))
        else:
            try:
                lhs, rhs = as_rule(TERM, sides)
            except ParseError:
                lhs, rhs = as_rule(FORMULA, sides)
                pred_heads.add(_head_name(lhs))
        drafts.append((line_no, sides, lhs, rhs))
    for line_no, sides, lhs, rhs in drafts:
        if not isinstance(lhs, Formula) and _head_name(lhs) in pred_heads:
            lhs, rhs = as_rule(FORMULA, sides)
        rules.append(rw.RewriteRule(lhs, rhs, line_no))
    return rw.EquationalTheory(tuple(rules), fuel)


def _side(text: str, line_no: int, col: int) -> tuple:
    """One side of a rule without its blanks, and the line and column it starts at."""
    return text.strip(), line_no, col + len(text) - len(text.lstrip())


def _head_name(node) -> str | None:
    key = rw.head_key(node)
    return key and key[1]


# ---------------------------------------------------------------------------
# Proof files


# A rule block and a script step state an inference's witness in one
# syntax: `key=value` pairs, each key at most once, and only keys its rule
# reads.  The keys each inference rule reads in a rule block:
_R = RuleName
_RULE_READS = {
    _R.AX: frozenset(),
    **dict.fromkeys(
        [_R.CUT, _R.AND_L, _R.AND_R, _R.OR_L, _R.OR_R, _R.IMP_L, _R.IMP_R, _R.CONTR_L, _R.CONTR_R],
        frozenset({"a", "b"}),
    ),
    **dict.fromkeys([_R.NEG_L, _R.NEG_R], frozenset({"a"})),
    **dict.fromkeys([_R.WEAK_L, _R.WEAK_R], frozenset({"formula"})),
    **dict.fromkeys([_R.FORALL_L, _R.EXISTS_R], frozenset({"a", "formula", "term"})),
    **dict.fromkeys([_R.FORALL_R, _R.EXISTS_L], frozenset({"a", "formula", "eigen"})),
    _R.ERULE: frozenset({"at", "path", "to", "whole"}),
    _R.LINK: frozenset({"target", "param", "terms"}),
}
# The keys each script step reads; a rho step also reads those of the
# inference rule it applies.
_STEP_READS = {
    "ax1r": frozenset({"formula"}),
    "ax2r": frozenset({"group", "formula"}),
    **dict.fromkeys(["ccr", "ccl", "rho"], frozenset({"group", "pair", "pair2"})),
    "br": frozenset({"group", "pair"}),
    "clbc": frozenset({"group", "pair", "pattern", "vars"}),
    "axl": frozenset({"group", "pair", "formula", "ann"}),
    "cycle": frozenset({"group", "pair", "terms"}),
    "call": frozenset({"group", "pair", "target", "g", "f", "terms"}),
    "cllke": frozenset({"group"}),
    "clsc": frozenset({"group", "ann"}),
}
_WITNESS_KEYS = frozenset().union(*_RULE_READS.values(), *_STEP_READS.values())
_INT_KEYS = {"a", "b", "group", "pair", "pair2", "target"}
_QUOTED_KEYS = {"formula": FORMULA, "term": TERM, "param": NUM, "ann": NUM, "g": NUM, "f": NUM}


def _parse_kv(ts: TokenStream, rule: str, reads: frozenset, out: dict | None = None) -> dict:
    """The witness pairs at ``ts``, added to ``out`` under the field each
    fills: `at` fills side and idx, any other key the field of its name.  A
    witness key that ``rule`` does not read, or that is already in ``out``,
    is a parse error."""
    out = {} if out is None else out
    while True:
        tok = ts.peek()
        if tok.kind != "ident" or tok.text not in _WITNESS_KEYS:
            return out
        key = ts.next().text
        if key not in reads:
            raise ParseError(f"{rule} does not read the witness key {key!r}", tok.line, tok.col)
        if ("side" if key == "at" else key) in out:
            raise ParseError(f"repeated witness key {key!r}", tok.line, tok.col)
        if key == "whole":
            out["whole"] = True
            continue
        ts.eat_sym("=")
        if key == "target" and ts.peek().kind != "num":  # a target is a name or a group number
            out[key] = _name(ts)
        elif key in _INT_KEYS:
            out[key] = int(ts.expect("num").text)
        elif key in _QUOTED_KEYS:
            out[key] = _quoted(ts, _QUOTED_KEYS[key])
        elif key == "pattern":
            out[key] = _quoted(ts, "sequent")
        elif key == "eigen":
            out[key] = _name(ts)
        elif key == "at":
            side = ts.expect("ident")
            if side.text not in ("L", "R"):
                raise ParseError("positions start with L or R", side.line, side.col)
            ts.expect_sym(".")
            out["side"] = side.text
            out["idx"] = int(ts.expect("num").text)
        elif key == "path":
            path = [int(ts.expect("num").text)]
            while ts.eat_sym("."):
                path.append(int(ts.expect("num").text))
            out["path"] = tuple(path)
        elif key == "vars":
            out["vars"] = _vector(ts, _name)
        elif key == "terms":
            out["terms"] = _vector(ts, _parse_expr, TERM)
        else:  # to: resolved against the premise it rewrites, so kept as its token
            out[key] = ts.expect("str")


def _name(ts: TokenStream) -> str:
    return ts.expect("ident").text


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


def _rule_token(ts: TokenStream) -> tuple:
    """The inference rule named at ``ts``, a symbol or a bare word: its
    token and its RuleName constant."""
    tok = ts.peek()
    if tok.kind != "sym" and tok.kind != "ident":
        ts.fail("expected an inference rule")
    if tok.text not in RULE_TOKENS:
        ts.fail(f"unknown inference rule {tok.text!r}")
    ts.next()
    return tok, RULE_TOKENS[tok.text]


def _parse_proof_head(ts: TokenStream) -> tuple:
    tok, rule = _rule_token(ts)
    seq = _quoted(ts, "sequent")
    kv = _parse_kv(ts, tok.text, _RULE_READS[rule])
    raw_to = kv.pop("to", None)
    if isinstance(kv.get("target"), int):
        kv["target"] = f"g{kv['target']}"
    return tok, rule, seq, kv, raw_to


def _proof_node(tok: Token, rule: str, seq: Sequent, kv: dict, raw_to: Token | None, premises: list) -> Proof:
    data = RuleData(**kv) if kv else RuleData()
    if raw_to is not None:  # only a rewrite step reads a replacement
        if not premises:
            raise ParseError("a rewrite step needs its premise before the replacement resolves", tok.line, tok.col)
        data = resolve_rewrite(data, premises[0].conclusion, raw_to)
    return Proof(seq, rule, tuple(premises), data)


def resolve_rewrite(data: RuleData, premise: Sequent, to: Token) -> RuleData:
    """``data`` with its replacement, the text of the `to=` token ``to``,
    parsed in the sort of the node it replaces in ``premise``: a formula or
    a term.  Rule blocks and script steps resolve a `to=` here, so a fault
    has one wording: a bad position is reported at ``to``, a replacement
    that does not parse where it fails."""
    if data.idx is None:
        raise ParseError("rewrite step needs a position", to.line, to.col)
    side = premise.ante if data.side == "L" else premise.succ
    if not 0 <= data.idx < len(side):
        raise ParseError(f"rewrite index {data.idx} out of range", to.line, to.col)
    try:
        old = node_at(side[data.idx], data.path)
    except (IndexError, TypeError):
        raise ParseError(f"rewrite path {data.path} does not address a node", to.line, to.col) from None
    return replace(data, repl=parse_replacement(to.text, isinstance(old, Formula), to.line, to.col + 1))


def _parse_theory_directive(ts: TokenStream) -> str | None:
    if ts.peek().kind == "ident" and ts.peek().text == "theory":
        ts.next()
        return ts.expect("str").text
    return None


def parse_proof(text: str) -> tuple:
    """Returns (proof, theory_path or None)."""
    return _parse_tokens(tokenize(text), "proof", _proof_file)


def _proof_file(ts: TokenStream) -> tuple:
    theory_path = _parse_theory_directive(ts)
    return _parse_proof_node(ts), theory_path


# ---------------------------------------------------------------------------
# Schema files


def parse_schema(text: str) -> tuple:
    return _parse_tokens(tokenize(text), "schema", _schema_file)


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
                clauses[key] = _quoted(ts, "sequent")
            elif key == "vars":
                clauses[key] = _vector(ts, _name)
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


class SiLKStep(Record):
    """One parsed script step: a rule of the calculus and its arguments.
    The witness of the inference a rho step applies, and the formula of an
    axiom step, live in ``data``."""

    rule: str
    sequent: Sequent | None = None
    group: int | None = None
    pair: int | None = None
    pair2: int | None = None
    ann: NumExpr | None = None
    lk_rule: str | None = None  # a RuleName
    data: RuleData = RuleData()
    to: Token | None = None  # resolved against the premise at replay
    pattern: Sequent | None = None
    vars: tuple = ()
    target: int | None = None
    g: NumExpr | None = None
    f: NumExpr | None = None
    terms: tuple = ()
    line: int = 0


class SiLKScript(Record):
    theory: rw.EquationalTheory
    steps: tuple


def parse_script(text: str) -> tuple:
    """Returns (SiLKScript with a placeholder theory, theory_path or None)."""
    return _parse_tokens(tokenize(text), "script", _script_file)


def _script_file(ts: TokenStream) -> tuple:
    theory_path = _parse_theory_directive(ts)
    steps = []
    while ts.peek().kind != "eof":
        tok = ts.expect("ident")
        word = tok.text
        if word not in _STEP_READS:
            raise ParseError(f"unknown step {word!r}", tok.line, tok.col)
        line = tok.line
        if word in ("ax1r", "ax2r"):
            kv = _parse_kv(ts, word, _STEP_READS[word])
            seq = _quoted(ts, "sequent") if ts.peek().kind == "str" else None
            _parse_kv(ts, word, _STEP_READS[word], kv)
            steps.append(SiLKStep(word, sequent=seq, line=line, **_step_fields(kv)))
            continue
        if word == "rho":
            side = ts.expect("ident")
            if side.text not in ("bc", "sc"):
                raise ParseError("rho steps read: rho (bc|sc) (1|2) rule ...", side.line, side.col)
            num = ts.expect("num")
            arity = int(num.text)
            if arity not in (1, 2):
                raise ParseError("rho steps read: rho (bc|sc) (1|2) rule ...", num.line, num.col)
            rtok, lk_rule = _rule_token(ts)
            kv = _parse_kv(ts, f"rho {rtok.text}", _STEP_READS[word] | _RULE_READS[lk_rule])
            if arity == 2 and "pair2" not in kv:
                raise ParseError("a binary rule names both pairs", rtok.line, rtok.col)
            if arity == 1 and "pair2" in kv:
                raise ParseError("a unary rule names one pair", rtok.line, rtok.col)
            steps.append(SiLKStep(f"rho_{side.text}", lk_rule=lk_rule, line=line, **_step_fields(kv)))
            continue
        kv = _parse_kv(ts, word, _STEP_READS[word])
        steps.append(SiLKStep(word, line=line, **_step_fields(kv)))
    return SiLKScript(rw.EMPTY_THEORY, tuple(steps)), theory_path


def _step_fields(kv: dict) -> dict:
    """A step's witness as SiLKStep fields: a key fills the step's field of
    that name, else the field of its rule data."""
    fields = {k: kv.pop(k) for k in kv.keys() & SiLKStep._names}
    if kv:
        fields["data"] = RuleData(**kv)
    return fields


# ---------------------------------------------------------------------------
# Name resolution


_KIND_NAMES = {"t": "function", "a": "predicate", "n": "numeric function"}  # a head key's kind, in messages


def check_arities(*roots) -> list:
    """Arity-consistency issues across a workspace's parsed values.
    Defined and uninterpreted symbols share one namespace per kind
    (function, predicate, numeric function), so a name resolves the same way
    wherever it occurs.  Each distinct node is read once, in pre-order, and
    each distinct issue reported once, where it is first met."""
    arities: dict = {}
    issues: list = []
    seen: set = set()
    for root in roots:
        stack = list(reversed(root.formulas() if isinstance(root, Sequent) else (root,)))
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            stack += reversed(node.kids())
            key = rw.head_key(node)
            if key is None or key == ("n", "+"):
                continue
            arity = len(node.args)
            first = arities.setdefault(key, arity)
            if first != arity:
                issues.append(f"{_KIND_NAMES[key[0]]} {key[1]} used with {arity} arguments and with {first}")
    return list(dict.fromkeys(issues))


def _workspace_roots(value, theory) -> list:
    """Every expression of value and its theory: sequents, patterns and the
    expressions in witnesses."""
    roots = [r.lhs for r in theory.rules] + [r.rhs for r in theory.rules]

    def add_witness(data: RuleData, *more):
        roots.extend(x for x in (data.formula, data.term, data.repl, data.param, *data.terms, *more) if x is not None)

    def add_proof(proof):
        for node in walk(proof):
            roots.append(node.conclusion)
            add_witness(node.data)

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
            add_witness(step.data, step.sequent, step.pattern, step.ann, step.g, step.f, *step.terms)
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
    issues += [f"theory rule {issue.rule_index + 1}: {issue.message}" for issue in rw.validate_theory(theory)]
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
