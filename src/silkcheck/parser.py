"""Concrete syntax for the whole toolbox.

One lexer serves expressions, theory files, proof files, schema files, and
script files.  Expressions embedded in the structured formats are quoted.

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

from dataclasses import dataclass, replace
from pathlib import Path

from . import rewrite as rw
from .kernel import Proof, RuleData, RuleName, RULE_TOKENS
from .schema import ProofSchema, SchemaComponent
from .silk import SiLKScript, SiLKStep
from .syntax import (
    AnnSequent,
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


@dataclass(frozen=True)
class Token:
    kind: str  # ident, num, str, sym, eof
    text: str
    line: int
    col: int


def _is_ident_start(c: str) -> bool:
    return c.isalpha() or c == "_"


def _is_ident_char(c: str) -> bool:
    return c.isalnum() or c in "_'"


def tokenize(text: str, line0: int = 1) -> list:
    out = []
    i, line, col = 0, line0, 1
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        matched = None
        for sym in _RULE_SYMBOLS:
            if text.startswith(sym, i) and not (
                i + len(sym) < n and sym[-1].isalnum() and _is_ident_char(text[i + len(sym)])
            ):
                matched = sym
                break
        if matched is None:
            for sym in _MULTI:
                if text.startswith(sym, i):
                    matched = sym
                    break
        if matched is not None:
            out.append(Token("sym", matched, line, col))
            i += len(matched)
            col += len(matched)
            continue
        if c == '"':
            j = text.find('"', i + 1)
            if j < 0:
                raise ParseError("unterminated string", line, col)
            out.append(Token("str", text[i + 1 : j], line, col))
            col += j + 1 - i
            i = j + 1
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            out.append(Token("num", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if _is_ident_start(c):
            j = i
            while j < n and _is_ident_char(text[j]):
                j += 1
            out.append(Token("ident", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if c in _SINGLE:
            out.append(Token("sym", c, line, col))
            i += 1
            col += 1
            continue
        raise ParseError(f"stray character {c!r}", line, col)
    out.append(Token("eof", "", line, col))
    return out


class TokenStream:
    def __init__(self, tokens: list):
        self.tokens = tokens
        self.pos = 0

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

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
        tok = self.peek()
        if not self.at_sym(text):
            raise ParseError(f"expected {text!r}, found {tok.text!r}", tok.line, tok.col)
        return self.next()

    def expect(self, kind: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {kind}, found {tok.text!r}", tok.line, tok.col)
        return self.next()

    def fail(self, msg: str):
        tok = self.peek()
        raise ParseError(msg, tok.line, tok.col)


# ---------------------------------------------------------------------------
# Expressions

PARAM_NAME = "n"


def _parse_num(ts: TokenStream) -> NumExpr:
    e = _parse_num_atom(ts)
    while ts.at_sym("+"):
        ts.next()
        e = NumFn("+", (e, _parse_num_atom(ts)))
    return e


def _parse_num_atom(ts: TokenStream) -> NumExpr:
    tok = ts.peek()
    if tok.kind == "num":
        ts.next()
        if ts.eat_sym("^"):
            return NumFn(tok.text + "^", (_parse_sup(ts),))
        return numeral(int(tok.text))
    if tok.kind == "ident":
        ts.next()
        if tok.text == "s" and ts.at_sym("("):
            ts.next()
            inner = _parse_num(ts)
            ts.expect_sym(")")
            return Succ(inner)
        if ts.eat_sym("^"):
            return NumFn(tok.text + "^", (_parse_sup(ts),))
        return Param(tok.text)
    if ts.eat_sym("("):
        e = _parse_num(ts)
        ts.expect_sym(")")
        return e
    ts.fail("expected a numeric expression")


def _parse_sup(ts: TokenStream) -> NumExpr:
    tok = ts.peek()
    if tok.kind == "num":
        ts.next()
        return numeral(int(tok.text))
    if tok.kind == "ident":
        ts.next()
        return Param(tok.text)
    if ts.eat_sym("("):
        e = _parse_num(ts)
        ts.expect_sym(")")
        return e
    ts.fail("expected a superscript")


def _parse_term(ts: TokenStream) -> Node:
    e = _parse_term_atom(ts)
    while ts.at_sym("+"):
        ts.next()
        rhs = _parse_term_atom(ts)
        if isinstance(e, NumExpr) and isinstance(rhs, NumExpr):
            e = NumFn("+", (e, rhs))
        else:
            e = Fn("+", (e, rhs))
    return e


def _parse_term_atom(ts: TokenStream) -> Node:
    tok = ts.peek()
    if tok.kind == "num":
        ts.next()
        if ts.eat_sym("^"):
            sup = _parse_sup(ts)
            return NumFn(tok.text + "^", (sup,))
        return numeral(int(tok.text))
    if tok.kind == "ident":
        ts.next()
        name = tok.text
        if name == "s" and ts.at_sym("("):
            ts.next()
            inner = _parse_num(ts)
            ts.expect_sym(")")
            return Succ(inner)
        if ts.eat_sym("^"):
            sup = _parse_sup(ts)
            args: tuple = (sup,)
            if ts.eat_sym("("):
                args += _parse_term_args(ts)
                ts.expect_sym(")")
            return Fn(name + "^", args)
        if ts.eat_sym("["):
            idx = _parse_num(ts)
            ts.expect_sym("]")
            return SVar(name, idx)
        if ts.eat_sym("("):
            args = _parse_term_args(ts)
            ts.expect_sym(")")
            return Fn(name, args)
        if name == PARAM_NAME:
            return Param(name)
        return FreeVar(name)
    if ts.eat_sym("("):
        e = _parse_term(ts)
        ts.expect_sym(")")
        return e
    ts.fail("expected a term")


def _parse_term_args(ts: TokenStream) -> tuple:
    if ts.at_sym(")"):
        return ()
    args = [_parse_term(ts)]
    while ts.eat_sym(","):
        args.append(_parse_term(ts))
    return tuple(args)


def _parse_formula(ts: TokenStream) -> Formula:
    lhs = _parse_disj(ts)
    if ts.eat_sym("->"):
        return Imp(lhs, _parse_formula(ts))
    return lhs


def _parse_disj(ts: TokenStream) -> Formula:
    f = _parse_conj(ts)
    while ts.eat_sym("\\/"):
        f = Or(f, _parse_conj(ts))
    return f


def _parse_conj(ts: TokenStream) -> Formula:
    f = _parse_neg(ts)
    while ts.eat_sym("/\\"):
        f = And(f, _parse_neg(ts))
    return f


def _parse_neg(ts: TokenStream) -> Formula:
    if ts.eat_sym("~"):
        return Not(_parse_neg(ts))
    return _parse_fatom(ts)


def _parse_fatom(ts: TokenStream) -> Formula:
    tok = ts.peek()
    if tok.kind == "ident" and tok.text in ("forall", "exists"):
        ts.next()
        var = ts.expect("ident").text
        omega = False
        if ts.eat_sym(":"):
            sort = ts.expect("ident")
            if sort.text != "omega":
                raise ParseError(f"unknown sort {sort.text!r}", sort.line, sort.col)
            omega = True
        ts.expect_sym(".")
        body = _parse_formula(ts)
        if omega:
            if tok.text != "forall":
                raise ParseError("only universal numeric quantifiers exist", tok.line, tok.col)
            return OmegaAll(var, body)
        return Forall(var, body) if tok.text == "forall" else Exists(var, body)
    if ts.eat_sym("("):
        f = _parse_formula(ts)
        ts.expect_sym(")")
        return f
    if tok.kind == "ident":
        ts.next()
        name = tok.text
        if ts.eat_sym("^"):
            sup = _parse_sup(ts)
            args: tuple = (sup,)
            if ts.eat_sym("("):
                args += _parse_term_args(ts)
                ts.expect_sym(")")
            return Atom(name + "^", args)
        if ts.eat_sym("("):
            args = _parse_term_args(ts)
            ts.expect_sym(")")
            return Atom(name, args)
        return Atom(name, ())
    ts.fail("expected a formula")


def _parse_sequent(ts: TokenStream) -> Sequent | AnnSequent:
    ante: list = []
    if not (ts.at_sym("|-") or ts.at_sym("|-{")):
        ante.append(_parse_formula(ts))
        while ts.eat_sym(","):
            ante.append(_parse_formula(ts))
    annotation = None
    if ts.eat_sym("|-{"):
        annotation = _parse_num(ts)
        ts.expect_sym("}")
    else:
        ts.expect_sym("|-")
    succ: list = []
    if ts.peek().kind != "eof" and not ts.at_sym(")"):
        succ.append(_parse_formula(ts))
        while ts.eat_sym(","):
            succ.append(_parse_formula(ts))
    seq = Sequent(tuple(ante), tuple(succ))
    if annotation is not None:
        return AnnSequent(seq, annotation)
    return seq


def _complete(ts: TokenStream, what: str):
    tok = ts.peek()
    if tok.kind != "eof":
        raise ParseError(f"trailing input after {what}: {tok.text!r}", tok.line, tok.col)


def parse_numexpr(text: str) -> NumExpr:
    ts = TokenStream(tokenize(text))
    e = _parse_num(ts)
    _complete(ts, "numeric expression")
    return e


def parse_term(text: str) -> Node:
    ts = TokenStream(tokenize(text))
    e = _parse_term(ts)
    _complete(ts, "term")
    return e


def parse_formula(text: str) -> Formula:
    ts = TokenStream(tokenize(text))
    f = _parse_formula(ts)
    _complete(ts, "formula")
    return f


def parse_sequent(text: str) -> Sequent:
    ts = TokenStream(tokenize(text))
    s = _parse_sequent(ts)
    _complete(ts, "sequent")
    if isinstance(s, AnnSequent):
        raise ParseError("annotations belong to stepcase sequents only")
    return s


def parse_replacement(text: str, want_formula: bool) -> Node:
    return parse_formula(text) if want_formula else parse_term(text)


# ---------------------------------------------------------------------------
# Theory files


def parse_theory(text: str, fuel: int = rw.DEFAULT_FUEL) -> rw.EquationalTheory:
    """One rule per line, `lhs == rhs;`; a `pred` marker forces the formula
    reading when a rule would also parse as a term rewrite."""
    rules = []
    pred_heads: set = set()
    pending = []  # (line_no, lhs_text, rhs_text, forced_pred)
    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if not line.endswith(";"):
            raise ParseError("rule lines end with ';'", line_no, len(raw))
        line = line[:-1]
        forced = False
        if line.startswith("pred "):
            forced = True
            line = line[5:]
        if "==" not in line:
            raise ParseError("a rule needs '=='", line_no, 1)
        lhs_text, rhs_text = line.split("==", 1)
        pending.append((line_no, lhs_text.strip(), rhs_text.strip(), forced))

    def as_term_rule(lhs_text, rhs_text):
        return parse_term(lhs_text), parse_term(rhs_text)

    def as_pred_rule(lhs_text, rhs_text):
        return parse_formula(lhs_text), parse_formula(rhs_text)

    drafts = []
    for line_no, lhs_text, rhs_text, forced in pending:
        if forced:
            lhs, rhs = as_pred_rule(lhs_text, rhs_text)
            pred_heads.add(_head_name(lhs))
        else:
            try:
                lhs, rhs = as_term_rule(lhs_text, rhs_text)
            except ParseError:
                lhs, rhs = as_pred_rule(lhs_text, rhs_text)
                pred_heads.add(_head_name(lhs))
        drafts.append((line_no, lhs_text, rhs_text, lhs, rhs))
    for line_no, lhs_text, rhs_text, lhs, rhs in drafts:
        if not isinstance(lhs, Formula) and _head_name(lhs) in pred_heads:
            lhs, rhs = as_pred_rule(lhs_text, rhs_text)
        rules.append(rw.RewriteRule(lhs, rhs, line_no))
    return rw.EquationalTheory(tuple(rules), fuel)


def _head_name(node) -> str | None:
    if isinstance(node, (Fn, NumFn)):
        return node.sym
    if isinstance(node, Atom):
        return node.pred
    return None


# ---------------------------------------------------------------------------
# Proof files


_INT_KEYS = {"a", "b", "group", "pair", "pair2", "target"}
_FORMULA_KEYS = {"formula"}
_TERM_KEYS = {"term"}
_NUM_KEYS = {"param", "ann", "g", "f"}


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
        elif key in _FORMULA_KEYS:
            out[key] = parse_formula(ts.expect("str").text)
        elif key in _TERM_KEYS:
            out[key] = parse_term(ts.expect("str").text)
        elif key in _NUM_KEYS:
            out[key] = parse_numexpr(ts.expect("str").text)
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
        elif key == "to":
            out["to"] = ts.expect("str").text
        elif key == "pattern":
            out["pattern"] = parse_sequent(ts.expect("str").text)
        elif key == "vars":
            out["vars"] = _parse_name_list(ts)
        elif key == "terms":
            close = _open_list(ts)
            terms = []
            if not ts.at_sym(close):
                terms.append(_parse_term(ts))
                while ts.eat_sym(","):
                    terms.append(_parse_term(ts))
            ts.expect_sym(close)
            out["terms"] = tuple(terms)
        else:
            out[key] = ts.expect("str").text


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
    tok = ts.peek()
    if tok.kind != "sym" and tok.kind != "ident":
        ts.fail("expected an inference rule")
    name = tok.text
    if name not in RULE_TOKENS:
        ts.fail(f"unknown inference rule {name!r}")
    ts.next()
    rule = RULE_TOKENS[name]
    seq = parse_sequent(ts.expect("str").text)
    kv = _parse_kv(ts, _NODE_KEYS)
    raw_to = kv.pop("to", None)
    if isinstance(kv.get("target"), int):
        kv["target"] = f"g{kv['target']}"
    premises: list = []
    if ts.eat_sym("{"):
        while not ts.at_sym("}"):
            premises.append(_parse_proof_node(ts))
        ts.expect_sym("}")
    data = RuleData(**kv) if kv else RuleData()
    if rule is RuleName.ERULE and raw_to is not None:
        if not premises:
            raise ParseError("a rewrite step needs its premise before the replacement resolves")
        side = premises[0].conclusion.ante if data.side == "L" else premises[0].conclusion.succ
        if data.idx is None or not 0 <= data.idx < len(side):
            raise ParseError(f"rewrite index {data.idx} out of range", tok.line, tok.col)
        try:
            old = node_at(side[data.idx], data.path)
        except (IndexError, TypeError):
            raise ParseError(f"rewrite path {data.path} does not address a node", tok.line, tok.col)
        data = replace(data, repl=parse_replacement(raw_to, isinstance(old, Formula)))
    return Proof(seq, rule, tuple(premises), data)


def _parse_theory_directive(ts: TokenStream) -> str | None:
    if ts.peek().kind == "ident" and ts.peek().text == "theory":
        ts.next()
        return ts.expect("str").text
    return None


def parse_proof(text: str) -> tuple:
    """Returns (proof, theory_path or None)."""
    ts = TokenStream(tokenize(text))
    theory_path = _parse_theory_directive(ts)
    proof = _parse_proof_node(ts)
    _complete(ts, "proof")
    return proof, theory_path


# ---------------------------------------------------------------------------
# Schema files


def parse_schema(text: str) -> tuple:
    ts = TokenStream(tokenize(text))
    theory_path = _parse_theory_directive(ts)
    components = []
    while ts.peek().kind == "ident" and ts.peek().text == "component":
        ts.next()
        name = ts.expect("ident").text
        pattern = None
        vars_: tuple = ()
        step_param = None
        while ts.peek().kind == "ident" and ts.peek().text in ("pattern", "vars", "step"):
            word = ts.next().text
            if word == "pattern":
                pattern = parse_sequent(ts.expect("str").text)
            elif word == "vars":
                vars_ = _parse_name_list(ts)
            else:
                ts.expect_sym("-")
                word2 = ts.expect("ident")
                if word2.text != "param":
                    raise ParseError("expected step-param", word2.line, word2.col)
                step_param = parse_numexpr(ts.expect("str").text)
        base = None
        step = None
        ts.expect_sym("{")
        while not ts.at_sym("}"):
            word = ts.expect("ident").text
            ts.expect_sym("{")
            node = _parse_proof_node(ts)
            ts.expect_sym("}")
            if word == "base":
                base = node
            elif word == "step":
                step = node
            else:
                ts.fail(f"expected base or step, found {word!r}")
        ts.expect_sym("}")
        if pattern is None or base is None:
            ts.fail(f"component {name} needs a pattern and a base proof")
        components.append(SchemaComponent(name, pattern, vars_, step_param, base, step))
    _complete(ts, "schema")
    return ProofSchema(tuple(components)), theory_path


# ---------------------------------------------------------------------------
# Script files


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


def parse_script(text: str, theory: rw.EquationalTheory | None = None) -> tuple:
    """Returns (SiLKScript with a placeholder theory when none is given,
    theory_path or None)."""
    ts = TokenStream(tokenize(text))
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
            seq = parse_sequent(ts.expect("str").text) if ts.peek().kind == "str" else None
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
    _complete(ts, "script")
    return SiLKScript(theory or rw.EMPTY_THEORY, tuple(steps)), theory_path


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
        fields["raw_to"] = kv["to"]
    if data_kv:
        fields["data"] = RuleData(**data_kv)
    return fields


# ---------------------------------------------------------------------------
# Name resolution


class Signature:
    """Symbol table collected from parsed values: arities per function,
    predicate, and numeric function, plus the schematic variables seen.
    Defined and uninterpreted symbols share one namespace per kind, so a
    name resolves the same way wherever it occurs."""

    def __init__(self):
        self.arities: dict = {}
        self.schematic: set = set()
        self.issues: list = []

    def collect(self, *roots):
        for root in roots:
            nodes = root.formulas() if isinstance(root, Sequent) else (root,)
            for formula in nodes:
                for node in walk(formula):
                    key = None
                    if isinstance(node, Fn):
                        key = ("function", node.sym)
                        arity = len(node.args)
                    elif isinstance(node, Atom):
                        key = ("predicate", node.pred)
                        arity = len(node.args)
                    elif isinstance(node, NumFn) and node.sym != "+":
                        key = ("numeric function", node.sym)
                        arity = len(node.args)
                    elif isinstance(node, SVar):
                        self.schematic.add(node.name)
                        continue
                    if key is None:
                        continue
                    seen = self.arities.setdefault(key, arity)
                    if seen != arity:
                        self.issues.append(
                            f"{key[0]} {key[1]} used with {arity} arguments and with {seen}"
                        )
        return self


def check_arities(*roots) -> list:
    """Arity-consistency issues across a workspace's parsed values."""
    sig = Signature()
    sig.collect(*roots)
    return sig.issues


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


def _resolve_theory(theory_path, base: Path, override, fuel):
    if override is not None:
        return override
    if theory_path is not None:
        return load_theory(base.parent / theory_path, fuel)
    return rw.EquationalTheory((), fuel)


def load_proof(path: str | Path, theory=None, fuel: int = rw.DEFAULT_FUEL):
    p = Path(path)
    proof, theory_path = parse_proof(p.read_text())
    return proof, _resolve_theory(theory_path, p, theory, fuel)


def load_schema(path: str | Path, theory=None, fuel: int = rw.DEFAULT_FUEL):
    p = Path(path)
    schema, theory_path = parse_schema(p.read_text())
    return schema, _resolve_theory(theory_path, p, theory, fuel)


def load_script(path: str | Path, theory=None, fuel: int = rw.DEFAULT_FUEL) -> SiLKScript:
    p = Path(path)
    script, theory_path = parse_script(p.read_text())
    resolved = _resolve_theory(theory_path, p, theory, fuel)
    return SiLKScript(resolved, script.steps)
