"""Hypothesis generators over the corpus signatures, shared by the property
suite and the acceptance gate, the structural signature of a component
collection that replay tests compare, earlier implementations kept as
oracles, and a strategy that damages corpus files for the CLI fuzz."""

import dataclasses
import re
from contextlib import contextmanager

import hypothesis.strategies as st
from hypothesis import assume, given, settings

from silkcheck import corpus_path, load_theory
from silkcheck import parser, schema
from silkcheck.kernel import Proof, RuleName
from silkcheck.parser import (
    _MULTI,
    _RULE_SYMBOLS,
    _SINGLE,
    FORMULA,
    NUM,
    PARAM_NAME,
    SUP,
    TERM,
    ParseError,
    TokenStream,
    parse_formula,
    parse_numexpr,
    parse_sequent,
    parse_term,
    tokenize,
)
from silkcheck.rewrite import EquationalTheory, FuelExhausted, normalize
from silkcheck.schema import _map_data
from silkcheck.silk import ClosedBase, ClosedStep, ComponentCollection, ComponentPair, OpenBase, OpenStep
from silkcheck.syntax import (
    And,
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
    Param,
    Sequent,
    Substitution,
    SortMismatch,
    SVar,
    Succ,
    ZERO,
    canon_alpha,
    formula_eq,
    free_vars,
    numeral,
    rebuild,
    render,
    sequent_eq,
    subst,
    subst_vars,
    walk,
)

VAR_NAMES = ["a", "b", "c", "alpha"]
# x is also a schematic variable name: a binder of it binds x[e] too.
BINDER_NAMES = ["a", "b", "x"]

num_leaves = st.sampled_from([ZERO, numeral(1), numeral(2), Param("n")])
nums = st.recursive(
    num_leaves,
    lambda ch: st.one_of(
        ch.map(Succ),
        st.tuples(ch, ch).map(lambda ab: NumFn("+", ab)),
        ch.map(lambda e: NumFn("2^", (e,))),
    ),
    max_leaves=5,
)


def _plus(ab):
    a, b = ab
    if isinstance(a, NumExpr) and isinstance(b, NumExpr):
        return Fn("g", ab)
    return Fn("+", ab)


term_leaves = st.one_of(st.sampled_from(VAR_NAMES).map(FreeVar), nums)
terms = st.recursive(
    term_leaves,
    lambda ch: st.one_of(
        ch.map(lambda t: Fn("f", (t,))),
        st.tuples(ch, ch).map(lambda ab: Fn("g", ab)),
        st.tuples(ch, ch).map(_plus),
        nums.map(lambda e: Fn("S^", (e,))),
        st.tuples(nums, ch).map(lambda et: Fn("f^", et)),
        st.tuples(st.sampled_from(["x", "y"]), nums).map(lambda p: SVar(*p)),
    ),
    max_leaves=6,
)

atoms = st.one_of(
    terms.map(lambda t: Atom("P", (t,))),
    st.tuples(terms, terms).map(lambda ab: Atom("R", ab)),
    st.just(Atom("Q", ())),
    nums.map(lambda e: Atom("W^", (e,))),
)
formulas = st.recursive(
    atoms,
    lambda ch: st.one_of(
        ch.map(Not),
        st.tuples(ch, ch).map(lambda ab: And(*ab)),
        st.tuples(ch, ch).map(lambda ab: Or(*ab)),
        st.tuples(ch, ch).map(lambda ab: Imp(*ab)),
        st.tuples(st.sampled_from(BINDER_NAMES), ch).map(lambda p: Forall(*p)),
        st.tuples(st.sampled_from(BINDER_NAMES), ch).map(lambda p: Exists(*p)),
    ),
    max_leaves=6,
)
sequents = st.builds(
    lambda ante, succ: Sequent(tuple(ante), tuple(succ)),
    st.lists(formulas, max_size=3),
    st.lists(formulas, max_size=3),
)


def merged_theory() -> EquationalTheory:
    rules = ()
    for name in ("theory_shat.thy", "theory_exp.thy", "theory_bigjunct.thy", "theory_wedge.thy"):
        rules += load_theory(corpus_path(name)).rules
    return EquationalTheory(rules)


def collection_signature(collection: ComponentCollection):
    """Canonical shape of a closed collection, for structural comparison:
    groups keyed by closure order, pairs by their sequents."""
    groups = sorted(collection.groups, key=lambda g: (g.closure_index is None, g.closure_index))
    sig = []
    for g in groups:
        pairs = frozenset((str(type(p.step).__name__), hash_pair(p)) for p in g.pairs)
        pattern = hash(g.pattern) if g.pattern is not None else None
        sig.append((g.closure_index, pattern, tuple(sorted(g.pattern_vars)), pairs))
    return tuple(sig)


def hash_pair(p: ComponentPair) -> int:
    parts = []
    for case in (p.step, p.base):
        if isinstance(case, (OpenBase, ClosedBase, OpenStep, ClosedStep)):
            parts.append(hash(case.sequent))
        else:
            parts.append(hash(type(case).__name__))
    return hash(tuple(parts))


# --- the properties, reusable at chosen example counts


def roundtrip_property(max_examples):
    @settings(max_examples=max_examples, deadline=None)
    @given(sequents)
    def check(seq):
        again = parse_sequent(str(seq))
        assert len(again.ante) == len(seq.ante) and len(again.succ) == len(seq.succ)
        assert all(x == y for x, y in zip(again.formulas(), seq.formulas()))

    return check


def idempotence_property(max_examples):
    theory = EquationalTheory(merged_theory().rules, 2000)

    @settings(max_examples=max_examples, deadline=None)
    @given(st.one_of(terms, formulas))
    def check(expr):
        try:
            once = normalize(expr, theory).value
        except FuelExhausted:
            assume(False)
        assert normalize(once, theory).value == once

    return check


def monotonicity_property(max_examples, pool):
    from silkcheck.kernel import MODE_LK, MODE_LKE, MODE_LKS, check_proof

    @settings(max_examples=max_examples, deadline=None)
    @given(st.integers(min_value=0, max_value=len(pool) - 1))
    def check(i):
        proof, theory, env, allowed = pool[i]
        lk = check_proof(proof, MODE_LK, theory, env, allowed, lenient_erule=True).accepted
        lke = check_proof(proof, MODE_LKE, theory, env, allowed, lenient_erule=True).accepted
        lks = check_proof(proof, MODE_LKS, theory, env, allowed, lenient_erule=True).accepted
        assert (not lk or lke) and (not lke or lks)

    return check


def subst_composition_property(max_examples):
    @settings(max_examples=max_examples, deadline=None)
    @given(st.one_of(terms, formulas), nums, nums)
    def check(expr, k, m):
        lhs = subst(subst(expr, Substitution({"n": k}, {})), Substitution({"n": m}, {}))
        rhs = subst(expr, Substitution({"n": subst(k, Substitution({"n": m}, {}))}, {}))
        assert lhs == rhs

    return check


# The names a binder of BINDER_NAMES or of a schematic variable is renamed
# to first, so that a substitution's keys can clash with a fresh name.
SUBST_KEYS = VAR_NAMES + ["a1", "b1", "x1"]
# Values that often mention a bound name, which forces the rename, and
# formulas that often use the name they bind.
binder_terms = st.one_of(st.sampled_from(BINDER_NAMES).map(FreeVar), terms)
binding_formulas = st.builds(
    lambda v, f: Forall(v, And(Atom("P", (FreeVar(v),)), f)), st.sampled_from(BINDER_NAMES), formulas
)


def subst_capture_property(max_examples):
    """subst agrees, up to bound names, with substituting into the formula
    after every bound name is renamed apart to a name the generators never
    draw, where no capture can happen; or both raise SortMismatch."""

    def outcome(expr, mapping):
        try:
            return subst(expr, subst_vars(mapping))
        except SortMismatch:
            return SortMismatch

    @settings(max_examples=max_examples, deadline=None)
    @given(
        st.one_of(formulas, binding_formulas),
        st.dictionaries(st.sampled_from(SUBST_KEYS), binder_terms, min_size=1, max_size=4),
    )
    def check(f, mapping):
        got = outcome(f, mapping)
        want = outcome(rename_bound(f, (f"v{i}" for i in range(1000))), mapping)
        if got is SortMismatch or want is SortMismatch:
            assert got is want
        else:
            assert formula_eq(got, want)

    return check


def sequent_eq_property(max_examples):
    @settings(max_examples=max_examples, deadline=None)
    @given(sequents, st.randoms(use_true_random=False))
    def check(seq, rng):
        ante = list(seq.ante)
        succ = list(seq.succ)
        rng.shuffle(ante)
        rng.shuffle(succ)
        shuffled = Sequent(tuple(ante), tuple(succ))
        assert sequent_eq(seq, shuffled) and sequent_eq(shuffled, seq)
        extended = Sequent(seq.ante + (Atom("Q", ()),), seq.succ)
        assert not sequent_eq(seq, extended)

    return check


def _reference_canon(f, env: dict, counter: list):
    """Alpha-canonical form as the formula layer once computed it, recursively
    and with names in traversal order, a binder renaming free variables only;
    kept as an oracle for formula_eq."""
    if isinstance(f, Atom):
        if not env:
            return f
        return Atom(f.pred, tuple(_reference_rename(a, env) for a in f.args))
    if isinstance(f, Not):
        return Not(_reference_canon(f.body, env, counter))
    if isinstance(f, (And, Or, Imp)):
        return type(f)(_reference_canon(f.lhs, env, counter), _reference_canon(f.rhs, env, counter))
    if isinstance(f, (Forall, Exists)):
        fresh = f"$b{counter[0]}"
        counter[0] += 1
        inner = dict(env)
        inner[("v", f.var)] = fresh
        return type(f)(fresh, _reference_canon(f.body, inner, counter))
    if isinstance(f, OmegaAll):
        fresh = f"$w{counter[0]}"
        counter[0] += 1
        inner = dict(env)
        inner[("p", f.var)] = fresh
        return OmegaAll(fresh, _reference_canon(f.body, inner, counter))
    raise TypeError(f)


def _reference_rename(node, env: dict):
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


def reference_eq(a, b) -> bool:
    return _reference_canon(a, {}, [0]) == _reference_canon(b, {}, [0])


def binds_a_schematic_name(f) -> bool:
    """Whether some binder of f shares its name with a schematic variable."""
    bound = {n.var for n in walk(f) if isinstance(n, (Forall, Exists))}
    return any(isinstance(n, SVar) and n.name in bound for n in walk(f))


def rename_bound(f, fresh):
    """f with every individual binder renamed to a name drawn from the
    iterator fresh, which must not occur in f."""
    if isinstance(f, (Forall, Exists)):
        var = next(fresh)
        body = subst(rename_bound(f.body, fresh), subst_vars({f.var: FreeVar(var)}))
        return type(f)(var, body)
    if isinstance(f, Atom):
        return f
    return rebuild(f, tuple(rename_bound(k, fresh) for k in f.kids()))


def formula_eq_property(max_examples):
    """formula_eq agrees with the reference on formulas in which no binder
    shares a schematic variable's name, where the two notions coincide."""

    @settings(max_examples=max_examples, deadline=None)
    @given(formulas, formulas)
    def check(a, b):
        assume(not binds_a_schematic_name(a) and not binds_a_schematic_name(b))
        assert formula_eq(a, b) == reference_eq(a, b)
        renamed = rename_bound(a, (f"v{i}" for i in range(1000)))
        assert formula_eq(a, renamed) and reference_eq(a, renamed)
        assert free_vars(renamed) == free_vars(a)

    return check


# --- the post-order loops that syntax.fold and schema._normal_proof
# replaced, each as it last stood (substitution with the fresh name kept off
# the substitution's domain), kept as oracles.  They keep their own tables
# and set no cache on a node.


def reference_render(root: Node) -> str:
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


def reference_canon_alpha(f: Formula) -> Formula:
    done: dict = {}
    stack = [f]
    while stack:
        cur = stack.pop()
        if cur in done:
            continue
        cls = type(cur)
        if cls is Atom:
            done[cur] = (cur, 0)
            continue
        kids = cur.kids()
        pending = [k for k in kids if k not in done]
        if pending:
            stack.append(cur)
            stack.extend(pending)
            continue
        if cls is Forall or cls is Exists or cls is OmegaAll:
            body, height = done[cur.body]
            name = f"${height}"
            rename = Substitution({cur.var: Param(name)}, {}) if cls is OmegaAll else subst_vars({cur.var: FreeVar(name)})
            done[cur] = (cls(name, reference_subst(body, rename)), height + 1)
        else:
            canon = tuple(done[k][0] for k in kids)
            height = max(done[k][1] for k in kids)
            done[cur] = (cur if canon == kids else rebuild(cur, canon), height)
    return done[f][0]


def reference_free_vars(x) -> frozenset:
    roots = x.formulas() if isinstance(x, Sequent) else (x,)
    done: dict = {}
    stack = list(roots)
    while stack:
        cur = stack.pop()
        if cur in done:
            continue
        cls = type(cur)
        if cls is FreeVar or cls is SVar:
            done[cur] = frozenset((cur.name,))
            continue
        kids = cur.kids()
        pending = [k for k in kids if k not in done]
        if pending:
            stack.append(cur)
            stack.extend(pending)
            continue
        out = frozenset().union(*(done[k] for k in kids))
        done[cur] = out - {cur.var} if cls is Forall or cls is Exists else out
    return frozenset().union(*(done[r] for r in roots))


def reference_subst(x, sub: Substitution):
    """Substitution with a memo of its own, not the one ``sub`` carries."""
    if sub.is_empty():
        return x
    done: dict = {}
    if isinstance(x, Sequent):
        return Sequent(
            tuple(_reference_subst(f, sub, done) for f in x.ante), tuple(_reference_subst(f, sub, done) for f in x.succ)
        )
    return _reference_subst(x, sub, done)


def _reference_subst(e, sub: Substitution, done: dict):
    stack = [e]
    while stack:
        cur = stack.pop()
        if cur in done:
            continue
        cls = type(cur)
        if cls is Param:
            done[cur] = sub.params.get(cur.name, cur)
            continue
        if cls is FreeVar:
            done[cur] = sub.vars.get(cur.name, cur)
            continue
        if cls is Forall or cls is Exists or cls is OmegaAll:
            done[cur] = _reference_subst_binder(cur, sub)
            continue
        kids = cur.kids()
        pending = [k for k in kids if k not in done]
        if pending:
            stack.append(cur)
            stack.extend(pending)
            continue
        new_kids = tuple(done[k] for k in kids)
        if cls is SVar and cur.name in sub.vars:
            repl = sub.vars[cur.name]
            if not isinstance(repl, (SVar, FreeVar)):
                raise SortMismatch(f"schematic variable {cur.name} must map to a variable, got {repl!r}")
            done[cur] = SVar(repl.name, new_kids[0])
        elif new_kids == kids:
            done[cur] = cur
        else:
            done[cur] = rebuild(cur, new_kids)
    return done[e]


def _reference_subst_binder(f: Formula, sub: Substitution) -> Formula:
    var, body = f.var, f.body
    if type(f) is OmegaAll:
        inner = Substitution({k: v for k, v in sub.params.items() if k != var}, sub.vars)
    else:
        inner = Substitution(sub.params, {k: v for k, v in sub.vars.items() if k != var})
        ranges = frozenset().union(*(reference_free_vars(v) for v in inner.vars.values()))
        if var in ranges:
            taken = reference_free_vars(body) | ranges | set(inner.vars)
            i = 1
            while f"{var}{i}" in taken:
                i += 1
            var = f"{var}{i}"
            body = _reference_subst(body, subst_vars({f.var: FreeVar(var)}), {})
    if inner.is_empty():
        return f
    new_body = _reference_subst(body, inner, {})
    return f if var is f.var and new_body is f.body else type(f)(var, new_body)


def reference_normal_proof(proof: Proof, theory: EquationalTheory, done: dict) -> Proof:
    """A drop-in for ``schema._normal_proof``."""
    norm = lambda x: normalize(x, theory).value

    stack = [proof]
    while stack:
        cur = stack[-1]
        pending = [k for k in cur.premises if k not in done]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        if cur in done:
            continue
        kids = tuple(done[k] for k in cur.premises)
        concl = norm(cur.conclusion)
        if cur.rule is RuleName.ERULE and kids and kids[0].conclusion == concl:
            child = kids[0]
            if child.conclusion.ante == concl.ante and child.conclusion.succ == concl.succ:
                done[cur] = child
            else:
                done[cur] = Proof(concl, child.rule, child.premises, child.data)
            continue
        done[cur] = Proof(concl, cur.rule, kids, _map_data(cur.data, norm))
    return done[proof]


@contextmanager
def reference_normal_form():
    """``schema.evaluate`` normalizes its unrolled proof with the oracle."""
    saved = schema._normal_proof
    schema._normal_proof = reference_normal_proof
    try:
        yield
    finally:
        schema._normal_proof = saved


def fold_oracle_property(max_examples):
    """render, free_vars, canon_alpha and subst give what the loops they
    replaced gave, the same node, on formulas, terms and sequents; subst
    under a substitution that may rename binders."""

    @settings(max_examples=max_examples, deadline=None)
    @given(
        st.one_of(formulas, terms, sequents),
        st.dictionaries(st.sampled_from(SUBST_KEYS), binder_terms, max_size=3),
        nums,
    )
    def check(x, mapping, k):
        for node in x.formulas() if isinstance(x, Sequent) else (x,):
            assert render(node) == reference_render(node)
            if isinstance(node, Formula):
                assert canon_alpha(node) is reference_canon_alpha(node)
        assert free_vars(x) == reference_free_vars(x)
        for sub in (Substitution({"n": k}, {}), subst_vars(mapping), Substitution({"n": k}, mapping)):
            try:
                want = reference_subst(x, sub)
            except SortMismatch:
                want = SortMismatch
            try:
                got = subst(x, sub)
            except SortMismatch:
                got = SortMismatch
            assert identical(got, want)

    return check


def _is_ident_start(c: str) -> bool:
    return c.isalpha() or c == "_"


def _is_ident_char(c: str) -> bool:
    return c.isalnum() or c in "_'"


def reference_tokenize(text: str) -> list:
    """The lexer as it once was, a character loop trying every symbol with
    startswith, except that a string spanning lines now moves the positions
    after it down; kept as an oracle for tokenize.  Tokens are plain
    (kind, text, line, col) tuples."""
    out = []
    i, line, col = 0, 1, 1
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
            out.append(("sym", matched, line, col))
            i += len(matched)
            col += len(matched)
            continue
        if c == '"':
            j = text.find('"', i + 1)
            if j < 0:
                raise ParseError("unterminated string", line, col)
            value = text[i + 1 : j]
            out.append(("str", value, line, col))
            if "\n" in value:
                line += value.count("\n")
                col = len(value) - value.rindex("\n") + 1
            else:
                col += j + 1 - i
            i = j + 1
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            out.append(("num", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if _is_ident_start(c):
            j = i
            while j < n and _is_ident_char(text[j]):
                j += 1
            out.append(("ident", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if c in _SINGLE:
            out.append(("sym", c, line, col))
            i += 1
            col += 1
            continue
        raise ParseError(f"stray character {c!r}", line, col)
    out.append(("eof", "", line, col))
    return out


def _lexed(lex, text):
    try:
        return [tuple(tok) for tok in lex(text)]
    except ParseError as exc:
        return str(exc)


def same_tokens(text: str) -> bool:
    """tokenize agrees with the reference on text, except that after a
    trailing comment with no newline the reference leaves the eof column at
    the '#' while tokenize points past the comment."""
    new, old = _lexed(tokenize, text), _lexed(reference_tokenize, text)
    if new != old and isinstance(new, list) and isinstance(old, list) and new[:-1] == old[:-1]:
        (_, _, line, col), (_, _, old_line, old_col) = new[-1], old[-1]
        comment = text[len(text) - (col - old_col) :]
        return line == old_line and comment.startswith("#") and "\n" not in comment
    return new == old


# Whole symbols as units, so that rule tokens and their guards come up often.
lexer_texts = st.lists(
    st.one_of(
        st.characters(min_codepoint=32, max_codepoint=126),
        st.sampled_from(["\t", "\r", "\n", "\n", " ", '"']),
        st.sampled_from(_RULE_SYMBOLS + _MULTI),
        st.sampled_from(["\u00e9", "\u01c5", "\u03bb", "\u0416"]),
    ),
    max_size=40,
).map("".join)


def lexer_oracle_property(max_examples):
    @settings(max_examples=max_examples, deadline=None)
    @given(lexer_texts)
    def check(text):
        assert same_tokens(text)

    return check



# --- the recursive-descent expression readers, kept as an oracle


def reference_parse_num(ts: TokenStream) -> NumExpr:
    e = reference_parse_num_atom(ts)
    while ts.at_sym("+"):
        ts.next()
        e = NumFn("+", (e, reference_parse_num_atom(ts)))
    return e


def reference_parse_num_atom(ts: TokenStream) -> NumExpr:
    tok = ts.peek()
    if tok.kind == "num":
        ts.next()
        if ts.eat_sym("^"):
            return NumFn(tok.text + "^", (reference_parse_sup(ts),))
        return numeral(int(tok.text))
    if tok.kind == "ident":
        ts.next()
        if tok.text == "s" and ts.at_sym("("):
            ts.next()
            inner = reference_parse_num(ts)
            ts.expect_sym(")")
            return Succ(inner)
        if ts.eat_sym("^"):
            return NumFn(tok.text + "^", (reference_parse_sup(ts),))
        return Param(tok.text)
    if ts.eat_sym("("):
        e = reference_parse_num(ts)
        ts.expect_sym(")")
        return e
    ts.fail("expected a numeric expression")


def reference_parse_sup(ts: TokenStream) -> NumExpr:
    tok = ts.peek()
    if tok.kind == "num":
        ts.next()
        return numeral(int(tok.text))
    if tok.kind == "ident":
        ts.next()
        return Param(tok.text)
    if ts.eat_sym("("):
        e = reference_parse_num(ts)
        ts.expect_sym(")")
        return e
    ts.fail("expected a superscript")


def reference_parse_term(ts: TokenStream) -> Node:
    e = reference_parse_term_atom(ts)
    while ts.at_sym("+"):
        ts.next()
        rhs = reference_parse_term_atom(ts)
        if isinstance(e, NumExpr) and isinstance(rhs, NumExpr):
            e = NumFn("+", (e, rhs))
        else:
            e = Fn("+", (e, rhs))
    return e


def reference_parse_term_atom(ts: TokenStream) -> Node:
    tok = ts.peek()
    if tok.kind == "num":
        ts.next()
        if ts.eat_sym("^"):
            sup = reference_parse_sup(ts)
            return NumFn(tok.text + "^", (sup,))
        return numeral(int(tok.text))
    if tok.kind == "ident":
        ts.next()
        name = tok.text
        if name == "s" and ts.at_sym("("):
            ts.next()
            inner = reference_parse_num(ts)
            ts.expect_sym(")")
            return Succ(inner)
        if ts.eat_sym("^"):
            sup = reference_parse_sup(ts)
            args: tuple = (sup,)
            if ts.eat_sym("("):
                args += reference_parse_term_args(ts)
                ts.expect_sym(")")
            return Fn(name + "^", args)
        if ts.eat_sym("["):
            idx = reference_parse_num(ts)
            ts.expect_sym("]")
            return SVar(name, idx)
        if ts.eat_sym("("):
            args = reference_parse_term_args(ts)
            ts.expect_sym(")")
            return Fn(name, args)
        if name == PARAM_NAME:
            return Param(name)
        return FreeVar(name)
    if ts.eat_sym("("):
        e = reference_parse_term(ts)
        ts.expect_sym(")")
        return e
    ts.fail("expected a term")


def reference_parse_term_args(ts: TokenStream) -> tuple:
    if ts.at_sym(")"):
        return ()
    args = [reference_parse_term(ts)]
    while ts.eat_sym(","):
        args.append(reference_parse_term(ts))
    return tuple(args)


def reference_parse_formula(ts: TokenStream) -> Formula:
    lhs = reference_parse_disj(ts)
    if ts.eat_sym("->"):
        return Imp(lhs, reference_parse_formula(ts))
    return lhs


def reference_parse_disj(ts: TokenStream) -> Formula:
    f = reference_parse_conj(ts)
    while ts.eat_sym("\\/"):
        f = Or(f, reference_parse_conj(ts))
    return f


def reference_parse_conj(ts: TokenStream) -> Formula:
    f = reference_parse_neg(ts)
    while ts.eat_sym("/\\"):
        f = And(f, reference_parse_neg(ts))
    return f


def reference_parse_neg(ts: TokenStream) -> Formula:
    if ts.eat_sym("~"):
        return Not(reference_parse_neg(ts))
    return reference_parse_fatom(ts)


def reference_parse_fatom(ts: TokenStream) -> Formula:
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
        body = reference_parse_formula(ts)
        if omega:
            if tok.text != "forall":
                raise ParseError("only universal numeric quantifiers exist", tok.line, tok.col)
            return OmegaAll(var, body)
        return Forall(var, body) if tok.text == "forall" else Exists(var, body)
    if ts.eat_sym("("):
        f = reference_parse_formula(ts)
        ts.expect_sym(")")
        return f
    if tok.kind == "ident":
        ts.next()
        name = tok.text
        if ts.eat_sym("^"):
            sup = reference_parse_sup(ts)
            args: tuple = (sup,)
            if ts.eat_sym("("):
                args += reference_parse_term_args(ts)
                ts.expect_sym(")")
            return Atom(name + "^", args)
        if ts.eat_sym("("):
            args = reference_parse_term_args(ts)
            ts.expect_sym(")")
            return Atom(name, args)
        return Atom(name, ())
    ts.fail("expected a formula")


_REFERENCE_READERS = {
    FORMULA: reference_parse_formula,
    TERM: reference_parse_term,
    NUM: reference_parse_num,
    SUP: reference_parse_sup,
}


def reference_parse_expr(ts: TokenStream, sort: str):
    """The expression readers as they once were, one recursive function per
    grammar level, as a drop-in for ``parser._parse_expr``.  They recurse,
    so text nested deeper than Python's stack allows is a ParseError whose
    message says so."""
    try:
        return _REFERENCE_READERS[sort](ts)
    except RecursionError:
        tok = ts.peek()
        raise ParseError(f"{sort} nested too deep to parse", tok.line, tok.col) from None


@contextmanager
def reference_parser():
    """Every parse_* function reads its expressions with the oracle."""
    saved = parser._parse_expr
    parser._parse_expr = reference_parse_expr
    try:
        yield
    finally:
        parser._parse_expr = saved


def _outcome(parse, text):
    try:
        return parse(text)
    except ParseError as exc:
        return (str(exc), exc.line, exc.col)


def same_parse(parse, text) -> bool:
    """``parse`` gives the very same value, or the same error message and
    position, with the expression loop as with the oracle, unless the oracle
    gives up for depth."""
    new = _outcome(parse, text)
    with reference_parser():
        old = _outcome(parse, text)
    if isinstance(old, tuple) and "nested too deep" in old[0]:
        return True
    return identical(new, old)


def identical(a, b) -> bool:
    """Structural equality in which nodes must be the same object."""
    if isinstance(a, Node) or isinstance(b, Node):
        return a is b
    if isinstance(a, (tuple, list)):
        return type(a) is type(b) and len(a) == len(b) and all(map(identical, a, b))
    if dataclasses.is_dataclass(a) and not isinstance(a, type):
        return type(a) is type(b) and all(
            identical(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a) if f.compare
        )
    return a == b


# Tokens an expression mutant may gain: every expression symbol, the
# binder words and a few names and numerals.
EXPRESSION_TOKENS = ["(", ")", ",", "^", "+", "~", "->", "/\\", "\\/", "[", "]", ".", ":", "|-"]
EXPRESSION_TOKENS += ["forall", "exists", "omega", "x", "n", "s", "f", "P", "0", "2"]


@st.composite
def token_mutants(draw, printed):
    """A printed expression with one to three of its tokens deleted,
    duplicated, swapped with the next one or replaced, the tokens joined by
    blanks."""
    toks = [tok.text for tok in tokenize(draw(printed))[:-1]]
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        if not toks:
            break
        i = draw(st.integers(min_value=0, max_value=len(toks) - 1))
        edit = draw(st.sampled_from(["delete", "duplicate", "swap", "replace"]))
        if edit == "delete":
            del toks[i]
        elif edit == "duplicate":
            toks.insert(i, toks[i])
        elif edit == "swap" and i + 1 < len(toks):
            toks[i], toks[i + 1] = toks[i + 1], toks[i]
        elif edit == "replace":
            toks[i] = draw(st.sampled_from(EXPRESSION_TOKENS))
    return " ".join(toks)


def parser_oracle_property(max_examples, sort):
    """The expression loop agrees with the oracle on printed expressions of
    ``sort`` and on their token mutants."""
    strategy, parse = {
        FORMULA: (formulas, parse_formula),
        TERM: (terms, parse_term),
        NUM: (nums, parse_numexpr),
    }[sort]
    printed = strategy.map(str)

    @settings(max_examples=max_examples, deadline=None)
    @given(st.one_of(printed, token_mutants(printed)))
    def check(text):
        assert same_parse(parse, text)

    return check


# Replacements that once broke the lexer or that stress what follows it.
FUZZ_REPLACEMENTS = ["\u00b2", '"', "{", "}", "9999"]
_PIECE = re.compile(r"([\w']+|[^\w\s])")
_LINE = re.compile(r"([^\n]*\n)")


@st.composite
def mutated_corpus_files(draw, names):
    """(name, text): a corpus file with one to three of its pieces (words and
    single other characters), or of its whole lines, deleted, duplicated,
    swapped with the next one, or, for pieces, replaced by a fuzz
    replacement or another piece of the file."""
    name = draw(st.sampled_from(names))
    lines = draw(st.booleans())
    parts = (_LINE if lines else _PIECE).split(corpus_path(name).read_text(encoding="utf-8"))
    spots = st.sampled_from(range(1, len(parts), 2))
    edits = ["delete", "duplicate", "swap"] + ([] if lines else ["replace"])
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        i, edit = draw(spots), draw(st.sampled_from(edits))
        if edit == "delete":
            parts[i] = ""
        elif edit == "duplicate":
            parts[i] = parts[i] + ("" if lines else " ") + parts[i]
        elif edit == "swap" and i + 2 < len(parts):
            parts[i], parts[i + 2] = parts[i + 2], parts[i]
        elif edit == "replace":
            parts[i] = draw(st.sampled_from(FUZZ_REPLACEMENTS) | st.sampled_from(parts[1::2]))
    return name, "".join(parts)


def build_proof_pool():
    """Corpus-derived proofs: checked ones, their unrollings, and broken
    variants, each with the setup its check needs."""
    from dataclasses import replace

    from silkcheck import load_schema, load_script
    from silkcheck.kernel import Proof, ax
    from silkcheck.schema import evaluate
    from silkcheck.silk import ClosedStep, OpenStep, check_script

    pool = []
    schema, theory = load_schema(corpus_path("schema_shat.sch"))
    env = schema.link_env()
    comp = schema.components[0]
    allowed = frozenset({"n"})
    pool.append((comp.base, theory, env, frozenset()))
    pool.append((comp.step, theory, env, allowed))
    for alpha in range(4):
        trace = evaluate(schema, alpha, theory)
        pool.append((trace.expanded, theory, env, allowed))
        pool.append((trace.proof, theory, env, allowed))
    # Broken variants stay rejected everywhere below the mode that admits
    # their leaves.
    broken = Proof(comp.step.conclusion, comp.step.rule, (), comp.step.data)
    pool.append((broken, theory, env, allowed))
    swapped = Proof(comp.base.conclusion, comp.base.rule, comp.base.premises, replace(comp.base.data, idx=9))
    pool.append((swapped, theory, env, allowed))
    for name in ("silk_fhat.slk", "silk_wedge_var.slk", "silk_conj_comm.slk"):
        script = load_script(corpus_path(name))
        coll, _, _ = check_script(script)
        silk_env = coll.link_env()
        for group in coll.groups:
            for pair in group.pairs:
                pool.append((pair.base_proof, script.theory, silk_env, frozenset()))
                if isinstance(pair.step, (OpenStep, ClosedStep)):
                    pool.append((pair.step_proof, script.theory, silk_env, frozenset({"n"})))
    pool.append((ax(parse_sequent("A |- A")), EquationalTheory(()), {}, frozenset()))
    pool.append((ax(parse_sequent("A |- B")), EquationalTheory(()), {}, frozenset()))
    return pool


def _replace_node(proof, path, new):
    if not path:
        return new
    from silkcheck.kernel import Proof

    premises = list(proof.premises)
    premises[path[0]] = _replace_node(premises[path[0]], path[1:], new)
    return Proof(proof.conclusion, proof.rule, tuple(premises), proof.data)


def _mutate(proof, node, path, kind):
    """One semantics-breaking edit at the addressed node, or None when the
    edit does not apply there."""
    from dataclasses import replace

    from silkcheck.kernel import Proof, RuleName
    from silkcheck.syntax import Atom, NumFn, free_params, free_vars, numeral

    if kind == "drop-premise" and node.premises:
        broken = Proof(node.conclusion, node.rule, node.premises[:-1], node.data)
        return _replace_node(proof, path, broken)
    if kind == "swap-premises" and len(node.premises) == 2:
        a, b = (p.conclusion for p in node.premises)
        if a == b:
            return None
        broken = Proof(node.conclusion, node.rule, node.premises[::-1], node.data)
        return _replace_node(proof, path, broken)
    if kind == "corrupt-axiom" and node.rule is RuleName.AX:
        bad = Sequent((Atom("$mutant", ()),), node.conclusion.succ)
        return _replace_node(proof, path, Proof(bad, RuleName.AX))
    if kind == "capture-eigenvariable" and node.rule in (RuleName.FORALL_R, RuleName.EXISTS_L):
        candidates = sorted(free_vars(node.conclusion) - {node.data.eigen})
        if not candidates:
            return None
        broken = Proof(node.conclusion, node.rule, node.premises, replace(node.data, eigen=candidates[0]))
        return _replace_node(proof, path, broken)
    if kind == "bump-link" and node.rule is RuleName.LINK:
        if "n" not in free_params(node.conclusion):
            return None
        bumped = NumFn("+", (node.data.param, numeral(1)))
        broken = Proof(node.conclusion, node.rule, (), replace(node.data, param=bumped))
        return _replace_node(proof, path, broken)
    return None


MUTATION_KINDS = ["drop-premise", "swap-premises", "corrupt-axiom", "capture-eigenvariable", "bump-link"]


def mutation_fuzz_property(max_examples):
    """Any single mutation of a checked corpus proof flips its verdict."""
    from silkcheck import corpus_path, load_proof, load_schema
    from silkcheck.kernel import MODE_LKE, MODE_LKS, check_proof, flatten_path, iter_nodes
    from silkcheck.schema import evaluate

    pool = []
    schema, theory = load_schema(corpus_path("schema_shat.sch"))
    env = schema.link_env()
    pool.append((schema.components[0].base, MODE_LKS, theory, env, frozenset()))
    pool.append((schema.components[0].step, MODE_LKS, theory, env, frozenset({"n"})))
    pool.append((evaluate(schema, 2, theory).expanded, MODE_LKS, theory, env, frozenset({"n"})))
    rename, _ = load_proof(corpus_path("lk_forall_rename.lkp"))
    pool.append((rename, MODE_LKE, EquationalTheory(()), {}, frozenset()))
    for proof, mode, th, e, allowed in pool:
        assert check_proof(proof, mode, th, e, allowed, lenient_erule=True).accepted
    # Most (node, kind) pairs admit no mutation; drawing only the ones that
    # do keeps Hypothesis from filtering most of its inputs away.
    nodes = [(entry, node, flatten_path(path)) for entry in pool for node, path in iter_nodes(entry[0])]
    sites = [
        (entry, node, path, kind)
        for entry, node, path in nodes
        for kind in MUTATION_KINDS
        if _mutate(entry[0], node, path, kind) is not None
    ]

    @settings(max_examples=max_examples, deadline=None)
    @given(st.sampled_from(sites))
    def check(site):
        (proof, mode, th, e, allowed), node, path, kind = site
        mutated = _mutate(proof, node, path, kind)
        report = check_proof(mutated, mode, th, e, allowed, lenient_erule=True)
        assert not report.accepted

    return check
