"""Hypothesis generators over the corpus signatures, shared by the property
suite and the acceptance gate, the structural signature of a component
collection that replay tests compare, earlier implementations kept as
oracles, a strategy that damages corpus files for the CLI fuzz and the
witness oracles, one that varies corpus schemata so that they still
load, with the per-numeral ``stats`` oracle, command lines for the CLI's
plain reader, and commands on damaged inputs run on warm and on cleared
load memos."""

import io
import json
import random
import re
import tempfile
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from pathlib import Path
from types import SimpleNamespace

import hypothesis.strategies as st
from hypothesis import HealthCheck, assume, example, given, settings

from silkcheck import corpus_path, load_schema, load_script, load_theory
from silkcheck import cli, kernel, parser, printer, rewrite, schema, translate
from silkcheck.schema import replace
from silkcheck.kernel import (
    ARITY,
    MODE_LK,
    MODE_LKE,
    MODE_LKS,
    RULES,
    LinkPattern,
    Proof,
    RuleData,
    RuleError,
    RuleName,
    check_proof,
    count_inferences,
)
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
    SiLKStep,
    TokenStream,
    parse_formula,
    parse_numexpr,
    parse_proof,
    parse_schema,
    parse_script,
    parse_sequent,
    parse_term,
    tokenize,
)
from silkcheck.rewrite import (
    DEFAULT_FUEL,
    EquationalTheory,
    FuelExhausted,
    NormalizationResult,
    StuckTerm,
    equivalent,
    eval_numeric,
    head_key,
    normalize,
    sequent_equivalent,
    validate_theory,
)
from silkcheck.silk import ClosedBase, ClosedStep, ComponentCollection, ComponentPair, OpenBase, OpenStep
from silkcheck.syntax import (
    And,
    Atom,
    Binder,
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
    SortMismatch,
    SVar,
    Succ,
    Term,
    ZERO,
    Zero,
    bind,
    canon_alpha,
    display_name,
    fold,
    formula_eq,
    free_params,
    free_vars,
    node_at,
    numeral,
    numeral_value,
    open_body,
    rebuild,
    rebuild_shown,
    render,
    replace_at,
    seed,
    sequent_eq,
    shown_kids,
    split_succs,
    subst,
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



# --- named binders, as the syntax had them before bound variables took
# canonical names: a binder keeps the name it binds, and the substitution
# below renames it apart when a value would be captured.  The generators
# draw named formulas and close them for the syntax; the named functions
# further down are the oracle the syntax is compared with.


class NamedBinder(Formula):
    var: str
    body: Formula

    def kids(self):
        return (self.body,)


class NForall(NamedBinder):
    pass


class NExists(NamedBinder):
    pass


class NOmegaAll(NamedBinder):
    pass


CLOSED = {NForall: Forall, NExists: Exists, NOmegaAll: OmegaAll}


def close(x):
    """The syntax's value for a named node or sequent: every named binder
    closed over its name with bind."""
    if isinstance(x, Sequent):
        return Sequent(tuple(map(close, x.ante)), tuple(map(close, x.succ)))
    return fold(x, _close, {})


def _close(node, kids):
    if isinstance(node, NamedBinder):
        return bind(CLOSED[type(node)], node.var, kids[0])
    return node if kids == node.kids() else rebuild(node, kids)


def close_canonical(f):
    """The syntax's canonical form for a named canonical form, whose bound
    names already are the syntax's: each binder with a blank hint."""
    return fold(f, _close_canonical, {})


def _close_canonical(node, kids):
    if isinstance(node, NamedBinder):
        return CLOSED[type(node)](node.var, "", kids[0])
    return _close(node, kids)


NAMED = {cls: named for named, cls in CLOSED.items()}


def named(x):
    """The named node of a syntax node as it prints: each binder named by
    the name it prints under."""
    return fold(x, _named, {}, (), shown_kids)


def _named(node, kids):
    if isinstance(node, Binder):
        return NAMED[type(node)](display_name(node), kids[0])
    return node if kids == node.kids() else rebuild(node, kids)


atoms = st.one_of(
    terms.map(lambda t: Atom("P", (t,))),
    st.tuples(terms, terms).map(lambda ab: Atom("R", ab)),
    st.just(Atom("Q", ())),
    nums.map(lambda e: Atom("W^", (e,))),
)
named_formulas = st.recursive(
    atoms,
    lambda ch: st.one_of(
        ch.map(Not),
        st.tuples(ch, ch).map(lambda ab: And(*ab)),
        st.tuples(ch, ch).map(lambda ab: Or(*ab)),
        st.tuples(ch, ch).map(lambda ab: Imp(*ab)),
        st.tuples(st.sampled_from(BINDER_NAMES), ch).map(lambda p: NForall(*p)),
        st.tuples(st.sampled_from(BINDER_NAMES), ch).map(lambda p: NExists(*p)),
    ),
    max_leaves=6,
)
formulas = named_formulas.map(close)
named_sequents = st.builds(
    lambda ante, succ: Sequent(tuple(ante), tuple(succ)),
    st.lists(named_formulas, max_size=3),
    st.lists(named_formulas, max_size=3),
)
sequents = named_sequents.map(close)


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


# The schemata a call history draws from, with the largest alpha drawn.
HISTORY_SCHEMATA = {"schema_exp.sch": 7, "schema_shat.sch": 25, "schema_fhat.sch": 30}


def fuel_history_property(max_examples):
    """Each call in a random sequence of normalize and evaluate calls on one
    theory has the verdict, and normalize the steps_used, of the same call
    on a fresh theory: a fuel verdict never depends on what earlier calls
    left in the theory's caches."""
    schemata = {name: load_schema(corpus_path(name)) for name in HISTORY_SCHEMATA}
    call = st.tuples(st.sampled_from(sorted(HISTORY_SCHEMATA)), st.integers(0, 30), st.booleans())

    def outcome(name, alpha, evaluates, theory):
        proof_schema = schemata[name][0]
        try:
            if evaluates:
                proof = schema.evaluate(proof_schema, alpha, theory).proof
                return count_inferences(proof), proof.conclusion
            pattern = proof_schema.components[0].pattern
            result = normalize(subst(pattern, {"n": numeral(alpha)}), theory)
            return result.value, result.steps_used
        except (FuelExhausted, StuckTerm) as exc:
            return type(exc), str(exc)

    @settings(max_examples=max_examples, deadline=None)
    @given(st.sampled_from((10, 25, 50, 100, 200, 400)), st.lists(call, max_size=8))
    @example(100, [("schema_exp.sch", alpha, True) for alpha in range(7)])
    def check(fuel, calls):
        shared = {name: EquationalTheory(theory.rules, fuel) for name, (_, theory) in schemata.items()}
        for name, alpha, evaluates in calls:
            alpha %= HISTORY_SCHEMATA[name] + 1
            fresh = EquationalTheory(schemata[name][1].rules, fuel)
            assert outcome(name, alpha, evaluates, shared[name]) == outcome(name, alpha, evaluates, fresh)

    return check


# --- the two-pass unrolling that schema.evaluate replaced, as it last stood:
# expansion built the expanded proof alone, then one fold over it rewrote
# every sequent and witness, kept as the oracle of the one-pass build.


def _map_data(data: RuleData, fn) -> RuleData:
    """The witness with ``fn`` applied to every expression it carries."""
    changed = {}
    for key in ("formula", "term", "repl", "param"):
        if getattr(data, key) is not None:
            changed[key] = fn(getattr(data, key))
    if data.terms:
        changed["terms"] = tuple(fn(t) for t in data.terms)
    return replace(data, **changed) if changed else data


def reference_evaluate(proof_schema, alpha, theory: EquationalTheory) -> SimpleNamespace:
    """``schema.evaluate`` with a fresh memo, in two passes: the
    ``expansions``, ``expanded`` and ``proof`` it gives."""
    if isinstance(alpha, int):
        alpha = numeral(alpha)
    if numeral_value(alpha) is None:
        raise schema.MatchFailure(f"evaluation needs a numeral, got {alpha}")
    if not proof_schema.components:
        raise schema.MatchFailure("a proof schema needs at least one component")
    records: list = []
    lead = proof_schema.components[0]
    root = (
        subst(lead.pattern, {"n": alpha}),
        RuleData(target=lead.name, param=alpha, terms=tuple(FreeVar(v) for v in lead.vars)),
    )
    expanded = _reference_expand(proof_schema, root, theory, {}, records)
    return SimpleNamespace(expansions=records, expanded=expanded, proof=_reference_normal_proof(expanded, theory, {}))


def _reference_expand(proof_schema, root, theory, links: dict, records: list) -> Proof:
    stack: list = []
    opened = set()
    fuel = theory.fuel
    components = {c.name: c for c in proof_schema.components}

    def visit(concl, data):
        if len(records) > fuel:
            raise schema.ExpansionsExhausted(fuel)
        comp = components.get(data.target)
        if comp is None:
            raise schema.MatchFailure(f"link target {data.target} is not declared")
        if data.param is None:
            raise schema.MatchFailure(f"link to {data.target} has no parameter expression")
        try:
            value = numeral_value(eval_numeric(data.param, theory))
        except ValueError as exc:
            raise schema.MatchFailure(f"link to {data.target}: {exc}") from None
        key = (data.target, value, data.terms, concl.ante, concl.succ, data.param)
        hit = links.get(key)
        if hit is not None:
            proof, src, lo, hi = hit
            records.extend(src[lo:hi])
            if len(records) > fuel + 1:
                raise schema.ExpansionsExhausted(fuel)
            return proof
        if key in opened:
            raise schema.MatchFailure(f"link to {comp.name} at {value} recurs inside its own expansion")
        if value == 0 or comp.step is None:
            params = {}
            template = comp.base
        else:
            offset = comp.step_offset()
            if value < offset:
                raise schema.MatchFailure(
                    f"link to {comp.name} at {value} cannot match step parameter {comp.step_param}"
                )
            params = {"n": numeral(value - offset)}
            template = comp.step
        if len(data.terms) != len(comp.vars):
            raise schema.MatchFailure(
                f"link to {data.target} carries {len(data.terms)} terms for {len(comp.vars)} variables"
            )
        inst, leaves = _reference_instance(template, params, dict(zip(comp.vars, data.terms)))
        records.append((comp.name, value, data.param))
        stack.append((key, concl, len(records) - 1, inst, leaves, []))
        opened.add(key)
        return None

    result = visit(*root)
    while stack:
        key, concl, lo, inst, leaves, expanded = stack[-1]
        if leaves:
            proof = visit(*leaves.pop())
            if proof is not None:
                expanded.append(proof)
            continue
        stack.pop()
        opened.remove(key)
        proof = _reference_assemble(inst, expanded, concl)
        links[key] = (proof, records, lo, len(records))
        if stack:
            stack[-1][5].append(proof)
        else:
            result = proof
    return result


def _reference_instance(template: Proof, params: dict, vars: dict) -> tuple[list, list]:
    inst, leaves = [], []
    fn = lambda e: subst(e, params, vars)
    for node in walk(template):
        concl = fn(node.conclusion)
        data = _map_data(node.data, fn)
        inst.append((concl, node.rule, data, len(node.premises)))
        if node.rule is RuleName.LINK:
            leaves.append((concl, data))
    return inst, leaves


def _reference_assemble(inst: list, expanded: list, concl: Sequent) -> Proof:
    values: list = []
    expanded = iter(expanded)
    for seq, rule, data, arity in reversed(inst):
        kids = ()
        if arity:
            kids = tuple(values[: -arity - 1 : -1])
            del values[-arity:]
        values.append(next(expanded) if rule is RuleName.LINK else Proof(seq, rule, kids, data))
    top = inst[0][0]
    if top.ante == concl.ante and top.succ == concl.succ:
        return values[0]
    return Proof(concl, RuleName.ERULE, (values[0],), RuleData(whole=True))


def _reference_normal_proof(proof: Proof, theory: EquationalTheory, done: dict) -> Proof:
    cache = theory._nf_cache

    def norm(x):
        if type(x) is Sequent:
            if all(f in cache for f in x.ante) and all(f in cache for f in x.succ):
                return Sequent(tuple([cache[f] for f in x.ante]), tuple([cache[f] for f in x.succ]))
        elif x in cache:
            return cache[x]
        return normalize(x, theory).value

    def combine(cur: Proof, kids: tuple) -> Proof:
        concl = norm(cur.conclusion)
        if cur.rule is RuleName.ERULE and kids and kids[0].conclusion == concl:
            child = kids[0]
            if child.conclusion.ante == concl.ante and child.conclusion.succ == concl.succ:
                return child
            return Proof(concl, child.rule, child.premises, child.data)
        return Proof(concl, cur.rule, kids, _map_data(cur.data, norm))

    return fold(proof, combine, done)


def unrolling(evaluate, proof_schema, alpha, theory):
    """What an evaluation shows: both printed trees, their counts and the
    expansion records, or the type and message of the error it raised."""
    try:
        trace = evaluate(proof_schema, alpha, theory)
    except Exception as exc:
        return type(exc), str(exc)
    return (
        printer.print_proof_tree(trace.expanded),
        printer.print_proof_tree(trace.proof),
        count_inferences(trace.expanded),
        count_inferences(trace.proof),
        trace.expansions,
    )


SCHEMA_FILES = ["schema_exp.sch", "schema_fhat.sch", "schema_shat.sch", "schema_svar.sch"]


def two_premise_rewrite_base() -> str:
    """schema_shat.sch with its base's ``w:l`` closed before the ``ax``:
    the base ``E`` has two premises and the ``w:l`` none.  ``check-schema``
    rejects it; unrolling splices the ``E`` onto its first premise."""
    text = corpus_path("schema_shat.sch").read_text()
    block = 'formula="forall x. P(x) -> P(f(x))" {\n        ax "P(alpha + 0) |- P(alpha + 0)"\n      }'
    assert text.count(block) == 1
    return text.replace(block, 'formula="forall x. P(x) -> P(f(x))"\n      ax "P(alpha + 0) |- P(alpha + 0)"')


def reference_evaluate_property(max_examples):
    """On corpus schemata and their mutants, at 0..5, under the default fuel
    and a low one, ``schema.evaluate`` shows what the two-pass oracle shows,
    each on a fresh theory.  A rewrite step with two premises is spliced as
    one with one is."""

    corpus = st.sampled_from(SCHEMA_FILES).map(lambda name: (name, corpus_path(name).read_text()))

    @settings(max_examples=max_examples, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    @given(corpus | mutated_corpus_files(SCHEMA_FILES))
    @example(("schema_shat.sch", two_premise_rewrite_base()))
    def check(case):
        _, text = case
        try:
            proof_schema, directive = parser.parse_schema(text)
            rules = load_theory(corpus_path(directive)).rules if directive else ()
        except (ParseError, OSError):
            assume(False)
        for fuel in (DEFAULT_FUEL, 40):
            for alpha in range(6):
                new = unrolling(schema.evaluate, proof_schema, alpha, EquationalTheory(rules, fuel))
                old = unrolling(reference_evaluate, proof_schema, alpha, EquationalTheory(rules, fuel))
                assert new == old, (text, fuel, alpha)

    return check


SCRIPT_FILES = sorted(path.name for path in corpus_path("silk_exp.slk").parent.glob("*.slk"))


def _variant_schema(case):
    """The schema a drawn variant's text parses to, or None."""
    try:
        return parser.parse_schema(case[1])[0]
    except ParseError:
        return None


def _outcome_or_mismatch(run):
    """run(), or the SortMismatch it raised, as (type, message)."""
    try:
        return run()
    except SortMismatch as exc:
        return SortMismatch, str(exc)


def plan_property(max_examples):
    """An instance's plan, replayed over the memo ``seed`` gives, fills
    every template expression as ``subst`` does under the same parameters
    and variables: for the base and step of every
    component of the corpus schemata, of the corpus scripts' translations
    and of drawn schema variants, at the numerals 0..12 and drawn variable
    terms.  A value that is not a term, or a term where a schematic
    variable needs a variable, is the same SortMismatch, with its message."""
    fixed = [load_schema(corpus_path(name))[0] for name in SCHEMA_FILES]
    fixed += [translate.silk_to_schema(load_script(corpus_path(name))) for name in SCRIPT_FILES]
    sources = st.sampled_from(fixed) | schema_variants().map(_variant_schema)
    values = st.lists(terms | formulas, min_size=3, max_size=3)
    shat = fixed[SCHEMA_FILES.index("schema_shat.sch")]  # its components have the variable alpha
    # A variable named twice takes its last term, and only that one is checked.
    twice = corpus_path("schema_shat.sch").read_text().replace("vars (alpha)", "vars (alpha, alpha)")
    twice = parser.parse_schema(twice)[0]
    atom, var = Atom("P", (ZERO,)), FreeVar("b")

    @settings(max_examples=max_examples, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    @given(sources, st.integers(0, 12), values)
    @example(shat, 3, [atom, var, var])
    @example(shat, 12, [Fn("f", (Param("n"),)), atom, atom])
    @example(twice, 3, [atom, var, var])
    def check(proof_schema, k, vals):
        assume(proof_schema is not None)
        for comp in proof_schema.components:
            var_map = dict(zip(comp.vars, vals))
            for proof, numerals in ((comp.base, {}), (comp.step, {"n": numeral(k)})):
                if proof is None:
                    continue
                template = schema._Template(proof, frozenset(comp.vars), frozenset(numerals))
                got = _outcome_or_mismatch(lambda: schema._instance(template, seed(numerals, var_map)))
                want = _outcome_or_mismatch(lambda: [subst(e, numerals, var_map) for e in template.exprs])
                assert identical(got, want), (comp.name, k, vals)

    return check


# Each corpus theory with the schema that reads it.
THEORY_SCHEMATA = {
    "theory_exp.thy": "schema_exp.sch",
    "theory_fhat.thy": "schema_fhat.sch",
    "theory_shat.thy": "schema_shat.sch",
}


def mutated_theory_property(max_examples):
    """Under mutants of the corpus theories that pass ``validate_theory``,
    each with its schema, at 0..4, under the default fuel and a low one,
    ``schema.evaluate`` shows what the two-pass oracle shows, each on a fresh
    theory: the order in which unrolling rewrites is not observable."""
    schemata = {name: load_schema(corpus_path(sch))[0] for name, sch in THEORY_SCHEMATA.items()}

    @settings(
        max_examples=max_examples, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.filter_too_much]
    )
    @given(mutated_corpus_files(sorted(THEORY_SCHEMATA)))
    def check(case):
        name, text = case
        try:
            rules = parser.parse_theory(text).rules
        except ParseError:
            assume(False)
        assume(not validate_theory(EquationalTheory(rules)))
        for fuel in (DEFAULT_FUEL, 40):
            for alpha in range(5):
                new = unrolling(schema.evaluate, schemata[name], alpha, EquationalTheory(rules, fuel))
                old = unrolling(reference_evaluate, schemata[name], alpha, EquationalTheory(rules, fuel))
                assert new == old, (text, fuel, alpha)

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
        lhs = subst(subst(expr, {"n": k}), {"n": m})
        rhs = subst(expr, {"n": subst(k, {"n": m})})
        assert lhs == rhs

    return check


# The names a binder of BINDER_NAMES or of a schematic variable is renamed
# to first, so that a substitution's keys can clash with a fresh name.
SUBST_KEYS = VAR_NAMES + ["a1", "b1", "x1"]
# Values that often mention a bound name, which forces the rename, and
# formulas that often use the name they bind.
binder_terms = st.one_of(st.sampled_from(BINDER_NAMES).map(FreeVar), terms)
binding_formulas = st.builds(
    lambda v, f: NForall(v, And(Atom("P", (FreeVar(v),)), f)), st.sampled_from(BINDER_NAMES), named_formulas
)
# Omega binders bind parameters: n, which the numeric generators draw, and
# m; their first fresh names are n1 and m1.
OMEGA_NAMES = ["n", "m"]
PARAM_KEYS = OMEGA_NAMES + ["n1", "m1"]
binder_nums = st.one_of(st.sampled_from(OMEGA_NAMES).map(Param), nums)
omega_formulas = st.recursive(
    st.one_of(named_formulas, binding_formulas),
    lambda ch: st.builds(
        lambda v, f, g: NOmegaAll(v, And(Atom("W^", (Param(v),)), Or(f, g))), st.sampled_from(OMEGA_NAMES), ch, ch
    ),
    max_leaves=3,
)


def _subst_outcome(apply, *args):
    try:
        return apply(*args)
    except SortMismatch:
        return SortMismatch


def same_up_to_bound_names(got, named) -> bool:
    """Whether got, a syntax value, is named, a named one, up to bound
    names, position by position; or both are SortMismatch."""
    if got is SortMismatch or named is SortMismatch:
        return got is named
    want = close(named)
    if isinstance(got, Sequent):
        return len(got.ante) == len(want.ante) and all(map(formula_eq, got.formulas(), want.formulas()))
    return formula_eq(got, want) if isinstance(got, Formula) else got is want


def subst_capture_property(max_examples):
    """subst agrees, up to bound names, with the named substitution, which
    renames a binder apart on capture, and with the named substitution into
    the formula after every bound name, of an individual or an omega binder,
    is renamed apart to a name the generators never draw, where no capture
    can happen; or all raise SortMismatch.  Substituted terms may mention
    parameters that omega binders bind."""

    @settings(max_examples=max_examples, deadline=None)
    @given(
        omega_formulas,
        st.dictionaries(st.sampled_from(PARAM_KEYS), binder_nums, max_size=3),
        st.dictionaries(
            st.sampled_from(SUBST_KEYS),
            st.one_of(binder_terms, binder_nums.map(lambda e: Fn("f", (e,)))),
            min_size=1,
            max_size=4,
        ),
    )
    def check(f, params, mapping):
        got = _subst_outcome(subst, close(f), params, mapping)
        assert same_up_to_bound_names(got, _subst_outcome(reference_subst, f, params, mapping))
        renamed = rename_bound(f, (f"v{i}" for i in range(1000)))
        assert same_up_to_bound_names(got, _subst_outcome(reference_subst, renamed, params, mapping))

    return check


def rehinted(f: Formula) -> Formula:
    """f with every binder's hint renamed: a distinct node if f has a
    binder, an alpha-variant with f's canonical form."""
    return fold(f, _rehinted, {})


def _rehinted(node, kids):
    if isinstance(node, Binder):
        return type(node)(node.var, node.hint + "_", kids[0])
    return node if kids == node.kids() else rebuild(node, kids)


def sequent_eq_property(max_examples):
    """sequent_eq holds between a sequent and its sides shuffled, each side
    mixing the formulas themselves with alpha-variants (rehinted), which
    identity alone cannot match; it fails on one more formula, and on one
    formula of a side replaced by one that is not alpha-equivalent."""

    @settings(max_examples=max_examples, deadline=None)
    @given(sequents, st.randoms(use_true_random=False))
    @example(parse_sequent("forall x. P(x), forall x. P(x), Q |- exists y. R(y, a)"), random.Random(1))
    def check(seq, rng):
        ante = [rehinted(f) if rng.random() < 0.5 else f for f in seq.ante]
        succ = [rehinted(f) if rng.random() < 0.5 else f for f in seq.succ]
        rng.shuffle(ante)
        rng.shuffle(succ)
        shuffled = Sequent(tuple(ante), tuple(succ))
        assert sequent_eq(seq, shuffled) and sequent_eq(shuffled, seq)
        assert hash(seq) == hash(shuffled)
        extended = Sequent(seq.ante + (Atom("Q", ()),), seq.succ)
        assert not sequent_eq(seq, extended)
        side = ante if ante else succ
        if side:
            i = rng.randrange(len(side))
            side[i] = Not(side[i])  # never alpha-equivalent to the formula it replaces
            other = Sequent(tuple(ante), tuple(succ))
            assert not sequent_eq(seq, other) and not sequent_eq(other, seq)

    return check


def _reference_canon(f, env: dict, counter: list):
    """Alpha-canonical form of a named formula as the formula layer once
    computed it, recursively and with names in traversal order, a binder
    renaming free variables only; kept as an oracle for formula_eq."""
    if isinstance(f, Atom):
        if not env:
            return f
        return Atom(f.pred, tuple(_reference_rename(a, env) for a in f.args))
    if isinstance(f, Not):
        return Not(_reference_canon(f.body, env, counter))
    if isinstance(f, (And, Or, Imp)):
        return type(f)(_reference_canon(f.lhs, env, counter), _reference_canon(f.rhs, env, counter))
    if isinstance(f, (NForall, NExists)):
        fresh = f"$b{counter[0]}"
        counter[0] += 1
        inner = dict(env)
        inner[("v", f.var)] = fresh
        return type(f)(fresh, _reference_canon(f.body, inner, counter))
    if isinstance(f, NOmegaAll):
        fresh = f"$w{counter[0]}"
        counter[0] += 1
        inner = dict(env)
        inner[("p", f.var)] = fresh
        return NOmegaAll(fresh, _reference_canon(f.body, inner, counter))
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


def named_eq(a, b) -> bool:
    """Equality of named formulas up to bound names, schematic variables of
    a bound name included, as the syntax once decided it."""
    return reference_canon_alpha(a) is reference_canon_alpha(b)


def binds_a_schematic_name(f) -> bool:
    """Whether some binder of named f shares its name with a schematic
    variable."""
    bound = {n.var for n in walk(f) if isinstance(n, (NForall, NExists))}
    return any(isinstance(n, SVar) and n.name in bound for n in walk(f))


def _renaming(f, var: str) -> tuple:
    """The parameters and variables of the substitution of var for the name
    the named binder f binds."""
    return ({f.var: Param(var)}, {}) if type(f) is NOmegaAll else ({}, {f.var: FreeVar(var)})


def rename_bound(f, fresh):
    """Named f with every binder renamed to a name drawn from the iterator
    fresh, which must not occur in f."""
    if isinstance(f, NamedBinder):
        var = next(fresh)
        return type(f)(var, reference_subst(rename_bound(f.body, fresh), *_renaming(f, var)))
    if isinstance(f, Atom):
        return f
    return rebuild(f, tuple(rename_bound(k, fresh) for k in f.kids()))


def formula_eq_property(max_examples):
    """formula_eq agrees with the named equality, and with the reference on
    formulas in which no binder shares a schematic variable's name, where
    that and the named one coincide; and renaming every binder apart keeps
    a formula's class and its free variables."""

    @settings(max_examples=max_examples, deadline=None)
    @given(named_formulas, named_formulas)
    def check(a, b):
        assert formula_eq(close(a), close(b)) == named_eq(a, b)
        renamed = rename_bound(a, (f"v{i}" for i in range(1000)))
        assert formula_eq(close(a), close(renamed)) and named_eq(a, renamed)
        assert free_vars(close(renamed)) == free_vars(close(a)) == reference_free_vars(a)
        if not binds_a_schematic_name(a) and not binds_a_schematic_name(b):
            assert reference_eq(a, b) == named_eq(a, b)

    return check


def quantifier_rule_property(max_examples):
    """The kernel's verdict on a quantifier inference is the named one: the
    premise formula must be the witness formula's body with the named
    substitution of the term or eigenvariable for its bound name, up to
    bound names, and an eigenvariable must not be free in the conclusion."""
    from silkcheck.kernel import RuleError, apply_rule

    rules = {
        RuleName.FORALL_L: (NForall, "ante"),
        RuleName.EXISTS_R: (NExists, "succ"),
        RuleName.FORALL_R: (NForall, "succ"),
        RuleName.EXISTS_L: (NExists, "ante"),
    }

    @settings(max_examples=max_examples, deadline=None)
    @given(
        st.sampled_from(sorted(rules, key=str)),
        st.sampled_from(BINDER_NAMES),
        st.one_of(binding_formulas, named_formulas),
        binder_terms,
        st.one_of(st.none(), named_formulas, binder_terms),
        st.lists(named_formulas, max_size=2),
    )
    def check(rule, name, body, witness, other, context):
        cls, side = rules[rule]
        q = cls(name, body)
        eigen = rule in (RuleName.FORALL_R, RuleName.EXISTS_L)
        if eigen:
            witness = witness if isinstance(witness, FreeVar) else FreeVar("c")
        # The premise formula: the instance, the instance at another term,
        # or another formula.
        at = witness if other is None or isinstance(other, Formula) else other
        inst = _subst_outcome(reference_subst, q.body, {}, {q.var: at})
        if inst is SortMismatch or isinstance(other, Formula):
            inst = other if isinstance(other, Formula) else q.body
        premise = {side: (inst, *context)}
        conclusion = {side: (q, *context)}
        other_side = "succ" if side == "ante" else "ante"
        premise[other_side] = conclusion[other_side] = ()
        try:
            data = RuleData(a=0, formula=close(q), **({"eigen": witness.name} if eigen else {"term": witness}))
            apply_rule(rule, (close(Sequent(**premise)),), data)
            got = True
        except (RuleError, SortMismatch):
            got = False
        want = _subst_outcome(reference_subst, q.body, {}, {q.var: witness})
        ok = want is not SortMismatch and named_eq(inst, want)
        if eigen:
            ok = ok and witness.name not in reference_free_vars(Sequent(**conclusion))
        assert got == ok

    return check


# --- the post-order loops that syntax.fold replaced, each as it last stood (substitution with the fresh name kept off
# the substitution's domain), kept as oracles, the ones over binders on
# named formulas.  They keep their own tables and set no cache on a node.


# The per-class renderer that syntax's one combine replaced: every node
# class's _render and every formula class's _prec, with their helpers.


def _reference_prec(f: Formula) -> int:
    return {Not: 40, And: 30, Or: 20, Imp: 10, NForall: 5, NExists: 5, NOmegaAll: 5}.get(type(f), 100)


def _reference_wrap(f: Formula, s: str, minimum: int) -> str:
    if _reference_prec(f) < minimum:
        return f"({s})"
    return s


def _reference_sup(e, s: str) -> str:
    if isinstance(e, (Zero, Param)) or numeral_value(e) is not None:
        return s
    return f"({s})"


def _reference_num_fn(self, kids):
    if self.sym == "+":
        right = f"({kids[1]})" if isinstance(self.args[1], NumFn) and self.args[1].sym == "+" else kids[1]
        return f"{kids[0]} + {right}"
    if self.sym.endswith("^") and len(self.args) == 1:
        return f"{self.sym}{_reference_sup(self.args[0], kids[0])}"
    return f"{self.sym}({', '.join(kids)})"


def _reference_fn(self, kids):
    if self.sym == "+":
        plus = isinstance(self.args[1], (NumFn, Fn)) and self.args[1].sym == "+"
        right = f"({kids[1]})" if plus else kids[1]
        return f"{kids[0]} + {right}"
    if self.sym.endswith("^"):
        head = f"{self.sym}{_reference_sup(self.args[0], kids[0])}"
        if len(kids) == 1:
            return head
        return f"{head}({', '.join(kids[1:])})"
    return f"{self.sym}({', '.join(kids)})"


def _reference_atom(self, kids):
    if self.pred.endswith("^"):
        head = f"{self.pred}{_reference_sup(self.args[0], kids[0])}"
        if len(kids) == 1:
            return head
        return f"{head}({', '.join(kids[1:])})"
    if not self.args:
        return self.pred
    return f"{self.pred}({', '.join(kids)})"


_REFERENCE_RENDER = {
    Zero: lambda self, kids: "0",
    Succ: lambda self, kids: str(int(kids[0]) + 1) if kids[0].isdigit() else f"s({kids[0]})",
    Param: lambda self, kids: self.name,
    NumFn: _reference_num_fn,
    FreeVar: lambda self, kids: self.name,
    SVar: lambda self, kids: f"{self.name}[{kids[0]}]",
    Fn: _reference_fn,
    Atom: _reference_atom,
    Not: lambda self, kids: f"~{_reference_wrap(self.body, kids[0], 40)}",
    And: lambda self, kids: f"{_reference_wrap(self.lhs, kids[0], 30)} /\\ {_reference_wrap(self.rhs, kids[1], 31)}",
    Or: lambda self, kids: f"{_reference_wrap(self.lhs, kids[0], 20)} \\/ {_reference_wrap(self.rhs, kids[1], 21)}",
    Imp: lambda self, kids: f"{_reference_wrap(self.lhs, kids[0], 11)} -> {_reference_wrap(self.rhs, kids[1], 10)}",
    NForall: lambda self, kids: f"forall {self.var}. {kids[0]}",
    NExists: lambda self, kids: f"exists {self.var}. {kids[0]}",
    NOmegaAll: lambda self, kids: f"forall {self.var}:omega. {kids[0]}",
}


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
        memo[id(cur)] = _REFERENCE_RENDER[type(cur)](cur, [memo[id(k)] for k in kids])
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
        if isinstance(cur, NamedBinder):
            body, height = done[cur.body]
            name = f"${height}"
            done[cur] = (cls(name, reference_subst(body, *_renaming(cur, name))), height + 1)
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
        done[cur] = out - {cur.var} if cls is NForall or cls is NExists else out
    return frozenset().union(*(done[r] for r in roots))


def reference_subst(x, params: dict, vars: dict):
    """Substitution of params and vars that visits every node; a named
    binder is renamed apart on capture, as the syntax once did, and a syntax
    binder is an ordinary node.  A parameter's value that is not numeric, or
    a variable's that is not a term, is a SortMismatch."""
    if any(not isinstance(v, NumExpr) for v in params.values()):
        raise SortMismatch("a parameter must map to a numeric expression")
    if any(not isinstance(v, (Term, NumExpr)) for v in vars.values()):
        raise SortMismatch("a variable must map to a term")
    if not params and not vars:
        return x
    done: dict = {}
    if isinstance(x, Sequent):
        ante = tuple(_reference_subst(f, params, vars, done) for f in x.ante)
        return Sequent(ante, tuple(_reference_subst(f, params, vars, done) for f in x.succ))
    return _reference_subst(x, params, vars, done)


def _reference_subst(e, params: dict, vars: dict, done: dict):
    stack = [e]
    while stack:
        cur = stack.pop()
        if cur in done:
            continue
        cls = type(cur)
        if cls is Param:
            done[cur] = params.get(cur.name, cur)
            continue
        if cls is FreeVar:
            done[cur] = vars.get(cur.name, cur)
            continue
        if isinstance(cur, NamedBinder):
            done[cur] = _reference_subst_binder(cur, params, vars)
            continue
        kids = cur.kids()
        pending = [k for k in kids if k not in done]
        if pending:
            stack.append(cur)
            stack.extend(pending)
            continue
        new_kids = tuple(done[k] for k in kids)
        if cls is SVar and cur.name in vars:
            repl = vars[cur.name]
            if not isinstance(repl, (SVar, FreeVar)):
                raise SortMismatch(f"schematic variable {cur.name} must map to a variable, got {repl!r}")
            done[cur] = SVar(repl.name, new_kids[0])
        elif new_kids == kids:
            done[cur] = cur
        else:
            done[cur] = rebuild(cur, new_kids)
    return done[e]


def _reference_free_params(x) -> frozenset:
    return frozenset(n.name for n in walk(x) if type(n) is Param)


def _reference_subst_binder(f: Formula, params: dict, vars: dict) -> Formula:
    """A named omega binder is renamed apart from the parameters of every
    substituted value, an individual one from the variables of the
    substituted terms."""
    var, body = f.var, f.body
    if type(f) is NOmegaAll:
        params = {k: v for k, v in params.items() if k != var}
        free, keys, values = _reference_free_params, params, (*params.values(), *vars.values())
    else:
        vars = {k: v for k, v in vars.items() if k != var}
        free, keys, values = reference_free_vars, vars, vars.values()
    ranges = frozenset().union(*(free(v) for v in values))
    if var in ranges:
        taken = free(body) | ranges | set(keys)
        i = 1
        while f"{var}{i}" in taken:
            i += 1
        var = f"{var}{i}"
        body = _reference_subst(body, *_renaming(f, var), {})
    if not params and not vars:
        return f
    new_body = _reference_subst(body, params, vars, {})
    return f if var is f.var and new_body is f.body else type(f)(var, new_body)


def fold_oracle_property(max_examples):
    """render, free_vars, canon_alpha and subst give what the loops they
    replaced gave on named formulas, terms and sequents: the same text and
    free variables, the same canonical node, and the same value up to bound
    names, under a substitution that may rename binders."""

    @settings(max_examples=max_examples, deadline=None)
    @given(
        st.one_of(named_formulas, terms, named_sequents),
        st.dictionaries(st.sampled_from(SUBST_KEYS), binder_terms, max_size=3),
        nums,
    )
    def check(x, mapping, k):
        for node in x.formulas() if isinstance(x, Sequent) else (x,):
            assert render(close(node)) == reference_render(node)
            if isinstance(node, Formula):
                assert canon_alpha(close(node)) is close_canonical(reference_canon_alpha(node))
        assert free_vars(close(x)) == reference_free_vars(x)
        for params, vars in (({"n": k}, {}), ({}, mapping), ({"n": k}, mapping)):
            got = _subst_outcome(subst, close(x), params, vars)
            assert same_up_to_bound_names(got, _subst_outcome(reference_subst, x, params, vars))

    return check


def subst_schedule_property(max_examples):
    """subst gives the very node the reference gives, which visits every
    node under a fresh memo, when one root meets several substitutions in
    turn, each with its own domain, so that the root holds a schedule per
    domain; and the same substitution then gives the reference's node on
    each kid of the root, from the memo the root left.  The formulas hold
    omega binders and binders of schematic names; the values often force a
    rename, and a term for a schematic name raises SortMismatch alike."""
    keys = SUBST_KEYS + ["x", "y"]

    @settings(max_examples=max_examples, deadline=None)
    @given(
        omega_formulas.map(close),
        st.lists(
            st.tuples(
                st.dictionaries(st.sampled_from(PARAM_KEYS), binder_nums, max_size=2),
                st.dictionaries(st.sampled_from(keys), st.one_of(binder_terms, binder_nums), max_size=3),
            ),
            min_size=2,
            max_size=4,
        ),
    )
    @example(
        close(Atom("P", (Fn("f", (Fn("f", (Fn("f", (FreeVar("x"),)),)),)),))),  # a tower of one-kid nodes
        [({}, {"x": FreeVar("b")}), ({"n": numeral(2)}, {"x": Fn("g", (ZERO, Param("n")))})],
    )
    @example(close(Atom("W^", (Succ(Succ(Param("n"))),))), [({"n": numeral(3)}, {}), ({"n": Param("m")}, {})])
    @example(
        close(NForall("y", Not(Atom("P", (SVar("x", Succ(Param("n"))), FreeVar("y")))))),  # x is free under the binder
        [({"n": ZERO}, {"x": FreeVar("c")}), ({}, {"x": Fn("f", (ZERO,))})],
    )
    def check(root, domains):
        for params, mapping in domains:
            for x in (root, *root.kids()):
                want = _subst_outcome(reference_subst, x, params, mapping)
                got = _outcome_or_mismatch(lambda: subst(x, params, mapping))
                if want is not SortMismatch:
                    assert identical(got, want)
                    continue
                # The message names a schematic variable mapped to a term,
                # whichever of them the substitution meets first.
                assert got in [
                    (SortMismatch, f"schematic variable {k} must map to a variable, got {v!r}")
                    for k, v in mapping.items()
                    if type(v) is not SVar and type(v) is not FreeVar
                ]

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
            return bind(OmegaAll, var, body)
        return bind(Forall if tok.text == "forall" else Exists, var, body)
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
    fields = getattr(a, "_fields", None)  # a record, or a theory or report
    if fields is not None and not isinstance(a, type):
        return type(a) is type(b) and all(identical(getattr(a, f), getattr(b, f)) for f in fields)
    return a == b


# ---------------------------------------------------------------------------
# Quoted texts read whole, as before the per-file memo: every one lexed and
# parsed on its own, a sequent at once.


def reference_quoted(ts: TokenStream, what: str):
    tok = ts.expect("str")
    read = parser._parse_sequent if what == "sequent" else None
    return parser._parse_tokens(tokenize(tok.text, tok.line, tok.col + 1), what, read)


FILE_READERS = {".lkp": parse_proof, ".sch": parse_schema, ".slk": parse_script}


def same_quoted_reads(suffix: str, text: str) -> bool:
    """The file reader of ``suffix`` gives the very same nodes, or the same
    error message and position, with the per-file memo as with every quoted
    text read whole."""
    read = FILE_READERS[suffix]
    new = _outcome(read, text)
    saved, parser._quoted = parser._quoted, reference_quoted
    try:
        old = _outcome(read, text)
    finally:
        parser._quoted = saved
    return identical(new, old)


@st.composite
def quoted_sequent_scripts(draw):
    """(".slk", text): a script of axiom steps over printed sequents and
    their token mutants, the first one again at the end, and a formula
    witness over a side of one, so that the memo both fills and answers."""
    printed = sequents.map(str)
    texts = draw(st.lists(st.one_of(printed, token_mutants(printed)), min_size=1, max_size=4))
    item = draw(st.sampled_from(texts)).split("|-")[0].split(",")[0]
    lines = [f'ax1r "{t}"' for t in texts] + [f'ax1r "{texts[0]}"', f'axl group=1 pair=1 formula="{item}" ann="n"']
    return ".slk", "\n".join(lines) + "\n"


def quoted_memo_property(max_examples, names):
    """The per-file memo reads every corpus file among ``names`` and their
    mutants, and scripts of drawn sequents and their token mutants, as the
    whole reads do."""

    @settings(max_examples=max_examples, deadline=None, derandomize=True)
    @given(st.one_of(mutated_corpus_files(names).map(lambda c: (c[0][c[0].rindex(".") :], c[1])), quoted_sequent_scripts()))
    def check(case):
        assert same_quoted_reads(*case), case

    return check


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
# A whole witness pair, `key=value`, `vars (...)`, `terms (...)` or `whole`,
# in group 1; a quoted string, in which none is looked for, otherwise.
_KEY_UNIT = re.compile(
    r'"[^"]*"|\b((?:'
    + "|".join(printer.WITNESS_KEYS)
    + r""")=(?:"[^"]*"|[\w.']+|\([^)]*\))|(?:vars|terms) ?[(\[][^)\]]*[)\]]|whole)(?![\w=])"""
)
# Witness pairs that only the other format reads: a script step's in a rule
# block, a link's parameter in a script; and `whole`, which ppsnf now writes.
OTHER_FORMAT_KEYS = {
    ".lkp": ["group=1", "pair=2", "pair2=1", 'ann="s(n)"', 'pattern="P |- P"', "vars (x)", 'g="n"', 'f="n"'],
    ".slk": ['param="n"', "whole"],
}
OTHER_FORMAT_KEYS[".sch"] = OTHER_FORMAT_KEYS[".lkp"]


def _key_units(text: str) -> list:
    """``text`` split as re.split splits it on a capturing pattern: the
    witness pairs at the odd places."""
    parts, last = [], 0
    for mo in _KEY_UNIT.finditer(text):
        if mo.group(1):
            parts += [text[last : mo.start()], mo.group(1)]
            last = mo.end()
    return parts + [text[last:]]


@st.composite
def mutated_corpus_files(draw, names):
    """(name, text): a corpus file with one to three of its pieces (words and
    single other characters), of its whole lines, or of its witness pairs,
    deleted, duplicated, swapped with the next one, or, for pieces, replaced
    by a fuzz replacement or another piece of the file, and for witness
    pairs, joined by a pair that only the other format reads."""
    name = draw(st.sampled_from(names))
    text = corpus_path(name).read_text(encoding="utf-8")
    suffix = name[name.rindex(".") :]
    mode = draw(st.sampled_from(["pieces", "lines"] + (["keys"] if suffix in OTHER_FORMAT_KEYS else [])))
    parts = {"pieces": _PIECE.split, "lines": _LINE.split, "keys": _key_units}[mode](text)
    spots = st.sampled_from(range(1, len(parts), 2))
    edits = ["delete", "duplicate", "swap"] + {"pieces": ["replace"], "lines": [], "keys": ["add"]}[mode]
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        i, edit = draw(spots), draw(st.sampled_from(edits))
        if edit == "delete":
            parts[i] = ""
        elif edit == "duplicate":
            parts[i] = parts[i] + ("" if mode == "lines" else " ") + parts[i]
        elif edit == "swap" and i + 2 < len(parts):
            parts[i], parts[i + 2] = parts[i + 2], parts[i]
        elif edit == "replace":
            parts[i] = draw(st.sampled_from(FUZZ_REPLACEMENTS) | st.sampled_from(parts[1::2]))
        elif edit == "add":
            parts[i] = parts[i] + " " + draw(st.sampled_from(OTHER_FORMAT_KEYS[suffix]))
    return name, "".join(parts)


# What a changed spot of a schema file may read: a numeral inside a quoted
# formula, a step parameter, a link parameter.
VARIANT_NUMERALS = ["0", "1", "2", "3"]
VARIANT_STEP_PARAMS = ["s(n)", "n + 1", "n + 2", "s(s(n))", "n"]
VARIANT_LINK_PARAMS = ["n", "0", "1", "s(n)", "n + 1", "2^n"]
_QUOTED_SPOT = re.compile(r'(step-param |param=)?"([^"\n]*)"')


@st.composite
def schema_variants(draw, names=SCHEMA_FILES):
    """(name, text): a corpus schema with one or two of its numerals inside
    quoted formulas, its step parameters or its link parameters changed.
    Unlike ``mutated_corpus_files``, most variants still load, so a command
    on them reaches ``evaluate``, where they change how deep and how wide
    the unrolling goes and whether it fails."""
    name = draw(st.sampled_from(names))
    text = corpus_path(name).read_text(encoding="utf-8")
    spots = []  # (start, end, what may replace text[start:end])
    for mo in _QUOTED_SPOT.finditer(text):
        if mo.group(1):
            spots.append((*mo.span(2), VARIANT_STEP_PARAMS if mo.group(1) == "step-param " else VARIANT_LINK_PARAMS))
        else:
            spots += [(mo.start(2) + k.start(), mo.start(2) + k.end(), VARIANT_NUMERALS) for k in re.finditer(r"\d+", mo.group(2))]
    for i in sorted(draw(st.lists(st.sampled_from(range(len(spots))), min_size=1, max_size=2, unique=True)), reverse=True):
        start, end, choices = spots[i]
        text = text[:start] + draw(st.sampled_from(choices)) + text[end:]
    return name, text


def reference_stats(path, alphas: range, fuel: int | None, as_json: bool) -> tuple:
    """(exit code, stdout, stderr) of ``stats`` on the schema file ``path``
    over ``alphas`` (``fuel`` None for the default): each numeral evaluated
    in ascending order on a theory and a memo of its own, the first failure
    reported, and the counts read off walks of both proofs."""
    rows = []
    try:
        for alpha in alphas:
            proof_schema, theory, _ = parser.load_file(path, parse_schema, fuel=DEFAULT_FUEL if fuel is None else fuel)
            trace = schema.evaluate(proof_schema, alpha, theory)
            rows.append((alpha, count_inferences(trace.expanded), count_inferences(trace.proof)))
    except ParseError as exc:
        return 2, "", f"parse error: {exc}\n"
    except (schema.MatchFailure, SortMismatch, FuelExhausted, StuckTerm) as exc:
        return 1, "", f"error: {exc}\n"
    if not as_json:
        return 0, printer.stats_table(rows) + "\n", ""
    doc = {
        "format_version": 1,
        "rows": [{"alpha": a, "expanded": ec, "normal": lk, "total": sum(ec.values())} for a, ec, lk in rows],
    }
    return 0, json.dumps(doc, indent=2, sort_keys=True) + "\n", ""


# ---------------------------------------------------------------------------
# The witness reader and writers before one of each served both formats.


def reference_parse_kv(ts: TokenStream, keys: frozenset) -> dict:
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
        elif key in parser._INT_KEYS:
            out[key] = int(ts.expect("num").text)
        elif key in parser._QUOTED_KEYS:
            out[key] = parser._quoted(ts, parser._QUOTED_KEYS[key])
        elif key == "pattern":
            out[key] = parser._quoted(ts, "sequent")
        elif key == "eigen":
            out[key] = ts.expect("ident").text
        elif key == "at":  # a bad side is reported at its word
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
            close = "]" if ts.eat_sym("[") else ")"
            if close == ")":
                ts.expect_sym("(")
            names = []
            if not ts.at_sym(close):
                names.append(ts.expect("ident").text)
                while ts.eat_sym(","):
                    names.append(ts.expect("ident").text)
            ts.expect_sym(close)
            out["vars"] = tuple(names)
        elif key == "terms":
            close = "]" if ts.eat_sym("[") else ")"
            if close == ")":
                ts.expect_sym("(")
            terms = []
            if not ts.at_sym(close):
                terms.append(parser._parse_expr(ts, TERM))
                while ts.eat_sym(","):
                    terms.append(parser._parse_expr(ts, TERM))
            ts.expect_sym(close)
            out["terms"] = tuple(terms)
        else:  # to: resolved against the premise it rewrites, so kept as its token
            out[key] = ts.expect("str")


def reference_step_fields(kv: dict) -> dict:
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


def reference_data_fields(data: RuleData) -> str:
    parts = []
    if data.a is not None:
        parts.append(f"a={data.a}")
    if data.b is not None:
        parts.append(f"b={data.b}")
    if data.formula is not None:
        parts.append(f'formula="{data.formula}"')
    if data.term is not None:
        parts.append(f'term="{data.term}"')
    if data.eigen is not None:
        parts.append(f"eigen={data.eigen}")
    if data.side is not None:
        parts.append(f"at={data.side}.{data.idx}")
    if data.path:
        parts.append("path=" + ".".join(str(i) for i in data.path))
    if data.repl is not None:
        parts.append(f'to="{data.repl}"')
    if data.whole:
        parts.append("whole")
    if data.target is not None:
        parts.append(f"target={data.target}")
    if data.param is not None:
        parts.append(f'param="{data.param}"')
    if data.terms:
        parts.append("terms=(" + ", ".join(render(t) for t in data.terms) + ")")
    return " ".join(parts)


def reference_step_text(step) -> str:
    parts = []
    if step.rule.startswith("rho_"):
        arity = 2 if step.pair2 is not None else 1
        parts.append(f"rho {step.rule[4:]} {arity} {step.lk_rule}")
    else:
        parts.append(step.rule)
    if step.sequent is not None:
        parts.append(f'"{step.sequent}"')
    if step.group is not None:
        parts.append(f"group={step.group}")
    if step.pair is not None:
        parts.append(f"pair={step.pair}")
    if step.pair2 is not None:
        parts.append(f"pair2={step.pair2}")
    data = step.data
    if data.a is not None:
        parts.append(f"a={data.a}")
    if data.b is not None:
        parts.append(f"b={data.b}")
    if step.formula is not None:
        parts.append(f'formula="{step.formula}"')
    elif data.formula is not None:
        parts.append(f'formula="{data.formula}"')
    if data.term is not None:
        parts.append(f'term="{data.term}"')
    if data.eigen is not None:
        parts.append(f"eigen={data.eigen}")
    if data.side is not None:
        parts.append(f"at={data.side}.{data.idx}")
    if data.path:
        parts.append("path=" + ".".join(str(i) for i in data.path))
    if step.raw_to is not None:
        parts.append(f'to="{step.raw_to}"')
    elif data.repl is not None:
        parts.append(f'to="{data.repl}"')
    if step.ann is not None:
        parts.append(f'ann="{step.ann}"')
    if step.pattern is not None:
        parts.append(f'pattern="{step.pattern}"')
        parts.append("vars (" + ", ".join(step.vars) + ")")
    if step.target is not None:
        parts.append(f"target={step.target}")
    if step.g is not None:
        parts.append(f'g="{step.g}"')
    if step.f is not None:
        parts.append(f'f="{step.f}"')
    if step.rule in ("cycle", "call"):
        parts.append("terms (" + ", ".join(render(t) for t in step.terms) + ")")
    return " ".join(parts)


# The keys the reader took in any rule block, and in any script step.
REFERENCE_NODE_KEYS = frozenset(
    {"a", "b", "formula", "term", "eigen", "at", "path", "to", "whole", "target", "param", "terms"}
)
REFERENCE_STEP_KEYS = REFERENCE_NODE_KEYS - {"param"} | {"group", "pair", "pair2", "ann", "pattern", "vars", "g", "f"}


def _reference_kv(ts: TokenStream, rule: str, reads: frozenset, out: dict | None = None) -> dict:
    # The reader took every key of its format, whatever the rule read.  A
    # second run of pairs, after an axiom's sequent, updated the first.
    kv = reference_parse_kv(ts, REFERENCE_NODE_KEYS if rule in parser.RULE_TOKENS else REFERENCE_STEP_KEYS)
    if out is None:
        return kv
    out.update(kv)
    return out


def _reference_fields(kv: dict) -> dict:
    # The step kept the formula of its rule data a second time, and its
    # replacement as text and position in place of the token.
    fields = reference_step_fields(kv)
    assert fields.pop("formula", None) is fields.get("data", RuleData()).formula
    if fields.pop("raw_to", None) is not None:
        del fields["to_at"]
        fields["to"] = kv["to"]
    return fields


def _reference_step_text(step: SiLKStep) -> str:
    # The step as the reference writer read it, with the two fields it lost.
    to = None if step.to is None else step.to.text
    fields = {name: getattr(step, name) for name in step._fields}
    return reference_step_text(SimpleNamespace(**fields, formula=step.data.formula, raw_to=to))


@contextmanager
def reference_witness():
    """Rule blocks and script steps read and write their witnesses with the
    oracles."""
    saved = parser._parse_kv, parser._step_fields, printer._witness, printer._step_text
    parser._parse_kv, parser._step_fields = _reference_kv, _reference_fields
    printer._witness = lambda data, step=None: [text] if (text := reference_data_fields(data)) else []
    printer._step_text = _reference_step_text
    try:
        yield
    finally:
        parser._parse_kv, parser._step_fields, printer._witness, printer._step_text = saved


_FORMATS = {
    ".lkp": (parse_proof, lambda proof, _: printer.print_proof(proof)),
    ".sch": (parse_schema, printer.print_schema),
    ".slk": (parse_script, printer.print_script),
}


def _read_and_written(suffix: str, text: str):
    """The value ``text`` parses to and its printed text, or the parse
    error's message and position."""
    parse, write = _FORMATS[suffix]
    try:
        value, directive = parse(text)
    except ParseError as exc:
        return (str(exc), exc.line, exc.col)
    return value, write(value, directive)


def same_witnesses(suffix: str, text: str) -> bool:
    """``text`` parses to the very same value and prints to the same bytes,
    or fails with the same message at the same place, with the one witness
    reader and writer as with the oracles.  Three differences are intended:
    a key given twice in one witness, or a witness key its rule does not
    read, is a parse error, where the last value once won and the key was
    kept or ended the witness; and a script step writes its `whole`, which
    was dropped."""
    new = _read_and_written(suffix, text)
    with reference_witness():
        old = _read_and_written(suffix, text)
    for intended in ("repeated witness key", "does not read the witness key"):
        if isinstance(new[0], str) and intended in new[0]:
            return not (isinstance(old[0], str) and intended in old[0])
    if isinstance(new[0], str) or isinstance(old[0], str):
        return new == old
    written = new[1].replace(" whole", "") if suffix == ".slk" else new[1]
    return identical(new[0], old[0]) and written == old[1]


def witness_oracle_property(max_examples, names):
    """The witness reader and writer agree with the oracles on the corpus
    files ``names`` and on their mutants."""

    @settings(max_examples=max_examples, deadline=None)
    @given(st.sampled_from(names).map(lambda name: (name, corpus_path(name).read_text())) | mutated_corpus_files(names))
    def check(case):
        name, text = case
        assert same_witnesses(name[name.rindex(".") :], text)

    return check


def link_env(collection: ComponentCollection) -> dict:
    """The link environment of a collection's groups that declared a pattern."""
    return {g.link_name(): LinkPattern(g.pattern, g.pattern_vars) for g in collection.groups if g.pattern is not None}


def proof_nodes(proof):
    """(node, premise indices from the root) pairs of a proof tree, counted
    with multiplicity, in pre-order with the last premise first."""
    stack = [(proof, ())]
    while stack:
        node, path = stack.pop()
        yield node, path
        stack.extend((p, path + (i,)) for i, p in enumerate(node.premises))


def build_proof_pool():
    """Corpus-derived proofs: checked ones, their unrollings, and broken
    variants, each with the setup its check needs."""
    from silkcheck import load_schema, load_script
    from silkcheck.kernel import Proof
    from silkcheck.schema import evaluate
    from silkcheck.silk import ClosedStep, OpenStep, ax, check_script

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
        silk_env = link_env(coll)
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
    from silkcheck.kernel import MODE_LKE, MODE_LKS, check_proof
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
    nodes = [(entry, node, path) for entry in pool for node, path in proof_nodes(entry[0])]
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


# ---------------------------------------------------------------------------
# The kernel's node check before each rule's conclusion came from a table and
# each side was compared in place: forward application as one chain that
# builds the whole conclusion, compared with sequent_eq.


def _ref_need(cond: bool, msg: str, *args):
    if not cond:
        raise RuleError(msg % args if args else msg)


def _ref_at(side: tuple, i, what: str):
    _ref_need(i is not None, "missing index for %s", what)
    _ref_need(0 <= i < len(side), "index %s out of range for %s", i, what)
    return side[i]


def _ref_drop(side: tuple, *idxs: int) -> tuple:
    keep = set(idxs)
    return tuple(f for j, f in enumerate(side) if j not in keep)


def _ref_put(side: tuple, i: int, f) -> tuple:
    return side[:i] + (f,) + side[i + 1 :]


def reference_apply_rule(rule, premises, data, theory=EquationalTheory(())):
    R, _need, _at, _drop, _put = RuleName, _ref_need, _ref_at, _ref_drop, _ref_put
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
            equivalent(old, data.repl, theory),
            "%s and %s are not equal under the theory", old, data.repl,
        )
        new = _put(side, data.idx, new_host)
        return Sequent(new, p.succ) if data.side == "L" else Sequent(p.ante, new)

    raise RuleError(f"{rule} cannot be applied forward")


def reference_check_node(node, theory, env, allowed_link_params, lenient_erule):
    R, _need = RuleName, _ref_need
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
        expected = subst(pat.pattern, {"n": data.param}, dict(zip(pat.vars, data.terms)))
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
            sequent_equivalent(p.conclusion, concl, theory),
            "%s and %s have different normal forms", p.conclusion, concl,
        )
        return
    computed = reference_apply_rule(rule, tuple(p.conclusion for p in node.premises), node.data, theory)
    _need(
        sequent_eq(computed, concl),
        "conclusion %s does not match the rule instance %s", concl, computed,
    )


@contextmanager
def reference_kernel():
    """check_proof checks each node with the oracle."""
    saved = kernel._check_node
    kernel._check_node = reference_check_node
    try:
        yield
    finally:
        kernel._check_node = saved


def _verdict(run):
    """What run() shows: its report's verdict, counts and failures, or the
    exception it raised."""
    try:
        report = run()
    except Exception as exc:  # compared: a different exception is a different outcome
        return type(exc), str(exc)
    return report.accepted, report.counts, [(f.path, f.rule, f.message) for f in report.failures]


def same_kernel_verdicts(run) -> bool:
    """run() shows the same with the kernel's node check as with the oracle."""
    new = _verdict(run)
    with reference_kernel():
        old = _verdict(run)
    return new == old


# A link pattern for the link leaves of drawn nodes.
KERNEL_ENV = {"phi": LinkPattern(Sequent((Atom("P", (FreeVar("alpha"),)),), (Atom("W^", (Param("n"),)),)), ("alpha",))}


@st.composite
def kernel_nodes(draw, theory):
    """(node, mode, lenient, allowed link parameters): one inference of any
    rule over axiom leaves.  Its premises are drawn from a pool of a few
    formulas, among them a quantified formula q and the premise formula of
    the rule's witness for q, and its positions are mostly in range, so that
    witnesses often hit; its conclusion is the oracle's (as built, with its
    sides reversed, with its first antecedent formula replaced, or with a
    formula added) or another sequent."""
    rule = draw(st.sampled_from(RULES))
    quantified = {RuleName.FORALL_L: NForall, RuleName.FORALL_R: NForall, RuleName.EXISTS_L: NExists}
    cls = quantified.get(rule, NExists) if draw(st.integers(0, 3)) else draw(st.sampled_from([NForall, NExists]))
    q = close(cls(draw(st.sampled_from(BINDER_NAMES)), draw(named_formulas)))
    term = draw(st.sampled_from([FreeVar("a"), FreeVar("c")]) | terms)
    eigen = draw(st.sampled_from(["a", "c", "e", "e"]))
    try:
        inst = open_body(q, eigen if rule in (RuleName.FORALL_R, RuleName.EXISTS_L) else term)
    except SortMismatch:
        inst = q.body
    pool = draw(st.lists(formulas, min_size=1, max_size=2)) + [q, inst]
    side = st.lists(st.sampled_from(pool), min_size=1, max_size=3).map(tuple)
    arity = ARITY.get(rule, 1)
    count = draw(st.sampled_from([arity] * 7 + [(arity + 1) % 3]))
    premises = tuple(Sequent(draw(side), draw(side)) for _ in range(count))
    planted = {RuleName.CONTR_L: "ante", RuleName.FORALL_L: "ante", RuleName.EXISTS_L: "ante"}
    planted |= {RuleName.CONTR_R: "succ", RuleName.FORALL_R: "succ", RuleName.EXISTS_R: "succ"}
    if rule in planted and premises and draw(st.booleans()):  # a contracted pair, a premise formula at 0
        name = planted[rule]
        premises = (replace(premises[0], **{name: (inst, inst) + getattr(premises[0], name)}),) + premises[1:]
    index = st.sampled_from([0, 0, 1, 1, 2, None, None, -1, 7])
    data = RuleData(
        a=draw(index),
        b=draw(index),
        formula=draw(st.sampled_from([q, q, q, None] + pool)),
        term=draw(st.sampled_from([term, term, term, None, FreeVar("b")])),
        eigen=draw(st.sampled_from([eigen, eigen, eigen, None, "b"])),
        side=draw(st.sampled_from(["L", "R", "R", None, "X"])),
        idx=draw(index),
        path=draw(st.sampled_from([(), (), (0,), (0, 0), (1,), (5,)])),
        repl=draw(st.sampled_from([None, term, FreeVar("a"), numeral(1)])),
        whole=draw(st.booleans()),
        target=draw(st.sampled_from(["phi", "phi", None, "psi"])),
        param=draw(st.sampled_from([Param("n"), numeral(1), NumFn("+", (Param("n"), numeral(1))), None])),
        terms=draw(st.sampled_from([(FreeVar("a"),), (FreeVar("a"),), (), (FreeVar("a"), FreeVar("b"))])),
    )
    if rule == RuleName.ERULE and draw(st.booleans()):
        try:  # rewrite a subterm to itself, which every theory admits
            host = (premises[0].ante if data.side == "L" else premises[0].succ)[data.idx]
            data = replace(data, repl=node_at(host, data.path))
        except (IndexError, TypeError, AttributeError):
            pass
    try:
        if rule == RuleName.AX:
            concl = Sequent((pool[0],), (draw(st.sampled_from(pool)),))
        elif rule == RuleName.LINK:
            pat = KERNEL_ENV["phi"]
            concl = subst(pat.pattern, {"n": data.param}, dict(zip(pat.vars, data.terms)))
        elif rule == RuleName.ERULE and data.whole:
            concl = premises[0]
        else:
            concl = reference_apply_rule(rule, premises, data, theory)
    except (RuleError, SortMismatch, FuelExhausted, TypeError, ValueError, IndexError):
        concl = Sequent(draw(side), draw(side))
    edit = draw(st.sampled_from(["none", "none", "reverse", "replace", "add", "other"]))
    if edit == "reverse":
        concl = Sequent(concl.ante[::-1], concl.succ[::-1])
    elif edit == "replace" and concl.ante:
        concl = Sequent((draw(st.sampled_from(pool)),) + concl.ante[1:], concl.succ)
    elif edit == "add":
        concl = Sequent(concl.ante, concl.succ + (draw(st.sampled_from(pool)),))
    elif edit == "other":
        concl = Sequent(draw(side), draw(side))
    node = Proof(concl, rule, tuple(Proof(p, RuleName.AX) for p in premises), data)
    mode = draw(st.sampled_from([MODE_LKS, MODE_LKS, MODE_LKE, MODE_LK]))
    return node, mode, draw(st.booleans()), draw(st.sampled_from([frozenset({"n"}), frozenset()]))


def kernel_oracle_property(max_examples):
    """On one drawn inference of every rule, check_proof reports what the
    oracle node check reports: the same verdict, counts and failures."""
    theory = merged_theory()

    @settings(max_examples=max_examples, deadline=None)
    @given(kernel_nodes(theory))
    def check(case):
        node, mode, lenient, allowed = case
        assert same_kernel_verdicts(lambda: check_proof(node, mode, theory, KERNEL_ENV, allowed, lenient))

    return check


KERNEL_FILES = ["lk_exists_rename.lkp", "lk_forall_rename.lkp", "lk_nu_shat.lkp", "lk_or_contract.lkp", "lk_pi_shat.lkp"]
KERNEL_FILES += SCHEMA_FILES


def kernel_corpus_oracle_property(max_examples):
    """On the corpus proofs and schemata and their mutants, a proof checked
    in every mode and a schema checked and unrolled at 0..2 show what they
    show with the oracle node check."""
    shat_env = load_schema(corpus_path("schema_shat.sch"))[0].link_env()
    corpus = st.sampled_from(KERNEL_FILES).map(lambda name: (name, corpus_path(name).read_text()))

    @settings(max_examples=max_examples, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    @given(corpus | mutated_corpus_files(KERNEL_FILES))
    def check(case):
        name, text = case
        parse = parser.parse_proof if name.endswith(".lkp") else parser.parse_schema
        try:
            value, directive = parse(text)
            theory = load_theory(corpus_path(directive)) if directive else EquationalTheory(())
        except (ParseError, OSError):
            assume(False)
        if name.endswith(".lkp"):
            for mode in (MODE_LK, MODE_LKE, MODE_LKS):
                for lenient in (False, True):
                    run = lambda: check_proof(value, mode, theory, shat_env, frozenset({"n"}), lenient)
                    assert same_kernel_verdicts(run), (text, mode, lenient)
            return
        assert same_kernel_verdicts(lambda: schema.check_schema(value, theory)), text
        for alpha in range(3):
            assert same_kernel_verdicts(lambda: schema.evaluate_and_check(value, alpha, theory)), (text, alpha)

    return check


# ---------------------------------------------------------------------------
# The rewrite step before rules were compiled and filled from their binding:
# a generic match over the left side for every rule of the head, keyed by
# ("p", name) and ("v", name), then a substitution into the right side; and
# the normalization loop that pushed a frame per successor of a numeral.


def reference_match(pattern: Node, subject: Node, binding: dict) -> bool:
    """Whether subject instantiates pattern, extending binding.  One worklist
    of (pattern, subject) pairs; a variable binds on first sight and must
    recur with an equal value, so the order of the pairs does not matter."""
    todo = [(pattern, subject)]
    while todo:
        p, s = todo.pop()
        if isinstance(p, FreeVar):
            if not _reference_bind(binding, ("v", p.name), s):
                return False
            continue
        if isinstance(p, NumExpr):
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
                if not _reference_bind(binding, ("p", p.name), s):
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


def _reference_bind(binding: dict, key: tuple, value: Node) -> bool:
    if key[0] == "p" and not isinstance(value, NumExpr):
        return False
    old = binding.get(key)
    if old is None:
        binding[key] = value
        return True
    return old == value


def reference_instantiate(rhs: Node, binding: dict) -> Node:
    """rhs under a binding of reference_match."""
    return subst(
        rhs,
        {name: v for (kind, name), v in binding.items() if kind == "p"},
        {name: v for (kind, name), v in binding.items() if kind == "v"},
    )


def _reference_try_head(node: Node, theory: EquationalTheory) -> tuple | None:
    if isinstance(node, NumFn) and node.sym == "+":
        a, b = node.args
        va, vb = numeral_value(a), numeral_value(b)
        if va is not None and vb is not None:
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
    for rule in theory.rules:
        binding: dict = {}
        if head_key(rule.lhs) == key and reference_match(rule.lhs, node, binding):
            return reference_instantiate(rule.rhs, binding), 1
    return None


def _reference_normalize(root: Node, theory: EquationalTheory, cache: dict, spans: dict) -> tuple:
    fuel = theory.fuel
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
        if target is not None:
            nf, span = cache[target], upto + spans.get(target, 0)
        else:
            kids = shown_kids(cur)
            pending = [[k, chain, None, 0] for k in kids if k not in cache]
            if pending:
                stack.extend(pending)
                continue
            new_kids = tuple([cache[k] for k in kids])
            reb = cur if new_kids == kids else rebuild_shown(cur, new_kids)
            below = max([spans.get(k, 0) for k in kids], default=0)
            step = _reference_try_head(reb, theory)
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
        if chain + span > fuel:
            raise FuelExhausted(fuel)
        stack.pop()
        if span:
            spans[cur] = span
        cache[cur] = nf
        if reb is not None:
            if span > below:
                spans[reb] = span - below
            cache[reb] = nf
    return cache[root], spans.get(root, 0)


def reference_normalize(x, theory: EquationalTheory) -> NormalizationResult:
    """normalize as it stood, with caches of its own for the one call."""
    cache, spans = {}, {}
    if isinstance(x, Sequent):
        ante = [_reference_normalize(f, theory, cache, spans) for f in x.ante]
        succ = [_reference_normalize(f, theory, cache, spans) for f in x.succ]
        value = Sequent(tuple([nf for nf, _ in ante]), tuple([nf for nf, _ in succ]))
        return NormalizationResult(value, max([span for _, span in ante + succ], default=0))
    return NormalizationResult(*_reference_normalize(x, theory, cache, spans))


def reference_normalize_loop(root: Node, theory: EquationalTheory) -> tuple:
    """rewrite._normalize as it stood before it looked up a rebuilt node's
    normal form: it takes every head step again, through rewrite._try_head."""
    cache, spans, fuel = theory._nf_cache, theory._spans, theory.fuel
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
        if target is not None:
            nf, span = cache[target], upto + spans.get(target, 0)
        elif (type(cur) is Succ or type(cur) is Zero) and numeral_value(cur) is not None:
            nf, span = cur, 0
        else:
            kids = shown_kids(cur)
            pending = [[k, chain, None, 0] for k in kids if k not in cache]
            if pending:
                stack.extend(pending)
                continue
            new_kids = tuple([cache[k] for k in kids])
            reb = cur if new_kids == kids else rebuild_shown(cur, new_kids)
            below = max([spans.get(k, 0) for k in kids], default=0)
            step = rewrite._try_head(reb, theory)
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
        if chain + span > fuel:
            raise FuelExhausted(fuel)
        stack.pop()
        if span:
            spans[cur] = span
        cache[cur] = nf
        if reb is not None:
            if span > below:
                spans[reb] = span - below
            cache[reb] = nf
    return cache[root], spans.get(root, 0)


def _one_normal_outcome(norm, x, theory):
    try:
        return norm(x, theory)
    except (FuelExhausted, SortMismatch) as exc:
        return type(exc), str(exc)


def tower_examples() -> list:
    """(root, rules, fuel) for one-kid towers, f^k(0) under theory_exp and
    alpha + S^k under theory_shat, each at the fuel its span needs exactly
    and at one less."""
    cases = []
    for name, text in (("theory_exp.thy", "f^{}(0)"), ("theory_shat.thy", "alpha + S^{}")):
        rules = load_theory(corpus_path(name)).rules
        for k in (1, 7, 40):
            root = parse_term(text.format(k))
            span = normalize(root, EquationalTheory(rules)).steps_used
            cases += [(root, rules, span), (root, rules, span - 1)]
    return cases


def with_examples(cases):
    """Decorate a test with one ``example`` per argument tuple of cases."""

    def apply(test):
        for case in cases:
            test = example(*case)(test)
        return test

    return apply


def normal_lookup_property(max_examples, warm=False):
    """rewrite._normalize, which looks a rebuilt node's normal form up,
    gives the (normal form, span), or the exception type and message, that
    reference_normalize_loop gives, for a run of drawn terms, formulas and
    numeric expressions normalized one after the other on one theory each,
    under corpus, merged, schematic and mutated theories at fuels 0..50,
    and leaves the same normal forms and spans cached after every call.
    With ``warm``, both sides keep one theory per rules and fuel across
    the examples, so most kids come from the cache."""
    exp_rules = load_theory(corpus_path("theory_exp.thy")).rules
    # The second root rebuilds to the first, whose head step is then looked up.
    shared = [parse_term("f^2(0)"), parse_term("f^(1 + 1)(0)"), parse_formula("P(f^(s(1))(0)) /\\ P(f^(0 + 2)(0))")]
    theories: dict = {}  # (rules, fuel) -> (new, old), when warm

    @settings(max_examples=max_examples, deadline=None)
    @given(st.lists(st.one_of(terms, formulas, nums), min_size=1, max_size=6), normal_rules(), st.integers(0, 50))
    @example(shared, exp_rules, 50)
    @example(shared, exp_rules, 1)
    @with_examples([([root], rules, fuel) for root, rules, fuel in tower_examples()])
    def check(xs, rules, fuel):
        new, old = EquationalTheory(rules, fuel), EquationalTheory(rules, fuel)
        if warm:
            new, old = theories.setdefault((rules, fuel), (new, old))
        for x in xs:
            got = _one_normal_outcome(rewrite._normalize, x, new)
            assert identical(got, _one_normal_outcome(reference_normalize_loop, x, old)), (x, rules, fuel)
            assert new._nf_cache == old._nf_cache and new._spans == old._spans, (x, rules, fuel)

    return check


def _normal_outcome(norm, x, theory):
    try:
        result = norm(x, theory)
        return result.value, result.steps_used
    except (FuelExhausted, SortMismatch) as exc:
        return type(exc), str(exc)


# A right side that uses a left-side variable as a schematic variable, so a
# step that binds it to a term fails.
SCHEMATIC_RULES = "f(x) == h(x[0]);"
NORMAL_THEORY_FILES = ["theory_bigjunct.thy", "theory_exp.thy", "theory_fhat.thy", "theory_shat.thy", "theory_wedge.thy"]


@st.composite
def normal_rules(draw) -> tuple:
    """The rules of the merged theory, a corpus theory, one with a schematic
    right side, or a corpus theory mutated, validated or not."""
    kind = draw(st.sampled_from(["merged", "corpus", "schematic", "mutated"]))
    if kind == "merged":
        return merged_theory().rules
    if kind == "corpus":
        return load_theory(corpus_path(draw(st.sampled_from(NORMAL_THEORY_FILES)))).rules
    if kind == "schematic":
        return parser.parse_theory(SCHEMATIC_RULES).rules + merged_theory().rules
    _, text = draw(mutated_corpus_files(NORMAL_THEORY_FILES))
    try:
        return parser.parse_theory(text).rules
    except ParseError:
        return merged_theory().rules


def reference_normalize_property(max_examples, warm=False):
    """normalize gives the normal form, steps_used, or exception type and
    message the rewrite step it replaced gives, each on a fresh theory, for
    drawn terms, formulas and sequents, under corpus, merged, schematic and
    mutated theories, at fuels low enough to run out.  With ``warm``,
    normalize runs on one theory per rules and fuel, kept across the
    examples, and the reference still on a fresh one, under every theory
    drawn: even where a rule's right side uses a left-side variable as a
    schematic variable, a step's SortMismatch comes where a fresh run meets
    it, never before a FuelExhausted a cached kid's span decides."""
    tower = Fn("f^", (NumFn("2^", (numeral(5),)), ZERO))
    exp_rules = load_theory(corpus_path("theory_exp.thy")).rules
    schematic = parser.parse_theory(SCHEMATIC_RULES).rules
    # After d(z), warm, the frame of k(f(0), d(z)) has an uncached kid whose
    # head step is a SortMismatch and a cached kid whose span passes fuel 2.
    one_kid_cached = schematic + parser.parse_theory("r(x) == k(f(0), d(x));\nd(x) == e(x);\ne(x) == x;").rules
    theories: dict = {}  # (rules, fuel) -> theory, when warm

    @settings(max_examples=max_examples, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    @given(st.one_of(terms, formulas, sequents), normal_rules(), st.sampled_from((3, 10, 40, DEFAULT_FUEL)))
    @example(parse_term("d(z)"), one_kid_cached, 2)  # explicit examples run top first
    @example(parse_term("r(z)"), one_kid_cached, 2)
    @example(tower, exp_rules, 31)
    @example(tower, exp_rules, 32)
    @example(Atom("P", (Fn("f", (Fn("f", (FreeVar("a"),)),)),)), schematic, DEFAULT_FUEL)
    @example(numeral(300), exp_rules, 3)
    @with_examples(tower_examples())
    def check(x, rules, fuel):
        theory = EquationalTheory(rules, fuel)
        if warm:
            theory = theories.setdefault((rules, fuel), theory)
        new = _normal_outcome(normalize, x, theory)
        assert identical(new, _normal_outcome(reference_normalize, x, EquationalTheory(rules, fuel))), (x, rules, fuel)

    return check


def _reference_height(f: Formula) -> int:
    """The most binders nested in f."""
    best, stack = 0, [(f, 0)]
    while stack:
        node, depth = stack.pop()
        depth += isinstance(node, Binder)
        best = max(best, depth)
        stack.extend((k, depth) for k in node.kids())
    return best


def _reference_put(cls, body: Formula, name: str, value):
    """reference_subst of value, or the variable named value, for name in
    the sort a binder cls binds; body itself if name is not free in it."""
    if name not in (_reference_free_params if cls is OmegaAll else reference_free_vars)(body):
        return body
    if isinstance(value, str):
        value = Param(value) if cls is OmegaAll else FreeVar(value)
    return reference_subst(body, *(({name: value}, {}) if cls is OmegaAll else ({}, {name: value})))


def binder_property(max_examples):
    """open_body and bind give the very node reference_subst gives, or both
    raise SortMismatch, on individual and omega binders, whose bodies use
    what they bind; values of either sort are drawn for both."""
    binders = st.one_of(binding_formulas, omega_formulas).map(close).filter(lambda f: isinstance(f, Binder))

    @settings(max_examples=max_examples, deadline=None)
    @given(
        binders,
        st.one_of(binder_terms, binder_nums),
        st.sampled_from(BINDER_NAMES + OMEGA_NAMES),
        st.sampled_from([Forall, Exists, OmegaAll]),
    )
    def check(q, value, name, cls):
        got = _subst_outcome(open_body, q, value)
        assert identical(got, _subst_outcome(lambda b, v: _reference_put(type(q), b.body, b.var, v), q, value))
        var = f"${_reference_height(q)}"
        want = _subst_outcome(lambda f, n: cls(var, n, _reference_put(cls, f, n, var)), q, name)
        assert identical(_subst_outcome(lambda f, n: bind(cls, n, f), q, name), want)

    return check


# Values drawn for each option that takes one: those a plain line may hold,
# then those its type or choices refuse, or that start with "-".
OPTION_VALUES = {
    "--theory": (["t.thy", "", "x=y"], ["-t.thy", "-"]),
    "--fuel": (["5", "0"], ["x", "\u0663", "-1"]),
    "--mode": (["lk", "lks"], ["lkx", "LK"]),
    "--env": (["e.sch"], ["-e.sch"]),
    "--alpha": (["3", "0"], ["x", "1.5", "\u0663", "-1"]),
    "--alpha-range": (["0..2", "2..2"], ["2..1", "a..b", "3", "-1..2"]),
    "-o": (["out.slk"], ["-out.slk"]),
}
# Words no plain line holds: abbreviations, attached values, "--", "-", a
# negative number, help, and files.
ODD_ARGV_PIECES = [
    ["--alp", "1"], ["--jso"], ["--the", "t.thy"], ["--mo", "lk"], ["--l"], ["--alpha-r", "0..1"],
    ["--alpha=1"], ["--mode=lk"], ["--fuel=3"], ["--json=1"], ["-oout.slk"], ["--out=o.slk"],
    ["--"], ["-"], ["-1"], ["\u0663"], [""], ["-h"], ["--help"], ["a.sch"], ["b.slk"],
]


def _argv_pieces(options, bad=False) -> list:
    """Each of ``options`` as words: a flag alone, or a flag and a value it
    reads, and also one it refuses when ``bad``."""
    pieces = []
    for flags, kwargs in options:
        if kwargs.get("action") == "store_true":
            pieces += [[flag] for flag in flags]
        else:
            good, refused = OPTION_VALUES[flags[0]]
            pieces += [[flag, value] for flag in flags for value in good + (refused if bad else [])]
    return pieces


@st.composite
def argvs(draw):
    """A command and its words: its own options with values they read, its
    required options and a file, each most of the time, and half of the
    time one or two more: its own options or any command's, with values
    they may refuse, or words of ``ODD_ARGV_PIECES``; all in any order, so
    that about a third of the lines are plain."""
    command = draw(st.sampled_from(list(cli._COMMANDS)))
    options = cli._SHARED[1:] + cli._COMMANDS[command][2]
    most = st.sampled_from([True, True, True, False])
    pieces = draw(st.lists(st.sampled_from(_argv_pieces(options)), max_size=5, unique_by=lambda piece: piece[0]))
    for option in options:
        if option[1].get("required") and draw(most):
            pieces.append(draw(st.sampled_from(_argv_pieces([option]))))
    if draw(most):
        pieces.append([draw(st.sampled_from(["a.sch", "b.slk", ""]))])
    if draw(st.booleans()):
        every = [option for _, _, own in cli._COMMANDS.values() for option in cli._SHARED[1:] + own]
        odd = st.sampled_from(_argv_pieces(options, bad=True)) | st.sampled_from(_argv_pieces(every, bad=True) + ODD_ARGV_PIECES)
        pieces += draw(st.lists(odd, min_size=1, max_size=2))
    return [command, *(word for piece in draw(st.permutations(pieces)) for word in piece)]


def argv_reader_property(max_examples):
    """The CLI's plain reader refuses an argv, or returns the namespace the
    top-level parser builds from it, less its ``command`` entry, with no
    word left over."""

    @settings(max_examples=max_examples, deadline=None)
    @given(argvs())
    @example(["unroll", "a.sch", "--alpha", "3", "--lk", "--check", "--quiet", "--json"])
    @example(["check-lk", "--mode", "lks", "--env", "e.sch", "--lenient-erule", "a.lkp", "--fuel", "7"])
    @example(["ppsnf", "a.slk", "-o", "out.slk", "--theory", ""])
    @example(["stats", "--alpha-range", "0..2", "", "--json"])
    def check(argv):
        got = cli._plain(argv)
        if got is None:
            return
        try:
            with redirect_stderr(io.StringIO()) as err:
                want, rest = cli._parser().parse_known_args(argv)
        except SystemExit:
            raise AssertionError(f"read {argv}, which argparse refuses: {err.getvalue()}") from None
        assert want.command == argv[0], argv
        del want.command
        assert rest == [] and vars(got) == vars(want), argv

    return check


# ---------------------------------------------------------------------------
# The load memos: a command answers from a file's text alone, whatever texts
# the process read before.

CORPUS_DIR = corpus_path("schema_shat.sch").parent
CORPUS_INPUTS = sorted(path.name for path in CORPUS_DIR.iterdir() if path.suffix in (".lkp", ".sch", ".slk"))
# Command forms per input suffix; {} is the input's path.
WARM_LOAD_FORMS = {
    ".lkp": [("check-lk", "{}"), ("check-lk", "{}", "--mode", "lk", "--json")],
    ".sch": [
        ("check-schema", "{}"),
        ("unroll", "{}", "--alpha", "2", "--lk", "--check", "--quiet"),
        ("check-lk", str(CORPUS_DIR / "lk_nu_shat.lkp"), "--mode", "lks", "--env", "{}"),
    ],
    ".slk": [("check-silk", "{}"), ("translate", "{}"), ("interpret", "{}", "--json")],
}


def cli_output(argv) -> tuple:
    """(exit code, stdout, stderr) of one in-process run of the command line."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def clear_load_memos():
    parser._parsed.cache_clear()
    parser._rules.cache_clear()


def warm_load_property(max_examples):
    """One or two commands on a mutant of a corpus input, written with the
    corpus theories to a directory of its own, print the same exit code,
    stdout and stderr when the load memos hold the original's text and the
    mutant's, read from the same path, as when both memos were cleared
    first.  Outputs are compared, not values: a Proof compares by identity."""

    @settings(max_examples=max_examples, deadline=None, derandomize=True)
    @given(mutated_corpus_files(CORPUS_INPUTS), st.data())
    def check(case, data):
        name, text = case
        forms = WARM_LOAD_FORMS[name[name.rindex(".") :]]
        picks = data.draw(st.lists(st.sampled_from(forms), min_size=1, max_size=2, unique=True))
        with tempfile.TemporaryDirectory() as folder:
            for theory in CORPUS_DIR.glob("*.thy"):
                (Path(folder) / theory.name).write_bytes(theory.read_bytes())
            path = Path(folder) / name
            argvs = [[arg.format(path) for arg in form] for form in picks]
            path.write_text(corpus_path(name).read_text(encoding="utf-8"), encoding="utf-8")
            for argv in argvs:
                cli_output(argv)
            path.write_text(text, encoding="utf-8")
            warm = [cli_output(argv) for argv in argvs]
            again = [cli_output(argv) for argv in argvs]
            clear_load_memos()
            fresh = [cli_output(argv) for argv in argvs]
        assert warm == again == fresh, case

    return check
