"""Hypothesis generators over the corpus signatures, shared by the property
suite and the acceptance gate."""

import hypothesis.strategies as st
from hypothesis import assume, given, settings

from silkcheck import corpus_path, load_theory
from silkcheck.parser import parse_sequent
from silkcheck.rewrite import EquationalTheory, FuelExhausted, normalize
from silkcheck.syntax import (
    And,
    Atom,
    Exists,
    Fn,
    Forall,
    FreeVar,
    Imp,
    Not,
    NumExpr,
    NumFn,
    Or,
    Param,
    Sequent,
    Substitution,
    SVar,
    Succ,
    ZERO,
    numeral,
    sequent_eq,
    subst,
)

VAR_NAMES = ["a", "b", "c", "alpha"]

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
        st.tuples(st.sampled_from(["a", "b"]), ch).map(lambda p: Forall(*p)),
        st.tuples(st.sampled_from(["a", "b"]), ch).map(lambda p: Exists(*p)),
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


# --- the properties, reusable at chosen example counts


def roundtrip_property(max_examples):
    @settings(max_examples=max_examples, deadline=None)
    @given(sequents)
    def check(seq):
        again = parse_sequent(str(seq))
        assert len(again.ante) == len(seq.ante) and len(again.succ) == len(seq.succ)
        assert all(x == y for x, y in zip(again.formulas(), seq.formulas()))

    return check


def idempotence_property(max_examples, theory=None):
    theory = theory or merged_theory()

    @settings(max_examples=max_examples, deadline=None)
    @given(st.one_of(terms, formulas))
    def check(expr):
        try:
            once = normalize(expr, theory, fuel=2000).value
        except FuelExhausted:
            assume(False)
        assert normalize(once, theory, fuel=2000).value == once

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
    from silkcheck.kernel import MODE_LKE, MODE_LKS, check_proof, iter_nodes
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
    sites = [
        (entry, node, path, kind)
        for entry in pool
        for node, path in iter_nodes(entry[0])
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
