import sys
import threading
import tracemalloc

from silkcheck import corpus_path, load_schema, load_theory
from silkcheck.parser import (
    _workspace_roots,
    load_file,
    parse_formula,
    parse_proof,
    parse_schema,
    parse_script,
    parse_sequent,
    parse_term,
)
from silkcheck.schema import canon_num, evaluate, is_subterm, num_eq
from silkcheck.syntax import (
    CONNECTIVES,
    And,
    Atom,
    Exists,
    Fn,
    Forall,
    FreeVar,
    Not,
    NumFn,
    OmegaAll,
    Param,
    Sequent,
    SortMismatch,
    Succ,
    ZERO,
    bind,
    formula_eq,
    free_params,
    fold,
    free_vars,
    numeral,
    render,
    sequent_eq,
    split_succs,
    subst,
    walk,
)

import pytest

import gen
import silkcheck.syntax


def t(text):
    return parse_term(text)


def f(text):
    return parse_formula(text)


def s(text):
    return parse_sequent(text)


# --- substitution


def test_subst_parameter_instance():
    out = subst(f("P(alpha + S^n)"), {"n": ZERO})
    assert out == f("P(alpha + S^0)")


def test_subst_empty_is_identity():
    a = f("forall x. P(x) -> P(f(x))")
    assert subst(a) is a and subst(a, {}, {}) is a


def test_subst_bound_occurrence_shadows():
    a = f("forall x. P(x) -> P(f(x))")
    assert subst(a, {}, {"x": t("g(y)")}) == a


def test_subst_capture_avoided():
    a = f("forall x. P(y)")
    out = subst(a, {}, {"y": t("x")})
    assert formula_eq(out, f("forall z. P(x)"))


def test_capture_avoiding_rename_avoids_the_substitution_domain():
    # A renamed binder once took the fresh name x1, a key of the
    # substitution, which then replaced the bound variable as well.
    out = subst(f("forall x. P(x, y)"), {}, {"y": t("x"), "x1": t("c")})
    assert formula_eq(out, f("forall z. P(z, x)"))


def test_omega_binder_is_renamed_apart_from_substituted_parameters():
    # n := m under forall m:omega must not capture m.
    out = subst(f("forall m:omega. Q^(n + m)"), {"n": Param("m")})
    assert formula_eq(out, f("forall k:omega. Q^(m + k)"))
    # A term substituted for an individual variable carries parameters too;
    # a renamed binder once took m2, as m1 was a key.
    f_of_m = Fn("f", (Param("m"),))
    body = lambda x, k: Atom("P", (x, Param(k)))
    out = subst(bind(OmegaAll, "m", body(FreeVar("x"), "m")), {"m1": numeral(3)}, {"x": f_of_m})
    assert formula_eq(out, bind(OmegaAll, "k", body(f_of_m, "k")))
    # It prints under the first name not free in its body.
    assert str(out) == "forall m1:omega. P(f(m), m1)"


def test_one_substitution_reused_across_a_sequent():
    # One memo serves every formula of the sequent; each formula substituted
    # on its own is the very node the sequent's substitution gives.
    seq = s("A, forall x. P(x, y), Q(y, S^n) |- P(y + S^n, n), Q(y, S^n)")
    params, vars = {"n": numeral(3)}, {"y": t("g(a, 2)")}
    whole = subst(seq, params, vars)
    assert all(subst(a, params, vars) is b for a, b in zip(seq.formulas(), whole.formulas()))
    assert whole == s("A, forall x. P(x, g(a, 2)), Q(g(a, 2), S^3) |- P(g(a, 2) + S^3, 3), Q(g(a, 2), S^3)")


def test_capture_avoided_alike_at_every_occurrence():
    seq = s("forall x. Q(y) |- forall x. Q(y)")
    out = subst(seq, {}, {"y": t("x")})
    assert out.ante[0] is out.succ[0]
    assert str(out.ante[0]) == "forall x1. Q(x)"
    assert formula_eq(out.ante[0], f("forall z. Q(x)"))


def test_subst_combines_only_what_it_can_change(monkeypatch):
    # The nodes of the steps the fill loop is handed, which it combines in
    # that order.
    combined = []
    fill = silkcheck.syntax.fill
    monkeypatch.setattr(
        silkcheck.syntax,
        "fill",
        lambda root, schedule, memo: combined.extend(node for node, _, _ in schedule) or fill(root, schedule, memo),
    )
    sub = ({"n": numeral(5)}, {"x": t("b")})
    closed = f("P(f(S^3)) -> Q(g(a, 2^(4)))")
    assert subst(closed, *sub) is closed and combined == []
    # A binder is an ordinary node, and its bound variable, $0, no key.
    binder = f("forall x. P(x) -> P(f(x))")
    combined.clear()  # reading the binder closed its body
    assert subst(binder, *sub) is binder and combined == []
    open_ = f("P(f(S^n)) -> Q(a)")
    subst(open_, *sub)
    assert combined == [node for node in reversed(list(walk(open_))) if "n" in free_params(node)]


def test_threads_substituting_one_new_formula_agree():
    # A schedule is cached on a shared node; no thread may read one that
    # another thread is still building.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for rnd in range(10):
            root = Atom("Q", ())
            for k in range(300):
                root = And(root, Atom(f"T{rnd}", (Fn("f", (NumFn("+", (Param("n"), numeral(k))),)),)))
            want = gen.reference_subst(root, {"n": numeral(2)}, {})
            got = []
            apply = lambda: got.append(subst(root, {"n": numeral(2)}))
            threads = [threading.Thread(target=apply) for _ in range(4)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=30)
            assert not any(th.is_alive() for th in threads)
            assert len(got) == 4 and all(x is want for x in got)
    finally:
        sys.setswitchinterval(interval)


def test_subst_sort_mismatch():
    # A value of the wrong sort is refused before anything is filled, even
    # where the name does not occur.
    with pytest.raises(SortMismatch) as exc:
        subst(f("P(a)"), {"n": t("f(alpha)")})
    assert str(exc.value) == "parameter n must map to a numeric expression, got <Fn f(alpha)>"
    with pytest.raises(SortMismatch) as exc:
        subst(f("P(a)"), {"n": numeral(1)}, {"a": f("Q(b)")})
    assert str(exc.value) == "variable a must map to a term, got <Atom Q(b)>"


def test_subst_composition_on_parameter():
    e = f("P(alpha + S^(n + 1))")
    k = t("n + 2")
    first = subst(subst(e, {"n": k}), {"n": numeral(3)})
    composed = subst(e, {"n": subst(k, {"n": numeral(3)})})
    assert first == composed


def test_subst_schematic_index():
    out = subst(t("x[n + 1]"), {"n": numeral(2)})
    assert out == t("x[2 + 1]")


# --- free symbols


def test_free_params():
    assert free_params(t("s(n)")) == {"n"}
    assert free_params(numeral(2)) == frozenset()
    assert free_params(f("P(alpha + S^n)")) == {"n"}
    # An omega binder binds the parameter of its name.
    assert free_params(f("forall m:omega. Q^(m)")) == frozenset()
    assert free_params(f("forall m:omega. Q^(m + n)")) == {"n"}


def test_free_vars():
    assert free_vars(f("forall x. P(x) -> P(f(x))")) == frozenset()
    assert free_vars(f("P(alpha + S^n)")) == {"alpha"}
    assert free_vars(t("x[n]")) == {"x"}


# --- subterms


def test_subterm_reflexive_and_proper():
    n = Param("n")
    assert is_subterm(n, t("s(n)"))
    assert is_subterm(n, n)
    assert not is_subterm(t("s(n)"), n)


# --- sequent equality


def test_sequent_eq_symmetry():
    assert sequent_eq(s("A, B |- C"), s("B, A |- C"))


def test_sequent_eq_multiplicity():
    assert not sequent_eq(s("A, A |- C"), s("A |- C"))


def test_sequent_eq_is_syntactic():
    # The two sides are equal under the rewrite theory but not as written.
    assert not sequent_eq(s("A |- P(S^0)"), s("A |- P(0)"))


def test_sequent_eq_alpha():
    assert sequent_eq(s("forall x. P(x) |- A"), s("forall y. P(y) |- A"))


def test_sequent_hash_respects_eq():
    a, b = s("A, B |- C"), s("B, A |- C")
    assert hash(a) == hash(b) and a == b


# --- numeric canonical forms


def test_canon_identifies_plus_one_with_successor():
    assert canon_num(t("n + 1")) == Succ(Param("n"))
    assert canon_num(t("n + 1")) is canon_num(t("s(n)")) is Succ(Param("n"))
    assert num_eq(t("n + 1"), t("s(n)"))
    assert num_eq(t("1 + n"), t("s(n)"))
    assert not num_eq(t("n + 1"), t("n"))


def test_split_succs_reads_numeral_value():
    assert split_succs(numeral(100_000)) == (None, 100_000)
    assert split_succs(Succ(Succ(t("n + 3")))) == (Param("n"), 5)
    assert split_succs(Succ(t("3 + n"))) == (Param("n"), 4)


def test_numerals_are_interned():
    assert numeral(40) is numeral(40)
    assert numeral(3) == t("3")
    assert numeral(3) is t("3") is t("s(s(s(0)))")
    assert numeral(2) is Succ(Succ(ZERO))


def test_nodes_take_positional_fields_only():
    with pytest.raises(TypeError):
        Fn(sym="f", args=())


def test_numeral_rejects_negative():
    numeral(7)  # numerals built earlier must not be handed back for -1
    with pytest.raises(ValueError):
        numeral(-1)


# --- deep structures stay usable


def test_deep_terms_hash_eq_print():
    deep = numeral(5)
    for _ in range(4000):
        deep = Fn("f", (deep,))
    again = numeral(5)
    for _ in range(4000):
        again = Fn("f", (again,))
    assert deep == again
    assert deep is again
    assert hash(deep) == hash(again)
    assert str(Atom("P", (deep,))).count("f(") == 4000
    assert subst(deep, {}, {"q": FreeVar("r")}) is deep


def test_subst_preserves_sequent_eq():
    a = s("A, forall x. P(x) |- P(alpha + S^n)")
    b = s("forall y. P(y), A |- P(alpha + S^n)")
    assert sequent_eq(a, b)
    sub = ({"n": numeral(2)}, {"alpha": FreeVar("beta")})
    assert sequent_eq(subst(a, *sub), subst(b, *sub))


def test_schematic_variable_renaming():
    out = subst(t("x[n + 1]"), {}, {"x": FreeVar("y")})
    assert out == t("y[n + 1]")
    with pytest.raises(SortMismatch):
        subst(t("x[n]"), {}, {"x": t("f(a)")})


def test_deep_numeric_functions_canonicalize():
    # Reachable from a script's ann= and a schema's param=.
    deep = Param("n")
    for _ in range(10_000):
        deep = NumFn("2^", (deep,))
    assert canon_num(deep) is deep
    shifted = NumFn("+", (Param("n"), numeral(1)))
    for _ in range(10_000):
        shifted = NumFn("2^", (shifted,))
    assert num_eq(shifted, subst(deep, {"n": Succ(Param("n"))}))


def test_fold_combines_each_distinct_node_once_without_recursing():
    # The sequents of the unrolled schema_exp proof share their subterms
    # f(...f(0)...) many times over; one table shared by all their formulas
    # combines each distinct node once.
    schema, theory = load_schema(corpus_path("schema_exp.sch"))
    proof = evaluate(schema, 8, theory).proof
    formulas = [f for node, _ in gen.proof_nodes(proof) for f in node.conclusion.formulas()]
    combined, done = [], {}
    size = lambda node, kids: combined.append(id(node)) or 1 + sum(kids)
    sizes = [fold(f, size, done) for f in formulas]
    assert sizes == [sum(1 for _ in walk(f)) for f in formulas]
    distinct = {id(n) for f in formulas for n in walk(f)}
    assert sorted(combined) == sorted(distinct)
    assert 100 * len(distinct) < sum(sizes)
    assert fold(proof, lambda node, kids: 1 + sum(kids), {}) == sum(1 for _ in gen.proof_nodes(proof))
    chain = Atom("Q", ())
    for _ in range(100_000):
        chain = Not(chain)
    assert fold(chain, lambda node, kids: 1 + sum(kids), {}) == 100_001


def test_binding_a_deep_chain_visits_each_node_a_bounded_number_of_times(monkeypatch):
    # Each binder of forall x. (P(x) /\ forall x. (P(x) /\ ... Q)) closes a
    # body whose deeper binders are closed already; a substitution of x
    # must not enter them, or binding the chain is quadratic in its depth.
    from silkcheck import syntax

    visits = []

    def counting_fold(root, combine, done, *rest):
        return fold(root, lambda node, kids: visits.append(node) or combine(node, kids), done, *rest)

    monkeypatch.setattr(syntax, "fold", counting_fold)
    depth = 1000
    chain = f("forall x. (Pdeepchain(x) /\\ " * depth + "Qdeepchain" + ")" * depth)
    assert render(chain).count("forall") == depth
    assert len(visits) < 20 * depth


def test_fold_does_not_open_a_leaf_or_a_finished_node():
    a = f("(forall x. P(x)) /\\ Q")
    done = {a.rhs: "rhs"}
    assert fold(a, lambda node, kids: (type(node).__name__, kids), done, (Forall,)) == (
        "And",
        (("Forall", ()), "rhs"),
    )
    assert set(done) == {a, a.lhs, a.rhs}


# --- concrete syntax

BINDERS = (Forall, Exists, OmegaAll)
OPERATORS = (*CONNECTIVES, *BINDERS)


def _apply(op, kids):
    return bind(op, "x", *kids) if op in BINDERS else op(*kids)


@pytest.mark.parametrize("parent", OPERATORS, ids=lambda op: op.__name__)
@pytest.mark.parametrize("child", OPERATORS, ids=lambda op: op.__name__)
def test_every_operator_written_below_any_other_reads_back(parent, child):
    arity = lambda op: 1 if op is Not or op in BINDERS else 2
    inner = _apply(child, [Atom("A", ()), Atom("B", ())][: arity(child)])
    for side in range(arity(parent)):
        kids = [Atom("C", ())] * arity(parent)
        kids[side] = inner
        formula = _apply(parent, kids)
        assert parse_formula(render(formula)) is formula


CORPUS = sorted(path.name for path in corpus_path("theory_shat.thy").parent.iterdir())
READERS = {".lkp": parse_proof, ".sch": parse_schema, ".slk": parse_script}


@pytest.mark.parametrize("name", CORPUS)
def test_render_agrees_with_the_per_class_renderer_on_the_corpus(name):
    path = corpus_path(name)
    if path.suffix == ".thy":
        roots = _workspace_roots(None, load_theory(path))
    else:
        roots = _workspace_roots(*load_file(path, READERS[path.suffix])[:2])
    formulas = [f for root in roots for f in (root.formulas() if isinstance(root, Sequent) else (root,))]
    assert formulas
    for node in {sub for formula in formulas for sub in walk(formula)}:
        assert render(node) == gen.reference_render(gen.named(node))


def test_rendering_a_deep_term_takes_memory_linear_in_its_text():
    # The writer keeps pieces of the text, not the text of every subterm:
    # P(f(...f(0)...)) 4,096 deep is 12,292 characters.
    term = ZERO
    for _ in range(4096):
        term = Fn("f", (term,))
    atom = Atom("P", (term,))
    tracemalloc.start()
    try:
        text = render(atom)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert text == "P(" + "f(" * 4096 + "0" + ")" * 4097
    assert peak < 1_000_000
