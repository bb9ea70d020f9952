from silkcheck import corpus_path, load_schema
from silkcheck.kernel import iter_nodes
from silkcheck.parser import parse_formula, parse_sequent, parse_term
from silkcheck.schema import evaluate
from silkcheck.syntax import (
    Atom,
    Fn,
    Forall,
    FreeVar,
    Not,
    NumFn,
    Param,
    SortMismatch,
    Substitution,
    Succ,
    ZERO,
    canon_num,
    formula_eq,
    free_params,
    fold,
    free_vars,
    is_subterm,
    num_eq,
    numeral,
    sequent_eq,
    split_succs,
    subst,
    subst_param,
    subst_vars,
    walk,
)

import pytest


def t(text):
    return parse_term(text)


def f(text):
    return parse_formula(text)


def s(text):
    return parse_sequent(text)


# --- substitution


def test_subst_parameter_instance():
    out = subst(f("P(alpha + S^n)"), subst_param("n", ZERO))
    assert out == f("P(alpha + S^0)")


def test_subst_empty_is_identity():
    a = f("forall x. P(x) -> P(f(x))")
    assert subst(a, Substitution({}, {})) is a


def test_subst_bound_occurrence_shadows():
    a = f("forall x. P(x) -> P(f(x))")
    assert subst(a, subst_vars({"x": t("g(y)")})) == a


def test_subst_capture_avoided():
    a = f("forall x. P(y)")
    out = subst(a, subst_vars({"y": t("x")}))
    assert formula_eq(out, f("forall z. P(x)"))


def test_capture_avoiding_rename_avoids_the_substitution_domain():
    # The fresh name for x must not be a key of the substitution, or the
    # renamed binder's variable is substituted as well.
    out = subst(f("forall x. P(x, y)"), subst_vars({"y": t("x"), "x1": t("c")}))
    assert formula_eq(out, f("forall z. P(z, x)"))


def test_one_substitution_reused_across_a_sequent():
    seq = s("A, forall x. P(x, y), Q(y, S^n) |- P(y + S^n, n), Q(y, S^n)")
    sub = Substitution({"n": numeral(3)}, {"y": t("g(a, 2)")})
    whole = subst(seq, sub)
    assert all(subst(a, sub) is b for a, b in zip(seq.formulas(), whole.formulas()))
    fresh = Substitution({"n": numeral(3)}, {"y": t("g(a, 2)")})
    assert fresh == sub  # the memo takes no part in comparison
    again = subst(seq, fresh)
    assert all(a is b for a, b in zip(whole.formulas(), again.formulas()))
    assert again == s("A, forall x. P(x, g(a, 2)), Q(g(a, 2), S^3) |- P(g(a, 2) + S^3, 3), Q(g(a, 2), S^3)")


def test_capture_avoided_alike_at_every_occurrence():
    seq = s("forall x. Q(y) |- forall x. Q(y)")
    sub = subst_vars({"y": t("x")})
    out = subst(seq, sub)
    assert out.ante[0] is out.succ[0]
    assert out.ante[0].var != "x"
    assert formula_eq(out.ante[0], f("forall z. Q(x)"))


def test_subst_sort_mismatch():
    with pytest.raises(SortMismatch):
        Substitution({"n": t("f(alpha)")}, {})


def test_subst_composition_on_parameter():
    e = f("P(alpha + S^(n + 1))")
    k = t("n + 2")
    first = subst(subst(e, subst_param("n", k)), subst_param("n", numeral(3)))
    composed = subst(e, subst_param("n", subst(k, subst_param("n", numeral(3)))))
    assert first == composed


def test_subst_schematic_index():
    out = subst(t("x[n + 1]"), subst_param("n", numeral(2)))
    assert out == t("x[2 + 1]")


# --- free symbols


def test_free_params():
    assert free_params(t("s(n)")) == {"n"}
    assert free_params(numeral(2)) == frozenset()
    assert free_params(f("P(alpha + S^n)")) == {"n"}


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
    assert subst(deep, subst_vars({"q": FreeVar("r")})) is deep


def test_subst_preserves_sequent_eq():
    a = s("A, forall x. P(x) |- P(alpha + S^n)")
    b = s("forall y. P(y), A |- P(alpha + S^n)")
    assert sequent_eq(a, b)
    sub = Substitution({"n": numeral(2)}, {"alpha": FreeVar("beta")})
    assert sequent_eq(subst(a, sub), subst(b, sub))


def test_schematic_variable_renaming():
    out = subst(t("x[n + 1]"), subst_vars({"x": FreeVar("y")}))
    assert out == t("y[n + 1]")
    with pytest.raises(SortMismatch):
        subst(t("x[n]"), subst_vars({"x": t("f(a)")}))


def test_deep_numeric_functions_canonicalize():
    # Reachable from a script's ann= and a schema's param=.
    deep = Param("n")
    for _ in range(10_000):
        deep = NumFn("2^", (deep,))
    assert canon_num(deep) is deep
    shifted = NumFn("+", (Param("n"), numeral(1)))
    for _ in range(10_000):
        shifted = NumFn("2^", (shifted,))
    assert num_eq(shifted, subst(deep, subst_param("n", Succ(Param("n")))))


def test_fold_combines_each_distinct_node_once_without_recursing():
    # The sequents of the unrolled schema_exp proof share their subterms
    # f(...f(0)...) many times over; one table shared by all their formulas
    # combines each distinct node once.
    schema, theory = load_schema(corpus_path("schema_exp.sch"))
    proof = evaluate(schema, 8, theory).proof
    formulas = [f for node, _ in iter_nodes(proof) for f in node.conclusion.formulas()]
    combined, done = [], {}
    size = lambda node, kids: combined.append(id(node)) or 1 + sum(kids)
    sizes = [fold(f, size, done) for f in formulas]
    assert sizes == [sum(1 for _ in walk(f)) for f in formulas]
    distinct = {id(n) for f in formulas for n in walk(f)}
    assert sorted(combined) == sorted(distinct)
    assert 100 * len(distinct) < sum(sizes)
    assert fold(proof, lambda node, kids: 1 + sum(kids), {}) == sum(1 for _ in iter_nodes(proof))
    chain = Atom("Q", ())
    for _ in range(100_000):
        chain = Not(chain)
    assert fold(chain, lambda node, kids: 1 + sum(kids), {}) == 100_001


def test_fold_does_not_open_a_leaf_or_a_finished_node():
    a = f("(forall x. P(x)) /\\ Q")
    done = {a.rhs: "rhs"}
    assert fold(a, lambda node, kids: (type(node).__name__, kids), done, (Forall,)) == (
        "And",
        (("Forall", ()), "rhs"),
    )
    assert set(done) == {a, a.lhs, a.rhs}
