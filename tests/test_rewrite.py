"""The rewrite engine against a brute-force oracle.

The oracle enumerates every single-step rewrite at every position and
chases all reducts to their normal forms; the engine must agree with the
unique normal form the oracle finds."""

import pytest

import gen
import silkcheck.rewrite
from silkcheck import corpus_path, load_theory
from silkcheck.cli import main
from silkcheck.parser import parse_formula, parse_term, parse_theory
from silkcheck.rewrite import (
    EquationalTheory,
    FuelExhausted,
    RewriteRule,
    StuckTerm,
    equivalent,
    eval_numeric,
    match,
    normalize,
    validate_theory,
)
from silkcheck.syntax import (
    Atom,
    Fn,
    FreeVar,
    NumFn,
    Or,
    Param,
    SVar,
    Succ,
    ZERO,
    Zero,
    formula_eq,
    numeral,
    numeral_value,
    rebuild,
    subst,
)


def t(text):
    return parse_term(text)


@pytest.fixture(scope="module")
def shat():
    return load_theory(corpus_path("theory_shat.thy"))


@pytest.fixture(scope="module")
def fhat():
    return load_theory(corpus_path("theory_fhat.thy"))


@pytest.fixture(scope="module")
def exp():
    return load_theory(corpus_path("theory_exp.thy"))


@pytest.fixture(scope="module")
def bigjunct():
    return load_theory(corpus_path("theory_bigjunct.thy"))


# --- the independent oracle


def _all_nodes_rewrites(node, theory):
    """Every one-step reduct of node, trying every rule at every position."""
    out = []
    if isinstance(node, NumFn) and node.sym == "+":
        a, b = node.args
        if isinstance(a, Zero):
            out.append(b)
        if isinstance(a, Succ):
            out.append(Succ(NumFn("+", (a.prev, b))))
        if isinstance(b, Zero):
            out.append(a)
        if isinstance(b, Succ):
            out.append(Succ(NumFn("+", (a, b.prev))))
    for rule in theory.rules:
        binding = {}
        if gen.reference_match(rule.lhs, node, binding):
            sub_params = {k[1]: v for k, v in binding.items() if k[0] == "p"}
            sub_vars = {k[1]: v for k, v in binding.items() if k[0] == "v"}
            out.append(subst(rule.rhs, sub_params, sub_vars))
    kids = node.kids()
    for i, k in enumerate(kids):
        for red in _all_nodes_rewrites(k, theory):
            new = list(kids)
            new[i] = red
            out.append(rebuild(node, tuple(new)))
    return out


def oracle_normal_forms(expr, theory, limit=4000):
    """All normal forms reachable by exhaustive rewriting."""
    seen = set()
    normals = set()
    frontier = [expr]
    steps = 0
    while frontier:
        steps += 1
        assert steps < limit, "oracle exploded"
        e = frontier.pop()
        if e in seen:
            continue
        seen.add(e)
        reducts = _all_nodes_rewrites(e, theory)
        if not reducts:
            normals.add(e)
        else:
            frontier.extend(reducts)
    return normals


def assert_agrees_with_oracle(expr, theory):
    normals = oracle_normal_forms(expr, theory)
    assert len(normals) == 1, f"not confluent on {expr}: {normals}"
    assert normalize(expr, theory).value == normals.pop()


# --- validation


def test_iterated_junction_theory_is_valid(bigjunct):
    assert not validate_theory(bigjunct)


def test_all_corpus_theories_valid():
    for name in ("theory_shat.thy", "theory_fhat.thy", "theory_exp.thy", "theory_wedge.thy"):
        assert not validate_theory(load_theory(corpus_path(name))), name


def test_defined_symbol_inside_pattern_rejected():
    x = FreeVar("x")
    theory = EquationalTheory((
        RewriteRule(Fn("fd", (Fn("gd", (x,)),)), x),
        RewriteRule(Fn("gd", (x,)), x),
    ))
    assert any("gd" in i.message for i in validate_theory(theory))


def test_defined_symbols_inside_one_argument_reported_left_to_right():
    x = FreeVar("x")
    theory = EquationalTheory((
        RewriteRule(Fn("fd", (Fn("pair", (Fn("gd", (x,)), Fn("hd", (x,)))),)), x),
        RewriteRule(Fn("gd", (x,)), x),
        RewriteRule(Fn("hd", (x,)), x),
    ))
    assert [(i.rule_index, i.message) for i in validate_theory(theory)] == [
        (0, "defined symbol gd(x) occurs inside the argument pair(gd(x), hd(x))"),
        (0, "defined symbol hd(x) occurs inside the argument pair(gd(x), hd(x))"),
    ]


def test_unbound_rhs_variable_rejected():
    theory = EquationalTheory((RewriteRule(Fn("fd", (FreeVar("x"),)), Fn("g", (FreeVar("y"),))),))
    issues = validate_theory(theory)
    assert issues and "y" in issues[0].message


def test_left_side_variable_used_as_a_schematic_one_rejected():
    x = FreeVar("x")
    clash = RewriteRule(Fn("g", (x,)), Fn("h", (SVar("x", numeral(0)),)))
    issues = validate_theory(EquationalTheory((clash,)))
    assert [(i.rule_index, i.message) for i in issues] == [
        (0, "right side uses left-side variables as schematic variables: x")
    ]
    # A schematic variable of another name is a constant of the rule.
    other = RewriteRule(Fn("g", (x,)), Fn("h", (SVar("y", numeral(0)), x)))
    assert not validate_theory(EquationalTheory((other,)))


@pytest.mark.parametrize("text", ["pred W(y) == forall z. R(z, y);", "pred V^0 == forall m:omega. Q^(m);"])
def test_right_side_may_bind_its_own_variables(text):
    assert not validate_theory(parse_theory(text))


def test_instantiating_a_binding_right_side_renames_its_binder():
    # The right side's binder keeps its hint, z, and prints as z1, as z is
    # free in its body once the outer binder is opened.
    theory = parse_theory("pred W(y) == forall z. R(z, y);")
    nf = normalize(parse_formula("forall z. W(z)"), theory).value
    assert str(nf) == "forall z. forall z1. R(z1, z)"
    assert formula_eq(nf, parse_formula("forall a. forall b. R(b, a)"))
    assert not formula_eq(nf, parse_formula("forall a. forall b. R(a, b)"))


def test_duplicate_lhs_rejected():
    r = RewriteRule(Fn("fd", (FreeVar("x"),)), FreeVar("x"))
    assert any("duplicate" in i.message for i in validate_theory(EquationalTheory((r, r))))


def test_numeric_plus_is_reserved():
    theory = EquationalTheory((RewriteRule(NumFn("+", (Param("a"), Param("b"))), Param("a")),))
    assert any("built in" in i.message for i in validate_theory(theory))


def test_bare_variable_lhs_rejected():
    theory = EquationalTheory((RewriteRule(FreeVar("x"), FreeVar("x")),))
    assert validate_theory(theory)


# --- normalization against the oracle


def test_normalize_shat_of_one(shat):
    assert_agrees_with_oracle(t("S^1"), shat)
    assert normalize(t("S^1"), shat).value == t("f(0)")


def test_normalize_fhat_twice(fhat):
    assert_agrees_with_oracle(t("f^2(0)"), fhat)
    assert normalize(t("f^2(0)"), fhat).value == t("f(f(0))")


def test_normalize_no_redex(shat):
    p = parse_formula("P(0)")
    assert normalize(p, shat).value == p


def test_normalize_example_sequent_terms(shat):
    for text in ["alpha + S^1", "alpha + S^(0 + 1)", "alpha + f(S^0)"]:
        assert_agrees_with_oracle(t(text), shat)
        assert normalize(t(text), shat).value == t("f(alpha + 0)")


def test_normalize_idempotent_on_samples(shat, exp):
    for theory, text in [
        (shat, "alpha + S^(s(n))"),
        (exp, "f^(2^2)(0)"),
        (exp, "2^(s(s(0)))"),
    ]:
        once = normalize(t(text), theory).value
        assert normalize(once, theory).value == once


def test_steps_used_counts_rewrites(fhat):
    fresh = parse_theory(corpus_path("theory_fhat.thy").read_text())
    res = normalize(t("f^2(0)"), fresh)
    assert res.steps_used == 3


# --- equivalence


def test_equivalent_example_rewrite(shat):
    assert equivalent(t("alpha + S^(s(n))"), t("alpha + f(S^n)"), shat)


def test_equivalent_reflexive(shat):
    e = t("alpha + S^n")
    assert equivalent(e, e, shat)


def test_equivalent_symmetric(shat):
    a, b = t("alpha + S^(s(n))"), t("alpha + f(S^n)")
    assert equivalent(a, b, shat) == equivalent(b, a, shat)


def test_equivalent_exponential_base(exp):
    assert equivalent(t("f^(2^0)(x)"), t("f(x)"), exp)


def test_not_equivalent(shat):
    assert not equivalent(t("S^1"), t("S^0"), shat)


# --- numeric evaluation


def test_eval_numeric_builtin_addition():
    assert eval_numeric(t("1 + 1"), EquationalTheory(())) == numeral(2)


def test_eval_numeric_exponent(exp):
    # Oracle: plain arithmetic, 2**1 == 2 and 2**5 == 32.
    assert numeral_value(eval_numeric(t("2^1"), exp)) == 2
    assert numeral_value(eval_numeric(t("2^(s(s(s(s(s(0))))))"), exp)) == 32


def test_eval_numeric_zero(exp):
    assert eval_numeric(ZERO, exp) == ZERO


def test_eval_numeric_requires_ground(exp):
    with pytest.raises(ValueError):
        eval_numeric(t("2^n"), exp)


def test_eval_numeric_stuck(exp):
    with pytest.raises(StuckTerm):
        eval_numeric(NumFn("3^", (ZERO,)), exp)


def test_fuel_exhaustion():
    loop = EquationalTheory((RewriteRule(Fn("w", (FreeVar("x"),)), Fn("w", (FreeVar("x"),))),), 25)
    with pytest.raises(FuelExhausted):
        normalize(Fn("w", (FreeVar("c"),)), loop)


def test_fuel_exhaustion_two_rule_cycle():
    x = FreeVar("x")
    cycle = EquationalTheory((
        RewriteRule(Fn("g", (x,)), Fn("h", (x,))),
        RewriteRule(Fn("h", (x,)), Fn("g", (x,))),
    ), 25)
    with pytest.raises(FuelExhausted):
        normalize(Fn("g", (FreeVar("c"),)), cycle)


# f(x) == h(x[0]) makes a head step at f(0) a SortMismatch.  After S^1
# and S^2, the kid S^2 of f(S^2) is cached, with the span a fresh run finds
# past the fuel before it reaches f.  After d(z), the kid d(z) of
# k(f(0), d(z)) is cached, and a fresh run, which visits the last kid
# first, finds its span past the fuel before it reaches f(0).
@pytest.mark.parametrize(
    "extra, fuel, texts",
    [
        (gen.merged_theory().rules, 3, ["S^1", "S^2", "S^3"]),
        (parse_theory("r(x) == k(f(0), d(x));\nd(x) == e(x);\ne(x) == x;").rules, 2, ["d(z)", "r(z)"]),
    ],
    ids=["every-kid-cached", "one-kid-cached"],
)
def test_a_cached_kid_past_the_fuel_fails_before_a_sort_mismatch(extra, fuel, texts):
    rules = parse_theory(gen.SCHEMATIC_RULES).rules + extra
    warm = EquationalTheory(rules, fuel)
    for text in texts:
        got = gen._normal_outcome(normalize, t(text), warm)
        assert got == gen._normal_outcome(normalize, t(text), EquationalTheory(rules, fuel)), text
    assert got == (FuelExhausted, f"no normal form within {fuel} rewrite steps")


# --- iterated disjunction structure


def test_iterated_disjunction_shape(bigjunct):
    for k in range(17):
        nf = normalize(Atom("Or^", (numeral(k),)), bigjunct).value
        atoms = 0
        stack = [nf]
        while stack:
            node = stack.pop()
            if isinstance(node, Or):
                assert isinstance(node.rhs, Atom), "each joint hangs one atom"
                stack.extend([node.lhs, node.rhs])
            else:
                assert isinstance(node, Atom)
                atoms += 1
        assert atoms == k + 1


def test_iterated_conjunction_matches_oracle(bigjunct):
    assert_agrees_with_oracle(Atom("And^", (numeral(3),)), bigjunct)


def test_equivalent_transitive_on_normalizing_inputs(shat):
    a, b, c = t("alpha + S^(s(n))"), t("alpha + f(S^n)"), t("f(alpha + S^n)")
    assert equivalent(a, b, shat) and equivalent(b, c, shat) and equivalent(a, c, shat)


def test_linear_iteration_theory_has_two_rules(fhat):
    assert len(fhat.rules) == 2 and not validate_theory(fhat)


@pytest.mark.parametrize("depth", [600, 10_000])
def test_deep_rule_patterns_match(depth):
    # h(g(...g(x)...)) == x and H(2^(...2^(k)...)) == k, each nested depth deep.
    pattern, subject = FreeVar("x"), Fn("c", ())
    num_pattern, num_subject = Param("k"), numeral(3)
    for _ in range(depth):
        pattern, subject = Fn("g", (pattern,)), Fn("g", (subject,))
        num_pattern, num_subject = NumFn("2^", (num_pattern,)), NumFn("2^", (num_subject,))
    theory = EquationalTheory(
        (RewriteRule(Fn("h", (pattern,)), FreeVar("x")), RewriteRule(Fn("H", (num_pattern,)), Param("k")))
    )
    assert normalize(Fn("h", (subject,)), theory).value is Fn("c", ())
    assert normalize(Fn("H", (num_subject,)), theory).value is numeral(3)
    assert not match(Fn("h", (pattern,)), Fn("h", subject.args), {})


def test_a_numeral_is_normal_on_sight(monkeypatch, exp):
    # No rule has s or 0 as its head, so a numeral is its own normal form:
    # normalizing one tries no head step per successor.
    tried = []
    try_head = silkcheck.rewrite._try_head
    monkeypatch.setattr(silkcheck.rewrite, "_try_head", lambda node, theory: tried.append(node) or try_head(node, theory))
    result = normalize(numeral(5000), EquationalTheory(exp.rules))
    assert result.value is numeral(5000) and result.steps_used == 0
    assert len(tried) <= 1
    # Under a numeral, a sum is still rewritten, and a numeral inside a term
    # is normal as it stands.
    assert normalize(Succ(NumFn("+", (numeral(2), numeral(3)))), EquationalTheory(exp.rules)).value is numeral(6)
    assert normalize(t("f^(3)(0)"), EquationalTheory(exp.rules)).value is t("f(f(f(0)))")


@pytest.mark.parametrize("name, top, most", [("schema_shat.sch", 40, 300), ("schema_fhat.sch", 70, 290)])
def test_a_rebuilt_node_takes_its_head_step_once(monkeypatch, capsys, name, top, most):
    # A node rebuilt from normal kids that is already cached has its normal
    # form looked up, not its head step taken again: a stats range tries
    # 292 and 288 head steps here, where taking each again tried 610 and 359.
    tried = []
    try_head = silkcheck.rewrite._try_head
    monkeypatch.setattr(silkcheck.rewrite, "_try_head", lambda node, theory: tried.append(node) or try_head(node, theory))
    assert main(["stats", str(corpus_path(name)), "--alpha-range", f"0..{top}"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == top + 2
    assert len(tried) <= most
