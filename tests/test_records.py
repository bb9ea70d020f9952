"""The record classes of every layer: frozen where they were frozen, value
equality or identity as each class defines it, a field-by-field replace, and
nodes built from positional fields only."""

import pytest

from silkcheck.kernel import CheckReport, Failure, LinkPattern, Proof, RuleData, RuleName
from silkcheck.parser import SiLKScript, SiLKStep
from silkcheck.rewrite import EquationalTheory, NormalizationResult, RewriteRule, TheoryIssue
from silkcheck.schema import ProofSchema, SchemaComponent, UnrollMemo, replace
from silkcheck.silk import (
    ClosedBase,
    ClosedStep,
    ComponentCollection,
    ComponentGroup,
    ComponentPair,
    EmptyStep,
    OpenBase,
    OpenStep,
    Top,
)
from silkcheck.syntax import (
    And,
    Atom,
    Exists,
    Fn,
    Forall,
    FreeVar,
    Imp,
    Not,
    NumFn,
    OmegaAll,
    Or,
    Param,
    SVar,
    Sequent,
    Succ,
    Zero,
    bind,
    canon_alpha,
    numeral,
    numeral_value,
    shown_kids,
    subst,
    walk,
)

A, B = Atom("A", ()), Atom("B", ())
N = Param("n")
SEQ = Sequent((A,), (B,))
PROOF = Proof(Sequent((A,), (A,)), RuleName.AX)
THEORY = EquationalTheory((RewriteRule(Fn("f", (FreeVar("x"),)), FreeVar("x"), 1),), 50)

# Each maker builds a new object, equal in value to the last one it built.
NODES = {
    "Zero": lambda: Zero(),
    "Succ": lambda: Succ(N),
    "Param": lambda: Param("n"),
    "NumFn": lambda: NumFn("2^", (N,)),
    "FreeVar": lambda: FreeVar("x"),
    "SVar": lambda: SVar("x", N),
    "Fn": lambda: Fn("f", (N,)),
    "Atom": lambda: Atom("P", (N,)),
    "Not": lambda: Not(A),
    "And": lambda: And(A, B),
    "Or": lambda: Or(A, B),
    "Imp": lambda: Imp(A, B),
    "Forall": lambda: Forall("$0", "x", A),
    "Exists": lambda: Exists("$0", "x", A),
    "OmegaAll": lambda: OmegaAll("$0", "m", A),
}
# Frozen, compared and hashed by value.
VALUES = {
    "RuleData": lambda: RuleData(a=1, formula=A, path=(0, 1)),
    "LinkPattern": lambda: LinkPattern(SEQ, ("x",)),
    "Failure": lambda: Failure((0, 1), "ax", "not an axiom"),
    "RewriteRule": lambda: RewriteRule(Fn("f", (FreeVar("x"),)), FreeVar("x"), 3),
    "TheoryIssue": lambda: TheoryIssue(0, "bad head"),
    "NormalizationResult": lambda: NormalizationResult(A, 2),
    "SchemaComponent": lambda: SchemaComponent("phi", SEQ, step_param=Succ(N), base=PROOF),
    "ProofSchema": lambda: ProofSchema((SchemaComponent("phi", SEQ),)),
    "SiLKStep": lambda: SiLKStep("ax1r", sequent=SEQ, line=4),
    "Top": lambda: Top(),
    "OpenStep": lambda: OpenStep(SEQ, N),
    "ClosedStep": lambda: ClosedStep(SEQ),
    "EmptyStep": lambda: EmptyStep(),
    "OpenBase": lambda: OpenBase(SEQ),
    "ClosedBase": lambda: ClosedBase(SEQ),
    "ComponentPair": lambda: ComponentPair(1, Top(), OpenBase(SEQ), PROOF),
    "ComponentGroup": lambda: ComponentGroup(1, (ComponentPair(1, Top(), OpenBase(SEQ), PROOF),)),
    "ComponentCollection": lambda: ComponentCollection(next_gid=2),
}
# Frozen, compared by value, but unhashable: a field holds a dict or a theory.
UNHASHABLE = {
    "SiLKScript": lambda: SiLKScript(THEORY, (SiLKStep("ax1r", sequent=SEQ),)),
}
# Mutable, compared by value, unhashable.
MUTABLE = {
    "CheckReport": lambda: CheckReport([Failure((), "ax", "m")], {"ax": 1}, {"fuel": 5}),
    "EquationalTheory": lambda: EquationalTheory(THEORY.rules, 50),
    "UnrollMemo": lambda: UnrollMemo({"k": 1}, {}),
}
FROZEN = {
    **NODES,
    **VALUES,
    **UNHASHABLE,
    "Proof": lambda: Proof(SEQ, RuleName.AX),
    "Sequent": lambda: Sequent((A, B), ()),
}
ALL = {**FROZEN, **MUTABLE}


def test_the_table_covers_every_record_class():
    assert len(ALL) == 39


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_frozen_records_refuse_assignment_and_deletion(name):
    for record in (FROZEN[name](), replace(FROZEN[name]())):
        field = record._fields[0] if record._fields else "extra"
        before = getattr(record, field, "absent")
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
        assert getattr(record, field, "absent") is before


@pytest.mark.parametrize("name", sorted(VALUES))
def test_value_equal_records_are_equal_and_hash_equal(name):
    a, b = VALUES[name](), VALUES[name]()
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert not a != b
    if a._fields:
        changed = replace(a, **{a._fields[0]: "other"})
        assert changed != a and type(changed) is type(a)
    assert a != object() and a != (*[getattr(a, f) for f in a._fields],)


@pytest.mark.parametrize("name", sorted(NODES))
def test_nodes_are_shared_and_compare_by_identity(name):
    make = NODES[name]
    assert make() is make()
    assert make() == make() and hash(make()) == object.__hash__(make())


def test_proofs_compare_by_identity():
    a, b = FROZEN["Proof"](), FROZEN["Proof"]()
    assert a != b and a == a
    assert {a: 1, b: 2}[a] == 1


def test_sequents_keep_their_own_equality():
    a, b = Sequent((A, B), ()), Sequent((B, A), ())
    assert a == b and hash(a) == hash(b)
    assert Sequent((bind(Forall, "x", Atom("P", (FreeVar("x"),))),), ()) == Sequent(
        (bind(Forall, "y", Atom("P", (FreeVar("y"),))),), ()
    )
    assert a != Sequent((A,), ())


@pytest.mark.parametrize("name", sorted({**UNHASHABLE, **MUTABLE}))
def test_records_holding_dicts_compare_by_value_and_do_not_hash(name):
    make = ALL[name]
    a, b = make(), make()
    assert a == b
    with pytest.raises(TypeError):
        hash(a)


def test_equality_ignores_the_memo_and_the_cache():
    # A theory's normal forms and its memo of prepared rules are no fields.
    theory = MUTABLE["EquationalTheory"]()
    theory._nf_cache[A] = B
    theory._ready[("t", "f")] = []
    assert theory == MUTABLE["EquationalTheory"]()
    assert theory != EquationalTheory(THEORY.rules, 51)


@pytest.mark.parametrize("name", sorted(ALL))
def test_replace_rejects_an_unknown_field(name):
    with pytest.raises(TypeError):
        replace(ALL[name](), no_such_field=1)


@pytest.mark.parametrize("name", sorted(n for n, make in NODES.items() if make()._fields))
def test_nodes_take_their_fields_positionally_and_all_of_them(name):
    node = NODES[name]()
    cls, values = type(node), [getattr(node, f) for f in node._fields]
    assert cls(*values) is node
    with pytest.raises(TypeError):
        cls(*values[:-1])
    with pytest.raises(TypeError):
        cls(*values, values[-1])
    with pytest.raises(TypeError):
        cls(**dict(zip(node._fields, values)))
    assert replace(node) is node


def test_generic_constructor_binds_defaults_keywords_and_rejects_the_rest():
    assert RuleData(1, 2) == RuleData(a=1, b=2) == replace(RuleData(), a=1, b=2)
    assert RuleData().path == () and RuleData().whole is False
    for bad in (lambda: RuleData(1, a=1), lambda: RuleData(nope=1), lambda: Failure((), "ax"), lambda: Top(1)):
        with pytest.raises(TypeError):
            bad()


@pytest.mark.parametrize("name", sorted([*NODES, "Proof", "Sequent"]))
def test_nodes_sequents_and_proofs_have_no_dict(name):
    # Slots: no dict per object, and reading a field or a cache never builds one.
    assert not hasattr(FROZEN[name](), "__dict__")


def test_the_node_caches_live_in_slots():
    # Filling every node cache builds no dict either.
    body = bind(Forall, "x", Atom("P", (FreeVar("x"), FreeVar("y"), numeral(3))))
    seq = Sequent((body,), (A,))
    renamed = subst(seq, {}, {"y": FreeVar("z")})
    assert numeral_value(numeral(3)) == 3 and numeral(3)._nv == 3
    assert canon_alpha(body) is body._ca and shown_kids(body) is body._sh
    assert body._sd
    assert not any(hasattr(x, "__dict__") for x in [seq, renamed, *walk(body), *walk(renamed.ante[0])])


@pytest.mark.parametrize("name", sorted({**VALUES, **UNHASHABLE}))
def test_fields_are_set_in_field_order(name):
    # Instances of one class then share the key table of their dicts; so do
    # the copies replace makes, which take the record's dict whole.
    record = FROZEN[name]()
    copies = [replace(record)] + [replace(record, **{field: "other"}) for field in record._fields[-1:]]
    assert copies[0] == record and copies[0] is not record
    assert all(getattr(copy, record._fields[-1]) == "other" for copy in copies[1:])
    for each in (record, *copies):
        assert list(vars(each)) == list(record._fields)


def test_repr_names_the_fields():
    assert repr(Failure((1,), "ax", "m")) == "Failure(path=(1,), rule='ax', message='m')"
    assert repr(Top()) == "Top()"
    assert repr(CheckReport()) == "CheckReport(failures=[], counts={}, params={})"
    assert repr(EquationalTheory((), 7)) == "EquationalTheory(rules=(), fuel=7)"
    assert repr(A) == "<Atom A>"
