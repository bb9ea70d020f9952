"""Round trips and parse errors for every file format."""

import contextlib
import re
from pathlib import Path

import pytest

from silkcheck import corpus_path, parser, printer
from silkcheck.kernel import RULES
from silkcheck.parser import (
    FORMULA,
    NUM,
    TERM,
    ParseError,
    load_schema,
    load_script,
    load_theory,
    parse_formula,
    parse_proof,
    parse_schema,
    parse_script,
    parse_sequent,
    parse_term,
    parse_theory,
    tokenize,
)
from silkcheck.printer import print_proof, print_schema, print_script, print_theory
from silkcheck.rewrite import EquationalTheory
from silkcheck.schema import evaluate
from silkcheck.silk import check_script

import gen
from gen import collection_signature

THEORIES = ["theory_shat.thy", "theory_fhat.thy", "theory_exp.thy", "theory_bigjunct.thy", "theory_wedge.thy"]
SCHEMAS = ["schema_shat.sch", "schema_svar.sch", "schema_fhat.sch", "schema_exp.sch"]
SCRIPTS = [
    "silk_fhat.slk",
    "silk_exp.slk",
    "silk_conj_comm.slk",
    "silk_excluded_middle.slk",
    "silk_wedge.slk",
    "silk_wedge_var.slk",
    "silk_interleaved.slk",
    "silk_contract.slk",
]
PROOFS = ["lk_pi_shat.lkp", "lk_forall_rename.lkp", "lk_nu_shat.lkp", "lk_exists_rename.lkp", "lk_or_contract.lkp"]


@pytest.mark.parametrize("text", [
    "f(x, g(y))",
    "x[n]",
    "alpha + S^(n + 1)",
    "f^(2^(s(n)))(0)",
    "2^3",
    "s(s(n)) + 4",
])
def test_term_round_trip(text):
    value = parse_term(text)
    assert parse_term(str(value)) == value


@pytest.mark.parametrize("text", [
    "forall x. P(x) -> P(f(x))",
    "~(A \\/ B) /\\ C",
    "A -> B -> C",
    "(A -> B) -> C",
    "(forall x. P(x)) /\\ Q",
    "forall x:omega. P /\\ Q -> R",
    "exists v. W2^n(v)",
])
def test_formula_round_trip(text):
    value = parse_formula(text)
    assert parse_formula(str(value)) == value


@pytest.mark.parametrize("name", THEORIES)
def test_theory_round_trip(name):
    theory = load_theory(corpus_path(name))
    again = parse_theory(print_theory(theory))
    assert len(theory.rules) == len(again.rules)
    for a, b in zip(theory.rules, again.rules):
        assert a.lhs == b.lhs and a.rhs == b.rhs


@pytest.mark.parametrize("name", SCHEMAS)
def test_schema_round_trip(name):
    schema, _ = load_schema(corpus_path(name))
    again, _ = parse_schema(print_schema(schema))
    assert len(schema.components) == len(again.components)
    for a, b in zip(schema.components, again.components):
        assert a.name == b.name and a.vars == b.vars
        assert a.pattern == b.pattern
        assert print_proof(a.base) == print_proof(b.base)
        if a.step is not None:
            assert print_proof(a.step) == print_proof(b.step)


@pytest.mark.parametrize("name", SCRIPTS)
def test_script_round_trip(name):
    script = load_script(corpus_path(name))
    again, _ = parse_script(print_script(script))
    assert len(script.steps) == len(again.steps)
    from silkcheck.silk import SiLKScript

    original, v1, _ = check_script(script)
    replayed, v2, _ = check_script(SiLKScript(script.theory, again.steps))
    assert (v1, collection_signature(original)) == (v2, collection_signature(replayed))


@pytest.mark.parametrize("name", PROOFS)
def test_proof_round_trip(name):
    proof, _ = parse_proof(corpus_path(name).read_text())
    again, _ = parse_proof(print_proof(proof))
    assert print_proof(proof) == print_proof(again)


def test_double_turnstile_is_an_error():
    with pytest.raises(ParseError) as err:
        parse_sequent("A |- |- B")
    assert err.value.col == 6


@pytest.mark.parametrize(
    "text, where", [("A |-{s(n)} A", "1:3"), ("|-{s(n)} A", "1:1")], ids=["antecedent", "empty"]
)
def test_annotated_turnstile_is_no_sequent(text, where):
    # Input files give a stepcase annotation as ann="..."; only the display
    # of an open stepcase writes it into the turnstile.
    with pytest.raises(ParseError) as err:
        parse_sequent(text)
    assert str(err.value) == f"expected '|-', found '|-{{' at {where}"


def test_unterminated_string():
    with pytest.raises(ParseError):
        parse_script('ax1r "A |- A')


@pytest.mark.parametrize("text", ["P(\u00b2) |- P(\u00b2)", "P(\u0663) |- P(3)", "P(1\u00b2) |- P(1)"])
def test_non_ascii_digits_are_stray_characters(text):
    # Numerals are ASCII decimal: a superscript two or an Arabic-Indic
    # three is neither a numeral nor the start of an identifier.
    with pytest.raises(ParseError, match="stray character"):
        parse_sequent(text)


@pytest.mark.parametrize("name", ["b\u00e9", "\u00e9", "\u01c50", "x\u00b2", "_a'"])
def test_unicode_letters_stay_legal_in_identifiers(name):
    seq = parse_sequent(f"P({name}) |- P({name})")
    assert str(seq.ante[0]) == f"P({name})"
    assert parse_sequent(str(seq)) == seq


def test_trailing_garbage():
    with pytest.raises(ParseError):
        parse_term("f(x))")


def test_unknown_step_keyword():
    with pytest.raises(ParseError, match="unknown step"):
        parse_script('frobnicate "A |- A"')


def test_unknown_rule_in_rho():
    with pytest.raises(ParseError, match="unknown inference rule"):
        parse_script("rho bc 1 zap group=1 pair=1")


def test_binary_rho_requires_two_pairs():
    with pytest.raises(ParseError, match="binary"):
        parse_script("rho bc 2 ->:l group=1 pair=1 a=0 b=0")


@pytest.mark.parametrize("side, arity, where", [("bc", "0", "1:8"), ("bc", "3", "1:8"), ("sc", "7", "1:8"), ("xx", "1", "1:5")])
def test_rho_arity_is_one_or_two(side, arity, where):
    # Reported at the word that breaks the form: the side, else the arity.
    with pytest.raises(ParseError, match=rf"^rho steps read: rho \(bc\|sc\) \(1\|2\) rule \.\.\. at {where}$"):
        parse_script(f"rho {side} {arity} ->:r group=1 pair=1 a=0")


@pytest.mark.parametrize(
    "parse, text, where",
    [
        (parse_proof, 'E "A |- A" at=X.0 to="B" { ax "A |- A" }', "1:15"),
        (parse_proof, 'E "A |- A" at=l.0 to="B" { ax "A |- A" }', "1:15"),
        (parse_script, 'rho bc 1 E group=1 pair=1 at=RL.0 path=0 to="f(0)"', "1:30"),
    ],
)
def test_a_bad_rewrite_side_is_reported_at_its_word(parse, text, where):
    with pytest.raises(ParseError, match=f"^positions start with L or R at {where}$"):
        parse(text)


def test_rho_rule_is_a_bare_token_as_in_a_rule_block():
    text = corpus_path("silk_conj_comm.slk").read_text().replace("rho bc 2 /\\:r", 'rho bc 2 "/\\:r"')
    with pytest.raises(ParseError, match="^expected an inference rule at 4:10$"):
        parse_script(text)
    with pytest.raises(ParseError, match="^expected an inference rule at 1:1$"):
        parse_proof('"ax" "A |- A"')


def test_every_kernel_rule_has_its_witness_keys():
    assert set(parser._RULE_READS) == set(RULES)


@pytest.mark.parametrize("name, parse, where", [("lk_pi_shat.lkp", parse_proof, "3:75"), ("schema_exp.sch", parse_schema, "13:48")])
def test_rewrite_block_without_a_position(name, parse, where):
    text = corpus_path(name).read_text().replace(" at=R.0", "", 1)
    with pytest.raises(ParseError, match=f"^rewrite step needs a position at {where}$"):
        parse(text)


def test_error_positions_point_into_the_file():
    text = 'theory "theory_fhat.thy"\n\nax1r "P(0) |- P(0)"\nbroken_step_here\n'
    with pytest.raises(ParseError) as err:
        parse_script(text)
    assert err.value.line == 4


def test_theory_rule_needs_semicolon():
    with pytest.raises(ParseError, match="';'"):
        parse_theory("f^0(x) == x\n")


def test_arity_inconsistency_detected():
    from silkcheck.parser import check_arities

    issues = check_arities(parse_sequent("P(a), P(a, b) |- Q"))
    assert issues and "P" in issues[0]
    assert not check_arities(parse_sequent("P(a), P(b) |- Q"))


def test_cli_rejects_arity_clash(tmp_path):
    from silkcheck.cli import main

    bad = tmp_path / "bad.lkp"
    bad.write_text('ax "P(a, b) |- P(a)"\n')
    assert main(["check-lk", str(bad)]) == 2


def test_bracketed_vector_syntax():
    script, _ = parse_script('clbc group=1 pair=1 pattern="A |- A" vars []\ncycle group=1 pair=1 terms []')
    assert script.steps[0].vars == ()
    assert script.steps[1].terms == ()


def _lex(text):
    return [tuple(tok) for tok in tokenize(text)]


@pytest.mark.parametrize(
    "text, tokens",
    [
        ("w:lx", [("ident", "w", 1, 1), ("sym", ":", 1, 2), ("ident", "lx", 1, 3), ("eof", "", 1, 5)]),
        ("w:l x", [("sym", "w:l", 1, 1), ("ident", "x", 1, 5), ("eof", "", 1, 6)]),
        (
            "|-{s(n)}",
            [("sym", "|-{", 1, 1), ("ident", "s", 1, 4), ("sym", "(", 1, 5), ("ident", "n", 1, 6),
             ("sym", ")", 1, 7), ("sym", "}", 1, 8), ("eof", "", 1, 9)],
        ),
        # A string spanning a newline starts where its quote is; what follows
        # it is on the line where it ends.
        (
            'ax "A\n|- A" x\ny',
            [("ident", "ax", 1, 1), ("str", "A\n|- A", 1, 4), ("ident", "x", 2, 7),
             ("ident", "y", 3, 1), ("eof", "", 3, 2)],
        ),
    ],
    ids=["guarded-rule", "rule", "annotated-turnstile", "multiline-string"],
)
def test_lexer_cases(text, tokens):
    assert _lex(text) == tokens
    assert gen.reference_tokenize(text) == tokens


def test_unterminated_string_position():
    for lex in (tokenize, gen.reference_tokenize):
        with pytest.raises(ParseError) as err:
            lex('w:l "A |- A"\n  ax "A |- A')
        assert str(err.value) == "unterminated string at 2:6"


def test_eof_after_a_trailing_comment_points_past_it():
    assert _lex("x # note")[-1] == ("eof", "", 1, 9)
    assert gen.reference_tokenize("x # note")[-1] == ("eof", "", 1, 3)
    assert gen.same_tokens("x # note")


def test_lexer_agrees_with_the_reference():
    gen.lexer_oracle_property(200)()


@pytest.mark.parametrize("sort", [FORMULA, TERM, NUM])
def test_expression_loop_agrees_with_the_reference(sort):
    gen.parser_oracle_property(300, sort)()


CORPUS_READERS = {".thy": parse_theory, ".sch": parse_schema, ".slk": parse_script, ".lkp": parse_proof}


@pytest.mark.parametrize("name", THEORIES + SCHEMAS + SCRIPTS + PROOFS)
def test_corpus_parses_as_with_the_reference(name):
    text = corpus_path(name).read_text(encoding="utf-8")
    read = CORPUS_READERS[corpus_path(name).suffix]
    new = read(text)
    with gen.reference_parser():
        old = read(text)
    if isinstance(new, EquationalTheory):
        new, old = new.rules, old.rules
    assert gen.identical(new, old)


@pytest.mark.parametrize("name", SCHEMAS + SCRIPTS + PROOFS)
def test_corpus_quoted_texts_read_as_when_read_whole(name):
    assert gen.same_quoted_reads(corpus_path(name).suffix, corpus_path(name).read_text(encoding="utf-8"))


# Sequent texts the memo must not split, or must split at the right commas;
# each is read in a script whose last step reads it again.
QUOTED_CASES = [
    "A, B # , C\n |- A",  # a comment hides a comma
    "P(0) # x, y |- Q\n, Q |- P(0)",  # a comment hides a comma and a turnstile over two lines
    "P(f(a, b)), Q(x[n]) |- P(f(a, b))",
    "forall x. A, B |- B",
    "forall x. P(x, x), exists y. Q(y) |- forall x. P(x, x)",
    "A |- B |- C",
    "A, |- B",
    " |- ",
    "A |- ",
    " , |- A",
    "A,, B |- A",
    "P(a, |- b)",
    "P(a |- b), C",
    "A |-{ B",
    "A |- B)",
    "f(a) |- A",
    "A |- \u00b2",
    "P(0) |- P(0), \u000b",
    "P(\n0) |- P(0)",
]


@pytest.mark.parametrize("text", QUOTED_CASES)
def test_quoted_sequents_read_as_when_read_whole(text):
    script = f'ax1r "A |- A"\nax2r group=1 "{text}"\nax2r group=1 "{text}"\naxl formula="{text.split(",")[0]}"\n'
    assert gen.same_quoted_reads(".slk", script)


def test_quoted_texts_read_as_when_read_whole():
    gen.quoted_memo_property(300, SCHEMAS + SCRIPTS + PROOFS)()


def test_each_distinct_quoted_text_is_lexed_once(monkeypatch):
    # A file is lexed once, each distinct quoted text at most once more (a
    # sequent's formulas one by one), and each `to=` once as it resolves.
    text = corpus_path("schema_exp.sch").read_text(encoding="utf-8")
    calls = []
    lex = parser.tokenize
    monkeypatch.setattr(parser, "tokenize", lambda *args: calls.append(args[0]) or lex(*args))
    parse_schema(text)
    assert len(calls) <= 1 + len(set(re.findall(r'"([^"]*)"', text)))  # 25; reading each text whole lexes 29 times


def test_reference_gives_up_for_depth_where_the_loop_does_not():
    deep = "(" * 300 + "P" + ")" * 300
    assert parse_formula(deep) is parse_formula("P")
    with gen.reference_parser(), pytest.raises(ParseError, match="nested too deep"):
        parse_formula(deep)
    assert gen.same_parse(parse_formula, deep)


WITNESS_FILES = SCHEMAS + SCRIPTS + PROOFS


@pytest.mark.parametrize("name", WITNESS_FILES)
def test_corpus_witnesses_read_and_write_as_with_the_reference(name):
    assert gen.same_witnesses(corpus_path(name).suffix, corpus_path(name).read_text(encoding="utf-8"))


def test_witness_reader_and_writer_agree_with_the_reference():
    gen.witness_oracle_property(300, WITNESS_FILES)()


@pytest.mark.parametrize(
    "suffix, text",
    [
        (".lkp", 'c:r "A \\/ A |- A" a=0 a=0 b=1 {\n  ax "A |- A"\n}\n'),
        (".slk", 'ax1r "A |- A"\nax2r group=1 "A |- A" group=1\n'),
        (".slk", 'ax1r "A |- A"\nrho bc 1 E group=1 pair=1 at=R.0 to="B" whole\n'),
        (".lkp", 'ax "A |- A" a=5\n'),
        (".slk", 'ax1r "A |- A"\nrho bc 1 ~:r group=1 pair=1 a=0 b=3\n'),
    ],
    ids=["repeated-key", "repeated-around-the-sequent", "whole", "unread-key", "unread-by-a-rho-rule"],
)
def test_the_intended_witness_differences_pass_the_oracle_check(suffix, text):
    assert gen.same_witnesses(suffix, text)


@pytest.mark.parametrize(
    "module, name, value",
    [
        (printer, "WITNESS_KEYS", printer.WITNESS_KEYS[::-1]),
        (parser, "_WITNESS_KEYS", parser._WITNESS_KEYS - {"ann"}),
        (parser, "_step_fields", lambda kv, fill=parser._step_fields: fill(kv) | {"pair2": kv.get("pair")}),
    ],
    ids=["writer-order", "reader-keys", "field-fill"],
)
def test_the_witness_oracle_check_sees_a_changed_reader_or_writer(monkeypatch, module, name, value):
    monkeypatch.setattr(module, name, value)
    assert not gen.same_witnesses(".slk", corpus_path("silk_fhat.slk").read_text(encoding="utf-8"))


README = Path(__file__).resolve().parent.parent / "README.md"


def _witness_table() -> list:
    """The rows of the README's witness-key table, each a list of cells."""
    lines = README.read_text(encoding="utf-8").splitlines()
    start = lines.index("| key | value form | read by | field filled |") + 2
    rows = []
    for line in lines[start:]:
        if not line.startswith("|"):
            return rows
        rows.append([cell.strip() for cell in line.strip("|").split("|")])
    return rows


def test_readme_witness_table_matches_the_reader_and_writer():
    rows = _witness_table()
    keys = [row[0].strip("`") for row in rows]
    assert keys == list(printer.WITNESS_KEYS)
    readers = {str(rule): reads for rule, reads in parser._RULE_READS.items()} | parser._STEP_READS
    for key, row in zip(keys, rows):
        assert set(re.findall(r"`([^`]+)`", row[2])) == {name for name, reads in readers.items() if key in reads}
        owners = re.findall(r"`(SiLKStep|RuleData)\.(\w+)`", row[3])
        assert owners and all(field in getattr(parser, owner)._names for owner, field in owners)
        # A script key fills the step field of its name, else the rule data's.
        assert (("SiLKStep", key) in owners) == (key in parser.SiLKStep._names)


@pytest.mark.parametrize(
    "text, message",
    [
        ("exists x:omega. (", "expected a formula at 1:18"),
        ("exists x:omega. P", "only universal numeric quantifiers exist at 1:1"),
        ("forall x:nat. P", "unknown sort 'nat' at 1:10"),
        ("forall (", "expected ident, found '(' at 1:8"),
        ("P(f^n(x], y)", "expected ')', found ']' at 1:8"),
        ("P(x[n)", "expected ']', found ')' at 1:6"),
        ("P(s(f(x)))", "expected ')', found '(' at 1:6"),
        ("P(2^~)", "expected a superscript at 1:5"),
    ],
)
def test_expression_errors_match_the_reference(text, message):
    assert gen.same_parse(parse_formula, text)
    for reading in (contextlib.nullcontext(), gen.reference_parser()):
        with reading, pytest.raises(ParseError) as err:
            parse_formula(text)
        assert str(err.value) == message


@pytest.mark.parametrize(
    "text, same",
    [
        ("A -> B -> C", "A -> (B -> C)"),
        ("A \\/ B \\/ C", "(A \\/ B) \\/ C"),
        ("~A /\\ B \\/ C -> D", "(((~A) /\\ B) \\/ C) -> D"),
        ("A /\\ forall x. B \\/ C", "A /\\ (forall x. (B \\/ C))"),
        ("~forall x. A -> B", "~(forall x. (A -> B))"),
        ("P(a + b + c)", "P((a + b) + c)"),
        ("P(f^n + 1)", "P((f^n) + 1)"),
    ],
)
def test_precedence_and_associativity(text, same):
    assert parse_formula(text) is parse_formula(same)
    assert gen.same_parse(parse_formula, text)


@pytest.mark.parametrize("text", ["P()", "P(f(), g^n(), h^2())", "W^n() /\\ W2^(n + 1)(x)", "P(x[s(n) + 1])"])
def test_empty_and_superscripted_applications(text):
    assert gen.same_parse(parse_formula, text)
    assert parse_formula(str(parse_formula(text))) is parse_formula(text)


def test_longest_unrolled_fhat_sequent_parses_back_to_itself():
    # An unrolled instance nests f as deep as alpha; the printed sequent must
    # read back as the very object the unrolling built.
    schema, theory = load_schema(corpus_path("schema_fhat.sch"))
    proof = evaluate(schema, 1000, theory).proof
    longest = max((node.conclusion for node, _ in gen.proof_nodes(proof)), key=lambda seq: len(str(seq)))
    assert len(str(longest)) > 9000
    again = parse_sequent(str(longest))
    assert gen.identical((again.ante, again.succ), (longest.ante, longest.succ))
