"""Randomized invariants over corpus-derived generators."""

import gen


CASES = 200


def test_parse_print_round_trip():
    gen.roundtrip_property(CASES)()


def test_normalize_idempotent():
    gen.idempotence_property(CASES)()


def test_fuel_verdicts_do_not_depend_on_call_history():
    gen.fuel_history_property(CASES)()


def test_mode_monotonicity():
    pool = gen.build_proof_pool()
    assert len(pool) > 15
    gen.monotonicity_property(CASES, pool)()


def test_subst_composition():
    gen.subst_composition_property(CASES)()


def test_subst_agrees_with_substituting_after_renaming_apart():
    gen.subst_capture_property(CASES)()


def test_sequent_eq_shuffle_invariant():
    gen.sequent_eq_property(CASES)()


def test_formula_eq_agrees_with_the_reference():
    gen.formula_eq_property(CASES)()


def test_corpus_files_round_trip_through_print():
    # The whole bundled corpus survives print-then-parse.
    from silkcheck import corpus_path, load_schema, load_script, load_theory
    from silkcheck.parser import parse_schema, parse_script, parse_theory
    from silkcheck.printer import print_schema, print_script, print_theory

    for name in ("theory_shat.thy", "theory_exp.thy", "theory_wedge.thy"):
        theory = load_theory(corpus_path(name))
        again = parse_theory(print_theory(theory))
        assert [(r.lhs, r.rhs) for r in theory.rules] == [(r.lhs, r.rhs) for r in again.rules]
    for name in ("schema_shat.sch", "schema_exp.sch"):
        schema, _ = load_schema(corpus_path(name))
        again, _ = parse_schema(print_schema(schema))
        assert [c.name for c in schema.components] == [c.name for c in again.components]
    for name in ("silk_exp.slk", "silk_interleaved.slk"):
        script = load_script(corpus_path(name))
        again, _ = parse_script(print_script(script))
        assert len(script.steps) == len(again.steps)


def test_single_mutations_flip_the_verdict():
    gen.mutation_fuzz_property(CASES)()


def test_the_fold_agrees_with_the_loops_it_replaced():
    gen.fold_oracle_property(CASES)()


def test_subst_on_its_schedule_gives_the_reference_node():
    gen.subst_schedule_property(CASES)()


def test_quantifier_rules_give_the_named_verdict():
    gen.quantifier_rule_property(CASES)()


def test_the_kernel_checks_each_inference_as_the_oracle_does():
    # One inference is cheap to check, so this draws more of them.
    gen.kernel_oracle_property(2 * CASES)()


def test_the_kernel_checks_corpus_mutants_as_the_oracle_does():
    gen.kernel_corpus_oracle_property(CASES)()


def test_normalize_agrees_with_the_rewrite_step_it_replaced():
    gen.reference_normalize_property(2 * CASES)()


def test_normalize_looks_up_what_taking_each_head_step_again_gives():
    gen.normal_lookup_property(2 * CASES)()


def test_open_body_and_bind_agree_with_the_reference_substitution():
    gen.binder_property(CASES)()
