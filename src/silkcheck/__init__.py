"""Trusted kernel and tooling for schematic sequent-calculus proofs with
induction: checking, unrolling, normal forms, and translation."""

from importlib import resources
from pathlib import Path

from .kernel import CheckReport, LinkPattern, Proof, RuleData, RuleName, check_proof, count_inferences
from .parser import ParseError, SiLKScript, SiLKStep, load_proof, load_schema, load_script, load_theory
from .rewrite import EquationalTheory, RewriteRule, equivalent, eval_numeric, normalize, validate_theory
from .schema import ProofSchema, SchemaComponent, check_schema, evaluate, evaluate_and_check, is_subterm
from .silk import ComponentCollection, apply_step, check_script, leading_group
from .syntax import Sequent, free_params, free_vars, sequent_eq, subst
from .translate import interpret, silk_to_schema, to_ppsnf


def corpus_path(name: str) -> Path:
    """Bundled example file by name."""
    return Path(str(resources.files(__package__).joinpath("corpus", name)))


__all__ = [
    "CheckReport",
    "ComponentCollection",
    "EquationalTheory",
    "LinkPattern",
    "ParseError",
    "Proof",
    "ProofSchema",
    "RewriteRule",
    "RuleData",
    "RuleName",
    "SchemaComponent",
    "Sequent",
    "SiLKScript",
    "SiLKStep",
    "apply_step",
    "check_proof",
    "check_schema",
    "check_script",
    "corpus_path",
    "count_inferences",
    "equivalent",
    "eval_numeric",
    "evaluate",
    "evaluate_and_check",
    "free_params",
    "free_vars",
    "interpret",
    "is_subterm",
    "leading_group",
    "load_proof",
    "load_schema",
    "load_script",
    "load_theory",
    "normalize",
    "sequent_eq",
    "silk_to_schema",
    "subst",
    "to_ppsnf",
    "validate_theory",
]
