"""Writers for every file format, inverse to the parsers, plus the indented
tree display the CLI uses for unrolled proofs and the text and --json forms
of check reports."""

from __future__ import annotations

from .kernel import CheckReport, Failure, Proof, RuleData
from .parser import SiLKScript, SiLKStep
from .rewrite import EquationalTheory
from .schema import ProofSchema
from .syntax import Formula


def print_theory(theory: EquationalTheory) -> str:
    lines = []
    for rule in theory.rules:
        marker = "pred " if isinstance(rule.lhs, Formula) else ""
        lines.append(f"{marker}{rule.lhs} == {rule.rhs};")
    return "\n".join(lines) + "\n"


# The witness keys in the order both file writers give them.
WITNESS_KEYS = (
    "group", "pair", "pair2", "a", "b", "formula", "term", "eigen", "at", "path", "to", "whole",
    "ann", "pattern", "vars", "target", "param", "g", "f", "terms",
)
_QUOTED = frozenset({"formula", "term", "to", "ann", "pattern", "param", "g", "f"})
_DATA_FIELD = {"at": "side", "to": "repl"}


def _witness(data: RuleData, step: SiLKStep | None = None) -> list:
    """The `key=value` texts of a rule block's witness, or of a script
    step's, in WITNESS_KEYS order.  As the reader has it, a key is the
    step's field of that name, else the rule data's.  Fields left at their
    defaults are not written, but a step writes the vars of its pattern and
    the terms of a cycle or call even when they are empty."""
    parts = []
    for key in WITNESS_KEYS:
        if step is not None and key in SiLKStep._names:
            value = getattr(step, key)
        else:
            value = getattr(data, _DATA_FIELD.get(key, key), None)
        if step is not None and key in ("vars", "terms"):
            if step.pattern is not None if key == "vars" else step.rule in ("cycle", "call"):
                parts.append(f"{key} (" + ", ".join(map(str, value)) + ")")
        elif value is None or value is False or value == ():
            continue
        elif key == "whole":
            parts.append(key)
        elif key == "at":
            parts.append(f"at={value}.{data.idx}")
        elif key == "path":
            parts.append("path=" + ".".join(map(str, value)))
        elif key == "terms":
            parts.append("terms=(" + ", ".join(map(str, value)) + ")")
        elif key in _QUOTED:
            parts.append(f'{key}="{value.text if key == "to" and step is not None else value}"')
        else:
            parts.append(f"{key}={value}")
    return parts


def print_proof(proof: Proof, indent: int = 0) -> str:
    """Nested rule blocks; parses back to the same tree."""
    lines = []
    stack: list = [(proof, indent)]  # nodes to print and closing braces
    while stack:
        node, depth = stack.pop()
        pad = "  " * depth
        if isinstance(node, str):
            lines.append(pad + node)
            continue
        head = " ".join([f'{pad}{node.rule} "{node.conclusion}"'] + _witness(node.data))
        if node.premises:
            head += " {"
            stack.append(("}", depth))
            stack.extend((p, depth + 1) for p in reversed(node.premises))
        lines.append(head)
    return "\n".join(lines)


def print_proof_tree(proof: Proof) -> str:
    """Human display: one line per inference, premises indented."""
    lines = []
    stack = [(proof, 0)]
    while stack:
        node, depth = stack.pop()
        lines.append(f"{'  ' * depth}{node.rule}  {node.conclusion}")
        for p in reversed(node.premises):
            stack.append((p, depth + 1))
    return "\n".join(lines)


def print_schema(schema: ProofSchema, theory_path: str | None = None) -> str:
    chunks = []
    if theory_path:
        chunks.append(f'theory "{theory_path}"\n')
    for comp in schema.components:
        head = f'component {comp.name}\n  pattern "{comp.pattern}"\n  vars ({", ".join(comp.vars)})'
        if comp.step_param is not None:
            head += f'\n  step-param "{comp.step_param}"'
        body = "  base {\n" + print_proof(comp.base, 2) + "\n  }"
        if comp.step is not None:
            body += "\n  step {\n" + print_proof(comp.step, 2) + "\n  }"
        chunks.append(f"{head}\n{{\n{body}\n}}")
    return "\n\n".join(chunks) + "\n"


def _step_text(step: SiLKStep) -> str:
    head = step.rule
    if step.rule.startswith("rho_"):
        head = f"rho {step.rule[4:]} {2 if step.pair2 is not None else 1} {step.lk_rule}"
    sequent = [] if step.sequent is None else [f'"{step.sequent}"']
    return " ".join([head] + sequent + _witness(step.data, step))


def print_script(script: SiLKScript, theory_path: str | None = None) -> str:
    lines = []
    if theory_path:
        lines.append(f'theory "{theory_path}"')
        lines.append("")
    lines.extend(_step_text(s) for s in script.steps)
    return "\n".join(lines) + "\n"


def stats_table(rows: list) -> str:
    """Rows of (alpha, expanded counts, normal-form counts) as a table."""
    rules = sorted({r for _, ec, _ in rows for r in ec})
    header = ["alpha", "total", "total(lk)"] + rules
    widths = [max(len(h), 6) for h in header]
    out = ["  ".join(h.rjust(w) for h, w in zip(header, widths))]
    for alpha, expanded, lk in rows:
        cells = [str(alpha), str(sum(expanded.values())), str(sum(lk.values()))]
        cells += [str(expanded.get(r, 0)) for r in rules]
        out.append("  ".join(c.rjust(w) for c, w in zip(cells, widths)))
    return "\n".join(out)


# ---------------------------------------------------------------------------
# Check reports


def status(report: CheckReport) -> str:
    return "accepted" if report.accepted else "rejected"


def where(failure: Failure) -> str:
    """A failure's path: its premise indices from the root, dotted, or root."""
    return ".".join(str(i) for i in failure.path) if failure.path else "root"


def report_text(report: CheckReport) -> str:
    """The status, then one indented line per failure."""
    return "\n".join([status(report)] + [f"  [{where(f)}] {f.rule}: {f.message}" for f in report.failures])


def report_dict(report: CheckReport) -> dict:
    """The report as --json writes it."""
    return {
        "format_version": 1,
        "status": status(report),
        "failures": [{"path": where(f), "rule": f.rule, "message": f.message} for f in report.failures],
        "counts": dict(sorted(report.counts.items())),
        "params": report.params,
    }
