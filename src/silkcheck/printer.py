"""Writers for every file format, inverse to the parsers, plus the indented
tree display the CLI uses for unrolled proofs."""

from __future__ import annotations

from .kernel import Proof, RuleData
from .parser import SiLKScript, SiLKStep
from .rewrite import EquationalTheory
from .schema import ProofSchema
from .syntax import Formula, render


def print_theory(theory: EquationalTheory) -> str:
    lines = []
    for rule in theory.rules:
        marker = "pred " if isinstance(rule.lhs, Formula) else ""
        lines.append(f"{marker}{rule.lhs} == {rule.rhs};")
    return "\n".join(lines) + "\n"


def _data_fields(data: RuleData) -> str:
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
        head = f'{pad}{node.rule} "{node.conclusion}"'
        fields = _data_fields(node.data)
        if fields:
            head += " " + fields
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
