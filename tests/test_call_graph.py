"""No recursion in the package sources, read with the standard library's
``ast``: in each module, no module-level function reaches itself through
calls by name, so no input can nest deep enough to exhaust Python's stack."""

import ast
from pathlib import Path

import silkcheck
from silkcheck.parser import MAX_BINDER_DEPTH

SOURCES = sorted(Path(silkcheck.__file__).parent.glob("*.py"))

# Substitution recurses once per nested binder, which the parser caps at
# MAX_BINDER_DEPTH.
ALLOWED = {("syntax", "_subst"): MAX_BINDER_DEPTH, ("syntax", "_subst_binder"): MAX_BINDER_DEPTH}


def _call_graph(tree) -> dict:
    """Module-level function -> the module-level functions it calls by name."""
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    return {
        name: {
            call.func.id
            for call in ast.walk(fn)
            if isinstance(call, ast.Call) and isinstance(call.func, ast.Name) and call.func.id in functions
        }
        for name, fn in functions.items()
    }


def _on_cycles(graph: dict) -> set:
    """The functions from which some call path leads back to themselves."""
    found = set()
    for start in graph:
        seen, todo = set(), list(graph[start])
        while todo:
            name = todo.pop()
            if name == start:
                found.add(start)
                break
            if name not in seen:
                seen.add(name)
                todo.extend(graph[name])
    return found


def test_no_module_level_function_lies_on_a_call_cycle():
    cycles = set()
    for path in SOURCES:
        graph = _call_graph(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        cycles |= {(path.stem, name) for name in _on_cycles(graph)}
    assert cycles == set(ALLOWED)


def test_the_call_graph_sees_mutual_recursion():
    tree = ast.parse("def a(n):\n    return b(n)\n\ndef b(n):\n    return a(n) if n else 0\n\ndef c():\n    return a(1)\n")
    assert _on_cycles(_call_graph(tree)) == {"a", "b"}
