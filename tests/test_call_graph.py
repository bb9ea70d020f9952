"""No recursion in the package sources, read with the standard library's
``ast``: in each module, no module-level function or method reaches itself
through the functions and methods it calls or hands on, so no input can nest
deep enough to exhaust Python's stack.  A module-level function is reached by
its name, a method by any attribute of its name; a function handed on, as a
fold's combine is, counts as called."""

import ast
import builtins
from pathlib import Path

import silkcheck
from silkcheck.parser import MAX_BINDER_DEPTH

SOURCES = sorted(Path(silkcheck.__file__).parent.glob("*.py"))

# Substitution folds a binder's body under the inner substitution from
# inside its combine, once per nested binder, which the parser caps at
# MAX_BINDER_DEPTH.
ALLOWED = {("syntax", "Substitution._combine"): MAX_BINDER_DEPTH}


def _call_graph(tree) -> dict:
    """Module-level function or method (``Class.name``) -> the ones it
    names."""
    functions = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            functions[node.name] = node
        elif isinstance(node, ast.ClassDef):
            functions |= {f"{node.name}.{m.name}": m for m in node.body if isinstance(m, ast.FunctionDef)}
    methods: dict = {}
    for name in functions:
        if "." in name:
            methods.setdefault(name.split(".")[1], set()).add(name)

    def named(ref) -> set:
        if isinstance(ref, ast.Name) and ref.id in functions:
            return {ref.id}
        if isinstance(ref, ast.Attribute) and not _is_builtin(ref.value):
            return methods.get(ref.attr, set())
        return set()

    return {name: set().union(*map(named, ast.walk(fn))) for name, fn in functions.items()}


def _is_builtin(node) -> bool:
    # super().name and Exception.name are methods of a built-in base class,
    # not of one defined in the module.
    if isinstance(node, ast.Call):
        node = node.func
    return isinstance(node, ast.Name) and hasattr(builtins, node.id)


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


def test_the_call_graph_sees_recursion_through_a_handed_on_method():
    tree = ast.parse(
        "def fold(x, combine):\n    return combine(x)\n\n"
        "class S:\n    def step(self, x):\n        return fold(x.body, self.step) if x else 0\n"
    )
    assert _on_cycles(_call_graph(tree)) == {"S.step"}
