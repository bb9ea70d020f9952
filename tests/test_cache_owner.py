"""One owner for fuel accounting, read with the standard library's ``ast``:
only ``rewrite.py`` writes an equational theory's normal forms
(``_nf_cache``) and their spans (``_spans``), so every cached normal form
comes with the span that decides its fuel verdict.  Other modules may read
them.  A write is an assignment, augmented assignment or deletion whose
target is one of them, an item of one, or a name bound to one, or a call of
a method that changes a dict."""

import ast
from pathlib import Path

import silkcheck

SOURCES = sorted(Path(silkcheck.__file__).parent.glob("*.py"))
OWNED = frozenset({"_nf_cache", "_spans"})
OWNER = "rewrite"
CHANGERS = frozenset({"clear", "pop", "popitem", "setdefault", "update", "__setitem__", "__delitem__"})


def _writes(tree) -> list:
    """The line of every write to an owned cache in tree."""

    def owned(node) -> bool:
        return any(isinstance(n, ast.Attribute) and n.attr in OWNED for n in ast.walk(node))

    aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and owned(node.value):
            aliases |= {n.id for t in node.targets for n in ast.walk(t) if isinstance(n, ast.Name)}

    def base(node):
        while isinstance(node, (ast.Subscript, ast.Starred)):
            node = node.value
        return node

    def touches(node) -> bool:
        node = base(node)
        if isinstance(node, ast.Name):
            return node.id in aliases
        return isinstance(node, ast.Attribute) and node.attr in OWNED

    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = [n for t in node.targets for n in ast.walk(t) if isinstance(n, (ast.Attribute, ast.Subscript))]
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif isinstance(node, ast.Delete):
            targets = node.targets
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr in CHANGERS:
            targets = [node.func.value]
        else:
            continue
        if any(touches(t) for t in targets):
            lines.append(node.lineno)
    return lines


def test_only_rewrite_writes_normal_forms_and_spans():
    writers = {path.stem for path in SOURCES if _writes(ast.parse(path.read_text(encoding="utf-8"), str(path)))}
    assert writers == {OWNER}


def test_the_check_sees_writes_and_allows_reads():
    tree = ast.parse(
        "def read(theory, x):\n    cache = theory._nf_cache\n    return cache[x] if x in cache else theory._spans.get(x)\n"
    )
    assert _writes(tree) == []
    for body in (
        "theory._nf_cache[x] = x",
        "theory._spans = {}",
        "theory._spans[x] += 1",
        "del theory._nf_cache[x]",
        "theory._nf_cache.update(done)",
        "cache, spans = theory._nf_cache, theory._spans\n    spans[x] = 1",
        "cache = theory._nf_cache\n    cache.setdefault(x, x)",
    ):
        assert _writes(ast.parse(f"def write(theory, x, done):\n    {body}\n")), body
