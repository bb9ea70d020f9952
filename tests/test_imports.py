"""Import hygiene of the package sources, read with the standard library's
``ast``: every module-level import is used, no function imports anything,
nothing imports ``dataclasses``, ``syntax`` imports no module of the
package and the rest of the trusted base only what lies below it; and what
importing the CLI loads."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import silkcheck

SOURCES = sorted(Path(silkcheck.__file__).parent.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def _bound(node) -> list:
    return [(alias.asname or alias.name).split(".")[0] for alias in node.names]


def _exported(tree) -> set:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return {elt.value for elt in node.value.elts}
    return set()


def test_every_module_level_import_is_used():
    unused = []
    for path in SOURCES:
        tree = _tree(path)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | _exported(tree)
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                unused += [f"{path.stem}: {name}" for name in _bound(node) if name not in used]
    assert unused == []


def test_no_import_inside_a_function():
    local = []
    for path in SOURCES:
        for fn in ast.walk(_tree(path)):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(fn):
                    if isinstance(node, (ast.Import, ast.ImportFrom)):
                        local.append((path.stem, fn.name, getattr(node, "module", None), tuple(_bound(node))))
    assert local == []


def _package_imports(stem: str) -> set:
    """The modules of the package that module ``stem`` imports, named
    without the package prefix; ``from . import x`` and ``from silkcheck
    import x`` count as importing x, and the package itself is ``silkcheck``."""
    found = set()
    for node in ast.walk(_tree(Path(silkcheck.__file__).parent / f"{stem}.py")):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["silkcheck" if node.level else "", node.module or ""]))
            modules = [f"{module}.{alias.name}" for alias in node.names] if module == "silkcheck" else [module]
        else:
            continue
        found |= {m.removeprefix("silkcheck.") for m in modules if m.split(".")[0] == "silkcheck"}
    return found


def test_syntax_imports_no_module_of_the_package():
    # Every node renders itself through syntax.render, so the writer lives
    # where the nodes do: syntax sits below every other module.
    assert _package_imports("syntax") == set()


@pytest.mark.parametrize("stem, below", [("rewrite", {"syntax"}), ("kernel", {"syntax", "rewrite"})])
def test_trusted_base_imports_only_the_modules_below_it(stem, below):
    # The trusted base is syntax, rewrite and kernel: a kernel verdict reads
    # no other module, so report text, numeral canon and proof bridging
    # live with their users.
    assert _package_imports(stem) <= below


# Start-up: importing the CLI generates no code, so the modules that code
# generation needs stay unloaded.
NOT_AT_START_UP = ("dataclasses", "inspect")


def _imports(path: Path, top: str) -> list:
    """The modules under ``top`` that the source at ``path`` imports."""
    found = []
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names if alias.name.split(".")[0] == top]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == top:
            found.append(node.module)
    return found


def test_no_module_imports_dataclasses():
    assert [(path.stem, module) for path in SOURCES for module in _imports(path, "dataclasses")] == []


def test_the_kernel_imports_no_enum():
    # Every read and hash of an Enum member runs Python code on 3.10 and
    # 3.11, which the kernel would pay at every inference it checks.
    assert _imports(Path(silkcheck.__file__).parent / "kernel.py", "enum") == []


def test_importing_the_cli_loads_no_code_generation():
    src = str(Path(silkcheck.__file__).parent.parent)
    probe = (
        f"import sys; sys.path.insert(0, {src!r}); import silkcheck.cli; "
        f"print(sorted(set({NOT_AT_START_UP!r}) & set(sys.modules)))"
    )
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=60, check=True)
    assert done.stdout.strip() == "[]"


# The lines of the trusted base, syntax, rewrite and kernel: a ratchet that
# moves down as the base shrinks and up only on purpose.
TRUSTED_BASE_LINES = 1578


def test_the_trusted_base_keeps_its_line_count():
    paths = [Path(silkcheck.__file__).parent / f"{stem}.py" for stem in ("syntax", "rewrite", "kernel")]
    lines = sum(len(path.read_text(encoding="utf-8").splitlines()) for path in paths)
    assert lines == TRUSTED_BASE_LINES, (
        f"the trusted base has {lines} lines, not {TRUSTED_BASE_LINES}: lower the bound when it shrinks; "
        "raise it only on purpose, and say so in CHANGES.md"
    )
