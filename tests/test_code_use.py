"""Every function, method and class of the package has a caller in the
program: ``src/``, ``perfbench/`` or ``scripts/``, outside its own body.

A name counts as used where code reads it, as a bare name or an
attribute; imports and ``__all__`` strings do not count.  Names are
matched by spelling, so one use of ``to_dict`` covers every class that
defines it.  That is why the names defined more than once are listed: a
new one fails here until each of its definitions is checked by hand for
a caller of its own and the name is added.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PROGRAM_DIRS = ("src", "perfbench", "scripts")

# definitions that only tests call, each with the reason it stays
TEST_ONLY = {
    "sa_search": "acceptance 6 anneals single chains through it, the one-chain form of sa_chains",
    "mixed_utility": "acceptance 1 checks the closed-form best-response value against this payoff",
}

# names defined more than once in the package; every definition of each was checked by
# hand to have a caller of its own
DEFINED_MORE_THAN_ONCE = {"to_dict", "from_dict", "save", "load", "add", "states", "policy"}


def _definitions(root: Path) -> dict[str, list[tuple[Path, int, int]]]:
    """Non-dunder function, method and class names of the package, with the
    file and line span of each definition."""
    spans: dict[str, list[tuple[Path, int, int]]] = {}
    for path in sorted((root / "src" / "levelkgp").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    spans.setdefault(node.name, []).append((path, node.lineno, node.end_lineno))
    return spans


def _uses(root: Path) -> dict[str, list[tuple[Path, int]]]:
    uses: dict[str, list[tuple[Path, int]]] = {}
    for top in PROGRAM_DIRS:
        for path in sorted((root / top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    uses.setdefault(node.id, []).append((path, node.lineno))
                elif isinstance(node, ast.Attribute):
                    uses.setdefault(node.attr, []).append((path, node.lineno))
    return uses


def _unused(root: Path) -> set[str]:
    uses = _uses(root)
    unused = set()
    for name, spans in _definitions(root).items():
        outside = [
            (path, line)
            for path, line in uses.get(name, [])
            if not any(path == p and lo <= line <= hi for p, lo, hi in spans)
        ]
        if not outside:
            unused.add(name)
    return unused


def test_every_definition_has_a_caller_in_the_program():
    assert sorted(_unused(ROOT)) == sorted(TEST_ONLY)


def test_names_defined_more_than_once_are_listed():
    repeated = {name for name, spans in _definitions(ROOT).items() if len(spans) > 1}
    assert repeated == DEFINED_MORE_THAN_ONCE


def test_a_definition_without_a_caller_is_found(tmp_path):
    package = tmp_path / "src" / "levelkgp"
    package.mkdir(parents=True)
    (package / "mod.py").write_text(
        "def used():\n    return 1\n\n\n"
        "def recursive(n):\n    return recursive(n - 1)\n\n\n"
        "def orphan():\n    return used()\n"
    )
    assert _unused(tmp_path) == {"recursive", "orphan"}
