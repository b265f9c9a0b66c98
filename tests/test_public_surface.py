"""Every public top-level function and class of ``belldist`` has a use.

A name counts as used when it is referenced (as a ``Name``, an ``Attribute``
or an import alias) in a ``src/belldist`` module other than ``__init__.py``,
in a ``bench/*.py`` script or in ``tests/test_acceptance.py``.  The one other
way to stay is an entry in ``WAITING``, naming the open ROADMAP item that
builds on it.  A name that only its own unit tests reach is deleted with them.

Methods are not covered: their names (``to_json``, ``mean``, ...) collide
across classes and with numpy's, so a reference cannot be told apart.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

WAITING = {
    "init_q": "ROADMAP item 8",
    "snapshot_errors": "ROADMAP item 8",
    "gumbel_shift_scale": "ROADMAP item 8",
    "log_likelihood": "ROADMAP item 12",
}


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _referenced(tree: ast.AST) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
    return names


def test_every_public_name_has_a_use():
    modules = {p: _parse(p) for p in sorted((ROOT / "src" / "belldist").glob("*.py"))
               if p.name != "__init__.py"}
    users = [*modules.values(), *map(_parse, sorted((ROOT / "bench").glob("*.py"))),
             _parse(ROOT / "tests" / "test_acceptance.py")]
    used = set().union(*map(_referenced, users))
    public = {node.name: path.stem for path, tree in modules.items() for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
              and not node.name.startswith("_")}
    unused = sorted(f"{module}.{name}" for name, module in public.items()
                    if name not in used and name not in WAITING)
    assert unused == [], f"public names with no use outside their own tests: {unused}"
    # an entry whose name gained a use, or went away, leaves the list
    assert sorted(WAITING) == sorted(n for n in WAITING if n in public and n not in used)
