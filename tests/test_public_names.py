"""Every public function and class of ``icelab`` has a reader outside the tests.

A reader is code in ``src/``, ``scripts/`` or ``perfbench/`` that uses the
name, found in the syntax tree (a docstring or a comment is not code).  Names
are resolved through module aliases and ``from`` imports, so a local name
that merely matches (``step`` is also an argument and a loop variable in
``correlation``) reads nothing.  A public name that only tests read must be the oracle of a
shipped route, listed in ``ORACLES``.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "icelab"
READER_DIRS = (SRC, ROOT / "scripts", ROOT / "perfbench")

#: Public names that only tests read, each mapped to the shipped route it checks.
ORACLES = {
    # One rotated copy of W_n, as concat_stage writes each copy of W_{n+1}.
    "words.rotate": "words.tower",
    # W_N[x] = W_0[project(x, 0)]: one point's letter through the arithmetic route.
    "dynamics.project": "words.tower",
    # The per-level jump flags of one step; its regular index is a row of jumps.csv.
    "dynamics.step": "dynamics.regular_indices",
    # Every jump of one level from whole coordinate arrays (build --jump-trace).
    "dynamics.jump_positions": "dynamics.regular_indices",
    # Every (cut window, level window) pair of a small iceberg (rank).
    "rank.brute_force_rectangle": "rank.best_subtower_rectangle",
}


def _public_definitions() -> set[str]:
    """``module.name`` of every public top-level function and class of the package."""
    found = set()
    for path in SRC.glob("*.py"):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                found.add(f"{path.stem}.{node.name}")
    return found


def _exports() -> dict[str, str]:
    """Each name the package re-exports, mapped to its defining module."""
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    return {a.asname or a.name: node.module for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for a in node.names}


def _package_member(name: str, exports: dict[str, str]) -> tuple[str, str] | None:
    """``icelab.<name>``: a submodule, a re-exported name, or neither."""
    if (SRC / f"{name}.py").exists():
        return ("module", name)
    return ("name", f"{exports[name]}.{name}") if name in exports else None


def _bindings(tree: ast.Module, exports: dict[str, str]) -> dict[str, tuple[str, str]]:
    """Local names that the file's imports bind to the package, a module or a name."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name == "icelab" or (a.name.startswith("icelab.") and not a.asname):
                    bound[a.asname or "icelab"] = ("package", "")
                elif a.name.startswith("icelab."):
                    bound[a.asname] = ("module", a.name.split(".")[1])
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and module.startswith("icelab."):
                module = module.split(".")[1]
            elif (node.level, module) in ((0, "icelab"), (1, "")):
                module = None  # the package itself
            elif node.level == 0:
                continue
            for a in node.names:
                target = (_package_member(a.name, exports) if module is None
                          else ("name", f"{module}.{a.name}"))
                if target:
                    bound[a.asname or a.name] = target
    return bound


def _local_names(func: ast.AST) -> set[str]:
    """Names a function or lambda binds itself: arguments and assignment targets."""
    args = func.args
    names = {a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                             args.vararg, args.kwarg) if a}
    if not isinstance(func, ast.Lambda):
        names |= {n.id for n in ast.walk(func)
                  if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
    return names


def _references(path: Path, exports: dict[str, str], defined: set[str]) -> set[str]:
    """``module.name`` of every package name the code of ``path`` reads, outside
    the name's own definition."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    own = path.stem if path.parent == SRC else None
    bound = _bindings(tree, exports)
    found = set()

    def resolve(node: ast.AST, shadowed: frozenset) -> tuple[str, str] | None:
        if isinstance(node, ast.Name):
            if node.id in shadowed:
                return None
            if node.id in bound:
                return bound[node.id]
            return ("name", f"{own}.{node.id}") if f"{own}.{node.id}" in defined else None
        if isinstance(node, ast.Attribute):
            base = resolve(node.value, shadowed)
            if base and base[0] == "package":
                return _package_member(node.attr, exports)
            if base and base[0] == "module":
                return ("name", f"{base[1]}.{node.attr}")
        return None

    def visit(node: ast.AST, shadowed: frozenset, inside: str | None) -> None:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            shadowed = shadowed | _local_names(node)
        if isinstance(node, (ast.Name, ast.Attribute)):
            target = resolve(node, shadowed)
            if target and target[0] == "name" and target[1] != inside:
                found.add(target[1])
        for child in ast.iter_child_nodes(node):
            visit(child, shadowed, inside)

    for node in tree.body:
        is_def = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        visit(node, frozenset(), f"{own}.{node.name}" if is_def and own else None)
    return found


def _readers() -> set[str]:
    exports, defined = _exports(), _public_definitions()
    return set().union(*(_references(path, exports, defined)
                         for folder in READER_DIRS for path in folder.glob("*.py")
                         if path != SRC / "__init__.py"))


def test_every_public_name_has_a_reader_or_is_an_oracle():
    unread = _public_definitions() - _readers()
    assert sorted(unread - ORACLES.keys()) == []


def test_each_oracle_has_no_reader_and_checks_a_route_that_has_one():
    defined, read = _public_definitions(), _readers()
    assert sorted(set(ORACLES) - defined) == []
    assert sorted(set(ORACLES) & read) == []
    assert sorted(set(ORACLES.values()) - read) == []


def test_a_matching_local_name_is_not_a_reader(tmp_path):
    # An argument named ``step`` shadows the imported dynamics.step; the
    # attribute of a module alias reads it.
    path = tmp_path / "reader.py"
    path.write_text("from icelab.dynamics import step\n"
                    "def f(step):\n    return step(1)\n", encoding="utf-8")
    assert _references(path, _exports(), _public_definitions()) == set()
    path.write_text("from icelab import dynamics as dyn\n"
                    "g = lambda step: dyn.step(step)\n", encoding="utf-8")
    assert _references(path, _exports(), _public_definitions()) == {"dynamics.step"}
