"""Properties of the library source itself."""

import ast
import dataclasses

import relrep
from helpers import REPO_ROOT


def test_no_assert_statements_in_library():
    # python -O strips assert statements; runtime invariants must raise
    offenders = []
    for path in sorted((REPO_ROOT / "src" / "relrep").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        offenders += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                      if isinstance(node, ast.Assert)]
    assert offenders == []


def test_no_clock_imports_in_library():
    # output may depend only on inputs and seeds, never on a wall clock
    clocks = {"time", "datetime"}
    offenders = []
    for path in sorted((REPO_ROOT / "src" / "relrep").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            offenders += [f"{path.name}:{node.lineno} {name}" for name in names
                          if name.split(".")[0] in clocks]
    assert offenders == []


def test_no_unused_top_level_imports_in_library():
    offenders = []
    for path in sorted((REPO_ROOT / "src" / "relrep").glob("*.py")):
        if path.name == "__init__.py":  # re-exports the public API
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {}
        for node in tree.body:
            if isinstance(node, ast.Import):
                imported.update({(a.asname or a.name.split(".")[0]): node.lineno
                                 for a in node.names})
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update({(a.asname or a.name): node.lineno for a in node.names})
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        offenders += [f"{path.name}:{line} {name}" for name, line in imported.items()
                      if name not in used]
    assert offenders == []


def _print_callers(node, owner):
    for child in ast.iter_child_nodes(node):
        if (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                and child.func.id == "print"):
            yield owner
        named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        yield from _print_callers(child, f"{owner}.{child.name}" if named else owner)


def test_only_cli_main_prints():
    # stdout carries the payload alone, so diagnostics and traces must not print
    callers = set()
    for path in sorted((REPO_ROOT / "src" / "relrep").glob("*.py")):
        callers.update(_print_callers(ast.parse(path.read_text()), path.stem))
    assert callers == {"cli.main"}


def test_public_dataclasses_are_frozen():
    # values are immutable once built; the one exception is the report that a
    # verifier fills in before returning it
    classes = [getattr(relrep, name) for name in relrep.__all__]
    mutable = {cls.__name__ for cls in classes
               if isinstance(cls, type) and dataclasses.is_dataclass(cls)
               and not cls.__dataclass_params__.frozen}
    assert mutable == {"VerificationReport"}
