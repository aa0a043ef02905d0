"""Properties of the library source itself."""

import ast

from helpers import REPO_ROOT


def test_no_assert_statements_in_library():
    # python -O strips assert statements; runtime invariants must raise
    offenders = []
    for path in sorted((REPO_ROOT / "src" / "relrep").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        offenders += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                      if isinstance(node, ast.Assert)]
    assert offenders == []
