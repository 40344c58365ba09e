import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "translab"


def test_no_assert_in_package():
    # assert vanishes under python -O, so it cannot carry a runtime contract
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []
