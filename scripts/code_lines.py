#!/usr/bin/env python3
"""Count the code lines of each module of a package: the lines that are not
blank, not comments and not inside a docstring (ranges from the AST).

Usage: python scripts/code_lines.py [package_dir, default src/wolffkit]
"""

import ast
import sys
from pathlib import Path


def code_lines(source: str) -> int:
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        body = getattr(node, "body", None)
        if isinstance(body, list) and body and isinstance(body[0], ast.Expr):
            doc = body[0].value
            if isinstance(doc, ast.Constant) and isinstance(doc.value, str):
                docstrings.update(range(doc.lineno, doc.end_lineno + 1))
    lines = enumerate(source.splitlines(), 1)
    return sum(1 for i, line in lines if line.strip()[:1] not in ("", "#") and i not in docstrings)


def main():
    default = Path(__file__).resolve().parents[1] / "src" / "wolffkit"
    root = Path(sys.argv[1]) if len(sys.argv) > 1 else default
    total = 0
    for path in sorted(root.glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{path.name:20s} {count:6d}")
    print(f"{'total':20s} {total:6d}")


if __name__ == "__main__":
    main()
