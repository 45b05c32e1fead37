"""Count the code lines of the package: lines that hold a token other than
a comment, a line break or indentation, less the docstrings of modules,
classes and functions.  The generated ``_case_fields.py`` is left out.
Prints the count per module, largest first, and the total:

    python tests/code_lines.py
"""

from __future__ import annotations

import ast
import io
import pathlib
import sys
import tokenize

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "vemaxwell"
GENERATED = "_case_fields.py"
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """Number of code lines in ``source``."""
    lines = {line for token in tokenize.generate_tokens(io.StringIO(source).readline)
             if token.type not in NOT_CODE
             for line in range(token.start[0], token.end[0] + 1)}
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)) and node.body
                and isinstance(node.body[0], ast.Expr)
                and isinstance(node.body[0].value, ast.Constant)
                and isinstance(node.body[0].value.value, str)):
            lines -= set(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return len(lines)


def main() -> int:
    counts = {path.stem: code_lines(path.read_text(encoding="utf-8"))
              for path in sorted(PACKAGE.glob("*.py")) if path.name != GENERATED}
    for name, n in sorted(counts.items(), key=lambda item: -item[1]):
        print(f"{name} {n}")
    print(f"total {sum(counts.values())}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
