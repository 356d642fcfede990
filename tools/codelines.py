"""Count the code lines of each module under src/ssmean.

    python tools/codelines.py

prints one line per module, ``<code lines> <lines> <path>``, and the totals.
A code line is a non-blank line that holds a token other than a comment or
a docstring (the first statement of a module, class or function body, when
it is a string); lines are counted as ``wc -l`` counts them, by newlines.
"""
from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "ssmean"
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
             tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_starts(tree: ast.AST) -> set:
    """The (line, column) where each docstring of the tree starts."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                starts.add((first.value.lineno, first.value.col_offset))
    return starts


def code_lines(text: str) -> int:
    """The number of lines of text that hold a token other than a comment or a docstring."""
    docstrings = docstring_starts(ast.parse(text))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type in _NOT_CODE or (tok.type == tokenize.STRING and tok.start in docstrings):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main() -> None:
    total_code = total_lines = 0
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        code, lines = code_lines(text), text.count("\n")
        total_code, total_lines = total_code + code, total_lines + lines
        print(f"{code:6d} {lines:6d} {path.relative_to(SRC.parents[1])}")
    print(f"{total_code:6d} {total_lines:6d} total")


if __name__ == "__main__":
    main()
