"""Count the code lines of each module under src/ssmean.

    python tools/codelines.py

prints one line per module, ``<code lines> <docstring lines> <lines> <path>``,
and the totals. A code line is a non-blank line that holds a token other
than a comment or a docstring (the first statement of a module, class or
function body, when it is a string); a docstring line is a line that a
docstring spans. Lines are counted as ``wc -l`` counts them, by newlines.
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


def line_counts(text: str) -> tuple:
    """The number of code lines of text and the number of lines its docstrings span."""
    docstrings = docstring_starts(ast.parse(text))
    code, doc = set(), set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _NOT_CODE:
            lines = doc if tok.type == tokenize.STRING and tok.start in docstrings else code
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(code), len(doc)


def main() -> None:
    totals = [0, 0, 0]
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        counts = (*line_counts(text), text.count("\n"))
        totals = [t + c for t, c in zip(totals, counts)]
        print(*(f"{c:6d}" for c in counts), path.relative_to(SRC.parents[1]))
    print(*(f"{t:6d}" for t in totals), "total")


if __name__ == "__main__":
    main()
