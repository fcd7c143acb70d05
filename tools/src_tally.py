"""Print the lines of ``src/oia`` as total, code, docstring, comment and blank.

Run with ``python tools/src_tally.py``. A line of a module, class or function
docstring counts as docstring, but a blank line counts as blank wherever it
is; a line holding only a comment counts as comment, and every other as code.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "oia"
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)

counts = dict(code=0, docstring=0, comment=0, blank=0)
for path in sorted(SRC.glob("*.py")):
    text = path.read_text()
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    for number, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        kind = ("blank" if not line else "docstring" if number in docstrings
                else "comment" if line.startswith("#") else "code")
        counts[kind] += 1
print(f"src/oia: {sum(counts.values()):,} lines = "
      + " + ".join(f"{value:,} {kind}" for kind, value in counts.items()))
