"""The style checks a sandbox without ``ruff`` can run: stdlib only.

``python tools/stylecheck.py src tests benchmarks`` compiles every file
(a ``SyntaxError`` ends the run) and reports unused imports (``F401``),
code past column 79 — comments, strings and ``# fmt: off`` tables may
run long, as ``pyproject.toml`` tolerates — and trailing whitespace
(``W291``). A subset of ``ruff check``, which CI runs next; ``# noqa``
on a line silences it here too.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

LIMIT = 79
_TEXT = {"STRING", "FSTRING_START", "FSTRING_MIDDLE", "FSTRING_END"}


def unused_imports(tree: ast.Module) -> list[tuple[int, str]]:
    """``(line, name)`` of every import the module never reads."""
    bound = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                bound[name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = getattr(node, "targets", None) or [node.target]
            if any(getattr(t, "id", None) == "__all__" for t in targets):
                # Listed in __all__: imported to be re-exported.
                used |= {
                    c.value
                    for c in ast.walk(node.value)
                    if isinstance(c, ast.Constant)
                }
    bound.pop("*", None)
    return sorted(
        (line, name) for name, line in bound.items() if name not in used
    )


def long_code_lines(path: Path) -> set[int]:
    """Lines with a code token ending past ``LIMIT``."""
    found = set()
    formatted = True
    with tokenize.open(path) as handle:
        for tok in tokenize.generate_tokens(handle.readline):
            kind = tokenize.tok_name[tok.type]
            if kind == "COMMENT":
                if "fmt: off" in tok.string:
                    formatted = False
                elif "fmt: on" in tok.string:
                    formatted = True
            elif (
                formatted
                and kind not in _TEXT
                and tok.string.strip()
                and tok.end[1] > LIMIT
            ):
                found.add(tok.end[0])
    return found


def check(path: Path) -> list[str]:
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source, str(path))
    compile(tree, str(path), "exec")  # errors the parser alone lets by
    problems = {
        number: "W291 trailing whitespace"
        for number, line in enumerate(lines, 1)
        if line != line.rstrip()
    }
    for number in long_code_lines(path):
        problems[number] = f"code past column {LIMIT}"
    for number, name in unused_imports(tree):
        problems[number] = f"F401 `{name}` imported but unused"
    return [
        f"{path}:{number}: {text}"
        for number, text in sorted(problems.items())
        if "noqa" not in lines[number - 1]
    ]


def main(roots: list[str]) -> int:
    found = [
        problem
        for root in roots
        for path in sorted(Path(root).rglob("*.py"))
        for problem in check(path)
    ]
    print("\n".join(found) or f"stylecheck: {' '.join(roots)} clean")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or ["src", "tests", "benchmarks"]))
