"""Print the size of each ``src/osrkit`` module: its lines (as ``wc -l`` counts them) and its
statements (the AST's ``stmt`` nodes, so a statement counts once however it is wrapped or
folded), then the totals.

    python tools/size.py
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "osrkit"


def size(path: Path) -> tuple[int, int]:
    text = path.read_text(encoding="utf-8")
    tree = ast.parse(text)
    return text.count("\n"), sum(isinstance(node, ast.stmt) for node in ast.walk(tree))


def main() -> None:
    rows = [(path.name, *size(path)) for path in sorted(PACKAGE.glob("*.py"))]
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    print(f"{'module':<14}{'lines':>7}{'stmts':>7}")
    for name, lines, stmts in rows:
        print(f"{name:<14}{lines:>7}{stmts:>7}")


if __name__ == "__main__":
    main()
