"""Code lines of each module of ``src/nevpick``, and their total.

Run from the root of the repository::

    python tests/check_size.py [PATH]
    python tests/check_size.py --compare PATH
    python tests/check_size.py --functions [PATH]

A code line is a line that holds a token of code, or lies inside a
multi-line token of code: blank lines, comment lines and the lines of
docstrings (the leading string of a module, class or function) are not
counted.  This is the size a change that deletes code reports, before and
after; ``wc -l`` counts the docstrings too.  ``PATH`` is a checkout root
or a package directory and defaults to this checkout's ``src/nevpick``.
The script prints one ``<module> <lines>`` row per module and a last
``total <lines>`` row.  With ``--compare`` it measures this checkout
against ``PATH`` in ``<module> <other> <this> <delta>`` rows, a module
that one side lacks counting 0 there, so a change's size is one command.
With ``--functions`` it prints one ``<module>:<name> <lines>`` row per
top-level ``def`` and ``class`` of each module of ``PATH``, in file
order, with its decorators and counted the same way, so a change's lines
can be traced to the definitions that hold them.
The file name keeps it out of the default test run.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "nevpick"

NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def docstring_lines(tree: ast.AST) -> set:
    """Line numbers of the docstrings in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_line_numbers(source: str, tree: ast.AST) -> set:
    """Line numbers of the code lines of a Python source text, ``tree`` its parse."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return lines - docstring_lines(tree)


def code_lines(source: str) -> int:
    """The number of code lines of a Python source text."""
    return len(code_line_numbers(source, ast.parse(source)))


def definitions(source: str) -> list:
    """``(name, code lines)`` of each top-level ``def`` and ``class`` of a
    Python source text, in file order; decorators count with their definition."""
    tree = ast.parse(source)
    lines = code_line_numbers(source, tree)
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            out.append((node.name, len(lines & set(range(first, node.end_lineno + 1)))))
    return out


def sizes(package: Path) -> dict:
    """``{module file name: code lines}`` of the modules of ``package``."""
    return {path.name: code_lines(path.read_text(encoding="utf-8"))
            for path in sorted(package.glob("*.py"))}


def package_dir(path: Path) -> Path:
    """``path/src/nevpick`` if ``path`` is a checkout root, else ``path``."""
    inner = path / "src" / "nevpick"
    return inner if inner.is_dir() else path


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if args[:1] == ["--functions"]:
        package = package_dir(Path(args[1])) if args[1:] else PACKAGE
        print_rows([(f"{path.stem}:{name}", (count,)) for path in sorted(package.glob("*.py"))
                    for name, count in definitions(path.read_text(encoding="utf-8"))])
        return 0
    if args[:1] == ["--compare"]:
        theirs, ours = sizes(package_dir(Path(args[1]))), sizes(PACKAGE)
        rows = {}
        for name in sorted(theirs.keys() | ours.keys()):
            other, this = theirs.get(name, 0), ours.get(name, 0)
            rows[name] = (other, this, this - other)
    else:
        rows = {name: (count,)
                for name, count in sizes(package_dir(Path(args[0])) if args else PACKAGE).items()}
    rows["total"] = tuple(map(sum, zip(*rows.values()))) or (0,)
    print_rows(list(rows.items()))
    return 0


def print_rows(rows: list) -> None:
    """Print ``(name, counts)`` rows, the names padded to one width."""
    width = max((len(name) for name, _ in rows), default=0)
    for name, counts in rows:
        print(f"{name:<{width}}" + "".join(f" {count:>5}" for count in counts))


if __name__ == "__main__":
    sys.exit(main())
