"""The code-size script: what counts as a code line, its total row and its comparison."""

import shutil

import check_size


def test_counts_code_lines_only():
    source = '''"""Module docstring,
over two lines."""

# a comment
X = (1,
     2)   # a trailing comment


def f():
    """Docstring."""
    return """a string
    that is code"""
'''
    # X = (1, / 2) / def f(): / return """a string / that is code"""
    assert check_size.code_lines(source) == 5


def test_total_is_the_sum_of_the_rows(capsys):
    assert check_size.main([]) == 0
    *rows, total = (line.split() for line in capsys.readouterr().out.splitlines())
    names = [name for name, _ in rows]
    assert names == sorted(path.name for path in check_size.PACKAGE.glob("*.py"))
    assert total[0] == "total"
    assert int(total[1]) == sum(int(count) for _, count in rows) > 0


def compared_rows(capsys, path):
    """``{name: (other, this, delta)}`` of ``check_size.py --compare path``."""
    assert check_size.main(["--compare", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    return {name: tuple(map(int, counts)) for name, *counts in map(str.split, lines)}


def test_compare_with_itself_and_a_copy_lacking_a_module(tmp_path, capsys):
    # a checkout root against itself: every delta 0
    rows = compared_rows(capsys, check_size.PACKAGE.parent.parent)
    assert rows["total"][0] > 0
    assert all(other == this and delta == 0 for other, this, delta in rows.values())
    # a package directory without cli.py: only that row, and the total, differ
    for path in check_size.PACKAGE.glob("*.py"):
        if path.name != "cli.py":
            shutil.copy(path, tmp_path)
    rows = compared_rows(capsys, tmp_path)
    cli = check_size.sizes(check_size.PACKAGE)["cli.py"]
    assert rows.pop("cli.py") == (0, cli, cli)
    assert rows.pop("total")[2] == cli
    assert all(delta == 0 for _, _, delta in rows.values())


def test_functions_rows_in_file_order(tmp_path, capsys):
    (tmp_path / "mod.py").write_text('''"""Module docstring."""

import functools

X = 1


@functools.cache
def second(a):
    """Docstring."""
    # a comment
    return a


def first():
    return (1,
            2)
''')
    assert check_size.main(["--functions", str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    # the decorator, def and return of second; def and the two-line return of first
    assert rows == [["mod:second", "3"], ["mod:first", "3"]]
