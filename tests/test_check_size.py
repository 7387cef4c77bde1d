"""The code-size script: what counts as a code line, and its total row."""

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
