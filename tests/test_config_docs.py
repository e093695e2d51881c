"""The README's Configuration table documents exactly the env vars the code reads.

Every ``REPRO_*`` variable is spelled as a string literal where it is read
(``src/`` plus ``benchmarks/conftest.py``, the home of ``REPRO_BENCH_SCALE``);
every documented one is a row of the table.  Comparing the two sets keeps the
table honest as knobs come and go.
"""

import ast
import os
import re

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_NAME = re.compile(r"REPRO_[A-Z_]+")
_ROW = re.compile(r"^\| `(REPRO_[A-Z_]+)` \|")


def _literal_names(path: str) -> set:
    """``REPRO_*`` names spelled as whole string literals in one python file."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    return {
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and _NAME.fullmatch(node.value)
    }


def _code_names() -> set:
    """Every env var name the package and the benchmark harness read."""
    paths = [os.path.join(REPO_ROOT, "benchmarks", "conftest.py")]
    for dirpath, _dirnames, filenames in os.walk(os.path.join(REPO_ROOT, "src")):
        paths += [os.path.join(dirpath, n) for n in filenames if n.endswith(".py")]
    names: set = set()
    for path in paths:
        names |= _literal_names(path)
    return names


def _readme_rows() -> list:
    """The variable column of the README's Configuration table, in order."""
    with open(os.path.join(REPO_ROOT, "README.md"), encoding="utf-8") as fh:
        text = fh.read()
    section = text.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    return [m.group(1) for line in section.splitlines() if (m := _ROW.match(line))]


def test_readme_configuration_table_matches_the_code():
    rows = _readme_rows()
    assert len(rows) == len(set(rows)), "a variable is documented twice"
    code = _code_names()
    assert set(rows) == code, (
        f"undocumented: {sorted(code - set(rows))}; "
        f"documented but never read: {sorted(set(rows) - code)}"
    )
