"""Every name that ``rfpde`` exports is used by the package itself.

A name counts as used when it appears as a Python name token in a module of
``src/rfpde`` other than ``__init__.py``, not counting the ``def`` or
``class`` line that defines it; docstrings and comments do not count. An
export that only tests call fails here.
"""

import ast
import io
import tokenize
from pathlib import Path

import rfpde

PACKAGE = Path(rfpde.__file__).parent


def exported_names():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return sorted(alias.asname or alias.name
                  for node in tree.body if isinstance(node, ast.ImportFrom)
                  for alias in node.names)


def used_names():
    used = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        previous = None
        for tok in tokenize.generate_tokens(io.StringIO(path.read_text()).readline):
            if tok.type == tokenize.NAME and previous not in ("def", "class"):
                used.add(tok.string)
            if tok.type not in (tokenize.NL, tokenize.COMMENT):
                previous = tok.string
    return used


def test_exports_are_found():
    names = exported_names()
    assert "adaptive_solve" in names and "BasisSet" in names
    assert set(names) <= set(dir(rfpde))


def test_every_export_is_used_by_the_package():
    used = used_names()
    assert [name for name in exported_names() if name not in used] == []
