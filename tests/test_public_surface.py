"""Every public name of ``rfpde`` is used by the package itself.

A name counts as used when it appears as a Python name token in a module of
``src/rfpde`` other than ``__init__.py``, not counting the token that defines
it: the name after ``def`` or ``class``, or the target of a module-level
assignment. Docstrings and comments do not count. An exported name, or a
public module-level name of any module, that only tests call fails here.
"""

import ast
import io
import tokenize
from pathlib import Path

import rfpde

PACKAGE = Path(rfpde.__file__).parent


def modules():
    return [path for path in sorted(PACKAGE.glob("*.py"))
            if path.name != "__init__.py"]


def exported_names():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return sorted(alias.asname or alias.name
                  for node in tree.body if isinstance(node, ast.ImportFrom)
                  for alias in node.names)


def assignment_targets(tree):
    """Name nodes bound by the module-level assignments of ``tree``."""
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (t for t in targets if isinstance(t, ast.Name))


def public_definitions():
    """(module, name) of every public module-level def, class and assignment."""
    out = []
    for path in modules():
        tree = ast.parse(path.read_text())
        names = [node.name for node in tree.body
                 if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
        names += [target.id for target in assignment_targets(tree)]
        out += [(path.stem, name) for name in names if not name.startswith("_")]
    return out


def used_names():
    used = set()
    for path in modules():
        source = path.read_text()
        defining = {(t.lineno, t.col_offset)
                    for t in assignment_targets(ast.parse(source))}
        previous = None
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if (tok.type == tokenize.NAME and previous not in ("def", "class")
                    and tok.start not in defining):
                used.add(tok.string)
            if tok.type not in (tokenize.NL, tokenize.COMMENT):
                previous = tok.string
    return used


def test_exports_are_found():
    names = exported_names()
    assert "adaptive_solve" in names and "BasisSet" in names
    assert set(names) <= set(dir(rfpde))


def test_definitions_are_found():
    found = public_definitions()
    assert ("lsq", "solve_min_norm") in found
    assert ("lsq", "DEFAULT_SVD_CUTOFF") in found
    assert ("bench", "TestGrid") in found
    assert not any(name.startswith("_") for _, name in found)


def test_every_export_is_used_by_the_package():
    used = used_names()
    assert [name for name in exported_names() if name not in used] == []


def test_every_public_name_is_used_by_the_package():
    used = used_names()
    assert [f"{module}.{name}" for module, name in public_definitions()
            if name not in used] == []
