"""Layout guards over the source tree.

Every public top-level function or class in ``src/confalg``, and every public
method of a public class, must be named outside its own definition by
something that needs it: library code, the acceptance suite or the
benchmark.  A name that only its own unit tests reach serves no verb and no
acceptance criterion.  A top-level name is reached by any mention; a method
only by an attribute access (``x.name``) or a dotted string, so a local
variable of the same name keeps no method alive.  The package root re-exports
nothing, so it holds its docstring alone.

The guard reads names, not types: a method is still kept by a call to a
same-named method of another class, and operator dunders (``__add__``,
``__matmul__``, ...) are private names it does not see.  Finding those takes
a call trace that records which class each call lands in.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "confalg"

# Kept although no library module, acceptance test or bench file names them
# in code, each for the reason given.
KEPT_FOR_TESTS: dict[str, str] = {
    "jsonio.vec_series_to_json": "bench/tracer.py wraps it by a bare string name",
    "poly.MPoly.terms": "the public coefficient view the reference oracles read "
    "polynomials through (tests/ideal_oracle.py, tests/poly_helpers.py)",
    "poly.UPoly.coeffs": "the public coefficient view the reference oracles read "
    "polynomials through (tests/ideal_oracle.py, tests/poly_helpers.py)",
}

# A string such as "cend1.closure" or "MPoly.__mul__" names each dotted part;
# a bare word such as "cur_n" is a label, and names nothing.
_DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)+")


def _public_defs(tree: ast.Module | ast.ClassDef) -> list[ast.AST]:
    return [
        node
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
    ]


def _guarded(tree: ast.Module) -> list[tuple[str, ast.AST]]:
    """(label, node) for each public top-level name and public class method."""
    out = []
    for node in _public_defs(tree):
        out.append((node.name, node))
        if isinstance(node, ast.ClassDef):
            out += [(f"{node.name}.{item.name}", item) for item in _public_defs(node)]
    return out


def _names(node: ast.AST, skip: ast.AST | None = None) -> tuple[set[str], set[str]]:
    """The identifiers that ``node`` names, leaving out the subtree ``skip``:
    (bare names and imports, attributes and the parts of dotted strings)."""
    bare: set[str] = set()
    attrs: set[str] = set()
    stack = [node]
    while stack:
        cur = stack.pop()
        if cur is skip:
            continue
        if isinstance(cur, ast.Name):
            bare.add(cur.id)
        elif isinstance(cur, ast.Attribute):
            attrs.add(cur.attr)
        elif isinstance(cur, ast.alias):
            bare.add(cur.name.rsplit(".", 1)[-1])
        elif isinstance(cur, ast.Constant) and isinstance(cur.value, str):
            if _DOTTED.fullmatch(cur.value):
                attrs.update(cur.value.split("."))
        stack.extend(ast.iter_child_nodes(cur))
    return bare, attrs


def _reaches(names: tuple[set[str], set[str]], label: str, name: str) -> bool:
    """Whether ``names`` reach the definition ``label``: a method only as an
    attribute or a dotted-string part, a top-level name by any mention."""
    bare, attrs = names
    return name in attrs or ("." not in label and name in bare)


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_every_public_name_has_a_caller():
    modules = {p: _parse(p) for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"}
    outside = [ROOT / "tests" / "test_acceptance.py", *sorted((ROOT / "bench").glob("*.py"))]
    named_outside = _names(ast.Module([s for path in outside for s in _parse(path).body], []))
    unreached = []
    for path, tree in modules.items():
        for label, node in _guarded(tree):
            if _reaches(named_outside, label, node.name):
                continue
            if any(
                _reaches(_names(other, skip=node), label, node.name)
                for other in modules.values()
            ):
                continue
            unreached.append(f"{path.stem}.{label}")
    extra = sorted(set(unreached) - KEPT_FOR_TESTS.keys())
    assert not extra, f"public names nothing reaches: {extra}"
    stale = sorted(KEPT_FOR_TESTS.keys() - set(unreached))
    assert not stale, f"reached names need no exemption: {stale}"


def test_package_root_is_its_docstring():
    # every name is imported from its module; a re-export table at the root
    # would have to follow each rename and deletion by hand
    tree = _parse(SRC / "__init__.py")
    assert ast.get_docstring(tree)
    assert len(tree.body) == 1, "src/confalg/__init__.py holds more than its docstring"
