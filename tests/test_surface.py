"""The package surface: every definition in ``src/ffgscon`` is used by the package.

Each module-level function and class, and each public method and property
of those classes, must be referenced somewhere in the package outside its
own definition (``__init__``'s re-exports do not count), or be listed below
with the reason it is public without a caller.  Test-only helpers and
oracles belong in ``tests/``.  Every sampled verdict comes from a tally
kernel: nothing outside ``_kernels`` draws uniforms.
"""

import ast
from collections import defaultdict
from pathlib import Path

import ffgscon

PUBLIC_WITHOUT_CALLER = {
    "save_instance": "the writer of the documented instance format",
    "run_protocol_round": "the public round-shot API",
}

_DEFINITIONS = (ast.FunctionDef, ast.ClassDef)


def _modules() -> dict:
    root = Path(ffgscon.__file__).parent
    return {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(root.glob("*.py"))}


def _name_of(node: ast.AST) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _checked_definitions(tree: ast.Module):
    """Module-level functions and classes, and the public methods and properties of those classes."""
    for node in tree.body:
        if isinstance(node, _DEFINITIONS):
            yield node
        if isinstance(node, ast.ClassDef):
            yield from (m for m in node.body if isinstance(m, ast.FunctionDef) and not m.name.startswith("_"))


def _uses(trees) -> dict:
    """One pass: each name, mapped to the definitions enclosing each place it is used."""
    uses = defaultdict(list)
    stack = [(tree, ()) for tree in trees]
    while stack:
        node, enclosing = stack.pop()
        name = _name_of(node)
        if name is not None:
            uses[name].append(enclosing)
        if isinstance(node, _DEFINITIONS):
            enclosing = enclosing + (node,)
        stack.extend((child, enclosing) for child in ast.iter_child_nodes(node))
    return uses


def _unreferenced() -> set:
    trees = [tree for stem, tree in _modules().items() if stem != "__init__"]
    uses = _uses(trees)
    return {
        d.name
        for tree in trees
        for d in _checked_definitions(tree)
        if not any(d not in enclosing for enclosing in uses[d.name])
    }


def test_every_definition_is_reached_from_the_package():
    unreferenced = _unreferenced()
    assert unreferenced - set(PUBLIC_WITHOUT_CALLER) == set()
    # an allowlisted name that gained a caller, or is gone, leaves the list
    assert set(PUBLIC_WITHOUT_CALLER) <= unreferenced


def _users(name: str, trees: dict) -> set:
    """(module, top-level definition) pairs whose bodies mention ``name``."""
    out = set()
    for stem, tree in trees.items():
        for top in tree.body:
            if any(_name_of(node) == name for node in ast.walk(top)):
                out.add((stem, getattr(top, "name", None)))
    return out


def test_only_tally_kernels_draw_uniforms():
    users = _users("uniforms", _modules())
    assert {stem for stem, _ in users} == {"_kernels"}
