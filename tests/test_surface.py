"""The package surface: every definition in ``src/ffgscon`` is used by the package.

Each module-level function and class must be referenced somewhere in the
package outside its own definition (``__init__``'s re-exports do not count),
or be listed below with the reason it is public without a caller.  Test-only
helpers and oracles belong in ``tests/``.  Every sampled verdict comes from a
tally kernel: outside ``_kernels``, only the seeded adversary choice draws
uniforms itself.
"""

import ast
from pathlib import Path

import ffgscon

PUBLIC_WITHOUT_CALLER = {
    "save_instance": "the writer of the documented instance format",
    "run_protocol_round": "the public round-shot API",
    "product_test": "the product test; wiring it into a report row needs a format bump",
}


def _modules() -> dict:
    root = Path(ffgscon.__file__).parent
    return {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(root.glob("*.py"))}


def _names(node: ast.AST, name: str) -> bool:
    return isinstance(node, ast.Name) and node.id == name or isinstance(node, ast.Attribute) and node.attr == name


def _referenced(name: str, definition: ast.AST, trees) -> bool:
    stack = list(trees)
    while stack:
        node = stack.pop()
        if node is definition:
            continue
        if _names(node, name):
            return True
        stack.extend(ast.iter_child_nodes(node))
    return False


def _unreferenced() -> set:
    modules = _modules()
    trees = [tree for stem, tree in modules.items() if stem != "__init__"]
    out = set()
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not _referenced(node.name, node, trees):
                out.add(node.name)
    return out


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
            if any(_names(node, name) for node in ast.walk(top)):
                out.add((stem, getattr(top, "name", None)))
    return out


def test_only_tally_kernels_draw_uniforms():
    users = _users("uniforms", _modules())
    assert {stem for stem, _ in users} == {"_kernels", "witnesses"}
    assert {top for stem, top in users if stem == "witnesses"} == {"_seeded_index"}
