"""Every public name of the library is used by the library itself, the
acceptance tests or the benchmark.

A name in a module's `__all__` that only the unit tests reach is a second
public form of something the library already does, which those tests then
compare the library with; such a reference belongs in `tests/helpers.py`.
The check reads the sources' syntax trees: a name counts as used where it is
loaded as a name or as an attribute, anywhere in them.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
LIBRARY = sorted((ROOT / "src" / "optikit").glob("*.py"))
USERS = LIBRARY + [ROOT / "tests" / "test_acceptance.py"] + sorted((ROOT / "perfbench").glob("*.py"))


def public_names(tree: ast.Module) -> list[str]:
    """The names a module's `__all__` lists, or none."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(target, "id", None) == "__all__" for target in node.targets):
            return ast.literal_eval(node.value)
    return []


def loaded_names(tree: ast.Module) -> set[str]:
    """Every identifier loaded as a name, and every attribute loaded, in a module."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def parse(path: pathlib.Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def test_every_public_name_is_used():
    loaded = set().union(*(loaded_names(parse(path)) for path in USERS))
    unused = [f"{path.stem}.{name}" for path in LIBRARY for name in public_names(parse(path)) if name not in loaded]
    assert unused == []


def test_the_scan_sees_each_module_and_its_public_names():
    # the check above holds vacuously if no source or no `__all__` is found
    listed = {path.stem: public_names(parse(path)) for path in LIBRARY}
    assert {"core", "emoptics", "gaussian", "quantum", "rayoptics", "resonator", "sysdesc"} <= {
        stem for stem, names in listed.items() if names}
    assert "system_composition" in listed["rayoptics"] and len(USERS) > len(LIBRARY) + 1
