"""Static hygiene of ``src/sudler``, checked by an AST scan: no imported
name lies dead, and no module reaches into another's private names
beyond the one that the benchmark's tracer pins."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "sudler"

# verify (_prefix_logs) and bounds (power_law_ratios) read the prefix pass
# through products._log_prefix_iter, a layer boundary the tracer reports on.
PINNED_PRIVATE = {
    ("verify", "products", "_log_prefix_iter"),
    ("bounds", "products", "_log_prefix_iter"),
}


def _trees() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def test_every_import_is_used_or_exported():
    dead = []
    for module, tree in _trees().items():
        bound = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        keep = used | _exported(tree)
        dead += [f"{module}.py:{line} {name}" for name, line in bound.items() if name not in keep]
    assert dead == []


def test_private_names_cross_modules_only_where_pinned():
    taken = set()
    for module, tree in _trees().items():
        aliases = {}  # local name -> sibling module, from `from . import m as x`
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module is None:
                        aliases[alias.asname or alias.name] = alias.name
                    elif _private(alias.name):
                        taken.add((module, node.module, alias.name))
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in aliases
                and _private(node.attr)
            ):
                taken.add((module, aliases[node.value.id], node.attr))
    assert taken == PINNED_PRIVATE
