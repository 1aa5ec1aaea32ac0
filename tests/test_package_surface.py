"""The package keeps only code that a production path runs."""

import ast
import pathlib

import nscheme

PACKAGE = pathlib.Path(nscheme.__file__).parent

#: entry points kept for callers outside the command line, each with its reason
API_ONLY = {
    ("mcwf", "ensemble_populations"): "the traj_fig3a benchmark and the acceptance fixture average trajectories",
}


def _references(node, module, names, modules):
    """(module, name) of every top-level definition a node may refer to.

    A bare name refers to the definition of that name in its own module,
    or to what it was imported as; a module.name attribute refers to the
    imported module's definition. A local variable that shadows another
    module's name thus refers to nothing.
    """
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield names.get(sub.id, (module, sub.id))
        elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name) and sub.value.id in modules:
            yield modules[sub.value.id], sub.attr


def _bound_names(node):
    """Names a top-level assignment binds: NAME = ..., NAME: T = ... or A, B = ...; dunders excluded."""
    if not isinstance(node, (ast.Assign, ast.AnnAssign)):
        return []
    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
    elements = [e for t in targets for e in (t.elts if isinstance(t, ast.Tuple) else [t])]
    return [e.id for e in elements if isinstance(e, ast.Name) and not e.id.startswith("__")]


def _unreachable_definitions():
    """Top-level functions, classes and module-level bindings that no production path reaches.

    Private names count as public ones do. The roots are the cli.main
    entry point, each module's top-level statements other than imports
    and bindings, and the API_ONLY entry points; what nscheme/__init__.py
    exports is no root. A definition is reached when a reached
    definition or root refers to it.
    """
    uses, roots, defined = {}, {("cli", "main"), *API_ONLY}, set()
    for path in sorted(PACKAGE.glob("*.py")):
        module, tree = path.stem, ast.parse(path.read_text(encoding="utf-8"))
        names, modules = {}, {}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    bound = alias.asname or alias.name
                    if node.module:
                        names[bound] = (node.module, alias.name)
                    else:
                        modules[bound] = alias.name
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                bound = [node.name]
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            else:
                bound = _bound_names(node)
            if not bound:
                roots.update(_references(node, module, names, modules))
            for name in bound:
                key = (module, name)
                uses.setdefault(key, set()).update(set(_references(node, module, names, modules)) - {key})
                defined.add(key)
    reached, todo = set(), list(roots)
    while todo:
        key = todo.pop()
        if key not in reached:
            reached.add(key)
            todo.extend(uses.get(key, ()))
    return sorted(defined - reached)


def test_every_definition_is_reached_from_the_package_surface():
    assert _unreachable_definitions() == []


def _unused_imports():
    """(module, name) of every module-level import binding that its module never refers to.

    __init__.py is left out, since its imports are the exports. A use is
    any bare name in the module other than the import itself, an
    attribute base such as np in np.linalg included; names in strings
    and docstrings do not count, and __future__ imports bind nothing.
    """
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in used:
                        unused.append((path.stem, bound))
    return unused


def test_every_module_level_import_is_used():
    assert _unused_imports() == []
