"""Checks on the library source itself."""

import ast
from pathlib import Path

import expansive
from expansive import cli

SRC = Path(expansive.__file__).resolve().parent


def test_library_has_no_assert():
    # `python -O` strips asserts, so no check the library relies on may be one
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


# the searches of the engine; a certificate check that called one would be no check
SEARCHES = {
    "expansiveness_check",
    "find_expansive_word",
    "iter_words",
    "jsr_bounds",
    "torus_expansive",
    "solenoid_expansive",
    "certify_bounded",
    "certified_infinite_word",
    "irreducibility_check",
    "algebra_dimension",
    "find_expansive_element",
    "regular_chain",
    "enumerate_basis",
    "lift",
}


def test_certificate_checker_imports_no_numpy_and_runs_no_search():
    tree = ast.parse((SRC / "certificates.py").read_text())
    top_imports = {alias.name for node in tree.body if isinstance(node, ast.Import) for alias in node.names}
    top_imports |= {node.module for node in tree.body if isinstance(node, ast.ImportFrom) and node.module}
    assert not any(name.split(".")[0] == "numpy" for name in top_imports)
    called = {
        node.func.id if isinstance(node.func, ast.Name) else node.func.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute))
    }
    assert called & SEARCHES == set()


def test_certificate_checker_imports_only_public_names():
    # the checker reads the actions layer through its public names, so a
    # private helper there can change without changing what a certificate means
    tree = ast.parse((SRC / "certificates.py").read_text())
    private = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


# the float stages: the bounded-direction screen, the norm bound evidence and
# the jsr bracket; numpy loads inside these and nowhere else
FLOAT_FUNCTIONS = {
    "_float_mats",
    "snap_vector",
    "_growth_normalized_gram",
    "_bounded_directions",
    "_norm_bound_from_cert",
    "jsr_bounds",
}


def numpy_importers(path):
    """Where a module imports numpy: the top-level function or class that
    does, ``TYPE_CHECKING`` for the typing-only import, else ``<module>``."""
    out = set()
    for stmt in ast.parse(path.read_text(), filename=str(path)).body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if not any(name.split(".")[0] == "numpy" for name in names):
                continue
            if isinstance(stmt, ast.If) and isinstance(stmt.test, ast.Name) and stmt.test.id == "TYPE_CHECKING":
                out.add("TYPE_CHECKING")
            else:
                out.add(getattr(stmt, "name", "<module>"))
    return out


def test_numpy_is_imported_only_by_the_float_functions_of_orbits():
    importers = {path.name: numpy_importers(path) for path in sorted(SRC.glob("*.py"))}
    assert {name for name, where in importers.items() if where} == {"orbits.py"}
    assert importers["orbits.py"] <= FLOAT_FUNCTIONS | {"TYPE_CHECKING"}


def test_certificate_checker_never_imports_torus():
    # the fast path's infinite-order word is checked spectrally, so no check
    # loads the torus layer, at top level or inside a function
    tree = ast.parse((SRC / "certificates.py").read_text())
    imported = {
        name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for name in [node.module or "", *(alias.name for alias in node.names)]
    }
    imported |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
    assert not any("torus" in name.split(".") for name in imported)


def relative_imports(path, top_level_only):
    """The package modules a module imports, at its top level only (``if
    TYPE_CHECKING:`` blocks aside) or anywhere; ``from . import name`` counts
    only when ``name`` is a module file of the package."""
    tree = ast.parse(path.read_text(), filename=str(path))
    modules = set()
    for node in tree.body if top_level_only else ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            names = [node.module] if node.module else [alias.name for alias in node.names]
            modules |= {name for name in names if (SRC / f"{name.split('.')[0]}.py").exists()}
    return modules


# module -> the package modules it may import at top level, and those it may
# import besides only inside a function (or for type checking): a subcommand
# loads only the layers it runs, and the checker never loads the search
ALLOWED_IMPORTS = {
    "__init__": (set(), set()),
    "exact": (set(), set()),
    "spectral": ({"exact"}, set()),
    "actions": ({"exact", "spectral"}, set()),
    "certificates": ({"actions", "exact", "spectral"}, {"solenoid"}),
    "cli": ({"exact", "spectral"}, {"actions", "certificates", "orbits", "solenoid", "torus", "weights"}),
    "solenoid": ({"actions", "exact"}, {"orbits"}),
}

# the names perfbench/spans.py patches on expansive.cli to trace it
CLI_SPANNED = ("verify_report", "check_certificate", "emit")


def test_each_module_imports_at_top_level_only_what_every_caller_needs():
    for name, (top_level, inside) in ALLOWED_IMPORTS.items():
        path = SRC / f"{name}.py"
        assert relative_imports(path, top_level_only=True) <= top_level, name
        assert relative_imports(path, top_level_only=False) <= top_level | inside, name
    assert all(callable(getattr(cli, name, None)) for name in CLI_SPANNED)


def test_no_module_imports_dataclasses():
    # a record class is a plain __slots__ class, so no process compiles the
    # dataclasses module and the inspect chain it loads
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Import) and any(alias.name.split(".")[0] == "dataclasses" for alias in node.names)
        or isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "dataclasses"
    ]
    assert found == []


def test_weights_asks_spectral_only_for_disk_profiles():
    # a block is stuck by the disk profiles of its generators, so the weights
    # layer computes no minimal polynomial and counts no circle roots itself
    tree = ast.parse((SRC / "weights.py").read_text())
    imported = {
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert not {name for _, name in imported} & {"circle_root_count", "minimal_poly"}
    from_spectral = {name for module, name in imported if module == "spectral"}
    labels = {"GROUP", "SEMIGROUP", "check_mode", "EXPANSIVE", "NOT_EXPANSIVE", "UNKNOWN"}
    assert from_spectral - labels == {"unit_disk_profile", "single_expansive"}
