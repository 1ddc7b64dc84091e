"""Checks on the library source itself."""

import ast
import importlib
from pathlib import Path

import expansive

SRC = Path(expansive.__file__).resolve().parent
ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"


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


def test_each_module_imports_at_top_level_only_what_every_caller_needs():
    for name, (top_level, inside) in ALLOWED_IMPORTS.items():
        path = SRC / f"{name}.py"
        assert relative_imports(path, top_level_only=True) <= top_level, name
        assert relative_imports(path, top_level_only=False) <= top_level | inside, name


def spanned_names() -> dict:
    """The SPANNED table of perfbench/spans.py (module -> wrapped names), read from its source."""
    tree = ast.parse(SPANS.read_text(), filename=str(SPANS))
    node = next(
        node
        for node in tree.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "SPANNED" for t in node.targets)
    )
    return ast.literal_eval(node.value)


def test_every_name_the_traced_bench_wraps_resolves():
    # the tracer patches each name by attribute, and "Class.method" in the
    # class dict; a name that no longer resolves breaks `perfbench/run.py --trace 1`
    spanned = spanned_names()
    spanned["orbits"] += ("iter_words",)  # wrapped outside the table
    missing = []
    for mod_name, names in spanned.items():
        mod = importlib.import_module(f"expansive.{mod_name}")
        for name in names:
            cls_name, _, attr = name.rpartition(".")
            owner = getattr(mod, cls_name, None) if cls_name else mod
            found = attr in vars(owner) if isinstance(owner, type) else callable(getattr(owner, attr, None))
            if not found:
                missing.append(f"{mod_name}.{name}")
    assert missing == []


# definitions no program path calls, kept on purpose
UNCALLED = {
    # conveniences of the public value types, which tests and users read
    "QMatrix.col",
    "QMatrix.to_rows",
    "Subspace.contains",
    "QPoly.one",
    "QPoly.exact_div",
    "QPoly.derivative",
    "QPoly.reverse",
    # the planned eigenline search of commuting actions will scale arguments
    "QPoly.shift_scale_arg",
    # the functionals, windows and metrics of the paper, which acceptance
    # criteria 3, 7 and 8 exercise as library behaviour
    "HomVector.from_rationals",
    "HomVector.from_exact",
    "E_window",
    "d_A",
    "d_star_A",
    "TorusPoint.from_coords",
    "orbit_spread",
}


def program_files() -> list[Path]:
    """The library, scripts/ and perfbench/ sources."""
    return sorted([*SRC.glob("*.py"), *(ROOT / "scripts").glob("*.py"), *(ROOT / "perfbench").glob("*.py")])


def test_every_library_definition_has_a_caller_outside_the_tests():
    # a function or method counts as called when a program file (the library,
    # scripts/ or perfbench/) names it, or the traced bench wraps it
    used = {name.rpartition(".")[2] for names in spanned_names().values() for name in names}
    defined = []
    for path in program_files():
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
        if path.parent != SRC:
            continue
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defined.append((node.name, node.name))
            elif isinstance(node, ast.ClassDef):
                defined += [(f"{node.name}.{item.name}", item.name) for item in node.body if isinstance(item, ast.FunctionDef)]
    uncalled = {label for label, name in defined if not name.startswith("__") and name not in used}
    assert uncalled == UNCALLED


def test_every_record_field_is_read_outside_the_tests():
    # a __slots__ field of a library record counts as read when a program
    # file (the library, scripts/ or perfbench/) loads it as an attribute
    read = set()
    fields = []
    for path in program_files():
        tree = ast.parse(path.read_text(), filename=str(path))
        read |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
        if path.parent != SRC:
            continue
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                fields += [
                    (node.name, field)
                    for item in node.body
                    if isinstance(item, ast.Assign) and any(getattr(t, "id", None) == "__slots__" for t in item.targets)
                    for field in ast.literal_eval(item.value)
                ]
    assert fields
    assert [f"{cls}.{field}" for cls, field in fields if field not in read] == []


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


def test_only_records_that_check_or_build_storage_define_init():
    # every other Frozen subclass gets its __init__ from its __slots__
    found = sorted(
        node.name
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.ClassDef)
        and any(isinstance(base, ast.Name) and base.id == "Frozen" for base in node.bases)
        and any(isinstance(item, ast.FunctionDef) and item.name == "__init__" for item in node.body)
    )
    assert found == ["DiskProfile", "QMatrix"]


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


def exact_function(name):
    """The definition of a function of exact, or of a method "Class.name"."""
    scope = ast.parse((SRC / "exact.py").read_text()).body
    *owner, name = name.split(".")
    if owner:
        scope = next(node for node in scope if isinstance(node, ast.ClassDef) and node.name == owner[0]).body
    return next(node for node in scope if isinstance(node, ast.FunctionDef) and node.name == name)


def names_used(node):
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def attributes_used(node):
    return {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}


def test_inverse_and_definiteness_eliminate_on_integers():
    # both run fraction-free on the integer numerators; Fractions appear only
    # when a caller reads the result's entries
    for name in ("QMatrix.inverse", "_is_positive", "is_symmetric"):
        fn = exact_function(name)
        assert names_used(fn) & {"Fraction", "to_fraction", "_gauss_jordan"} == set(), name
        assert attributes_used(fn) & {"entries", "row", "col", "to_rows", "from_rows", "_gauss_jordan"} == set(), name
        # m[i, j] is an entry, built as a Fraction
        assert not any(isinstance(n, ast.Subscript) and isinstance(n.slice, ast.Tuple) for n in ast.walk(fn)), name


def test_kernels_and_subspaces_eliminate_on_integers():
    # both run on one IntEchelon of integer vectors; Fractions are made only
    # by the final division of each reduced row by its pivot
    gauss = {"rref", "_gauss_jordan", "solve_exact", "coordinates_in_span"}
    for name in ("kernel", "Subspace.from_vectors", "IntEchelon.add", "IntEchelon.reduced", "_cleared"):
        body = ast.Module(body=exact_function(name).body, type_ignores=[])
        assert names_used(body) & gauss == set(), name
        assert attributes_used(body) & {"entries", "row", "col", "to_rows", "from_rows", "apply"} == set(), name
        assert not any(isinstance(n, ast.Subscript) and isinstance(n.slice, ast.Tuple) for n in ast.walk(body)), name
        if name != "IntEchelon.reduced":
            assert names_used(body) & {"Fraction", "to_fraction"} == set(), name
    # kernel reads the echelon's pivots through the public, read-only view
    assert "_pivots" not in attributes_used(exact_function("kernel"))
    # in reduced, Fraction appears once: a two-argument call in the return
    *steps, last = exact_function("IntEchelon.reduced").body
    assert isinstance(last, ast.Return)
    assert not any(names_used(step) & {"Fraction", "to_fraction"} for step in steps)
    uses = [n for n in ast.walk(last) if isinstance(n, ast.Name) and n.id == "Fraction"]
    calls = [n for n in ast.walk(last) if isinstance(n, ast.Call) and getattr(n.func, "id", None) == "Fraction"]
    assert len(uses) == len(calls) == 1 and len(calls[0].args) == 2


def test_apply_and_intersect_run_on_numerators():
    # apply makes a Fraction only of each row's integer dot product, and
    # intersect makes none before the echelon's final division
    entry_reads = {"entries", "row", "col", "to_rows", "matrix", "apply"}
    gauss = {"to_fraction", "rref", "solve_exact", "coordinates_in_span", "kernel"}
    names = ("QMatrix.apply", "intersect")
    bodies = {name: ast.Module(body=exact_function(name).body, type_ignores=[]) for name in names}
    for name, body in bodies.items():
        assert attributes_used(body) & entry_reads == set(), name
        assert names_used(body) & gauss == set(), name
        assert not any(isinstance(n, ast.Subscript) and isinstance(n.slice, ast.Tuple) for n in ast.walk(body)), name
    assert "Fraction" not in names_used(bodies["intersect"])
    apply_nodes = list(ast.walk(bodies["QMatrix.apply"]))
    uses = [n for n in apply_nodes if isinstance(n, ast.Name) and n.id == "Fraction"]
    calls = [n for n in apply_nodes if isinstance(n, ast.Call) and getattr(n.func, "id", None) == "Fraction"]
    assert len(uses) == len(calls) == 1 and len(calls[0].args) == 2


def test_the_sturm_remainder_runs_on_integer_lists():
    assert "QPoly" not in names_used(exact_function("_neg_rem_int"))


# every library function that still reaches the Fraction Gauss-Jordan, by the
# routine it names; a migrated caller leaves this list, and no caller joins it
FRACTION_ELIMINATION_CALLERS = {
    # the routines themselves: coordinates_in_span solves through solve_exact,
    # which reduces by rref, the Gauss-Jordan's one entry
    ("exact.coordinates_in_span", "solve_exact"),
    ("exact.solve_exact", "rref"),
    ("exact.rref", "_gauss_jordan"),
    # a public convenience that tests and users read
    ("exact.Subspace.contains", "coordinates_in_span"),
    # dependencies and coordinates read off pivots and columns
    ("orbits._graph_lift", "solve_exact"),
    ("solenoid._base_level_plan", "rref"),
    ("solenoid.span_restriction", "rref"),
    ("solenoid.span_restriction", "coordinates_in_span"),
    # the one general span solve of the relation search
    ("solenoid._best_relation", "coordinates_in_span"),
    # the torus span walk, which waits for the benchmark's memory fix
    ("torus._algebra_basis", "coordinates_in_span"),
}


def test_only_the_listed_callers_reach_the_fraction_gauss_jordan():
    gauss = {"rref", "solve_exact", "coordinates_in_span", "_gauss_jordan"}
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, ast.FunctionDef):
                defs = [(node.name, node)]
            elif isinstance(node, ast.ClassDef):
                defs = [(f"{node.name}.{item.name}", item) for item in node.body if isinstance(item, ast.FunctionDef)]
            else:
                continue
            for name, fn in defs:
                used = names_used(fn) | attributes_used(fn)
                found |= {(f"{path.stem}.{name}", routine) for routine in used & gauss}
    assert found == FRACTION_ELIMINATION_CALLERS
