"""Structure of the source: guarantee records have one format, built in
coarselab.certificates and nowhere else, the geometry of a space and
whether its self-distances are 0 are decided in coarselab.spaces and
nowhere else, which also computes every distance but a few named blocks,
a radius relation is assembled into CSR without a COO step or a
canonicalizing copy, clouds are bucketed by one cell list and walked by
one ring walk, every cover is built as a Cover and its rows ordered in
covers.py, and no module keeps an import it does not use."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "coarselab"


def _pass_records(path: pathlib.Path) -> list[int]:
    """The lines of the dict literals in a module that carry a "pass" key."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Dict)
            and any(isinstance(k, ast.Constant) and k.value == "pass" for k in node.keys)]


def test_only_the_certificates_module_builds_guarantee_records():
    modules = sorted(SRC.glob("*.py"))
    assert SRC / "certificates.py" in modules and _pass_records(SRC / "certificates.py")
    elsewhere = {p.name: lines for p in modules if p.name != "certificates.py"
                 for lines in [_pass_records(p)] if lines}
    assert elsewhere == {}


def _calls(tree: ast.AST):
    """(enclosing class and function names, call node) for every call in a
    module."""
    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope + (child.name,) if isinstance(child, (ast.FunctionDef,
                                                                ast.AsyncFunctionDef,
                                                                ast.ClassDef)) else scope
            if isinstance(child, ast.Call):
                yield scope, child
            yield from walk(child, inner)
    return walk(tree, ())


def _name(call: ast.Call):
    f = call.func
    return f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)


def test_no_module_forms_a_relation_power():
    found = [(p.name, call.lineno) for p in sorted(SRC.glob("*.py"))
             for _, call in _calls(ast.parse(p.read_text(encoding="utf-8")))
             if isinstance(call.func, ast.Attribute) and call.func.attr == "power"]
    assert found == []


def test_spaces_buckets_points_in_one_cell_list():
    """Cloud points are rounded into cells by _CellList alone (the one
    np.floor call of spaces.py), and both cloud kernels walk its cells
    ring by ring through EuclideanMetric._walk alone."""
    calls = list(_calls(ast.parse((SRC / "spaces.py").read_text(encoding="utf-8"))))
    floors = {scope for scope, call in calls if isinstance(call.func, ast.Attribute)
              and call.func.attr == "floor" and getattr(call.func.value, "id", None) == "np"}
    rings = {scope for scope, call in calls if _name(call) == "_ring"}
    assert floors == {("_CellList", "__init__")}
    assert rings == {("EuclideanMetric", "_walk")}


def test_transforms_form_a_cover_spread_only_for_a_witness():
    tree = ast.parse((SRC / "transforms.py").read_text(encoding="utf-8"))
    scopes = {scope[-1] if scope else None for scope, call in _calls(tree)
              if _name(call) == "cover_entourage"}
    assert scopes == {"_strong_relation"}


def _imports_transforms(tree: ast.AST) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = (node.module or "").split(".")[-1]
            if module == "transforms" or any(a.name == "transforms" for a in node.names):
                return True
        elif isinstance(node, ast.Import) and any(a.name.endswith(".transforms")
                                                  for a in node.names):
            return True
    return False


def test_one_cover_type_ordered_in_one_place():
    """Every cover is built as a Cover: no module calls the ColoredCover
    name, and the modules below the transforms do not import them. Rows are
    put in lexicographic order only by covers.py."""
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}
    calls = [(name, scope, call) for name, tree in trees.items() for scope, call in _calls(tree)]
    assert [(name, call.lineno) for name, _, call in calls if _name(call) == "ColoredCover"] == []
    lex = {(name, scope) for name, scope, call in calls
           if _name(call) == "_lex_order" and name != "covers.py"}
    assert lex == set()
    assert [name for name in ("witnesses.py", "fixtures.py", "jsonio.py")
            if _imports_transforms(trees[name])] == []


GEOMETRIES = {"matrix", "grid", "cloud", "tree", "hyperbolic_polar", "discrete", "product"}


def _strings(node: ast.AST) -> set:
    """The string constants in an expression, tuples, lists and sets included."""
    return {n.value for n in ast.walk(node) if isinstance(n, ast.Constant)
            and isinstance(n.value, str)}


def _geometry_switches(path: pathlib.Path) -> list[int]:
    """The lines of a module that read an attribute .meta or compare an
    attribute .kind with a geometry name."""
    lines = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Attribute) and node.attr == "meta":
            lines.add(node.lineno)
        elif isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if (any(isinstance(o, ast.Attribute) and o.attr == "kind" for o in operands)
                    and set().union(*map(_strings, operands)) & GEOMETRIES):
                lines.add(node.lineno)
    return sorted(lines)


def test_only_the_spaces_module_switches_on_the_geometry():
    assert _geometry_switches(SRC / "spaces.py")
    elsewhere = {p.name: lines for p in sorted(SRC.glob("*.py")) if p.name != "spaces.py"
                 for lines in [_geometry_switches(p)] if lines}
    assert elsewhere == {}


def test_only_the_spaces_module_knows_self_distances():
    readers = {p.name: node.lineno for p in sorted(SRC.glob("*.py"))
               for node in ast.walk(ast.parse(p.read_text(encoding="utf-8")))
               if isinstance(node, ast.Attribute) and node.attr == "zero_self_distance"}
    assert set(readers) == {"spaces.py"}


def test_distances_outside_spaces_are_the_model_and_centre_blocks():
    """Outside spaces.py, distances to the outside of a set, set diameters
    and pair distances come from the backend; the only blocks and rows
    computed elsewhere are the model's interior x corona block, the level
    blocks of roundtrip_bounds and the partition fixture's centre rows."""
    found = {(p.name, scope) for p in sorted(SRC.glob("*.py")) if p.name != "spaces.py"
             for scope, call in _calls(ast.parse(p.read_text(encoding="utf-8")))
             if _name(call) in ("dist_block", "dist_row")}
    assert found == {("corona.py", ("CompactificationModel", "__init__")),
                     ("corona.py", ("roundtrip_bounds",)),
                     ("fixtures.py", ("randomized_partition_cover",))}


def test_materialize_builds_no_coo_form_and_no_copy():
    """Entourage.materialize, and every function of spaces.py it reaches by
    name, calls none of the COO builders or the canonicalizing copy."""
    tree = ast.parse((SRC / "spaces.py").read_text(encoding="utf-8"))
    entourage = next(node for node in tree.body
                     if isinstance(node, ast.ClassDef) and node.name == "Entourage")
    defs = {node.name: node for body in (tree.body, entourage.body) for node in body
            if isinstance(node, ast.FunctionDef)}
    reached, todo = set(), ["materialize"]
    while todo:
        name = todo.pop()
        if name in reached or name not in defs:
            continue
        reached.add(name)
        todo += [_name(call) for _, call in _calls(defs[name])]
    assert {"materialize", "_radius_pairs", "_key_ordered_csr"} <= reached
    called = {_name(call) for name in reached for _, call in _calls(defs[name])}
    assert not called & {"_bool_matrix", "coo_matrix", "tocsr", "from_matrix"}


def test_every_backend_that_reaches_the_base_mesh_measures_pairs():
    """The base mesh lays out the pairs of small rows for _key_pairs, so
    every backend class whose mesh is the base one, or calls it through
    super(), defines _key_pairs or inherits it from a class below Metric."""
    tree = ast.parse((SRC / "spaces.py").read_text(encoding="utf-8"))
    classes = {node.name: node for node in tree.body if isinstance(node, ast.ClassDef)}
    parent = {name: node.bases[0].id for name, node in classes.items()
              if node.bases and isinstance(node.bases[0], ast.Name)}

    def method(name, attr):
        return next((node for node in classes[name].body
                     if isinstance(node, ast.FunctionDef) and node.name == attr), None)

    def lineage(name):
        while name in classes:
            yield name
            name = parent.get(name)

    def reaches_base_mesh(name):
        for owner in lineage(name):
            mesh = method(owner, "mesh")
            if owner == "Metric":
                return True
            if mesh is not None and not any(
                    isinstance(call.func, ast.Attribute) and call.func.attr == "mesh"
                    and isinstance(call.func.value, ast.Call)
                    and _name(call.func.value) == "super" for _, call in _calls(mesh)):
                return False
        return False

    backends = [name for name in classes if name != "Metric" and "Metric" in lineage(name)]
    reaching = [name for name in backends if reaches_base_mesh(name)]
    assert {"MatrixMetric", "EuclideanMetric", "GridMetric", "DiscreteMetric",
            "ProductMetric"} <= set(reaching)
    missing = [name for name in reaching
               if not any(method(owner, "_key_pairs") for owner in lineage(name)
                          if owner != "Metric")]
    assert missing == []


def _unused_imports(path: pathlib.Path) -> list[str]:
    """The names a module imports and never reads: each name an import
    binds, against the names the module loads anywhere (`np` in
    `np.zeros` included)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = [alias.asname or alias.name.split(".")[0] for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom))
             and getattr(node, "module", None) != "__future__" for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


def test_every_imported_name_is_used():
    """No linter runs on the source, so deletions must not leave dead imports
    behind; __init__.py imports to re-export and is left out."""
    unused = {p.name: names for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"
              for names in [_unused_imports(p)] if names}
    assert unused == {}
