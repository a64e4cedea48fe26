"""Source hygiene: no module imports a name it never uses, no command line
option under ``src/`` is parsed by ``int``, no module under ``src/`` but
``separator.py`` binds the flow or the network builder to a name of its own,
every flow under ``src/`` names the orientation it runs on, one function
under ``src/`` runs a sink-sequence loop, every residual search under
``src/`` runs inside a flow (or is the one search of
``KeptReaches.reach``, an order search of the sink sequences' set-up or an
``M_t`` search), the verifier names none of the solver's repair code nor
``_degree_bound`` or ``hyperarc_connectivity``, only the two uncapped
connectivity entries read ``_degree_bound`` (through the sink sequences'
set-up), no code under ``src/``
or ``demos/`` but ``augment_to`` reaches the per-level loop
``augment_one``, and the package's ``__all__`` is sorted,
free of duplicates, exactly what its ``__init__.py`` imports and free of
the max-flow kernel's names and of ``augment_one``, and no module under
``src/`` but ``core.py`` holds a copy of an argument rule.

An AST scan of every module under ``src/``, ``tests/`` and ``demos/``.
Package ``__init__.py`` files are skipped by the import scan: their imports
are re-exports.
"""

import ast
import re
from pathlib import Path

import pytest

import hyperorient
from hyperorient import augment, separator

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    path
    for folder in ("src", "tests", "demos")
    for path in (ROOT / folder).rglob("*.py")
    if path.name != "__init__.py"
)


def imported_names(tree):
    """``(name, line)`` for each name a top-level or nested import binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno


def used_names(tree):
    """Every name the module reads, including inside quoted annotations and
    as a string in ``__all__``."""
    used = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant))
    for annotation in annotations:
        for c in ast.walk(annotation):
            if isinstance(c, ast.Constant) and isinstance(c.value, str):
                quoted = ast.parse(c.value, mode="eval")
                used.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = used_names(tree)
    unused = [f"line {line}: {name}" for name, line in imported_names(tree) if name not in used]
    assert not unused, f"{path.relative_to(ROOT)} imports names it never uses: {', '.join(unused)}"


def test_the_scan_sees_the_modules():
    assert len(MODULES) > 20
    tree = ast.parse("import os\nfrom typing import Optional, List\nx: 'Optional[int]' = 1\n")
    assert [name for name, _ in imported_names(tree) if name not in used_names(tree)] == ["os", "List"]


def int_typed_options(tree):
    """Line of each ``add_argument(..., type=int)`` call.  ``int`` also reads
    other scripts' digits and underscores (``'١_0'`` is 10), so options are
    parsed as ASCII digits after argparse instead."""
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "add_argument"
        ):
            for kw in node.keywords:
                if kw.arg == "type" and isinstance(kw.value, ast.Name) and kw.value.id == "int":
                    yield node.lineno


SOURCES = sorted((ROOT / "src").rglob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_int_typed_options(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = list(int_typed_options(tree))
    assert not lines, f"{path.relative_to(ROOT)} parses options with type=int at lines {lines}"


def test_the_option_scan_sees_int_types():
    tree = ast.parse("p.add_argument('--n', type=int)\np.add_argument('--m', type=str)\n")
    assert list(int_typed_options(tree)) == [1]


SEPARATOR_PRIVATE = ("max_flow_min_cut", "incidence_digraph")


def separator_private_imports(tree):
    """Line and name of each import of a name in ``SEPARATOR_PRIVATE``.
    Such a local binding would run flows and builds that a patch of the
    ``separator`` module global (perfbench's tracer, the counting tests)
    never sees; callers reach them as ``separator.max_flow_min_cut``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name in SEPARATOR_PRIVATE:
                    yield node.lineno, alias.name


@pytest.mark.parametrize(
    "path", [p for p in SOURCES if p.name != "separator.py"], ids=lambda p: str(p.relative_to(ROOT))
)
def test_flows_and_builds_stay_behind_the_separator_globals(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = list(separator_private_imports(tree))
    assert not found, f"{path.relative_to(ROOT)} imports separator internals: {found}"


def test_the_package_does_not_export_the_flow_kernel():
    """The max-flow kernel trusts its in-package callers, so it is not part
    of the public API: ``min_separator`` is the flow entry that checks its
    inputs."""
    assert set(hyperorient.__all__).isdisjoint(("max_flow_min_cut", "incidence_digraph", "IncidenceDigraph"))


def test_the_separator_scan_sees_local_bindings():
    tree = ast.parse(
        "from .separator import max_flow_min_cut as flow, network\n"
        "from hyperorient.separator import incidence_digraph\n"
        "from . import separator\n"
    )
    assert list(separator_private_imports(tree)) == [(1, "max_flow_min_cut"), (2, "incidence_digraph")]


def flows_without_residual(tree):
    """Line of each ``max_flow_min_cut(...)`` call, bare or as an attribute,
    that does not pass ``residual=``.  A hypergraph's one network holds no
    orientation: the heads list passed as ``residual=`` is the only one a
    flow has, so such a call has no orientation to run on."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "max_flow_min_cut" and not any(kw.arg == "residual" for kw in node.keywords):
                yield node.lineno


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_flow_passes_its_capacities(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = list(flows_without_residual(tree))
    assert not lines, (
        f"{path.relative_to(ROOT)} runs max_flow_min_cut with no orientation "
        f"(no residual= heads list) at lines {lines}"
    )


def test_the_flow_scan_sees_bare_calls():
    tree = ast.parse(
        "max_flow_min_cut(g, s, t)\n"
        "separator.max_flow_min_cut(g, s, t, limit=1)\n"
        "max_flow_min_cut(g, s, t, residual=res)\n"
        "separator.max_flow_min_cut(g, s, t, limit=1, residual=list(res))\n"
    )
    assert list(flows_without_residual(tree)) == [1, 2]


def sink_sequence_loops(tree):
    """``(line, scope)`` of each ``for`` loop that runs a sink sequence: it
    calls ``max_flow_min_cut``, bare or as an attribute, with a name that it
    also grows, a sink collection that takes each new vertex: a list grown
    with ``append``, or a mask set by subscript (``sinks[t] = True``).  A
    loop nested in such a loop counts too; a function holds a sink
    sequence when it holds one such loop or more."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if isinstance(node, ast.For):
            flowed, grown = set(), set()
            for call in ast.walk(node):
                if isinstance(call, ast.Assign):
                    grown.update(
                        t.value.id for t in call.targets if isinstance(t, ast.Subscript) and isinstance(t.value, ast.Name)
                    )
                if not isinstance(call, ast.Call):
                    continue
                func = call.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "max_flow_min_cut":
                    args = call.args + [kw.value for kw in call.keywords]
                    flowed.update(a.id for a in args if isinstance(a, ast.Name))
                elif name == "append" and isinstance(func.value, ast.Name):
                    grown.add(func.value.id)
            if flowed & grown:
                found.append((node.lineno, scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "")
    return found


def test_src_has_one_sink_sequence_loop():
    """``connectivity`` and ``tight_reaches`` share one sink-sequence loop,
    so the connectivity is computed one way, and a fix to that loop is a
    fix to both."""
    holders = set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        holders.update(f"{path.name}:{scope}" for _, scope in sink_sequence_loops(tree))
    assert sorted(holders) == ["separator.py:_sink_sequences"]


def test_the_sink_sequence_scan_sees_a_second_copy():
    tree = ast.parse(
        "def _sink_sequences(g, heads, best):\n"
        "    for forward in (False, True):\n"
        "        sinks = [0]\n"
        "        for t in range(1, g.n):\n"
        "            value, _ = max_flow_min_cut(g, [t], sinks, limit=best, residual=heads)\n"
        "            sinks.append(t)\n"
        "def _tight_vertices(g, heads, k):\n"
        "    done = [0]\n"
        "    for t in range(1, g.n):\n"
        "        separator.max_flow_min_cut(g, [t], sinks=done, limit=k + 1, residual=heads)\n"
        "        done.append(t)\n"
        "def root_pairs(g, heads, k):\n"
        "    values = []\n"
        "    for v in range(1, g.n):\n"
        "        values.append(max_flow_min_cut(g, [v], [0], limit=k + 1, residual=list(heads)))\n"
        "def _masked_tight_vertices(g, heads, k):\n"
        "    done = _sink_mask(g.n, [0])\n"
        "    for t in range(1, g.n):\n"
        "        separator.max_flow_min_cut(g, [t], done, limit=k + 1, residual=heads)\n"
        "        done[t] = True\n"
        "def masked_root_pairs(g, heads, k):\n"
        "    residuals = [None] * g.n\n"
        "    for v in range(1, g.n):\n"
        "        residuals[v] = list(heads)\n"
        "        max_flow_min_cut(g, [v], _sink_mask(g.n, [0]), limit=k + 1, residual=residuals[v])\n"
    )
    assert sink_sequence_loops(tree) == [
        (2, "_sink_sequences"),
        (4, "_sink_sequences"),
        (9, "_tight_vertices"),
        (18, "_masked_tight_vertices"),
    ]


# ``_passes`` and ``_sink_sequences`` run searches that are no flow: the
# set-up ``_passes`` runs one per pass of an orientation it has not kept,
# which labels the vertices from vertex 0 to fix the pass's order and
# reaches no sink, and ``_sink_sequences`` one per query that marks tight
# vertices, which finds its maximal minimizer ``M_t`` from the query's
# sinks and must not reach the query's vertex.  ``test_work_pin`` counts
# them with the flows' searches.
SEARCH_CALLERS = ("max_flow_min_cut", "KeptReaches.reach", "_passes", "_sink_sequences")


def stray_searches(tree, in_separator):
    """``(line, caller)`` for each use of ``separator._search`` outside
    ``SEARCH_CALLERS``: a bare call inside ``separator.py``
    (``in_separator``), and anywhere else an import of it from a
    ``separator`` module or a ``_search`` attribute of a separator module,
    under whatever name the module imports it (``from . import separator as
    S``, ``import hyperorient.separator as sep``, or ``hyperorient.separator``
    itself).  Every augmenting search must run inside a
    ``max_flow_min_cut`` call, so that a patch of that global (perfbench's
    tracer, the counting tests) sees every flow; ``KeptReaches.reach`` runs
    one search and no flow, ``_passes`` one per pass that fixes the pass's
    order, and ``_sink_sequences`` one per ``M_t`` it finds."""
    found = []
    modules = {"separator"}  # the names bound to a separator module
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            modules.update(alias.asname or alias.name for alias in node.names if alias.name == "separator")
        elif isinstance(node, ast.Import):
            modules.update(
                alias.asname for alias in node.names if alias.asname and alias.name.split(".")[-1] == "separator"
            )

    def is_separator(node):
        if isinstance(node, ast.Name):
            return node.id in modules
        return isinstance(node, ast.Attribute) and node.attr == "separator"

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "separator":
            found.extend((node.lineno, scope) for alias in node.names if alias.name == "_search")
        elif (isinstance(node, ast.Attribute) and node.attr == "_search" and is_separator(node.value)) or (
            in_separator
            and isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "_search"
            and scope not in SEARCH_CALLERS
        ):
            found.append((node.lineno, scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "")
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_residual_search_is_behind_the_flow_global(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = stray_searches(tree, path.name == "separator.py")
    assert not found, f"{path.relative_to(ROOT)} runs separator._search outside {SEARCH_CALLERS}: {found}"


def test_the_search_scan_sees_stray_calls():
    separator_like = ast.parse(
        "def max_flow_min_cut(g):\n"
        "    return _search(g)\n"
        "class IncrementalConnectivity:\n"
        "    def minimal_tight(self):\n"
        "        return _search(self)\n"
        "    def _augment(self):\n"
        "        return _search(self)\n"
        "def connectivity(g):\n"
        "    return _search(g)\n"
        "class KeptReaches:\n"
        "    def reach(self):\n"
        "        return _search(self)\n"
        "    def minimal(self):\n"
        "        return _search(self)\n"
    )
    assert stray_searches(separator_like, True) == [
        (5, "IncrementalConnectivity.minimal_tight"),
        (7, "IncrementalConnectivity._augment"),
        (9, "connectivity"),
        (14, "KeptReaches.minimal"),
    ]
    other = ast.parse(
        "from .separator import _search as search\n"
        "from . import separator\n"
        "def f(g):\n"
        "    return separator._search(g), _search(g)\n"
    )
    assert stray_searches(other, False) == [(1, ""), (4, "f")]
    aliased = ast.parse(
        "from . import separator as S\n"
        "def f(g):\n"
        "    return S._search(g)\n"
        "import hyperorient.separator as sep\n"
        "def h(g):\n"
        "    return sep._search(g)\n"
        "import hyperorient.separator\n"
        "def k(g):\n"
        "    return hyperorient.separator._search(g), other._search(g)\n"
    )
    assert stray_searches(aliased, False) == [(3, "f"), (6, "h"), (9, "k")]


REPAIR_CODE = (
    "IncrementalConnectivity",
    "compute_families",
    "admissible_path_in_tminus",
    "admissible_path_in_tplus",
)


SOLVER_BOUND = ("_degree_bound", "hyperarc_connectivity")


def read_names(code, names=REPAIR_CODE):
    """The ``names`` that a function's code object reads, as globals or
    attributes, with those of the code nested in it (its generator
    expressions).  The verifier must read none of ``REPAIR_CODE``, so a bug
    in the step check, the families or the path search cannot also fool
    it, and none of ``SOLVER_BOUND``: ``_degree_bound``, where the solver's
    uncapped connectivity starts, and ``hyperarc_connectivity``, which
    starts there.  Its upper bound is a count of its own, which it passes
    to ``connectivity`` as the cap."""
    found = set(code.co_names) & set(names)
    for const in code.co_consts:
        if isinstance(const, type(code)):
            found.update(read_names(const, names))
    return sorted(found)


def test_the_verifier_shares_no_repair_code():
    assert read_names(augment.verify_trace.__code__) == []


def test_the_repair_scan_sees_the_solver():
    solver = set(read_names(augment.augment_one.__code__)) | set(read_names(augment.augment_to.__code__))
    assert sorted(solver) == sorted(REPAIR_CODE)
    nested = compile("def f(xs):\n    return any(compute_families(x) for x in xs)\n", "<scan>", "exec")
    assert read_names(nested) == ["compute_families"]


def test_the_verifier_reads_no_degree_bound():
    assert read_names(augment.verify_trace.__code__, SOLVER_BOUND) == []


def test_the_degree_bound_scan_sees_the_solver():
    assert read_names(separator._passes.__code__, SOLVER_BOUND) == ["_degree_bound"]
    assert read_names(augment.augment_to.__code__, SOLVER_BOUND) == ["hyperarc_connectivity"]
    nested = compile("def f(h, os):\n    return min(separator._degree_bound(h, o) for o in os)\n", "<scan>", "exec")
    assert read_names(nested, SOLVER_BOUND) == ["_degree_bound"]


def readers(tree, name="_degree_bound"):
    """The functions of a module whose code names ``name``, bare or as an
    attribute, nested code included."""
    return sorted(
        f.name
        for f in ast.walk(tree)
        if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(getattr(node, "id", getattr(node, "attr", None)) == name for node in ast.walk(f))
    )


def uncapped_runs(tree):
    """The functions of a module that call ``_sink_sequences`` with the
    cap ``None``, the start at the bound."""
    return sorted(
        f.name
        for f in ast.walk(tree)
        if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(
            isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) == "_sink_sequences"
            and len(node.args) > 2
            and isinstance(node.args[2], ast.Constant)
            and node.args[2].value is None
            for node in ast.walk(f)
        )
    )


def test_only_the_uncapped_entries_read_the_degree_bound():
    """``connectivity`` runs from the cap its caller passes, so the bound
    is the start of the two entries that take no cap.  The one set-up
    ``_passes`` reads it, for ``_sink_sequences`` alone, which asks for it
    when its cap is ``None``, and only those two entries pass that."""
    trees = {path.name: ast.parse(path.read_text()) for path in SOURCES}

    def found(scan, *args):
        return {(name, f) for name, tree in trees.items() for f in scan(tree, *args)}

    assert found(readers) == {("separator.py", "_passes")}
    assert found(readers, "_passes") == {("separator.py", "_sink_sequences")}
    assert found(uncapped_runs) == {("separator.py", "hyperarc_connectivity"), ("separator.py", "tight_reaches")}


def test_the_degree_bound_reader_scan_sees_each_form():
    tree = ast.parse(
        "def f(h, o):\n    return _degree_bound(h, o)\n"
        "def g(h, os):\n    return [separator._degree_bound(h, o) for o in os]\n"
        "def k(h, o):\n    return connectivity(h, o, h.m + 1)\n"
        "def u(h, o):\n    return _sink_sequences(h, o, None, False)\n"
        "def v(h, o):\n    return separator._sink_sequences(h, o, None, True)\n"
        "def w(h, o, cap):\n    return _sink_sequences(h, o, cap, False)\n"
    )
    assert readers(tree) == ["f", "g"]
    assert uncapped_runs(tree) == ["u", "v"]


def level_loop_uses(tree, in_augment):
    """``(line, scope)`` for each call of ``augment_one``, bare or as an
    attribute, and each import of it, except the one call from
    ``augment_to`` in ``augment.py`` (``in_augment``).  ``augment_to`` is
    the one augmentation entry: it checks the target and computes the
    exact level that its per-level loop takes on trust."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if isinstance(node, ast.ImportFrom):
            found.extend((node.lineno, scope) for alias in node.names if alias.name == "augment_one")
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "augment_one" and not (in_augment and scope == "augment_to"):
                found.append((node.lineno, scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "")
    return found


@pytest.mark.parametrize(
    "path",
    SOURCES + sorted((ROOT / "demos").rglob("*.py")),
    ids=lambda p: str(p.relative_to(ROOT)),
)
def test_only_augment_to_runs_the_level_loop(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = level_loop_uses(tree, path.name == "augment.py")
    assert not found, f"{path.relative_to(ROOT)} reaches augment_one outside augment_to: {found}"


def test_the_package_does_not_export_the_level_loop():
    assert "augment_one" not in hyperorient.__all__ and not hasattr(hyperorient, "augment_one")


def test_the_level_loop_scan_sees_stray_calls():
    augment_like = ast.parse(
        "def augment_to(h, o, k):\n"
        "    return augment_one(h, o, k, None)\n"
        "def other(h, o):\n"
        "    return augment_one(h, o, 0, None)\n"
    )
    assert level_loop_uses(augment_like, True) == [(4, "other")]
    assert level_loop_uses(augment_like, False) == [(2, "augment_to"), (4, "other")]
    demo = ast.parse(
        "from hyperorient.augment import augment_one\n"
        "import hyperorient.augment as aug\n"
        "def main(h, o):\n"
        "    return aug.augment_one(h, o, 0, None)\n"
    )
    assert level_loop_uses(demo, False) == [(1, ""), (4, "main")]


def export_problems(tree):
    """What is wrong with a package ``__init__``'s ``__all__``: out of
    order, a name listed twice, an imported name not listed, or a listed
    name not imported.  A renamed export must change both places."""
    exported = next(
        [c.value for c in node.value.elts]
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
    )
    imported = {name for name, _ in imported_names(tree)}
    problems = []
    if exported != sorted(exported):
        problems.append("not sorted")
    problems += [f"listed twice: {name}" for name in sorted({n for n in exported if exported.count(n) > 1})]
    problems += [f"imported, not listed: {name}" for name in sorted(imported - set(exported))]
    problems += [f"listed, not imported: {name}" for name in sorted(set(exported) - imported)]
    return problems


def test_the_package_exports_what_it_imports():
    init = ROOT / "src" / "hyperorient" / "__init__.py"
    assert export_problems(ast.parse(init.read_text(encoding="utf-8"))) == []


def test_the_export_scan_sees_each_fault():
    tree = ast.parse(
        "from .a import alpha, beta, gamma\n"
        "from .b import Delta\n"
        "__version__ = '1'\n"
        "__all__ = ['Delta', 'beta', 'alpha', 'beta', 'omega']\n"
    )
    assert export_problems(tree) == [
        "not sorted",
        "listed twice: beta",
        "imported, not listed: gamma",
        "listed, not imported: omega",
    ]
    assert export_problems(ast.parse("from .a import b, a\n__all__ = ['a', 'b']\n")) == []


def argument_rule_copies(tree):
    """``(line, what)`` for each copy of a ``core`` argument rule: an
    ``isinstance`` test against ``bool``, a comparison with the sides
    ``("out", "in")``, a comparison of two ``.n`` attributes (a ground-set
    test), a raise of ``InvalidReorientation`` (a new-head test), a raise
    of ``PreconditionError`` that names a ``type(x).__name__`` (a type
    test), or a function named like a rule (``_check_count``,
    ``_as_vertex``, ``_as_vertex_count``, ``_as_vertex_set``, ``_as_edge``,
    ``_as_new_head``, ``_is_out``, ``_as_tuple``, ``_as_hypergraph``,
    ``_as_instance``, ``_same_instance``).  ``core`` holds the one
    instance, count, vertex count, vertex, vertex set, edge id, new head,
    side, collection, hypergraph and orientation rule, so every entry takes
    an ``IntEnum``, rejects a ``bool`` and a foreign object, and words a
    refusal alike.  The trace rule's exact-``int`` tests (``type(x) is
    int``) are a stricter rule of their own, and no copy; so is the
    verifier's report of an illegal step, a failure in its report rather
    than a raise."""
    found = []

    def names(node):
        return {getattr(e, "id", getattr(e, "attr", None)) for e in ast.walk(node)}

    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance" and len(node.args) == 2:
            kinds = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
            if any(getattr(kind, "id", None) == "bool" for kind in kinds):
                found.append((node.lineno, "isinstance bool"))
        elif isinstance(node, ast.Compare):
            for other in node.comparators:
                if isinstance(other, (ast.Tuple, ast.List, ast.Set)) and {
                    getattr(e, "value", None) for e in other.elts
                } == {"in", "out"}:
                    found.append((node.lineno, "side compare"))
            if sum(isinstance(e, ast.Attribute) and e.attr == "n" for e in [node.left, *node.comparators]) >= 2:
                found.append((node.lineno, "n compare"))
        elif isinstance(node, ast.Raise) and "InvalidReorientation" in names(node):
            found.append((node.lineno, "new head raise"))
        elif isinstance(node, ast.Raise) and {"PreconditionError", "type", "__name__"} <= names(node):
            found.append((node.lineno, "type refusal"))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and re.search(
            r"(check|as)_(count|int|vertex|side|edge|new_head|head|ground|tuple|hypergraph|instance)|^_?(is_out|same_instance)$",
            node.name,
        ):
            found.append((node.lineno, f"def {node.name}"))
    return found


@pytest.mark.parametrize(
    "path", [p for p in SOURCES if p.name != "core.py"], ids=lambda p: str(p.relative_to(ROOT))
)
def test_core_holds_the_only_argument_rules(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = argument_rule_copies(tree)
    assert not found, f"{path.relative_to(ROOT)} copies an argument rule of core: {found}"


def test_the_argument_rule_scan_sees_a_second_copy():
    tree = ast.parse(
        "def _check_count(name, value):\n"
        "    if isinstance(value, bool) or not isinstance(value, int):\n"
        "        raise ValueError(name)\n"
        "def kept(side, v):\n"
        "    if side not in ('out', 'in') or isinstance(v, (int, bool)):\n"
        "        raise ValueError(side)\n"
        "    return side in ['in', 'out'], side == 'out', isinstance(v, int)\n"
        "def _as_vertex(v, n):\n"
        "    return v\n"
        "def _int_record(rec):\n"
        "    sign, other = ('in', 'out') if rec else ('out', 'in')\n"
        "    return type(rec) is int, sign, other\n"
        "def _as_edge(e, m):\n"
        "    return e\n"
        "def _as_vertex_count(n):\n"
        "    return n\n"
        "def _as_vertex_set(what, x, n):\n"
        "    return x\n"
        "def _as_new_head(h, heads, e, u):\n"
        "    return u\n"
        "def _same_instance(h, o):\n"
        "    return o\n"
        "def kept(h, x, p, e, u):\n"
        "    if x.n != h.n or h.n == p.n or x.n == len(p) or x == h.n:\n"
        "        raise core.InvalidReorientation(f'illegal new head {u} for edge {e}')\n"
        "    raise InvalidReorientation\n"
        "def _as_instance(what, x, kind):\n"
        "    if not isinstance(x, Hyperpath):\n"
        "        raise PreconditionError(f'path is a {type(x).__name__}, not a Hyperpath')\n"
    )
    assert sorted(argument_rule_copies(tree)) == [
        (1, "def _check_count"),
        (2, "isinstance bool"),
        (5, "isinstance bool"),
        (5, "side compare"),
        (7, "side compare"),
        (8, "def _as_vertex"),
        (13, "def _as_edge"),
        (15, "def _as_vertex_count"),
        (17, "def _as_vertex_set"),
        (19, "def _as_new_head"),
        (21, "def _same_instance"),
        (24, "n compare"),
        (24, "n compare"),
        (25, "new head raise"),
        (26, "new head raise"),
        (27, "def _as_instance"),
        (29, "type refusal"),
    ]
    core = ast.parse((ROOT / "src" / "hyperorient" / "core.py").read_text(encoding="utf-8"))
    assert {what for _, what in argument_rule_copies(core)} >= {
        "isinstance bool",
        "side compare",
        "def _as_int",
        "def _as_count",
        "def _as_vertex",
        "def _as_vertex_count",
        "def _as_vertex_set",
        "def _as_edge",
        "def _as_new_head",
        "def _is_out",
        "def _as_tuple",
        "def _as_hypergraph",
        "def _as_instance",
        "def _same_instance",
        "type refusal",
        "n compare",
        "new head raise",
    }
