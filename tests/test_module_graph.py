"""The package's import graph, read from the source: one way, no cycles."""

import ast
from pathlib import Path

import iongrover

SRC = Path(iongrover.__file__).parent
MODULES = {path.stem: path for path in SRC.glob("*.py")}
#: each module imports only modules before it
LAYERS = ["_csvtext", "model", "householder", "dynamics", "pulses", "grover",
          "imperfections", "validation", "__init__", "cli"]


class Imports(ast.NodeVisitor):
    """(imported module, whether the import sits inside a function) for each
    intra-package import, relative or absolute; a name that is no module of
    the package (``from . import __version__``) comes from ``__init__``."""

    def __init__(self):
        self.found, self.depth = [], 0

    def visit_FunctionDef(self, node):
        self.depth += 1
        self.generic_visit(node)
        self.depth -= 1

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Import(self, node):
        self.found += [(a.name.split(".")[1], self.depth > 0) for a in node.names
                       if a.name.startswith("iongrover.")]

    def visit_ImportFrom(self, node):
        module = node.module or ""
        if node.level == 0:
            if module.split(".")[0] != "iongrover":
                return
            module = module.partition(".")[2]
        elif node.level > 1:
            return
        names = [module] if module else [a.name if a.name in MODULES else "__init__"
                                         for a in node.names]
        self.found += [(name, self.depth > 0) for name in names]


def imports(name):
    visitor = Imports()
    visitor.visit(ast.parse(MODULES[name].read_text()))
    return visitor.found


def graph():
    return {name: {target for target, _ in imports(name)} for name in MODULES}


def test_import_graph_has_no_cycle():
    edges, done = graph(), []
    while len(done) < len(edges):  # peel off modules whose imports are all done
        ready = [m for m in edges if m not in done and edges[m] <= set(done)]
        assert ready, f"import cycle among {sorted(set(edges) - set(done))}"
        done += ready


def test_modules_import_only_earlier_layers():
    assert sorted(LAYERS) == sorted(MODULES)
    rank = {name: i for i, name in enumerate(LAYERS)}
    backward = [(m, t) for m, targets in graph().items() for t in targets
                if rank[t] >= rank[m]]
    assert backward == []


def test_only_cli_defers_an_import():
    # validate's suite loads only when that command runs
    deferred = [(m, t) for m in MODULES for t, local in imports(m) if local]
    assert deferred == [("cli", "validation")]


def test_dynamics_does_not_import_pulses():
    assert "pulses" not in graph()["dynamics"]
    assert iongrover.pulses.PulseShape is iongrover.model.PulseShape
    assert iongrover.pulses.PulseSpec is iongrover.model.PulseSpec


def unexplained_unused_imports(name):
    """(name, line) of each name the module imports but never reads, unless
    the line that imports it carries a comment giving the reason."""
    source = MODULES[name].read_text()
    tree, lines = ast.parse(source), source.splitlines()
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and not (
                isinstance(node, ast.ImportFrom) and node.module == "__future__"):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in read and "#" not in lines[alias.lineno - 1]:
                    unused.append((bound, alias.lineno))
    return unused


def test_every_import_is_used_or_explained():
    # an import kept for its side effect or for a tracer says so on its line
    unused = {m: unexplained_unused_imports(m) for m in MODULES if m != "__init__"}
    assert {m: found for m, found in unused.items() if found} == {}


#: exported types that callers receive from a function but never name
UNNAMED_EXPORTS = {"Detection", "IterationPlan", "SweepRow", "NormalizationError"}


def referenced_names(path):
    """Every name a source file reads, imports or looks up as an attribute."""
    tree, names = ast.parse(path.read_text()), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.split(".")[-1])
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module.split(".")[-1])
    return names


def test_every_export_has_a_caller_outside_its_module():
    # no public name that nothing uses: each is named in another module of the
    # package or in the acceptance tests
    root = SRC.parent.parent
    users = {path: referenced_names(path) for path in [
        *(p for name, p in MODULES.items() if name != "__init__"),
        root / "tests" / "test_acceptance.py"]}
    unused = set()
    for name in iongrover.__all__:
        obj = getattr(iongrover, name)
        home = MODULES.get(getattr(obj, "__module__", obj.__name__).split(".")[-1])
        if not any(name in found for path, found in users.items() if path != home):
            unused.add(name)
    assert unused == UNNAMED_EXPORTS
