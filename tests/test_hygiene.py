"""Source hygiene checks on the typsat package and its demos, by static scan."""

import ast
import importlib
from collections import Counter
from pathlib import Path

import pytest

import typsat

MODULES = sorted(p for p in Path(typsat.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")
DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))


def _imported_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


@pytest.mark.parametrize("path", MODULES + DEMOS + TESTS,
                         ids=[p.name for p in MODULES + DEMOS + TESTS])
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(_imported_names(tree) - used) == []


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _bound(scope) -> set[str]:
    """The names a function binds itself: its arguments, the names it stores
    or deletes and the functions and classes it defines, nested scopes aside."""
    args = scope.args
    names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
    names.update(a.arg for a in (args.vararg, args.kwarg) if a)
    todo = list(scope.body) if isinstance(scope.body, list) else [scope.body]
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        if not isinstance(node, _SCOPES + (ast.ClassDef,)):
            todo.extend(ast.iter_child_nodes(node))
    return names


def _references(tree: ast.AST, bound: frozenset = frozenset()) -> Counter:
    """Names used under a node: loads, attributes, imports and exact-name
    strings (the benchmark tracer wraps functions by name).  A name assigned
    or deleted is no use of it, and neither is a read of a name the enclosing
    function binds (`_bound`): a local of the same name refers to nothing."""
    if isinstance(tree, _SCOPES):
        bound = bound | _bound(tree)
    refs = Counter()
    if isinstance(tree, ast.Name):
        if isinstance(tree.ctx, ast.Load) and tree.id not in bound:
            refs[tree.id] += 1
    elif isinstance(tree, ast.Attribute):
        refs[tree.attr] += 1
    elif isinstance(tree, (ast.Import, ast.ImportFrom)):
        refs.update(a.name.split(".")[-1] for a in tree.names)
    elif isinstance(tree, ast.Constant) and isinstance(tree.value, str):
        refs[tree.value] += 1
    for child in ast.iter_child_nodes(tree):
        refs += _references(child, bound)
    return refs


def _unreferenced(modules: list[str], users: list[str]) -> list[str]:
    """The top-level functions and classes of the `modules` sources that no
    source in `users` refers to outside their own body."""
    total = sum((_references(ast.parse(text)) for text in users), Counter())
    definitions = [node for text in modules for node in ast.parse(text).body
                   if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    return sorted(d.name for d in definitions if total[d.name] == _references(d)[d.name])


def test_every_top_level_definition_is_referenced():
    """Each top-level function and class is used outside its own body by
    product code: src/ (re-exports in __init__ do not count), demos/ or
    perfbench/.  A definition only tests call belongs beside those tests."""
    root = Path(__file__).resolve().parents[1]
    files = MODULES + [p for d in ("demos", "perfbench") for p in (root / d).rglob("*.py")]
    assert _unreferenced([p.read_text() for p in MODULES], [p.read_text() for p in files]) == []


def test_a_local_of_the_same_name_is_no_reference():
    module = ("def uv():\n    return 1\n\n\n"
              "def uv_star(x):\n    uv = x + 1\n    del uv\n    return x\n\n\n"
              "def uv_plus(x):\n    uv = x + 1\n    return uv\n\n\n"
              "def uv_of(uv):\n    return uv\n")
    assert _unreferenced([module], [module]) == ["uv", "uv_of", "uv_plus", "uv_star"]
    assert _unreferenced([module], [module, "from m import uv\nuv()\n"]) == [
        "uv_of", "uv_plus", "uv_star"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_outward_rounding_lives_in_intervals(path):
    """Only `intervals` steps floats by ulps; every other module goes through
    its `next_down`/`next_up`."""
    if path.name != "intervals.py":
        assert "nextafter" not in path.read_text()


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_float_sums_go_through_xsum(path):
    """No module calls `math.fsum`, and none but `intervals` calls `np.sum`:
    the float summation policy lives in `intervals.xsum`, under the error
    bound `intervals.sum_slack`."""
    tree = ast.parse(path.read_text(), filename=str(path))
    numpy_sum = path.name != "intervals.py"
    sum_refs = [node for node in ast.walk(tree)
                if (isinstance(node, ast.Attribute) and node.attr == "fsum")
                or (isinstance(node, ast.alias) and node.name == "fsum")
                or (numpy_sum and isinstance(node, ast.Attribute) and node.attr == "sum"
                    and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy"))
                or (numpy_sum and isinstance(node, ast.ImportFrom) and node.module == "numpy"
                    and any(a.name == "sum" for a in node.names))]
    assert sum_refs == []


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_integer_logs_live_in_distribution(path):
    """Only `distribution` takes math.factorial or math.comb: it logs them once
    per mode.  `pipeline._pair_bound` counts exactly and takes no logs."""
    if path.name == "distribution.py":
        return
    tree = ast.parse(path.read_text(), filename=str(path))
    scopes = [node for node in tree.body
              if not (path.name == "pipeline.py" and getattr(node, "name", None) == "_pair_bound")]
    refs = [node for scope in scopes for node in ast.walk(scope)
            if (isinstance(node, ast.Attribute) and node.attr in ("factorial", "comb"))
            or (isinstance(node, ast.alias) and node.name in ("factorial", "comb"))]
    assert refs == []


def _tracer_constant(name: str):
    """The literal value of a top-level assignment in perfbench/tracer.py."""
    tracer = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    return next(ast.literal_eval(node.value) for node in ast.parse(tracer.read_text()).body
                if isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == name for t in node.targets))


def test_pipeline_keeps_the_names_the_tracer_rebinds():
    """perfbench/tracer.py rebinds PIPELINE_BINDINGS in typsat.pipeline by
    name; a name pipeline no longer imports would break a traced run."""
    import typsat.pipeline

    bindings = _tracer_constant("PIPELINE_BINDINGS")
    assert bindings
    assert [name for name in bindings if not hasattr(typsat.pipeline, name)] == []


def test_tracer_targets_resolve():
    """perfbench/tracer.py wraps each (module, attr) of TARGETS with getattr;
    a renamed or removed function would crash every traced run."""
    targets = _tracer_constant("TARGETS")
    assert targets
    missing = [(module, attr) for module, attr in targets
               if not hasattr(importlib.import_module(module), attr)]
    assert missing == []
