"""Every stage runs as Ray Data map tasks: no actor pool, no pool size.

A pool of one-CPU actors cannot start while a one-CPU session runs the
pool's input, so a gate built on one hangs there; and a fixed pool or
task cap does not follow the session's CPUs.  Stateful stages go
through ``runtime.stateful_map``, which builds one instance per worker
process.  Nor does a stage size its plan by a knob of its own: a small
graph takes one ``co_shuffle`` bucket when its bytes fit one block, not
below an edge count (``small_edge_limit``).  These scans keep it that
way.
"""

import ast
import pathlib

_POOL_KEYWORDS = {"concurrency", "fn_constructor_args", "fn_constructor_kwargs"}
_SIZING_PARAMS = {"concurrency", "small_edge_limit"}


def _pool_requests(paths) -> set:
    """``(module stem, line)`` of each call among ``paths`` that asks Ray
    for an actor pool or a task cap: a pool keyword, or a
    ``map_batches`` whose function is a class defined in ``paths``."""
    trees = {path: ast.parse(path.read_text()) for path in paths}
    classes = {n.name for tree in trees.values() for n in ast.walk(tree)
               if isinstance(n, ast.ClassDef)}
    found = set()
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            if any(k.arg in _POOL_KEYWORDS for k in node.keywords):
                found.add((path.stem, node.lineno))
            if isinstance(node.func, ast.Attribute) and node.func.attr == "map_batches":
                fns = node.args[:1] + [k.value for k in node.keywords if k.arg == "fn"]
                for fn in fns:
                    name = fn.attr if isinstance(fn, ast.Attribute) else getattr(fn, "id", None)
                    if name in classes:
                        found.add((path.stem, node.lineno))
    return found


def _concurrency_params(paths) -> set:
    """``module.function`` of each function among ``paths`` that takes a
    ``concurrency`` or ``small_edge_limit`` parameter."""
    found = set()
    for path in paths:
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = fn.args
                names = {p.arg for p in a.posonlyargs + a.args + a.kwonlyargs}
                if names & _SIZING_PARAMS:
                    found.add(f"{path.stem}.{fn.name}")
    return found


def _library_files():
    import solaris_ray

    return sorted(pathlib.Path(solaris_ray.__file__).parent.rglob("*.py"))


def test_library_asks_for_no_actor_pool():
    from solaris_ray import runtime
    from solaris_ray.stages import _buckets

    paths = _library_files()
    assert not _pool_requests(paths), sorted(_pool_requests(paths))
    assert not _concurrency_params(paths), sorted(_concurrency_params(paths))
    assert not hasattr(runtime, "auto_concurrency")
    # the graph family's one small-input plan is co_shuffle's one bucket
    for gone in ("one_task", "int_column", "SMALL_EDGE_LIMIT"):
        assert not hasattr(_buckets, gone), gone


def test_pool_scan_sees_each_form(tmp_path):
    # the scan must flag every form it polices, or the ratchet is empty
    forms = {
        "cap": "def f(ds, g):\n    return ds.map_batches(g, concurrency=4)\n",
        "ctor": "def f(ds, g):\n    return ds.map_batches(\n        g, fn_constructor_kwargs={'a': 1})\n",
        "cls": "class Stage:\n    pass\n\n\ndef f(ds):\n    return ds.map_batches(Stage, batch_size=8)\n",
        "attr": "import cls\n\n\ndef f(ds):\n    return ds.map_batches(fn=cls.Stage)\n",
        "fine": ("class Stage:\n    pass\n\n\n# ds.map_batches(Stage, concurrency=2)\n"
                 "concurrency = 4\ns = 'map_batches(Stage)'\n\n\n"
                 "def f(ds, peak_concurrency):\n"
                 "    return ds.map_batches(Stage(), batch_size=8), peak_concurrency(ds)\n"),
        "param": "def f(ds, concurrency=None):\n    return ds\n",
        "limit": "def g(ds, *, small_edge_limit=500_000):\n    return ds\n",
    }
    for name, src in forms.items():
        (tmp_path / f"{name}.py").write_text(src)
    paths = sorted(tmp_path.glob("*.py"))
    assert _pool_requests(paths) == {("cap", 2), ("ctor", 2), ("cls", 6), ("attr", 5)}
    assert _concurrency_params(paths) == {"param.f", "limit.g"}
