"""Every name a package module imports is used in that module, every
definition of the package is named outside itself, every parameter of a
package function is read in its body, and every dataclass field is read.

`__init__.py` is left out of the import scan: its imports are the
package's re-exports.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "liekoszul"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TRACING = ROOT / "perfbench" / "tracing.py"


def unused_imports(source: str) -> list[str]:
    """Names bound by an import (other than from __future__) that no Name
    node of the module reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def test_scan_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "from .exactla import _axpy, quotient\nquotient(1, 2)\n")
    assert unused_imports(source) == ["_axpy (line 2)"]


def _definitions(tree: ast.Module):
    """(name, first line, last line) of each top-level function and class and
    of each method that is not a dunder."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, kinds):
            yield node.name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, kinds[:2])
                        and not (item.name.startswith("__") and item.name.endswith("__"))):
                    yield item.name, item.lineno, item.end_lineno


def _references(tree: ast.Module):
    """(name, line) of each name a module reads, imports, or writes as a
    string that is an identifier (as in `monkeypatch.setattr(mod, "f", ...)`)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.name.split(".")[-1], node.lineno
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            yield node.value, node.lineno


def dead_definitions(package: dict[str, str], others: dict[str, str],
                     entry_points=()) -> list[str]:
    """Definitions of the `package` sources (path -> text) that no source of
    `package` or `others` names outside the definition's own lines, and no
    traced entry point ("f" or "Class.method") names."""
    trees = {path: ast.parse(text) for path, text in {**package, **others}.items()}
    refs: dict[str, list] = {}
    for path, tree in trees.items():
        for name, line in _references(tree):
            refs.setdefault(name, []).append((path, line))
    traced = {part for entry in entry_points for part in entry.split(".")}
    dead = []
    for path in package:
        for name, first, last in _definitions(trees[path]):
            if name in traced:
                continue
            if not any(p != path or not first <= line <= last for p, line in refs.get(name, ())):
                dead.append(f"{Path(path).name}:{first} {name}")
    return dead


def _entry_points() -> list[str]:
    """The names in `ENTRY_POINTS` of the benchmark's tracer, read without
    running it."""
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "ENTRY_POINTS":
            return [e for entries in ast.literal_eval(node.value).values() for e in entries]
    raise AssertionError("no ENTRY_POINTS in the tracer")


def test_every_definition_is_named_outside_itself():
    package = {str(p): p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    others = {str(p): p.read_text() for p in sorted((ROOT / "tests").glob("*.py"))}
    assert dead_definitions(package, others, _entry_points()) == []


def test_scan_finds_a_dead_definition():
    package = {"m.py": ("def used():\n    return 1\n\n"
                        "def recursive(n):\n    return recursive(n - 1)\n\n"
                        "class K:\n    def method(self):\n        return self.method\n"
                        "    def __len__(self):\n        return 0\n"
                        "    def traced(self):\n        return 0\n")}
    others = {"t.py": "from m import used, K\nused()\n"}
    assert dead_definitions(package, others, ["K.traced"]) == ["m.py:4 recursive",
                                                              "m.py:8 method"]


def dead_fields(package: dict[str, str], others: dict[str, str]) -> list[str]:
    """Fields of the dataclasses of the `package` sources (path -> text) that
    no source of `package` or `others` reads as an attribute (`x.field`) or
    passes by keyword (`field=...`)."""
    read = set()
    for text in {**package, **others}.values():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.keyword) and node.arg:
                read.add(node.arg)
    dead = []
    for path, text in package.items():
        for cls in ast.walk(ast.parse(text)):
            if isinstance(cls, ast.ClassDef) and any(
                    "dataclass" in (getattr(f, "id", None), getattr(f, "attr", None))
                    for d in cls.decorator_list for f in [getattr(d, "func", d)]):
                dead += [f"{Path(path).name}:{item.lineno} {cls.name}.{item.target.id}"
                         for item in cls.body if isinstance(item, ast.AnnAssign)
                         and isinstance(item.target, ast.Name) and item.target.id not in read]
    return dead


def test_every_dataclass_field_is_read():
    package = {str(p): p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    others = {str(p): p.read_text() for d in ("tests", "perfbench")
              for p in sorted((ROOT / d).glob("*.py"))}
    assert dead_fields(package, others) == []


def test_scan_finds_a_dead_field():
    package = {"m.py": ("import dataclasses\nfrom dataclasses import dataclass\n\n"
                        "@dataclass\nclass A:\n    shown: int\n    kept: int\n"
                        "    written: int\n\n    def show(self):\n        return self.shown\n\n"
                        "@dataclasses.dataclass(frozen=True)\nclass B:\n    unread: str\n\n"
                        "class Plain:\n    note: str\n")}
    others = {"t.py": "from m import A\na = A(1, 2, 3)\na.written = 4\nreplace(a, kept=5)\n"}
    assert dead_fields(package, others) == ["m.py:8 A.written", "m.py:15 B.unread"]


def _handlers(tree: ast.Module) -> set[str]:
    """Names of the functions a module-level `COMMANDS` dict maps to."""
    return {value.id for node in tree.body if isinstance(node, ast.Assign)
            and getattr(node.targets[0], "id", None) == "COMMANDS"
            for value in node.value.values if isinstance(value, ast.Name)}


def unused_parameters(source: str) -> list[str]:
    """Parameters of each function (`def`, not lambda) that no Name node of
    its body reads.  Exempt: `self` and `cls`; `name` and `value` of
    `__setattr__`, the immutability guards; `payload` and `args` of the
    `COMMANDS` handlers, which share one signature."""
    tree = ast.parse(source)
    handlers = _handlers(tree)
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        exempt = {"self", "cls"}
        if node.name == "__setattr__":
            exempt |= {"name", "value"}
        if node.name in handlers:
            exempt |= {"payload", "args"}
        a = node.args
        params = [x.arg for x in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg)
                  if x is not None]
        read = {n.id for stmt in node.body for n in ast.walk(stmt) if isinstance(n, ast.Name)}
        unused += [(node.lineno, f"{node.name} (line {node.lineno}): {q}") for q in params
                   if q not in exempt and q not in read]
    return [text for _, text in sorted(unused)]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    assert unused_parameters(path.read_text()) == []


def test_scan_finds_an_unused_parameter():
    source = ("class K:\n    def __setattr__(self, name, value):\n        raise TypeError\n"
              "    @classmethod\n    def make(cls, n, *rest, tag=None):\n        return n, tag\n\n"
              "def handler(payload, args):\n    return {}\n\n"
              "def helper(payload, args):\n    return args\n\n"
              "COMMANDS = {'h': handler}\n")
    assert unused_parameters(source) == ["make (line 5): rest", "helper (line 11): payload"]


CHECKED = {"CochainComplex", "DoubleComplex", "FilteredComplex", "ChainMap"}

# Where the package may call a checking constructor: the readers of raw
# input.  The builders construct through `_built`, and the tests prove
# their output.
RAW_INPUT_READERS = [
    "cli.build_raw_complex",
    "cli.build_raw_double",
    "complexes.DoubleComplex.from_commuting",
    "complexes.FilteredComplex.from_flag",
    "lierinehart.omega_slice_complex",
]


def _scoped_calls(source: str, module: str):
    """(qualified name of the enclosing function, enclosing class, call
    node) for each call in the source, in document order."""

    def visit(node, scope, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from visit(child, scope + [child.name], child.name)
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from visit(child, scope + [child.name], owner)
                continue
            if isinstance(child, ast.Call):
                yield ".".join([module, *scope]), owner, child
            yield from visit(child, scope, owner)

    return visit(ast.parse(source), [], None)


def checked_constructions(source: str, module: str) -> list[str]:
    """The qualified name of the function around each call of a public
    constructor of the checked classes (`CochainComplex(`, `mod.ChainMap(`,
    ..., and `cls(` in a method of one of them), one entry per call."""
    sites = []
    for site, owner, call in _scoped_calls(source, module):
        f = call.func
        name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
        if name in CHECKED or (name == "cls" and isinstance(f, ast.Name) and owner in CHECKED):
            sites.append(site)
    return sorted(sites)


def test_only_raw_input_readers_construct_checked():
    sites = [site for path in sorted(PACKAGE.glob("*.py"))
             for site in checked_constructions(path.read_text(), path.stem)]
    assert sites == sorted(RAW_INPUT_READERS)


def test_scan_finds_a_checked_construction():
    source = ("from .complexes import CochainComplex\nfrom . import complexes\n\n"
              "def builder():\n    return CochainComplex(0, 0, [1], [])\n\n"
              "def fast():\n    return _built(CochainComplex, 0, 0, [1], [])\n\n"
              "def qualified():\n    return [complexes.ChainMap(a, b, {}) for a, b in ()]\n\n"
              "class FilteredComplex:\n    @classmethod\n    def make(cls):\n"
              "        return cls()\n\n"
              "class Other:\n    @classmethod\n    def make(cls):\n        return cls()\n")
    assert checked_constructions(source, "m") == ["m.FilteredComplex.make", "m.builder",
                                                  "m.qualified"]


# Where the package may call `int`, which reads True as 1 and truncates 2.5:
# the readers beside `qq`, which refuse both, and the `--weights` bound, a
# string.  Every other integer is read by `exactla.integer` or `integers`.
INT_READERS = ["cli._bound", "exactla.integer", "exactla.integers", "exactla.qq"]


def int_calls(source: str, module: str) -> list[str]:
    """The qualified name of the function around each call `int(...)`, one
    entry per call."""
    return sorted(site for site, _, call in _scoped_calls(source, module)
                  if isinstance(call.func, ast.Name) and call.func.id == "int")


def test_only_the_readers_call_int():
    sites = {site for path in sorted(PACKAGE.glob("*.py"))
             for site in int_calls(path.read_text(), path.stem)}
    assert sorted(sites) == INT_READERS


def test_scan_finds_an_int_call():
    source = ("N = int('3')\n\n"
              "def read(x):\n    return [int(t) for t in x.split(',')], isinstance(x, int)\n\n"
              "class K:\n    def __init__(self, w):\n        self.w = int(w)\n\n"
              "    def size(self) -> int:\n        return len(map(int, self.w))\n\n"
              "def outer():\n    def inner(y):\n        return int(y)\n    return inner\n")
    assert int_calls(source, "m") == ["m", "m.K.__init__", "m.outer.inner", "m.read"]


def checked_matrix_calls(source: str) -> list[str]:
    """Each call of the checking `ExactMatrix` constructor, `ExactMatrix(...)`
    (also `mod.ExactMatrix(...)`), as "ExactMatrix (line n)".  `from_rows`
    and `zeros` wrap their rows and are not counted."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            if name == "ExactMatrix":
                found.append(f"{name} (line {node.lineno})")
    return found


@pytest.mark.parametrize("path", [p for p in MODULES if p.stem != "exactla"],
                         ids=lambda p: p.name)
def test_only_exactla_calls_a_checking_matrix_constructor(path):
    # Builders write canonical rows and wrap them with `exactla._wrap`; the
    # checking constructors serve raw input in `exactla` and the tests.
    assert checked_matrix_calls(path.read_text()) == []


def test_scan_finds_a_checking_matrix_constructor():
    source = ("from .exactla import ExactMatrix, _wrap\nfrom . import exactla\n\n"
              "def a():\n    return ExactMatrix(1, 1, [{0: 1}])\n\n"
              "def c():\n    return [ExactMatrix.from_rows([[1]]), ExactMatrix.zeros(1, 1),\n"
              "            _wrap(1, 1, ({},))]\n\n"
              "def d(m: ExactMatrix) -> ExactMatrix:\n    return exactla.ExactMatrix(0, 0, [])\n")
    assert checked_matrix_calls(source) == ["ExactMatrix (line 5)", "ExactMatrix (line 12)"]


CACHE_DECORATORS = {"lru_cache", "cache"}
EMPTY_CONTAINERS = {"dict", "list", "set", "defaultdict", "OrderedDict", "Counter"}


def module_level_caches(source: str) -> list[str]:
    """Places where state keyed on input could outlive one input: a function
    with parameters under `functools.lru_cache` or `functools.cache`,
    anywhere, and a name bound to an empty container at module level or in
    a class body.  Every job of the
    benchmark runs in one process, so such a cache would time reuse between
    inputs that a command-line run never gets; the package caches on the
    objects one command builds instead."""
    tree = ast.parse(source)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and (
                node.args.args or node.args.posonlyargs or node.args.kwonlyargs
                or node.args.vararg or node.args.kwarg):
            for d in node.decorator_list:
                f = d.func if isinstance(d, ast.Call) else d
                if (f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)) in CACHE_DECORATORS:
                    found.append(f"{node.name} (line {node.lineno}): decorated cache")
    scopes = [tree.body] + [n.body for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]
    for body in scopes:
        for node in body:
            if not isinstance(node, (ast.Assign, ast.AnnAssign)) or node.value is None:
                continue
            v = node.value
            empty = ((isinstance(v, (ast.Dict, ast.List, ast.Set)) and not getattr(
                          v, "keys", getattr(v, "elts", None)))
                     or (isinstance(v, ast.Call) and isinstance(v.func, ast.Name)
                         and v.func.id in EMPTY_CONTAINERS and not v.args[1:]))
            if empty:
                found.append(f"line {node.lineno}: empty container at module or class level")
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_level_cache(path):
    assert module_level_caches(path.read_text()) == []


def test_scan_finds_a_module_level_cache():
    source = ("from functools import lru_cache, cache\nimport functools\n\n"
              "_seen = {}\nTABLE = {'a': 1}\nNAMES: list = []\n\n"
              "@lru_cache(maxsize=None)\ndef a(x):\n    return x\n\n"
              "@functools.cache\ndef b(x):\n    local = {}\n    return local\n\n"
              "@functools.cache\ndef parser():\n    return object()\n\n"
              "class K:\n    shared = set()\n    kinds = ('x',)\n\n"
              "    def __init__(self):\n        self.own = {}\n")
    assert module_level_caches(source) == [
        "a (line 9): decorated cache", "b (line 13): decorated cache",
        "line 4: empty container at module or class level",
        "line 6: empty container at module or class level",
        "line 22: empty container at module or class level"]
