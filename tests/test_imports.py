"""Every name a package module imports is used in that module, every
definition of the package is named outside itself, every parameter of a
package function is read in its body, and every field of a record class
(a named tuple, or a slots class that annotates its fields) is read by the
package itself.

`__init__.py` is left out of the import scan: its imports are the
package's re-exports.
"""

import ast
import os
import subprocess
import sys
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


def imported_modules(source: str) -> set[str]:
    """The top-level names of the modules a source imports, relative
    imports left out."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.add(node.module.split(".")[0])
    return found


def test_no_module_imports_dataclasses():
    # The records are named tuples and slots classes: a dataclass generates
    # and compiles its methods on every import of the command line.
    assert [p.name for p in sorted(PACKAGE.glob("*.py"))
            if "dataclasses" in imported_modules(p.read_text())] == []


def test_scan_finds_an_imported_module():
    source = ("import os.path\nfrom dataclasses import field\nfrom . import exactla\n"
              "def f():\n    import json\n")
    assert imported_modules(source) == {"os", "dataclasses", "json"}


def test_importing_the_cli_loads_no_dataclasses():
    # a fresh interpreter: what the command line pays for at start-up; the
    # command line reader is the cli's own, so no `argparse` (and `gettext`)
    code = ("import sys, liekoszul.cli\n"
            "print(sorted(m for m in ('dataclasses', 'inspect', 'argparse', 'gettext')"
            " if m in sys.modules))")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    assert done.stdout == "[]\n"


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


def record_classes(source: str):
    """The record classes of a module, each with its fields as (line, name)
    pairs: a subclass of `NamedTuple` (also `typing.NamedTuple`), whose
    fields are the names annotated in its body, and a class with
    `__slots__` whose body annotates its fields' types, whose fields are its
    slots.  A slots class that annotates nothing is a value class, not a
    record."""
    for cls in ast.walk(ast.parse(source)):
        if not isinstance(cls, ast.ClassDef):
            continue
        annotated = [(item.lineno, item.target.id) for item in cls.body
                     if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)]
        slots = [(item.lineno, name) for item in cls.body if isinstance(item, ast.Assign)
                 and getattr(item.targets[0], "id", None) == "__slots__"
                 for name in ast.literal_eval(item.value)]
        if any("NamedTuple" in (getattr(b, "id", None), getattr(b, "attr", None))
               for b in cls.bases):
            yield cls.name, annotated
        elif slots and annotated:
            yield cls.name, slots


def dead_fields(package: dict[str, str]) -> list[str]:
    """Fields of the record classes of the `package` sources (path -> text)
    that no source of `package` reads as an attribute (`x.field`) or passes
    by keyword (`field=...`).  A field that only the tests read is dead: a
    caller of the package never sees it."""
    read = set()
    for text in package.values():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.keyword) and node.arg:
                read.add(node.arg)
    return [f"{Path(path).name}:{line} {cls}.{name}" for path, text in package.items()
            for cls, fields in record_classes(text) for line, name in fields if name not in read]


def test_every_record_field_is_read():
    package = {str(p): p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    # the eleven named tuples, `SpectralSequencePage` and `WeightedPolyRing`:
    # a scan that finds no record would pass vacuously
    assert sum(1 for text in package.values() for _ in record_classes(text)) == 13
    assert dead_fields(package) == []


def test_scan_finds_a_dead_field():
    # `tested` is read only by a test file such as "t.py" below, which the
    # scan does not read
    package = {"m.py": ("import typing\nfrom typing import NamedTuple\n\n"
                        "class A(NamedTuple):\n    shown: int\n    kept: int\n"
                        "    written: int\n    tested: int\n\n"
                        "    def show(self):\n        return self.shown\n\n"
                        "class B(typing.NamedTuple):\n    unread: str\n\n"
                        "class S:\n    __slots__ = ('used', 'spare')\n    used: int\n\n"
                        "class Value:\n    __slots__ = ('hidden',)\n\n"
                        "class Plain:\n    note: str\n"),
               "n.py": ("from m import A, S\na = A(1, 2, 3, 4)\na.written = 4\n"
                        "a._replace(kept=5)\nS().used\n")}
    tests = "from m import A\nassert A(1, 2, 3, 4).tested == 4\n"
    assert [cls for cls, _ in record_classes(package["m.py"])] == ["A", "B", "S"]
    assert dead_fields(package) == ["m.py:7 A.written", "m.py:8 A.tested", "m.py:14 B.unread",
                                    "m.py:17 S.spare"]
    assert dead_fields({**package, "t.py": tests}) == ["m.py:7 A.written", "m.py:14 B.unread",
                                                       "m.py:17 S.spare"]


def _handlers(tree: ast.Module) -> set[str]:
    """Names of the functions a module-level `COMMANDS` dict maps to."""
    return {value.id for node in tree.body if isinstance(node, ast.Assign)
            and getattr(node.targets[0], "id", None) == "COMMANDS"
            for value in node.value.values if isinstance(value, ast.Name)}


def unused_parameters(source: str) -> list[str]:
    """Parameters of each function (`def`, not lambda) that no Name node of
    its body reads.  Exempt: `self` and `cls`; `name` and `value` of
    `__setattr__`, the immutability guard; `payload` and `args` of the
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


def _scoped_calls(source: str, module: str, kind: type = ast.Call):
    """(qualified name of the enclosing function, enclosing class, node) for
    each call, or each node of type `kind`, in the source, in document
    order."""

    def visit(node, scope, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from visit(child, scope + [child.name], child.name)
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from visit(child, scope + [child.name], owner)
                continue
            if isinstance(child, kind):
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
    # Builders write canonical rows and make their matrices with
    # `exactla._built`; the checking constructors serve raw input in
    # `exactla` and the tests.
    assert checked_matrix_calls(path.read_text()) == []


def test_scan_finds_a_checking_matrix_constructor():
    source = ("from .exactla import ExactMatrix, _built\nfrom . import exactla\n\n"
              "def a():\n    return ExactMatrix(1, 1, [{0: 1}])\n\n"
              "def c():\n    return [ExactMatrix.from_rows([[1]]), ExactMatrix.zeros(1, 1),\n"
              "            _built(ExactMatrix, 1, 1, ({},))]\n\n"
              "def d(m: ExactMatrix) -> ExactMatrix:\n    return exactla.ExactMatrix(0, 0, [])\n")
    assert checked_matrix_calls(source) == ["ExactMatrix (line 5)", "ExactMatrix (line 12)"]


# The one place that fills a value's slots, the base of the value classes,
# and the one unchecked constructor.  Anywhere else, `object.__setattr__`
# would get round the immutability of a value and `object.__new__` round
# the checks of its class.
RAW_OBJECT_USES = ["exactla.Value._set", "exactla._built"]


def raw_object_uses(source: str, module: str) -> list[str]:
    """The qualified name of the function around each use of
    `object.__setattr__` or `object.__new__`, called or passed on, one
    entry per use."""
    return sorted(site for site, _, node in _scoped_calls(source, module, ast.Attribute)
                  if node.attr in ("__setattr__", "__new__")
                  and isinstance(node.value, ast.Name) and node.value.id == "object")


def test_only_the_value_base_and_built_fill_or_make_a_value():
    sites = [site for path in sorted(PACKAGE.glob("*.py"))
             for site in raw_object_uses(path.read_text(), path.stem)]
    assert sites == RAW_OBJECT_USES


def test_scan_finds_a_raw_object_use():
    source = ("class K:\n    def __init__(self, x):\n"
              "        object.__setattr__(self, 'x', x)\n\n"
              "def make(cls, rows):\n    obj = object.__new__(cls)\n"
              "    any(map(object.__setattr__, [obj], ['rows'], [rows]))\n    return obj\n\n"
              "def fine(obj):\n    return obj.__new__, super().__setattr__, object.__init__\n\n"
              "SET = object.__setattr__\n")
    assert raw_object_uses(source, "m") == ["m", "m.K.__init__", "m.make", "m.make"]


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
