"""The package root imports its submodules lazily (PEP 562)."""

import ast
import collections
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import mullsem

SRC = str(Path(__file__).resolve().parent.parent / "src")


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def fresh(code):
    """JSON printed by code run in a new interpreter."""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=_env(), check=True, timeout=60)
    return json.loads(proc.stdout)


def test_import_loads_no_submodule():
    loaded = fresh("import json, sys, mullsem; print(json.dumps(sorted("
                   "m for m in sys.modules if m.startswith('mullsem'))))")
    assert loaded == ["mullsem"]


def test_every_public_name_resolves_in_a_fresh_interpreter():
    # dir() lists the names before they are loaded
    missing = fresh("import json, mullsem; listed = dir(mullsem); "
                    "print(json.dumps([n for n in mullsem.__all__ if n not in "
                    "listed or getattr(mullsem, n, None) is None]))")
    assert missing == []


def test_star_import_binds_every_public_name():
    bound = fresh("import json\nfrom mullsem import *\n"
                  "print(json.dumps(sorted(globals())))")
    assert set(mullsem.__all__) <= set(bound)


def test_public_names_are_the_defining_objects():
    from mullsem import formula, totality, wrel
    assert mullsem.parse is formula.parse
    assert mullsem.UpFamily is totality.UpFamily
    assert mullsem.compose is wrel.compose
    assert mullsem.__version__ == "0.1.0"


def test_each_public_name_is_exported_from_its_defining_module():
    for module, names in mullsem._EXPORTS.items():
        for name in names:
            value = getattr(mullsem, name)
            assert getattr(value, "__module__", None) in (
                None, f"mullsem.{module}"), name


def _referenced(node):
    """How often each name is read, as a variable, an attribute or an
    imported name, in the tree under node."""
    counts = collections.Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            counts[n.id] += 1
        elif isinstance(n, ast.Attribute):
            counts[n.attr] += 1
        elif isinstance(n, ast.alias):
            counts[n.name.rpartition(".")[2]] += 1
    return counts


def test_src_defines_only_what_src_or_the_api_uses():
    # code that only tests call belongs in tests/oracles.py: a function
    # or class at the top of a module must be referenced by other src/
    # code, be exported through _EXPORTS, or be a command's run.  A
    # public method of an exported class is API; any other method must
    # be read by src/ code outside its own body
    package = Path(SRC) / "mullsem"
    trees = {path.relative_to(package).with_suffix("").as_posix()
             .replace("/", "."): ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(package.rglob("*.py"))}
    everywhere = collections.Counter()
    for tree in trees.values():
        everywhere += _referenced(tree)
    exported = {n for names in mullsem._EXPORTS.values() for n in names}
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)

    def used(node):
        name = node.name
        return (everywhere[name] > _referenced(node)[name]
                or name.startswith("__") and name.endswith("__"))

    unused = set()
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (*functions, ast.ClassDef)):
                continue
            if not (used(node) or node.name in exported
                    or module.startswith("commands.") and node.name == "run"):
                unused.add(f"{module}.{node.name}")
            if not isinstance(node, ast.ClassDef):
                continue
            for method in node.body:
                if not isinstance(method, functions) or used(method):
                    continue
                if node.name in exported and not method.name.startswith("_"):
                    continue
                unused.add(f"{module}.{node.name}.{method.name}")
    assert unused == set()


def _tracing():
    """perfbench/tracing.py, loaded as it stands."""
    path = Path(SRC).parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_layers_are_bound_where_the_tracer_looks():
    # Tracer._replace takes getattr(package, module), walks the dotted
    # path with getattr and reads the last name from vars(), so a name
    # moved out of the module it names (or left as a lazy PEP 562 name)
    # breaks the traced benchmark runs
    tracing = _tracing()
    entries = [(module, path) for _, module, path in
               tracing.TIMED + tracing.COUNTED]
    entries.append(("phase", "enumerate_spaces"))
    unbound = []
    for module, path in entries:
        owner = getattr(mullsem, module)
        *parts, attr = path.split(".")
        for part in parts:
            owner = getattr(owner, part)
        value = vars(owner).get(attr)
        if not callable(value):
            unbound.append(f"{module}.{path}")
        elif not isinstance(owner, type):
            # a wrapper rebinds every binding of the defining object,
            # so the defining module's binding must be that object
            home = importlib.import_module(value.__module__)
            assert vars(home)[value.__name__] is value, f"{module}.{path}"
    assert unbound == []


def test_submodules_resolve_in_a_fresh_interpreter():
    names = ["phase", "wrel", "_kernels", "cli", "errors", "budgets"]
    got = fresh("import json, mullsem; print(json.dumps("
                f"[getattr(mullsem, n).__name__ for n in {names!r}]))")
    assert got == [f"mullsem.{n}" for n in names]


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        mullsem.no_such_name
    assert not hasattr(mullsem, "no_such_name")
    with pytest.raises(ImportError):
        from mullsem import no_such_name  # noqa: F401


def _cli_modules(*argv):
    """Modules a ``python -m mullsem --format machine`` child loads, read
    from the interpreter's verbose import log; the package's own without
    their ``mullsem.`` prefix."""
    proc = subprocess.run([sys.executable, "-v", "-m", "mullsem", "--format",
                           "machine", *argv], capture_output=True, text=True,
                          env=_env(), check=True, timeout=60)
    json.loads(proc.stdout)  # the command answered
    return {name.removeprefix("mullsem.") for name in
            re.findall(r"^import '([\w.]+)'", proc.stderr, re.MULTILINE)}


# Each command runs from its own module of mullsem.commands and loads
# only its model.  dataclasses (with inspect behind it) costs a CLI child
# several milliseconds, so no command imports it: the value classes are
# Records.  No command loads the morphism side (fibration) or wrel; fix
# loads the polynomial systems (newton) but not the matrices and poles,
# polar and admissible the other way round, and only polar loads the LP
# (simplex).  newton computes in plain numbers, so fix loads no
# semiring; the wrel report names its semiring without loading semiring
# (or fractions).
@pytest.mark.parametrize("argv,needed,unused", [
    (["variance", "mu x. 1 + x"], {"formula"},
     {"relmodel", "totality", "phase", "dataclasses"}),
    (["interp", "--model", "rel", "--depth", "2", "mu x. 1 + x"],
     {"formula", "relmodel"}, {"totality", "phase", "dataclasses"}),
    (["interp", "--model", "totality", "--depth", "2", "mu x. 1 + x"],
     {"formula", "relmodel", "totality"}, {"phase", "dataclasses"}),
    (["interp", "--model", "wrel", "--depth", "2", "mu x. 1 + x"],
     {"formula", "relmodel"},
     {"totality", "phase", "semiring", "fractions", "dataclasses"}),
    (["phase-search", "--max-size", "3", "1 -o 1"], {"formula", "phase"},
     {"relmodel", "totality", "dataclasses"}),
    (["fix", "--expr", "{walk}"], {"newton"},
     {"formula", "relmodel", "totality", "phase", "poles", "semiring",
      "simplex", "dataclasses"}),
    (["admissible", "--pole", "nat"], {"poles"},
     {"formula", "relmodel", "totality", "phase", "newton", "simplex",
      "dataclasses"}),
    (["polar", "--generators", "{gens}", "--point", "{point}"],
     {"poles", "simplex"},
     {"formula", "relmodel", "totality", "phase", "newton", "dataclasses"}),
])
def test_each_command_imports_only_its_model(argv, needed, unused, tmp_path):
    files = {"walk": "x: 1/4 + 3/4 * x * x\n",
             "gens": "rows g h\ncols a b\ng a 1\nh b 1/2\n",
             "point": "rows v\ncols a b\nv a 1/2\nv b 1\n"}
    paths = {}
    for name, text in files.items():
        paths[name] = tmp_path / name
        paths[name].write_text(text)
    loaded = _cli_modules(*(arg.format(**paths) for arg in argv))
    assert needed <= loaded
    assert not loaded & (unused | {"fibration", "wrel"})
    command = "commands." + argv[0].replace("-", "_")
    assert {m for m in loaded if m.startswith("commands.")} == {command}
