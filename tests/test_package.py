"""The package root imports its submodules lazily (PEP 562)."""

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


# dataclasses (with inspect behind it) costs a CLI child several
# milliseconds, so no command imports it: the value classes are Records
@pytest.mark.parametrize("argv,needed,unused", [
    (["variance", "mu x. 1 + x"], {"formula"},
     {"relmodel", "totality", "phase", "wrel", "dataclasses"}),
    (["interp", "--model", "rel", "--depth", "2", "mu x. 1 + x"],
     {"formula", "relmodel"}, {"totality", "phase", "wrel", "dataclasses"}),
    (["interp", "--model", "totality", "--depth", "2", "mu x. 1 + x"],
     {"formula", "relmodel", "totality"}, {"phase", "wrel", "dataclasses"}),
    (["interp", "--model", "wrel", "--depth", "2", "mu x. 1 + x"],
     {"formula", "relmodel", "semiring"},
     {"totality", "phase", "wrel", "dataclasses"}),
    (["phase-search", "--max-size", "3", "1 -o 1"], {"formula", "phase"},
     {"relmodel", "totality", "wrel", "dataclasses"}),
    (["fix", "--expr", "{walk}"], {"wrel", "newton"},
     {"formula", "relmodel", "totality", "phase", "dataclasses"}),
    (["admissible", "--pole", "nat"], {"wrel"},
     {"formula", "relmodel", "totality", "phase", "newton", "dataclasses"}),
])
def test_each_command_imports_only_its_model(argv, needed, unused, tmp_path):
    walk = tmp_path / "walk.fx"
    walk.write_text("x: 1/4 + 3/4 * x * x\n")
    loaded = _cli_modules(*(arg.format(walk=walk) for arg in argv))
    assert needed <= loaded
    assert not loaded & unused
