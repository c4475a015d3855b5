"""The package's public names load on first use.

Each check runs in a fresh interpreter, since this one has long since
imported every module."""

import ast
import itertools
import pathlib

import pytest

from test_geometry import run_fresh


def test_import_loads_no_submodule():
    code = """
import semiheat
print(sorted(m for m in sys.modules if m.startswith("semiheat")))
print([m for m in ("hashlib", "json", "orjson", "scipy") if m in sys.modules])
"""
    assert run_fresh(code).splitlines() == ["['semiheat']", "[]"]


def test_building_manifolds_loads_only_geometry():
    code = """
import semiheat
semiheat.build_manifold("euclidean_radial", 3, 10.0, 64)
semiheat.build_manifold("circle", 1, 6.0, 64)
print(sorted(m for m in sys.modules if m.startswith("semiheat")))
"""
    assert run_fresh(code) == "['semiheat', 'semiheat.geometry']"


def test_public_names_are_their_home_modules_objects():
    code = """
import importlib, semiheat
for name in semiheat.__all__:
    home = importlib.import_module("semiheat." + semiheat._HOME[name])
    assert getattr(semiheat, name) is getattr(home, name), name
    assert getattr(getattr(home, name), "__module__", home.__name__) == home.__name__, name
print(len(semiheat.__all__))
"""
    assert run_fresh(code) == "52"


def test_star_import_binds_every_public_name():
    code = """
import semiheat
names = set(semiheat.__all__)
from semiheat import *
print(len(names), names <= set(globals()), names <= set(dir(semiheat)))
"""
    assert run_fresh(code) == "52 True True"


def test_no_module_reads_the_environment():
    # every setting comes from the caller (arguments, options, the config);
    # with test_config_schema_keys, no removed setting comes back unnoticed
    src = pathlib.Path(__file__).resolve().parent.parent / "src" / "semiheat"
    names = {"environ", "environb", "getenv", "getenvb"}
    reads = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Attribute) and node.attr in names:
                reads.append(f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                reads.extend(f"{path.name}:{node.lineno}" for alias in node.names if alias.name in names)
    assert len(list(src.glob("*.py"))) >= 10
    assert reads == []


def test_unknown_name_raises_attribute_error():
    code = """
import semiheat
try:
    semiheat.no_such_name
except AttributeError as exc:
    print(exc)
print(hasattr(semiheat, "numpy"))
"""
    assert run_fresh(code).splitlines() == ["module 'semiheat' has no attribute 'no_such_name'", "False"]


_EVOLVE_IMPORTS = (
    "import semiheat.experiment",
    "import semiheat.evolve as ev",
    "importlib.import_module('semiheat.evolve')",
)


@pytest.mark.parametrize("order", list(itertools.permutations(_EVOLVE_IMPORTS)))
def test_evolve_stays_the_function_in_every_import_order(order):
    # the first statement runs before any access to semiheat.evolve, the
    # others after it; both must leave the name bound to the function
    steps = "\n".join(f"{statement}\ncheck()" for statement in order)
    code = f"""
import importlib, semiheat
def check():
    module = sys.modules["semiheat.evolve"]
    assert semiheat.evolve is module.evolve and callable(semiheat.evolve), semiheat.evolve
{steps}
print(importlib.import_module("semiheat.evolve").__name__)
"""
    assert run_fresh(code) == "semiheat.evolve"


def test_submodule_names_still_resolve():
    code = """
import semiheat
from semiheat import geometry
print(geometry.__name__, semiheat.geometry is geometry, semiheat.estimates.__name__)
"""
    assert run_fresh(code) == "semiheat.geometry True semiheat.estimates"


def test_sweep_workers_inherit_the_lapack_module():
    # the sweep runner forks its workers after the CLI is imported; the
    # LAPACK load must be done by then, or each worker repeats it
    code = """
import semiheat.cli
print("scipy.linalg._flapack" in sys.modules)
"""
    assert run_fresh(code) == "True"
