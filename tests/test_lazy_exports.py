"""The packages' lazy re-exports, and what importing a module loads.

Each package ``__init__`` that re-exports names resolves them on first
read (:mod:`repro._lazy`).  These tests pin that the lazy names are the
defining modules' objects, and that a light import stays light.
"""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro._lazy import _TABLES

REPO_SRC = str(Path(__file__).resolve().parents[1] / "src")

LAZY_PACKAGES = (
    "repro",
    "repro.api",
    "repro.core",
    "repro.scenario",
    "repro.service",
    "repro.verification",
)


def _loaded_after(statement: str, *names: str) -> list[str]:
    """The ``names`` in ``sys.modules`` after ``statement`` in a fresh process."""
    script = (
        "import json, sys\n"
        f"sys.path.insert(0, {REPO_SRC!r})\n"
        f"{statement}\n"
        f"print(json.dumps([n for n in {list(names)!r} if n in sys.modules]))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True
    ).stdout
    return json.loads(out)


@pytest.mark.parametrize("name", LAZY_PACKAGES)
def test_every_export_is_its_defining_modules_object(name):
    package = importlib.import_module(name)
    table = _TABLES[name]
    assert set(table) <= set(package.__all__)
    listing = dir(package)
    for export in package.__all__:
        assert export in listing
        if export not in table:  # a plain global such as ``__version__``
            assert export in vars(package)
            continue
        defining = importlib.import_module(table[export])
        assert getattr(package, export) is getattr(defining, export), export


@pytest.mark.parametrize("name", LAZY_PACKAGES)
def test_an_unknown_name_raises_attribute_error(name):
    package = importlib.import_module(name)
    with pytest.raises(AttributeError, match="has no attribute 'NoSuchName'"):
        package.NoSuchName  # noqa: B018
    assert not hasattr(package, "NoSuchName")


def test_from_import_and_star_import():
    from repro.verification import Box
    from repro.verification.sets import Box as defined

    assert Box is defined
    namespace: dict = {}
    exec("from repro.verification import *", namespace)
    assert namespace["CegarLoop"].__module__ == "repro.verification.cegar"


def test_a_namesake_submodule_does_not_shadow_the_export():
    """``verification.prescreen`` is the function even when the module
    ``verification.prescreen`` loaded first, as with an eager import."""
    script = (
        "import sys\n"
        f"sys.path.insert(0, {REPO_SRC!r})\n"
        "import repro.verification.prescreen, repro.verification.output_range\n"
        "import repro.scenario.affordances\n"
        "from repro.verification import output_range, prescreen\n"
        "from repro.scenario import affordances\n"
        "for f in (output_range, prescreen, affordances):\n"
        "    assert sys.modules[f.__module__].__dict__[f.__name__] is f, f\n"
        "print('ok')\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "ok"


def test_service_client_imports_the_standard_library_only():
    assert _loaded_after(
        "import repro.service.client", "numpy", "scipy", "repro.service.jobs"
    ) == []


def test_cli_import_loads_no_subcommand():
    assert _loaded_after(
        "import repro.cli", "numpy", "scipy", "repro.api", "repro.core"
    ) == []
