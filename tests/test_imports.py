"""The package imports without scipy, which is not one of its dependencies,
and every name it exports resolves."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_CHECK = """
import importlib, pkgutil, sys
import qwalk2d
names = [info.name for info in pkgutil.iter_modules(qwalk2d.__path__, "qwalk2d.")]
for name in names:
    importlib.import_module(name)
assert {"qwalk2d.cli", "qwalk2d.dynamics", "qwalk2d.revival"} <= set(names), names
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_package_and_every_submodule_import_without_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-c", _CHECK], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_every_exported_name_resolves():
    # tools look the public names up one by one, so a stale __all__ entry
    # breaks them (and ``from qwalk2d import *``)
    import qwalk2d

    modules = [qwalk2d] + [
        importlib.import_module(info.name)
        for info in pkgutil.iter_modules(qwalk2d.__path__, "qwalk2d.")
    ]
    for module in modules:
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)


def test_top_level_exports_exactly_the_library_modules_names():
    # each public name is declared once, in its own module's __all__
    import qwalk2d
    from qwalk2d import dynamics, revival, spectral, states

    library = (dynamics, revival, spectral, states)
    joined = [name for module in library for name in module.__all__]
    assert len(set(qwalk2d.__all__)) == len(qwalk2d.__all__)
    assert qwalk2d.__all__ == joined
    for module in library:
        for name in module.__all__:
            assert getattr(qwalk2d, name) is getattr(module, name), name
