import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sdpsat

ROOT = Path(__file__).resolve().parent.parent

SEARCH = {"instance", "sdp", "bounds", "rounding", "config", "search"}

# the sdpsat modules, besides the package, that importing each one loads
LAYERS = {
    "instance": {"instance"},
    "sdp": {"instance", "sdp"},
    "bounds": {"instance", "sdp", "bounds"},
    "rounding": {"instance", "sdp", "rounding"},
    "config": {"instance", "sdp", "config"},
    "oracle": {"instance", "oracle"},
    "generate": {"instance", "generate"},
    "search": SEARCH,
    "cli": SEARCH | {"oracle", "generate", "cli"},
}


def test_package_holds_only_its_version():
    """The package file is its docstring and __version__: it imports and
    re-exports nothing, so every name is imported from its own module."""
    tree = ast.parse(Path(sdpsat.__file__).read_text())
    assert [type(node) for node in tree.body] == [ast.Expr, ast.Assign]
    assert sdpsat.__version__ == "0.1.0"


@pytest.mark.parametrize("module", LAYERS)
def test_import_loads_only_the_layers_below(module):
    """In a fresh interpreter, `import sdpsat.<module>` loads exactly that
    module's layer and the layers under it: the import-time counterpart of
    test_instance_imports_no_solver_module."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    code = (f"import sys, sdpsat.{module}; print(*(name[len('sdpsat.'):]"
            " for name in sys.modules if name.startswith('sdpsat.')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert set(proc.stdout.split()) == LAYERS[module]
