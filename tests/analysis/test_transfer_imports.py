"""What each layer loads: imports follow the architecture DAG.

The transfer path stacks strictly, and the figure models sit above it::

    core ─► {wsc, netsim} ─► host ─► transport ─► app ─► paper

A lower layer never imports upward — a ``core`` module that peeks at
``transport`` state is the in-repo analogue of a network layer reading
across framing levels, which the self-describing chunk exists to
forbid.  ``obs`` is importable from every layer and itself needs only
``core``; ``analysis`` (the lifecycle checker) may import the transfer
path, and nothing imports it.  :data:`ALLOWED_IMPORTS` is the
machine-readable form of the DAG in ``docs/architecture.md``; change
them together.

Each layer is probed in a fresh interpreter that imports every module
of ``repro.<layer>`` and reports which ``repro`` packages got loaded.
An import made only inside a function that the probe does not call is
not seen.  A second probe holds what a transfer loads: importing the
end-to-end workloads loads at most :data:`TRANSFER_MODULES` ``repro``
modules, and none under ``repro.paper``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).parents[2]

_TRANSFER_STACK = frozenset({"core", "wsc", "netsim", "host", "transport"})

#: layer -> the other layers importing it may load (``obs`` aside).
ALLOWED_IMPORTS: dict[str, frozenset[str]] = {
    "core": frozenset(),
    "wsc": frozenset({"core"}),
    "netsim": frozenset({"core"}),
    "host": frozenset({"core", "wsc"}),
    "transport": frozenset({"core", "wsc", "netsim", "host"}),
    "app": _TRANSFER_STACK,
    "paper": _TRANSFER_STACK | {"app"},
    "obs": frozenset({"core"}),
    "analysis": _TRANSFER_STACK | {"obs"},
}

#: ``repro`` modules ``import bench_e2e.workloads`` loads (the package
#: roots included).
TRANSFER_MODULES = 50

_LAYER_PROBE = """
import importlib, json, pkgutil, sys
package = importlib.import_module("repro." + sys.argv[1])
for info in pkgutil.walk_packages(package.__path__, package.__name__ + "."):
    if not info.name.endswith(".__main__"):
        importlib.import_module(info.name)
print(json.dumps(sorted(m for m in sys.modules if m.startswith("repro."))))
"""

_WORKLOAD_PROBE = (
    "import json, sys; import bench_e2e.workloads; "
    "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'repro')))"
)


def _probe(*argv: str) -> subprocess.Popen:
    path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.Popen([sys.executable, "-c", *argv], cwd=REPO, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env={**os.environ, "PYTHONPATH": path})


def _loaded(probe: subprocess.Popen) -> list[str]:
    out, err = probe.communicate()
    assert probe.returncode == 0, err
    return json.loads(out)


@pytest.fixture(scope="module")
def loaded_by_layer() -> dict[str, list[str]]:
    """layer -> the ``repro`` modules its probe loaded (the probes run side by side)."""
    probes = {layer: _probe(_LAYER_PROBE, layer) for layer in ALLOWED_IMPORTS}
    return {layer: _loaded(probe) for layer, probe in probes.items()}


def test_every_package_is_in_the_dag():
    packages = {path.name for path in (REPO / "src" / "repro").iterdir()
                if (path / "__init__.py").exists()}
    assert packages == set(ALLOWED_IMPORTS)


@pytest.mark.parametrize("layer", sorted(ALLOWED_IMPORTS))
def test_a_layer_loads_only_what_the_dag_allows(layer, loaded_by_layer):
    allowed = ALLOWED_IMPORTS[layer] | {layer, "obs"}
    upward = [m for m in loaded_by_layer[layer] if m.split(".")[1] not in allowed]
    assert not upward, f"repro.{layer} loads {upward} (allowed: {sorted(allowed)})"


def test_the_workloads_load_no_figure_model():
    loaded = _loaded(_probe(_WORKLOAD_PROBE))
    assert not [m for m in loaded if m.startswith("repro.paper")], loaded
    assert len(loaded) <= TRANSFER_MODULES, loaded
