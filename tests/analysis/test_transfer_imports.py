"""What a transfer loads: the workloads import no figure model.

The ``layering`` pass holds the static imports (no transfer-path package
may import ``repro.paper``); this guard holds what the package facades
pull in at run time.  In a fresh interpreter, importing the end-to-end
workloads (every transfer the benchmark runs) loads at most
:data:`TRANSFER_MODULES` ``repro`` modules, and none under
``repro.paper``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).parents[2]

#: ``repro`` modules ``import bench_e2e.workloads`` loads (the package
#: roots included).
TRANSFER_MODULES = 50

_PROBE = (
    "import json, sys; import bench_e2e.workloads; "
    "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'repro')))"
)


def test_the_workloads_load_no_figure_model():
    path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    probe = subprocess.run([sys.executable, "-c", _PROBE], cwd=REPO, check=True, text=True,
                           capture_output=True, env={**os.environ, "PYTHONPATH": path})
    loaded = json.loads(probe.stdout)
    assert not [m for m in loaded if m.startswith("repro.paper")], loaded
    assert len(loaded) <= TRANSFER_MODULES, loaded
