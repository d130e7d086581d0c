"""``__all__`` is each module's real surface, read off the live objects.

Imports every ``repro`` module (``__main__`` entry points aside) and
``benchmarks/_common.py``: every ``__all__`` name resolves; every public
function or class a module defines is in its ``__all__``, which must
exist; a defined ``encode_X`` has its ``decode_X``, and back; and no
module but ``repro.core.errors`` defines an exception class, so that
``except ReproError`` stays complete.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import sys
from pathlib import Path

import repro


def test_all_is_the_live_surface() -> None:
    sys.path.append(str(Path(__file__).parents[2] / "benchmarks"))  # bench scripts' ``_common``
    names = [info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")]
    names = ["repro", "_common", *(name for name in names if not name.endswith(".__main__"))]
    problems = []
    for mod in map(importlib.import_module, names):
        name, exported = mod.__name__, getattr(mod, "__all__", None)
        defined = {key for key, value in vars(mod).items() if not key.startswith("_")
                   and (inspect.isfunction(value) or inspect.isclass(value))
                   and value.__module__ == name}
        if exported is None and defined:
            problems.append(f"{name}: no __all__, defines {sorted(defined)}")
        problems += [f"{name}: __all__ lists unbound {key!r}"
                     for key in exported or () if not hasattr(mod, key)]
        problems += [f"{name}: public {key} is not in __all__"
                     for key in sorted(defined - set(exported or defined))]
        problems += [f"{name}: exception class {key} outside repro.core.errors"
                     for key, value in vars(mod).items()
                     if inspect.isclass(value) and issubclass(value, BaseException)
                     and value.__module__ == name != "repro.core.errors"]
        for key in sorted(defined):
            for half, twin in (("encode_", "decode_"), ("decode_", "encode_")):
                if key.startswith(half) and twin + key[7:] not in defined:
                    problems.append(f"{name}: {key} has no {twin}{key[7:]}")
    assert len(names) > 80 and not problems, "\n".join(problems)
