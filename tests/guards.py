"""Runtime guards for two fault classes: host byte order and ambient authority.

The root ``conftest.py`` installs both before anything imports
``repro``, so every tier-1 test, claim test and in-process example runs
under them.  Each guard wraps a stdlib callable and looks at its *direct*
caller's file; a refused call raises :class:`GuardError`, a
``BaseException`` so that no ``except Exception`` in the code under test
can swallow it.

- **wire width** — a ``struct`` format must name its byte order (``<``,
  ``>`` or ``!``) when the caller is in ``src/repro``, ``benchmarks/``
  or ``examples/``: a native format packs different bytes on another
  host, and a round trip passes in either order.  ``struct.Struct`` is
  a refusing subclass; ``pack`` / ``unpack`` / ``pack_into`` /
  ``unpack_from`` / ``iter_unpack`` / ``calcsize`` are wrapped.
- **ambient authority** — ``src/repro`` takes time from the event loop
  and randomness from :mod:`repro.netsim.rng`, never from the process:
  ``time.time`` / ``time_ns`` / ``monotonic`` / ``monotonic_ns`` /
  ``sleep``, ``datetime.datetime.now`` / ``utcnow`` / ``today``, every
  ``socket`` function and socket, and ``os.urandom`` are refused from
  its frames.  Unseeded randomness is refused from all three trees: a
  module-level :mod:`random` function (one global, unseeded stream) or
  ``random.Random()`` with no seed.  An example is an application and
  may own its process's clock and sockets; what it hands the library
  must still be seeded.  ``time.perf_counter`` (a measurement, never
  behaviour) is not guarded.

A guard sees only what runs: a format, clock or socket call on a line
tier 1 never executes is not checked.
"""

from __future__ import annotations

import datetime
import functools
import os
import random
import socket
import struct
import sys
import time
from pathlib import Path
from types import FrameType
from typing import Any, Callable

__all__ = ["GuardError", "ROOT", "install"]

ROOT = Path(__file__).resolve().parents[1]
#: ``src/repro`` alone: the library, which owns no clock, socket or entropy.
PRODUCT = (str(ROOT / "src" / "repro") + os.sep,)
#: the library, the benchmarks and the examples.
TREES = PRODUCT + (str(ROOT / "benchmarks") + os.sep, str(ROOT / "examples") + os.sep)


class GuardError(BaseException):
    """A guarded call from a tree that may not make it."""


@functools.cache
def _absolute(filename: str) -> str:
    return os.path.abspath(filename)


def _refuse(frame: FrameType, scope: tuple[str, ...], message: str) -> None:
    path = _absolute(frame.f_code.co_filename)
    if path.startswith(scope):
        where = os.path.relpath(path, ROOT)
        raise GuardError(f"{where}:{frame.f_lineno} ({frame.f_code.co_name}): {message}")


# -- wire width ---------------------------------------------------------

def _check_format(fmt: Any, frame: FrameType) -> None:
    text = fmt.decode("ascii", "replace") if isinstance(fmt, bytes) else str(fmt)
    if not text.startswith(("<", ">", "!")):
        _refuse(frame, TREES, f"struct format {fmt!r} names no byte order "
                              "('<', '>' or '!'): its bytes depend on the host")


class _Struct(struct.Struct):
    __slots__ = ()

    def __init__(self, format: Any) -> None:  # noqa: A002 - struct's own name
        _check_format(format, sys._getframe(1))
        super().__init__(format)


def _format_guarded(function: Callable[..., Any]) -> Callable[..., Any]:
    @functools.wraps(function)
    def guarded(fmt: Any, *args: Any, **kwargs: Any) -> Any:
        _check_format(fmt, sys._getframe(1))
        return function(fmt, *args, **kwargs)

    return guarded


# -- ambient authority --------------------------------------------------

def _call_guarded(function: Callable[..., Any], name: str, scope: tuple[str, ...],
                  why: str = "simulated time comes from the event loop, randomness "
                             "from repro.netsim.rng") -> Callable[..., Any]:
    message = f"`{name}` takes authority from the process: {why}"

    @functools.wraps(function)
    def guarded(*args: Any, **kwargs: Any) -> Any:
        _refuse(sys._getframe(1), scope, message)
        return function(*args, **kwargs)

    return guarded


def _guard_random() -> None:
    for name in random.__all__:
        value = getattr(random, name)
        if getattr(value, "__self__", None) is random._inst:  # type: ignore[attr-defined]
            setattr(random, name, _call_guarded(value, f"random.{name}", TREES,
                                                "one global, unseeded stream"))
    seeded_init = random.Random.__init__

    def __init__(self: random.Random, x: Any = None) -> None:
        if x is None:
            _refuse(sys._getframe(1), TREES, "`random.Random()` with no seed draws from "
                    "OS entropy: seed it, or take a repro.netsim.rng substream")
        seeded_init(self, x)

    random.Random.__init__ = __init__  # type: ignore[method-assign]


def _guard_socket() -> None:
    for name in dir(socket):
        value = getattr(socket, name)
        if not name.startswith("_") and callable(value) and not isinstance(value, type):
            setattr(socket, name, _call_guarded(value, f"socket.{name}", PRODUCT))
    socket_init = socket.socket.__init__

    def __init__(self: socket.socket, *args: Any, **kwargs: Any) -> None:
        _refuse(sys._getframe(1), PRODUCT, "`socket.socket` opens a real socket: the "
                "library talks through netsim links")
        socket_init(self, *args, **kwargs)

    socket.socket.__init__ = __init__  # type: ignore[method-assign]


class _Datetime(datetime.datetime):
    """``datetime.datetime`` with its three clock reads guarded."""

    __slots__ = ()

    @classmethod
    def now(cls, tz: Any = None) -> Any:
        _refuse(sys._getframe(1), PRODUCT, "`datetime.datetime.now` reads the wall clock")
        return super().now(tz)

    @classmethod
    def utcnow(cls) -> Any:
        _refuse(sys._getframe(1), PRODUCT, "`datetime.datetime.utcnow` reads the wall clock")
        return super().utcnow()

    @classmethod
    def today(cls) -> Any:
        _refuse(sys._getframe(1), PRODUCT, "`datetime.datetime.today` reads the wall clock")
        return super().today()


def install() -> None:
    """Install both guards; call it once."""
    struct.Struct = _Struct  # type: ignore[misc]
    for name in ("pack", "unpack", "pack_into", "unpack_from", "iter_unpack", "calcsize"):
        setattr(struct, name, _format_guarded(getattr(struct, name)))
    for name in ("time", "time_ns", "monotonic", "monotonic_ns", "sleep"):
        setattr(time, name, _call_guarded(getattr(time, name), f"time.{name}", PRODUCT))
    os.urandom = _call_guarded(os.urandom, "os.urandom", PRODUCT)
    datetime.datetime = _Datetime  # type: ignore[misc]
    _guard_random()
    _guard_socket()
